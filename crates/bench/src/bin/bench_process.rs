//! Process-level bench orchestrator: the fig5(f) wire cell run as real OS
//! processes. Spawns one release-built `bq-serve` plus N `wire_client`
//! processes over a Unix-domain socket (or TCP), collects each client's
//! single-line JSON summary, merges the latency histograms bit-exactly
//! (`bq_obs::Histogram::merge`), and reports modeled-transit percentiles
//! next to real kernel round-trip percentiles.
//!
//! ```text
//! bench_process [--quick] [--uds PATH | --tcp ADDR] [--clients N]
//!               [--bin-dir DIR] [--trace-dir DIR]
//! ```
//!
//! The modeled metrics (`makespan_wire_*`, `wire_transit_*`) are pure
//! virtual time and deterministic; only the `throughput_rtt_*` inverse
//! rates carry wall clock, and the CI gate runs those with wide
//! tolerances. The run ends with a single-line JSON summary
//! (`{"bench":"wire_process",...}`) gated against `bench/baselines/`.

use bq_bench::process::{merge_report, parse_client_summary, ClientSummary};
use bq_bench::{BenchReport, RunScale};
use std::path::PathBuf;
use std::process::{Command, Stdio};

struct Args {
    uds: Option<String>,
    tcp: Option<String>,
    clients: usize,
    bin_dir: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        uds: None,
        tcp: None,
        clients: 4,
        bin_dir: None,
        trace_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--quick" => {} // consumed by RunScale::from_args
            "--uds" => args.uds = Some(value("--uds")?),
            "--tcp" => args.tcp = Some(value("--tcp")?),
            "--clients" => {
                args.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--bin-dir" => args.bin_dir = Some(PathBuf::from(value("--bin-dir")?)),
            "--trace-dir" => args.trace_dir = Some(PathBuf::from(value("--trace-dir")?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.uds.is_some() && args.tcp.is_some() {
        return Err("pass at most one of --uds and --tcp".to_string());
    }
    Ok(args)
}

/// Directory holding the sibling `bq-serve` / `wire_client` binaries
/// (`--bin-dir` override, else wherever this orchestrator itself lives).
fn locate_bin_dir(over: Option<PathBuf>) -> Result<PathBuf, String> {
    if let Some(dir) = over {
        return Ok(dir);
    }
    std::env::current_exe()
        .map_err(|e| format!("current_exe: {e}"))?
        .parent()
        .map(PathBuf::from)
        .ok_or_else(|| "orchestrator binary has no parent directory".to_string())
}

fn main() {
    bq_bench::run("wire_process", orchestrate);
}

/// Run the server and the clients at `scale` and merge their summaries.
fn orchestrate(scale: RunScale) -> BenchReport {
    let args = match parse_args() {
        Ok(args) => args,
        Err(detail) => {
            eprintln!("bench_process: {detail}");
            std::process::exit(2);
        }
    };
    let fail = |detail: String| -> ! {
        eprintln!("bench_process: {detail}");
        std::process::exit(1);
    };
    let bin_dir = locate_bin_dir(args.bin_dir).unwrap_or_else(|e| fail(e));
    let serve_bin = bin_dir.join("bq-serve");
    let client_bin = bin_dir.join("wire_client");
    for bin in [&serve_bin, &client_bin] {
        if !bin.exists() {
            fail(format!(
                "{} not found — build it first (cargo build --release -p bq-wire -p bq-bench)",
                bin.display()
            ));
        }
    }

    // The same cell grid as the in-process fig5(f) sweep at this scale;
    // client k models latency k mod |grid|.
    let latencies: &[f64] = match scale {
        RunScale::Quick => &[0.0, 0.05, 0.5],
        RunScale::Full => &[0.0, 0.01, 0.05, 0.2, 0.5],
    };
    let endpoint_args: Vec<String> = match (&args.uds, &args.tcp) {
        (_, Some(addr)) => vec!["--tcp".to_string(), addr.clone()],
        (Some(path), None) => vec!["--uds".to_string(), path.clone()],
        (None, None) => {
            let path = std::env::temp_dir().join(format!("bq-serve-{}.sock", std::process::id()));
            vec!["--uds".to_string(), path.display().to_string()]
        }
    };

    let mut server = Command::new(&serve_bin)
        .args(&endpoint_args)
        .args(["--benchmark", "tpcds", "--scale", "1", "--seed", "0"])
        .args(["--accept-limit", &args.clients.to_string()])
        .stdin(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| fail(format!("spawning {}: {e}", serve_bin.display())));

    // All clients run concurrently: real processes contending on real
    // sockets, while each episode's virtual time stays deterministic.
    let mut children = Vec::new();
    for k in 0..args.clients {
        let transit = latencies[k % latencies.len()];
        let mut cmd = Command::new(&client_bin);
        cmd.args(&endpoint_args)
            .args(["--round", "0", "--transit", &transit.to_string()])
            .args(["--benchmark", "tpcds", "--scale", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if let Some(dir) = &args.trace_dir {
            cmd.args([
                "--trace-out",
                &dir.join(format!("trace_wire_client_{k}.jsonl"))
                    .display()
                    .to_string(),
            ]);
        }
        let child = cmd
            .spawn()
            .unwrap_or_else(|e| fail(format!("spawning client {k}: {e}")));
        children.push((k, child));
    }

    let mut summaries: Vec<ClientSummary> = Vec::new();
    for (k, child) in children {
        let output = child
            .wait_with_output()
            .unwrap_or_else(|e| fail(format!("waiting for client {k}: {e}")));
        if !output.status.success() {
            fail(format!("client {k} exited with {}", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout
            .lines()
            .last()
            .unwrap_or_else(|| fail(format!("client {k} printed no summary")));
        match parse_client_summary(line) {
            Ok(summary) => summaries.push(summary),
            Err(e) => fail(format!("client {k}: {e}")),
        }
    }
    let status = server
        .wait()
        .unwrap_or_else(|e| fail(format!("waiting for bq-serve: {e}")));
    if !status.success() {
        fail(format!("bq-serve exited with {status}"));
    }

    merge_report(&summaries)
}
