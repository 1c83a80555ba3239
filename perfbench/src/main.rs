//! `perfbench` — run one workload of the benchmark and print its result.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--serve-bin PATH] [--out DIR]
//! ```
//!
//! Prints a human-readable table, then, as the last line of standard
//! output, one JSON object with the keys `correct`, `attempted`, `failed`
//! and `metrics`. `perfbench/run.py` builds this binary and `bq-serve`
//! first; see `perfbench/README.md`.

use perfbench::bench::{run, Config};
use std::path::PathBuf;

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut out_dir = PathBuf::from(".perfbench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--out" => out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        serve_bin,
        out_dir,
    })
}

fn main() {
    let config = match parse_args() {
        Ok(config) => config,
        Err(detail) => {
            eprintln!("perfbench: {detail}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                 [--serve-bin PATH] [--out DIR]"
            );
            std::process::exit(2);
        }
    };
    let report = match run(&config) {
        Ok(report) => report,
        Err(detail) => {
            eprintln!("perfbench: {detail}");
            std::process::exit(1);
        }
    };

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        config.workload,
        config.seed,
        config.seconds,
        u8::from(config.trace)
    );
    for (name, value) in &report.host {
        println!("  {name:<34} {value:>18}");
    }
    for m in &report.metrics {
        println!("  {:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<34} {:>18} ({} of {} attempted)",
        "checks failed",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for failure in &report.failures {
        eprintln!("perfbench: CHECK FAILED: {failure}");
    }

    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if report.failed > 0 {
        std::process::exit(1);
    }
}
