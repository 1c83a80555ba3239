//! `bq-serve` — the execution engine as its own OS process.
//!
//! Binds a TCP or Unix-domain socket, builds the workload and engine from
//! the flags, and pumps a [`bq_wire::WireServer`] over every accepted
//! connection, so a scheduling session in another process drives it through
//! real kernel sockets (see `docs/OPERATIONS.md`).
//!
//! Two serving modes:
//!
//! * **default** — one fresh engine per connection, each served on its own
//!   thread. Every client gets an identical, independent engine (same
//!   `--seed`), so accept order cannot influence any episode; this is the
//!   mode the process-level bench orchestrator uses. Threads whose
//!   connection has ended are joined on the next accept, so a long-running
//!   server does not keep their stacks.
//! * **`--single-session`** — one engine and one protocol session persist
//!   across sequential connections: a client that loses its connection
//!   reconnects and continues the same episode (epoch bump, cached-response
//!   replay for retransmitted requests). This is the restart-recovery mode
//!   the socket edge-case tests exercise. Connections are served one at a
//!   time, so a connection that never sends its preamble holds the session
//!   until the idle budget (60 s) runs out.

use bq_dbms::{DbmsProfile, ExecutionEngine};
use bq_plan::{generate, Benchmark, WorkloadSpec};
use bq_wire::net::{serve_connection, ServerSocket};
use bq_wire::WireServer;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Consecutive quiet reads (100 ms each) before an idle connection is
/// dropped.
const IDLE_BUDGET: u32 = 600;

struct Args {
    tcp: Option<String>,
    uds: Option<String>,
    benchmark: Benchmark,
    scale: f64,
    seed: u64,
    accept_limit: Option<u64>,
    single_session: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tcp: None,
        uds: None,
        benchmark: Benchmark::TpcDs,
        scale: 1.0,
        seed: 0,
        accept_limit: None,
        single_session: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--tcp" => args.tcp = Some(value("--tcp")?),
            "--uds" => args.uds = Some(value("--uds")?),
            "--benchmark" => {
                args.benchmark = match value("--benchmark")?.as_str() {
                    "tpcds" => Benchmark::TpcDs,
                    "tpch" => Benchmark::TpcH,
                    "job" => Benchmark::Job,
                    other => return Err(format!("unknown benchmark {other:?}")),
                }
            }
            "--scale" => {
                args.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--accept-limit" => {
                args.accept_limit = Some(
                    value("--accept-limit")?
                        .parse()
                        .map_err(|e| format!("--accept-limit: {e}"))?,
                )
            }
            "--single-session" => args.single_session = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.tcp.is_some() == args.uds.is_some() {
        return Err("exactly one of --tcp ADDR or --uds PATH is required".to_string());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(detail) => {
            eprintln!("bq-serve: {detail}");
            eprintln!(
                "usage: bq-serve (--tcp ADDR | --uds PATH) [--benchmark tpcds|tpch|job] \
                 [--scale F] [--seed N] [--accept-limit N] [--single-session]"
            );
            std::process::exit(2);
        }
    };
    let bind = |detail: String| -> ! {
        eprintln!("bq-serve: bind failed: {detail}");
        std::process::exit(1);
    };
    let mut socket = match (&args.tcp, &args.uds) {
        (Some(addr), None) => ServerSocket::bind_tcp(addr).unwrap_or_else(|e| bind(e.to_string())),
        (None, Some(path)) => ServerSocket::bind_uds(path).unwrap_or_else(|e| bind(e.to_string())),
        _ => unreachable!("parse_args enforces exactly one endpoint"),
    };
    eprintln!("bq-serve: listening on {}", socket.local_addr());

    let spec = WorkloadSpec::new(args.benchmark, args.scale, 1);
    // The engines only borrow the workload, so every connection shares one.
    let workload = Arc::new(generate(&spec));
    let profile = DbmsProfile::dbms_x();

    if args.single_session {
        // One engine, one protocol session, across sequential connections.
        let mut server = WireServer::new(ExecutionEngine::new(profile, &workload, args.seed));
        let mut direction = (0u64, 0.0f64);
        let mut accepted = 0u64;
        while args.accept_limit.is_none_or(|limit| accepted < limit) {
            let mut conn = match socket.accept() {
                Ok(conn) => conn,
                Err(e) => {
                    eprintln!("bq-serve: accept failed: {e}");
                    continue;
                }
            };
            accepted += 1;
            // Continue the server→client latency stream where the previous
            // connection left it, so the reconnected episode models the
            // same link.
            conn.adopt_direction(direction);
            serve_connection(&mut server, &mut conn, IDLE_BUDGET);
            direction = conn.direction_state();
        }
        return;
    }

    // Thread-per-connection: a fresh engine per client, accept order
    // irrelevant.
    let mut handles = Vec::new();
    let mut accepted = 0u64;
    while args.accept_limit.is_none_or(|limit| accepted < limit) {
        let mut conn = match socket.accept() {
            Ok(conn) => conn,
            Err(e) => {
                eprintln!("bq-serve: accept failed: {e}");
                continue;
            }
        };
        accepted += 1;
        for _ in 0..reap_finished(&mut handles) {
            eprintln!("bq-serve: connection thread panicked");
        }
        let workload = Arc::clone(&workload);
        let profile = profile.clone();
        let seed = args.seed;
        handles.push(std::thread::spawn(move || {
            let mut server = WireServer::new(ExecutionEngine::new(profile, &workload, seed));
            serve_connection(&mut server, &mut conn, IDLE_BUDGET);
        }));
    }
    for handle in handles {
        if handle.join().is_err() {
            eprintln!("bq-serve: connection thread panicked");
        }
    }
}

/// Join and drop the connection threads that have finished, so their stacks
/// are freed while the server keeps accepting; running threads stay.
/// Returns how many of the joined threads panicked.
fn reap_finished(handles: &mut Vec<JoinHandle<()>>) -> usize {
    handles
        .extract_if(.., |handle| handle.is_finished())
        .map(JoinHandle::join)
        .filter(Result::is_err)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn reaping_joins_finished_threads_keeps_running_ones_and_counts_panics() {
        let (release, hold) = mpsc::channel::<()>();
        let mut handles = vec![
            std::thread::spawn(|| {}),
            std::thread::spawn(move || {
                let _ = hold.recv();
            }),
            std::thread::spawn(|| panic!("a connection thread failed")),
        ];
        while !(handles[0].is_finished() && handles[2].is_finished()) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(reap_finished(&mut handles), 1, "one panicked thread");
        assert_eq!(handles.len(), 1, "the finished threads are gone");
        assert!(!handles[0].is_finished(), "the running thread stays");
        assert_eq!(reap_finished(&mut handles), 0);
        assert_eq!(handles.len(), 1);

        release
            .send(())
            .expect("the running thread holds the receiver");
        while !handles[0].is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(reap_finished(&mut handles), 0);
        assert!(handles.is_empty());
    }
}
