//! Regenerates fig5 of the BQSched paper. Pass `--quick` for the reduced
//! configuration CI runs.
//! The run ends with a single-line JSON summary on stdout
//! (`{"bench":"fig5",...,"metrics":{...}}`) so perf trajectories can be
//! captured mechanically and gated against `bench/baselines/`:
//! `cargo run --release -p bq-bench --bin fig5 -- --quick | tail -n 1`.
//! Pass `--trace-out <path>` to also dump the canonical per-episode trace
//! artifact (JSONL, one typed event per line) for CI upload.
fn main() {
    let scale = bq_bench::RunScale::from_args();
    let start = std::time::Instant::now();
    let report = bq_bench::fig5_report(scale);
    println!("{}", report.text);
    if let Some(path) = bq_bench::trace_out_from_args() {
        std::fs::write(&path, bq_bench::trace_artifact()).expect("writing trace artifact");
        eprintln!("trace artifact written to {}", path.display());
    }
    bq_bench::emit_summary_with_metrics("fig5", scale, start, &report.metrics);
}
