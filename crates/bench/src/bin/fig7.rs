//! Regenerates fig7 of the BQSched paper. Pass `--quick` for the reduced
//! configuration CI runs.
//! The run ends with a single-line JSON summary on stdout
//! (`{"bench":"fig7",...,"metrics":{...}}`) so perf trajectories can be
//! captured mechanically and gated against `bench/baselines/`:
//! `cargo run --release -p bq-bench --bin fig7 -- --quick | tail -n 1`.
fn main() {
    let scale = bq_bench::RunScale::from_args();
    let start = std::time::Instant::now();
    let report = bq_bench::fig7_report(scale);
    println!("{}", report.text);
    bq_bench::emit_summary_with_metrics("fig7", scale, start, &report.metrics);
}
