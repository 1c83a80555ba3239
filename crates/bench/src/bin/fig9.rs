//! Regenerates fig9 of the BQSched paper. Pass `--quick` for the reduced
//! configuration CI runs.
//! The run ends with a single-line JSON summary on stdout
//! (`{"bench":"fig9",...}`) so perf trajectories can be captured
//! mechanically: `cargo run --release -p bq-bench --bin fig9 -- --quick | tail -n 1`.
fn main() {
    let scale = bq_bench::RunScale::from_args();
    let start = std::time::Instant::now();
    println!("{}", bq_bench::fig9(scale));
    bq_bench::emit_summary("fig9", scale, start);
}
