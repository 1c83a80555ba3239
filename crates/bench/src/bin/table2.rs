//! Regenerates table2 of the BQSched paper. Pass `--quick` for the reduced
//! configuration CI runs.
//! The run ends with a single-line JSON summary on stdout
//! (`{"bench":"table2",...}`) so perf trajectories can be captured
//! mechanically: `cargo run --release -p bq-bench --bin table2 -- --quick | tail -n 1`.
fn main() {
    let scale = bq_bench::RunScale::from_args();
    let start = std::time::Instant::now();
    println!("{}", bq_bench::table2(scale));
    bq_bench::emit_summary("table2", scale, start);
}
