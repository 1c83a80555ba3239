//! Figure 6: training cost.
//! `cargo run --release -p bq-bench --bin fig6 -- --quick` runs the reduced
//! configuration; [`bq_bench::run`] describes the output and `--trace-out`.
fn main() {
    bq_bench::run("fig6", bq_bench::fig6);
}
