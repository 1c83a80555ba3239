//! Figure 8: query-cluster-count sensitivity.
//! `cargo run --release -p bq-bench --bin fig8 -- --quick` runs the reduced
//! configuration; [`bq_bench::run`] describes the output and `--trace-out`.
fn main() {
    bq_bench::run("fig8", bq_bench::fig8);
}
