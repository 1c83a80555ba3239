//! Table III: simulator ablation, plus the decision-loop throughput.
//! `cargo run --release -p bq-bench --bin table3 -- --quick` runs the reduced
//! configuration; [`bq_bench::run`] describes the output and `--trace-out`.
fn main() {
    bq_bench::run("table3", bq_bench::table3);
}
