//! Table II: adaptability to perturbed data scales and query sets.
//! `cargo run --release -p bq-bench --bin table2 -- --quick` runs the reduced
//! configuration; [`bq_bench::run`] describes the output and `--trace-out`.
fn main() {
    bq_bench::run("table2", bq_bench::table2);
}
