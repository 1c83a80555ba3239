//! Figure 5: scalability, plus the backend sweeps (d)-(g).
//! `cargo run --release -p bq-bench --bin fig5 -- --quick` runs the reduced
//! configuration; [`bq_bench::run`] describes the output and `--trace-out`.
fn main() {
    bq_bench::run("fig5", bq_bench::fig5);
}
