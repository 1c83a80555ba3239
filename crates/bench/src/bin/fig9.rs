//! Figure 9: case-study Gantt chart.
//! `cargo run --release -p bq-bench --bin fig9 -- --quick` runs the reduced
//! configuration; [`bq_bench::run`] describes the output and `--trace-out`.
fn main() {
    bq_bench::run("fig9", bq_bench::fig9);
}
