//! Table I: efficiency and stability of every strategy.
//! `cargo run --release -p bq-bench --bin table1 -- --quick` runs the reduced
//! configuration; [`bq_bench::run`] describes the output and `--trace-out`.
fn main() {
    bq_bench::run("table1", bq_bench::table1);
}
