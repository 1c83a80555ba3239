//! Figure 7: RL algorithm and adaptive-masking ablation.
//! `cargo run --release -p bq-bench --bin fig7 -- --quick` runs the reduced
//! configuration; [`bq_bench::run`] describes the output and `--trace-out`.
fn main() {
    bq_bench::run("fig7", bq_bench::fig7);
}
