//! A TPC-DS "data pipeline" scenario: the 99 report queries of a nightly
//! pipeline are scheduled on DBMS-X. The example trains a (small) BQSched
//! agent with IQ-PPO, compares it against FIFO / MCF / the adapted LSched
//! baseline, and prints the resulting Gantt chart — the end-to-end workflow
//! motivated by the paper's introduction.
//!
//! ```text
//! cargo run --release --example tpcds_pipeline
//! ```

use bq_core::{
    collect_history, evaluate_strategy, FifoScheduler, GanttChart, McfScheduler, ScheduleSession,
};
use bq_dbms::{DbmsProfile, ExecutionEngine};
use bq_encoder::{PlanEncoderConfig, StateEncoderConfig};
use bq_plan::{generate, Benchmark, QueryId, WorkloadSpec};
use bq_sched::{train_on_dbms, BqSchedAgent, BqSchedConfig, TrainingConfig};

fn small_config() -> BqSchedConfig {
    BqSchedConfig {
        plan_encoder: PlanEncoderConfig {
            dim: 16,
            heads: 2,
            blocks: 1,
        },
        state_encoder: StateEncoderConfig {
            dim: 16,
            heads: 2,
            blocks: 1,
        },
        plan_pretrain_epochs: 1,
        ..BqSchedConfig::default()
    }
}

fn main() {
    let workload = generate(&WorkloadSpec::new(Benchmark::TpcDs, 1.0, 1));
    let profile = DbmsProfile::dbms_x();
    println!(
        "pipeline: {} TPC-DS queries on {}",
        workload.len(),
        profile.kind.name()
    );

    // Historical FIFO executions of the pipeline (what the enterprise already has).
    let history = collect_history(&mut FifoScheduler::new(), &workload, &profile, 3, 11);
    let costs: Vec<f64> = (0..workload.len())
        .map(|i| history.avg_exec_time(QueryId(i)).unwrap_or(0.0))
        .collect();

    // Heuristic baselines.
    let fifo = evaluate_strategy(
        &mut FifoScheduler::new(),
        &workload,
        &profile,
        Some(&history),
        3,
        42,
    );
    let mcf = evaluate_strategy(
        &mut McfScheduler::with_costs(costs),
        &workload,
        &profile,
        Some(&history),
        3,
        42,
    );

    // The adapted LSched baseline (PPO, no masking/clustering).
    let training = TrainingConfig {
        iterations: 1,
        ppo_iters: 2,
        rounds_per_iter: 2,
        eval_rounds: 1,
        seed: 5,
    };
    let mut lsched =
        BqSchedAgent::new(&workload, &profile, Some(&history), small_config().lsched());
    train_on_dbms(&mut lsched, &workload, &profile, Some(&history), &training);
    lsched.explore = false;
    let lsched_eval = evaluate_strategy(&mut lsched, &workload, &profile, Some(&history), 3, 42);

    // BQSched with IQ-PPO, adaptive masking and log-driven features.
    let mut bqsched = BqSchedAgent::new(&workload, &profile, Some(&history), small_config());
    train_on_dbms(&mut bqsched, &workload, &profile, Some(&history), &training);
    bqsched.explore = false;
    let bq_eval = evaluate_strategy(&mut bqsched, &workload, &profile, Some(&history), 3, 42);

    println!(
        "\n{:<10} {:>12} {:>10}",
        "strategy", "makespan(s)", "std(s)"
    );
    for eval in [&fifo, &mcf, &lsched_eval, &bq_eval] {
        println!(
            "{:<10} {:>12.2} {:>10.2}",
            eval.strategy, eval.mean_makespan, eval.std_makespan
        );
    }
    println!(
        "\nBQSched vs FIFO: {:.1}% faster; vs LSched: {:.1}% faster",
        bq_eval.improvement_over(&fifo) * 100.0,
        bq_eval.improvement_over(&lsched_eval) * 100.0
    );

    // Visualise the learned plan (Figure 9 style).
    let mut engine = ExecutionEngine::new(profile.clone(), &workload, 123);
    let log = ScheduleSession::builder(&workload)
        .history(&history)
        .dbms(profile.kind)
        .round(123)
        .build(&mut engine)
        .run(&mut bqsched);
    let chart = GanttChart::from_log(&log);
    println!("\n{}", chart.render_ascii(100));
}
