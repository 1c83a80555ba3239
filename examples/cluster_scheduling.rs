//! Cluster-level scheduling for large query sets: 198 TPC-DS queries (2x
//! query scale) are grouped by scheduling gain and scheduled at cluster
//! granularity, reproducing the §IV-B workflow of the paper.
//!
//! ```text
//! cargo run --release --example cluster_scheduling
//! ```

use bq_core::{collect_history, evaluate_strategy, FifoScheduler};
use bq_dbms::DbmsProfile;
use bq_encoder::{PlanEncoderConfig, StateEncoderConfig};
use bq_plan::{generate, Benchmark, QueryId, WorkloadSpec};
use bq_sched::{gains_from_history, BqSchedAgent, BqSchedConfig, QueryClustering, TrainingConfig};

fn main() {
    // 2x query scale: every TPC-DS template is instantiated twice.
    let workload = generate(&WorkloadSpec::new(Benchmark::TpcDs, 1.0, 2));
    let profile = DbmsProfile::dbms_x();
    println!(
        "{} batch queries on {}",
        workload.len(),
        profile.kind.name()
    );

    // Historical logs provide the concurrency overlaps the gain is computed from.
    let history = collect_history(&mut FifoScheduler::new(), &workload, &profile, 2, 3);
    let gains = gains_from_history(&history, workload.len());
    println!(
        "scheduling-gain matrix: {:.1}% of pairs observed concurrently",
        gains.coverage() * 100.0
    );

    // Agglomerative clustering into 40 clusters.
    let clustering = QueryClustering::agglomerative(&gains, 40);
    let sizes: Vec<usize> = (0..clustering.num_clusters())
        .map(|c| clustering.members(c).len())
        .collect();
    println!(
        "clustered into {} clusters (largest {}, smallest {})",
        clustering.num_clusters(),
        sizes.iter().max().unwrap(),
        sizes.iter().min().unwrap()
    );
    // Show one cluster's contents.
    let example: Vec<String> = clustering
        .members(0)
        .iter()
        .map(|q| workload.query(*q).plan.name.clone())
        .take(6)
        .collect();
    println!("cluster 0 example members: {example:?}");

    // Train a cluster-level BQSched agent and compare with FIFO.
    let config = BqSchedConfig {
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
        cluster_count: Some(40),
        ..BqSchedConfig::default()
    };
    let mut agent = BqSchedAgent::new(&workload, &profile, Some(&history), config);
    println!(
        "agent schedules {} entities instead of {} queries",
        agent.num_entities(),
        workload.len()
    );
    let training = TrainingConfig {
        iterations: 1,
        ppo_iters: 1,
        rounds_per_iter: 2,
        eval_rounds: 1,
        seed: 5,
    };
    bq_sched::train_on_dbms(&mut agent, &workload, &profile, Some(&history), &training);
    agent.explore = false;

    let fifo = evaluate_strategy(
        &mut FifoScheduler::new(),
        &workload,
        &profile,
        Some(&history),
        3,
        42,
    );
    let bq = evaluate_strategy(&mut agent, &workload, &profile, Some(&history), 3, 42);
    println!(
        "\nFIFO     makespan: {:.2}s ± {:.2}",
        fifo.mean_makespan, fifo.std_makespan
    );
    println!(
        "BQSched  makespan: {:.2}s ± {:.2}",
        bq.mean_makespan, bq.std_makespan
    );
    let _ = history.avg_exec_time(QueryId(0));
}
