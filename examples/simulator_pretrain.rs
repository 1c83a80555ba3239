//! The two-phase training paradigm of §IV-C: train the incremental simulator
//! on execution logs, pre-train BQSched against the simulator (no DBMS time),
//! then fine-tune on the simulated DBMS and compare against training from
//! scratch.
//!
//! ```text
//! cargo run --release --example simulator_pretrain
//! ```

use bq_core::{collect_history, evaluate_strategy, FifoScheduler};
use bq_dbms::DbmsProfile;
use bq_encoder::{PlanEncoderConfig, StateEncoderConfig};
use bq_plan::{generate, Benchmark, WorkloadSpec};
use bq_sched::{
    pretrain_on_simulator, samples_from_history, train_on_dbms, BqSchedAgent, BqSchedConfig,
    SimulatorConfig, SimulatorModel, TrainingConfig,
};

fn main() {
    let workload = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
    let profile = DbmsProfile::dbms_x();
    let history = collect_history(&mut FifoScheduler::new(), &workload, &profile, 3, 1);

    let agent_config = BqSchedConfig {
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
    };
    let mut agent = BqSchedAgent::new(&workload, &profile, Some(&history), agent_config.clone());

    // 1. Train the simulator's prediction model on the historical logs.
    let sim_config = SimulatorConfig {
        encoder: StateEncoderConfig {
            dim: 16,
            heads: 2,
            blocks: 1,
        },
        ..SimulatorConfig::default()
    };
    let samples = samples_from_history(&workload, &history, agent.plan_embeddings());
    println!(
        "extracted {} supervised samples from {} logged rounds",
        samples.len(),
        history.len()
    );
    let mut simulator = SimulatorModel::new(agent.plan_embeddings().cols(), sim_config, 9);
    let metrics = simulator.train(&samples, 10);
    println!(
        "simulator: earliest-finisher accuracy {:.1}%, time MSE {:.4}",
        metrics.accuracy * 100.0,
        metrics.mse
    );

    // 2. Pre-train the scheduler against the simulator (consumes no DBMS time).
    let pre_tc = TrainingConfig {
        iterations: 1,
        ppo_iters: 2,
        rounds_per_iter: 2,
        eval_rounds: 1,
        seed: 30,
    };
    let pre_curve = pretrain_on_simulator(
        &mut agent, &workload, &simulator, &history, &profile, &pre_tc,
    );
    println!(
        "pre-training ran {} simulated rounds ({} DBMS rounds)",
        pre_curve.total_episodes, 0
    );

    // 3. Fine-tune on the (simulated) DBMS with a small budget.
    let fine_tc = TrainingConfig {
        iterations: 1,
        ppo_iters: 1,
        rounds_per_iter: 2,
        eval_rounds: 1,
        seed: 40,
    };
    let fine_curve = train_on_dbms(&mut agent, &workload, &profile, Some(&history), &fine_tc);
    println!(
        "fine-tuning consumed {} DBMS rounds",
        fine_curve.total_episodes
    );

    // 4. Compare with training from scratch on the DBMS only.
    let mut scratch = BqSchedAgent::new(&workload, &profile, Some(&history), agent_config);
    let scratch_tc = TrainingConfig {
        iterations: 1,
        ppo_iters: 3,
        rounds_per_iter: 2,
        eval_rounds: 1,
        seed: 50,
    };
    let scratch_curve = train_on_dbms(
        &mut scratch,
        &workload,
        &profile,
        Some(&history),
        &scratch_tc,
    );

    agent.explore = false;
    scratch.explore = false;
    let pre_eval = evaluate_strategy(&mut agent, &workload, &profile, Some(&history), 3, 77);
    let scratch_eval = evaluate_strategy(&mut scratch, &workload, &profile, Some(&history), 3, 77);
    println!(
        "\npretrain+finetune: makespan {:.2}s using {} DBMS rounds",
        pre_eval.mean_makespan, fine_curve.total_episodes
    );
    println!(
        "from scratch:      makespan {:.2}s using {} DBMS rounds",
        scratch_eval.mean_makespan, scratch_curve.total_episodes
    );
}
