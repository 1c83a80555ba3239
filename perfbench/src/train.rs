//! A traced replica of `train_on_dbms`.
//!
//! `train_on_dbms` is one opaque call, so the traced run re-drives its loop
//! (`bq_sched::train_agent_timed` for the IQ-PPO algorithm) from outside,
//! calling the same public pieces in the same order: exploring rounds
//! through a `ScheduleSession`, `IqPpoTrainer::ppo_phase` per PPO
//! iteration, `IqPpoTrainer::aux_phase` per outer iteration, then greedy
//! evaluation rounds. Each piece runs in its own span. The replica must
//! reproduce `train_on_dbms`'s final greedy makespan bit-exactly; the
//! benchmark checks that on every traced run.

use crate::probe::{span, Layer, SharedProbe, TimedBackend, TimedPolicy};
use bq_core::{ExecutionHistory, ScheduleSession};
use bq_dbms::{DbmsKind, DbmsProfile, ExecutionEngine};
use bq_plan::Workload;
use bq_rl::{IqPpoTrainer, RolloutBuffer};
use bq_sched::{Algorithm, BqObs, BqSchedAgent, TrainingConfig};

/// What one replica run did, beyond its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicaStats {
    /// Greedy makespan of the last evaluation (`TrainingCurve::final_makespan`).
    pub final_makespan: f64,
    /// Transitions fed to the PPO phases.
    pub ppo_transitions: usize,
    /// Transitions fed to the auxiliary phases.
    pub aux_transitions: usize,
}

/// One scheduling round of the replica on a fresh, decorated engine.
fn round(
    agent: &mut BqSchedAgent,
    workload: &Workload,
    profile: &DbmsProfile,
    history: Option<&ExecutionHistory>,
    engine_seed: u64,
    round: u64,
    probe: &SharedProbe,
) -> f64 {
    let engine = span(probe, "dbms.engine_new", || {
        ExecutionEngine::new(profile.clone(), workload, engine_seed)
    });
    let mut backend = TimedBackend::new(engine, Layer::Dbms, probe);
    ScheduleSession::builder(workload)
        .maybe_history(history)
        .dbms(DbmsKind::X)
        .round(round)
        .build(&mut backend)
        .run(&mut TimedPolicy::new(agent, probe))
        .makespan()
}

/// Train `agent` exactly as `train_on_dbms(agent, workload, profile,
/// history, tc)` would, recording spans into `probe`.
pub fn train_replica(
    agent: &mut BqSchedAgent,
    workload: &Workload,
    profile: &DbmsProfile,
    history: Option<&ExecutionHistory>,
    tc: &TrainingConfig,
    probe: &SharedProbe,
) -> ReplicaStats {
    assert_eq!(
        agent.config.algorithm,
        Algorithm::IqPpo,
        "the replica re-drives the IQ-PPO loop only"
    );
    let mut trainer = IqPpoTrainer::new(agent.config.rl);
    let mut stats = ReplicaStats {
        final_makespan: f64::INFINITY,
        ..ReplicaStats::default()
    };
    let mut round_seed = tc.seed;
    for _ in 0..tc.iterations {
        let mut iteration_log: RolloutBuffer<BqObs> = RolloutBuffer::new();
        for _ in 0..tc.ppo_iters {
            let mut buffer: RolloutBuffer<BqObs> = RolloutBuffer::new();
            for _ in 0..tc.rounds_per_iter {
                span(probe, "train.explore_episode", || {
                    agent.explore = true;
                    let engine_seed = round_seed;
                    round_seed += 1;
                    round(
                        agent,
                        workload,
                        profile,
                        history,
                        engine_seed,
                        round_seed,
                        probe,
                    );
                    buffer.extend(agent.take_rollout());
                });
            }
            stats.ppo_transitions += buffer.len();
            span(probe, "rl.ppo_phase", || {
                trainer.ppo_phase(&agent.model, &mut agent.store, &buffer)
            });
            iteration_log.extend(buffer);
        }
        stats.aux_transitions += iteration_log.len();
        span(probe, "rl.aux_phase", || {
            trainer.aux_phase(&agent.model, &mut agent.store, &iteration_log)
        });
        stats.final_makespan = span(probe, "train.eval", || {
            agent.explore = false;
            let makespans: Vec<f64> = (0..tc.eval_rounds)
                .map(|r| round(agent, workload, profile, history, 10_000 + r, r, probe))
                .collect();
            agent.explore = true;
            makespans.iter().sum::<f64>() / makespans.len().max(1) as f64
        });
    }
    stats
}
