//! Evaluation metrics.
//!
//! The paper evaluates every strategy with two numbers measured over `m`
//! rounds of scheduling under identical settings: the average makespan
//! `t̄_ov` (efficiency) and its standard deviation `σ_ov` (stability).

use crate::log::{EpisodeLog, ExecutionHistory};
use crate::scheduler::SchedulerPolicy;
use crate::session::ScheduleSession;
use bq_dbms::DbmsProfile;
use bq_plan::Workload;

/// Summary statistics of one strategy over several scheduling rounds.
#[derive(Debug, Clone)]
pub struct StrategyEvaluation {
    /// Strategy name.
    pub strategy: String,
    /// Makespan of every round.
    pub makespans: Vec<f64>,
    /// Average makespan `t̄_ov`.
    pub mean_makespan: f64,
    /// Standard deviation `σ_ov` (population form, as in the paper's formula).
    pub std_makespan: f64,
}

impl StrategyEvaluation {
    /// Compute the summary from per-round makespans.
    pub fn from_makespans(strategy: impl Into<String>, makespans: Vec<f64>) -> Self {
        let mean = mean(&makespans);
        let std = std_dev(&makespans);
        Self {
            strategy: strategy.into(),
            makespans,
            mean_makespan: mean,
            std_makespan: std,
        }
    }

    /// Relative improvement of this strategy over `other` in mean makespan
    /// (positive = this strategy is faster), as a fraction.
    ///
    /// Degenerate evaluations (no rounds, a zero/negative mean, or a
    /// non-finite mean from a poisoned makespan) report 0 rather than a
    /// NaN/inf that would leak into summaries: `NaN <= 0.0` is false, so
    /// the positivity guard alone would wave NaN straight through.
    pub fn improvement_over(&self, other: &StrategyEvaluation) -> f64 {
        if other.mean_makespan <= 0.0
            || !other.mean_makespan.is_finite()
            || !self.mean_makespan.is_finite()
        {
            return 0.0;
        }
        (other.mean_makespan - self.mean_makespan) / other.mean_makespan
    }
}

/// How a round degraded under faults: the makespan it still achieved plus
/// how much work the substrate lost and the recovery layer clawed back.
/// Computed from an episode log by [`degraded_evaluation`]; on a fault-free
/// round every count is zero and the makespan equals the healthy one.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedEvaluation {
    /// Makespan of the round, faults included (`t_ov` under degradation).
    pub makespan: f64,
    /// Total fault and recovery events observed.
    pub fault_events: usize,
    /// In-flight queries lost to faults.
    pub lost_queries: usize,
    /// Lost submissions the recovery layer re-entered successfully.
    pub recovered_submissions: usize,
}

/// Summarise the degradation of one round from its episode log.
pub fn degraded_evaluation(log: &EpisodeLog) -> DegradedEvaluation {
    DegradedEvaluation {
        makespan: log.makespan(),
        fault_events: log.faults.len(),
        lost_queries: log.lost_queries(),
        recovered_submissions: log.recovered_submissions(),
    }
}

/// Arithmetic mean over the **finite** values (0 for an empty slice, and a
/// NaN/inf entry is skipped rather than poisoning the whole summary — the
/// same hardening the bench gate applies to its metrics).
pub fn mean(values: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u64;
    for &v in values {
        if v.is_finite() {
            sum += v;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Population standard deviation over the **finite** values (0 for fewer
/// than two of them, matching the paper's `σ_ov` convention for degenerate
/// single-round evaluations).
pub fn std_dev(values: &[f64]) -> f64 {
    let m = mean(values);
    let mut sum_sq = 0.0;
    let mut n = 0u64;
    for &v in values {
        if v.is_finite() {
            sum_sq += (v - m) * (v - m);
            n += 1;
        }
    }
    if n < 2 {
        return 0.0;
    }
    (sum_sq / n as f64).sqrt()
}

/// Run `rounds` scheduling rounds of `workload` on `profile` under `policy`
/// and summarise the makespans. Round `i` uses engine seed `seed_base + i`,
/// so different strategies evaluated with the same `seed_base` face the same
/// sequence of noise draws.
pub fn evaluate_strategy(
    policy: &mut dyn SchedulerPolicy,
    workload: &Workload,
    profile: &DbmsProfile,
    history: Option<&ExecutionHistory>,
    rounds: u64,
    seed_base: u64,
) -> StrategyEvaluation {
    let mut makespans = Vec::with_capacity(rounds as usize);
    for round in 0..rounds {
        let seed = seed_base + round;
        let log = ScheduleSession::builder(workload)
            .maybe_history(history)
            .run_on_profile(profile, seed, policy);
        makespans.push(log.makespan());
    }
    StrategyEvaluation::from_makespans(policy.name().to_string(), makespans)
}

/// Collect the logs of `rounds` scheduling rounds into an execution history
/// (the paper's "historical logs" that bootstrap MCF, masking, clustering and
/// the simulator).
pub fn collect_history(
    policy: &mut dyn SchedulerPolicy,
    workload: &Workload,
    profile: &DbmsProfile,
    rounds: u64,
    seed_base: u64,
) -> ExecutionHistory {
    let mut history = ExecutionHistory::new();
    for round in 0..rounds {
        let seed = seed_base + round;
        let log = ScheduleSession::builder(workload).run_on_profile(profile, seed, policy);
        history.push(log);
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::{FifoScheduler, RandomScheduler};
    use bq_plan::{generate, Benchmark, WorkloadSpec};

    #[test]
    fn mean_and_std_known_values() {
        let vals = vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&vals) - 5.0).abs() < 1e-9);
        assert!((std_dev(&vals) - 2.0).abs() < 1e-9);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[3.0]), 0.0);
    }

    #[test]
    fn evaluation_summary_matches_inputs() {
        let eval = StrategyEvaluation::from_makespans("X", vec![10.0, 12.0, 14.0]);
        assert!((eval.mean_makespan - 12.0).abs() < 1e-9);
        assert!(eval.std_makespan > 0.0);
        assert_eq!(eval.makespans.len(), 3);
    }

    #[test]
    fn improvement_over_is_relative() {
        let a = StrategyEvaluation::from_makespans("fast", vec![8.0]);
        let b = StrategyEvaluation::from_makespans("slow", vec![10.0]);
        assert!((a.improvement_over(&b) - 0.2).abs() < 1e-9);
        assert!(b.improvement_over(&a) < 0.0);
    }

    #[test]
    fn degenerate_makespan_vectors_never_leak_nan() {
        // Empty: zero-round evaluation (a cell that never ran).
        let empty = StrategyEvaluation::from_makespans("empty", vec![]);
        assert_eq!(empty.mean_makespan, 0.0);
        assert_eq!(empty.std_makespan, 0.0);
        // Single round: σ_ov degenerates to 0, not NaN.
        let single = StrategyEvaluation::from_makespans("single", vec![42.0]);
        assert_eq!(single.mean_makespan, 42.0);
        assert_eq!(single.std_makespan, 0.0);
        // A poisoned round (NaN/inf makespan) is skipped, not propagated.
        let poisoned =
            StrategyEvaluation::from_makespans("poisoned", vec![10.0, f64::NAN, f64::INFINITY]);
        assert_eq!(poisoned.mean_makespan, 10.0);
        assert_eq!(poisoned.std_makespan, 0.0);
        // improvement_over is finite on every pairing of the above.
        let healthy = StrategyEvaluation::from_makespans("healthy", vec![8.0, 12.0]);
        for base in [&empty, &single, &poisoned, &healthy] {
            for this in [&empty, &single, &poisoned, &healthy] {
                let imp = this.improvement_over(base);
                assert!(
                    imp.is_finite(),
                    "{} over {}: {imp}",
                    this.strategy,
                    base.strategy
                );
            }
        }
        // An all-NaN mean on either side reports 0, never NaN.
        let mut nan_eval = StrategyEvaluation::from_makespans("nan", vec![]);
        nan_eval.mean_makespan = f64::NAN;
        assert_eq!(nan_eval.improvement_over(&healthy), 0.0);
        assert_eq!(healthy.improvement_over(&nan_eval), 0.0);
    }

    #[test]
    fn evaluate_strategy_runs_requested_rounds() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let profile = DbmsProfile::dbms_x();
        let eval = evaluate_strategy(&mut FifoScheduler::new(), &w, &profile, None, 3, 7);
        assert_eq!(eval.makespans.len(), 3);
        assert!(eval.mean_makespan > 0.0);
        // Noise across rounds creates some deviation.
        assert!(eval.std_makespan >= 0.0);
    }

    #[test]
    fn degraded_evaluation_counts_faults_and_recoveries() {
        use bq_dbms::FaultEvent;
        use bq_plan::QueryId;
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let profile = DbmsProfile::dbms_x();
        let mut log =
            ScheduleSession::builder(&w).run_on_profile(&profile, 0, &mut FifoScheduler::new());
        // Fault-free round: zero counts, healthy makespan.
        let healthy = degraded_evaluation(&log);
        assert_eq!(healthy.fault_events, 0);
        assert_eq!(healthy.lost_queries, 0);
        assert_eq!(healthy.recovered_submissions, 0);
        assert_eq!(healthy.makespan, log.makespan());

        log.push_fault(&FaultEvent::ShardDied { shard: 0, at: 1.0 });
        log.push_fault(&FaultEvent::QueryLost {
            query: QueryId(2),
            connection: 0,
            at: 1.0,
        });
        log.push_fault(&FaultEvent::QueryResubmitted {
            query: QueryId(2),
            attempt: 1,
            at: 1.2,
        });
        let degraded = degraded_evaluation(&log);
        assert_eq!(degraded.fault_events, 3);
        assert_eq!(degraded.lost_queries, 1);
        assert_eq!(degraded.recovered_submissions, 1);
    }

    #[test]
    fn collect_history_records_all_rounds() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let profile = DbmsProfile::dbms_x();
        let h = collect_history(&mut RandomScheduler::new(0), &w, &profile, 2, 3);
        assert_eq!(h.len(), 2);
        for e in h.episodes() {
            assert_eq!(e.len(), w.len());
        }
    }
}
