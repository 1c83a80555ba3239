//! Heuristic scheduling strategies: the paper's non-learned baselines.
//!
//! * **Random** — submit pending queries in a random order.
//! * **FIFO** — submit in input order (what DBT-style pipeline tools do).
//! * **MCF** — maximum cost first: schedule the historically slowest query
//!   first to mitigate the long-tail problem.

use crate::scheduler::SchedulerPolicy;
use crate::state::{Action, SchedulingState};
use bq_plan::{QueryId, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Schedules pending queries uniformly at random.
#[derive(Debug)]
pub struct RandomScheduler {
    rng: StdRng,
}

impl RandomScheduler {
    /// Create a random scheduler with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl SchedulerPolicy for RandomScheduler {
    fn name(&self) -> &str {
        "Random"
    }

    fn select(&mut self, state: &SchedulingState<'_>) -> Action {
        let n = state.pending_count();
        assert!(n > 0, "select() called with no pending queries");
        // Same draw as indexing a collected Vec (the count matches its
        // length), but without allocating it.
        let pick = state
            .pending_iter()
            .nth(self.rng.gen_range(0..n))
            // bq-lint: allow(panic-surface): locally provable — the index is drawn from 0..pending_count(), the iterator's exact length
            .expect("index is within the pending count");
        Action::with_default_params(pick)
    }
}

/// Schedules queries in their submission (input) order — the DBT default.
#[derive(Debug, Default)]
pub struct FifoScheduler;

impl FifoScheduler {
    /// Create a FIFO scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl SchedulerPolicy for FifoScheduler {
    fn name(&self) -> &str {
        "FIFO"
    }

    fn select(&mut self, state: &SchedulingState<'_>) -> Action {
        let pick = state
            .first_pending()
            // bq-lint: allow(panic-surface): documented contract — the session only calls select() with pending queries, as the former assert spelled out
            .expect("select() called with no pending queries");
        Action::with_default_params(pick)
    }
}

/// Maximum cost first: schedules the pending query with the largest known
/// execution cost. Costs come from historical logs when available (as in the
/// paper) and otherwise fall back to the optimizer's plan cost estimate.
#[derive(Debug, Default)]
pub struct McfScheduler {
    /// Per-query cost estimates captured at `begin_episode`.
    costs: Vec<f64>,
}

impl McfScheduler {
    /// Create an MCF scheduler that will use the plan cost estimates.
    pub fn new() -> Self {
        Self { costs: Vec::new() }
    }

    /// Create an MCF scheduler with externally supplied per-query costs
    /// (typically average execution times from [`crate::log::ExecutionHistory`]).
    pub fn with_costs(costs: Vec<f64>) -> Self {
        Self { costs }
    }

    fn cost_of(&self, workload: &Workload, state: &SchedulingState<'_>, q: QueryId) -> f64 {
        // Preference order: explicit costs, history-derived averages carried in
        // the state, plan cost estimate.
        if let Some(&c) = self.costs.get(q.0) {
            if c > 0.0 {
                return c;
            }
        }
        let from_state = state.queries[q.0].avg_exec_time;
        if from_state > 0.0 {
            return from_state;
        }
        workload.query(q).plan.total_cost()
    }
}

impl SchedulerPolicy for McfScheduler {
    fn name(&self) -> &str {
        "MCF"
    }

    fn select(&mut self, state: &SchedulingState<'_>) -> Action {
        let mut pending = state.pending_iter();
        let mut pick = pending
            .next()
            // bq-lint: allow(panic-surface): documented contract — the session only calls select() with pending queries, as the former assert spelled out
            .expect("select() called with no pending queries");
        // Manual max scan with `>=` so ties keep the *last* maximal query,
        // exactly like `Iterator::max_by` — the goldens pin that order.
        let mut pick_cost = self.cost_of(state.workload, state, pick);
        for q in pending {
            let cost = self.cost_of(state.workload, state, q);
            if cost >= pick_cost {
                pick = q;
                pick_cost = cost;
            }
        }
        Action::with_default_params(pick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::ExecutionHistory;
    use crate::metrics::evaluate_strategy;
    use crate::session::ScheduleSession;
    use crate::state::{QueryRuntime, QueryStatus};
    use bq_dbms::DbmsProfile;
    use bq_plan::{generate, Benchmark, WorkloadSpec};

    fn small_workload() -> Workload {
        generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1))
    }

    fn runtimes_with_pending(w: &Workload, pending: &[usize]) -> Vec<QueryRuntime> {
        (0..w.len())
            .map(|i| {
                let mut rt = QueryRuntime::pending(0.0);
                if !pending.contains(&i) {
                    rt.status = QueryStatus::Finished;
                }
                rt
            })
            .collect()
    }

    fn state_over<'a>(w: &'a Workload, queries: &'a [QueryRuntime]) -> SchedulingState<'a> {
        SchedulingState {
            workload: w,
            now: 0.0,
            queries,
        }
    }

    #[test]
    fn fifo_picks_lowest_pending_id() {
        let w = small_workload();
        let mut s = FifoScheduler::new();
        let queries = runtimes_with_pending(&w, &[5, 3, 9]);
        let state = state_over(&w, &queries);
        assert_eq!(s.select(&state).query, QueryId(3));
    }

    #[test]
    fn mcf_picks_most_expensive_pending_query() {
        let w = small_workload();
        let mut s = McfScheduler::new();
        let queries = runtimes_with_pending(&w, &[0, 1, 2, 3, 4]);
        let state = state_over(&w, &queries);
        let picked = s.select(&state).query;
        let max_cost = (0..5)
            .map(|i| w.query(QueryId(i)).plan.total_cost())
            .fold(0.0, f64::max);
        assert!((w.query(picked).plan.total_cost() - max_cost).abs() < 1e-9);
    }

    #[test]
    fn mcf_prefers_supplied_costs_over_plan_estimates() {
        let w = small_workload();
        // Give query 7 an artificially huge historical cost.
        let mut costs = vec![1.0; w.len()];
        costs[7] = 1e9;
        let mut s = McfScheduler::with_costs(costs);
        let queries = runtimes_with_pending(&w, &[0, 3, 7, 9]);
        let state = state_over(&w, &queries);
        assert_eq!(s.select(&state).query, QueryId(7));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let w = small_workload();
        let queries = runtimes_with_pending(&w, &(0..w.len()).collect::<Vec<_>>());
        let state = state_over(&w, &queries);
        let mut a = RandomScheduler::new(3);
        let mut b = RandomScheduler::new(3);
        let mut c = RandomScheduler::new(4);
        let pa: Vec<usize> = (0..5).map(|_| a.select(&state).query.0).collect();
        let pb: Vec<usize> = (0..5).map(|_| b.select(&state).query.0).collect();
        let pc: Vec<usize> = (0..5).map(|_| c.select(&state).query.0).collect();
        assert_eq!(pa, pb);
        assert_ne!(pa, pc);
    }

    #[test]
    fn all_heuristics_complete_episodes() {
        let w = small_workload();
        let profile = DbmsProfile::dbms_x();
        for policy in [
            Box::new(RandomScheduler::new(1)) as Box<dyn SchedulerPolicy>,
            Box::new(FifoScheduler::new()),
            Box::new(McfScheduler::new()),
        ]
        .iter_mut()
        {
            let log = ScheduleSession::builder(&w).run_on_profile(&profile, 0, policy.as_mut());
            assert_eq!(log.len(), w.len(), "{} dropped queries", policy.name());
        }
    }

    #[test]
    fn mcf_beats_fifo_on_long_tail_workloads() {
        // With a pronounced long tail, scheduling the slowest queries first
        // should reduce the average makespan relative to FIFO (Table I shape).
        let w = generate(&WorkloadSpec::new(Benchmark::TpcDs, 1.0, 1));
        let profile = DbmsProfile::dbms_x();
        let history = {
            let mut h = ExecutionHistory::new();
            let mut fifo = FifoScheduler::new();
            for round in 0..2 {
                h.push(ScheduleSession::builder(&w).run_on_profile(&profile, round, &mut fifo));
            }
            h
        };
        let costs: Vec<f64> = (0..w.len())
            .map(|i| history.avg_exec_time(QueryId(i)).unwrap_or(0.0))
            .collect();
        let fifo_eval = evaluate_strategy(
            &mut FifoScheduler::new(),
            &w,
            &profile,
            Some(&history),
            3,
            100,
        );
        let mcf_eval = evaluate_strategy(
            &mut McfScheduler::with_costs(costs),
            &w,
            &profile,
            Some(&history),
            3,
            100,
        );
        assert!(
            mcf_eval.mean_makespan < fifo_eval.mean_makespan,
            "MCF {} should beat FIFO {}",
            mcf_eval.mean_makespan,
            fifo_eval.mean_makespan
        );
    }
}
