//! Scheduling state and actions.
//!
//! At every decision point (a connection became free), a scheduler observes
//! the execution status of every batch query — pending / running / finished,
//! the running parameters, elapsed time and the historical average execution
//! time — and selects the next query to submit together with its parameters.
//! This mirrors the running-state features `f_i = s_i ∥ R_i ∥ t_i ∥ t̄_i|R_i`
//! of §III-A in the paper.

use bq_dbms::RunParams;
use bq_plan::{QueryId, Workload};

/// Execution status of a query within the current scheduling round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    /// Not yet submitted.
    Pending,
    /// Currently executing on some connection.
    Running,
    /// Completed.
    Finished,
}

impl QueryStatus {
    /// Dense index for one-hot encoding (pending=0, running=1, finished=2).
    pub fn index(&self) -> usize {
        match self {
            QueryStatus::Pending => 0,
            QueryStatus::Running => 1,
            QueryStatus::Finished => 2,
        }
    }
}

/// Per-query runtime information exposed to schedulers.
#[derive(Debug, Clone)]
pub struct QueryRuntime {
    /// Current status.
    pub status: QueryStatus,
    /// Parameters the query was (or is being) executed with, if submitted.
    pub params: Option<RunParams>,
    /// Elapsed execution time so far (0 for pending queries; total duration
    /// for finished ones).
    pub elapsed: f64,
    /// Average execution time of this query extracted from historical logs
    /// (0 when no history is available yet).
    pub avg_exec_time: f64,
}

impl QueryRuntime {
    /// A fresh pending entry with a known historical average.
    pub fn pending(avg_exec_time: f64) -> Self {
        Self {
            status: QueryStatus::Pending,
            params: None,
            elapsed: 0.0,
            avg_exec_time,
        }
    }
}

/// The observation a scheduler receives when asked for its next action.
///
/// This is a *borrowed view*: the per-query runtimes live in an arena owned
/// by the driving [`ScheduleSession`](crate::session::ScheduleSession) (or
/// whoever builds the state) and are lent to the policy for the duration of
/// one `select()` call, so constructing a state allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct SchedulingState<'a> {
    /// The batch query set being scheduled (plans + profiles).
    pub workload: &'a Workload,
    /// Current virtual time.
    pub now: f64,
    /// Runtime info per query, indexed by `QueryId.0`.
    pub queries: &'a [QueryRuntime],
}

impl<'a> SchedulingState<'a> {
    /// Ids of queries that have not been submitted yet, ascending, without
    /// allocating.
    pub fn pending_iter(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.queries
            .iter()
            .enumerate()
            .filter(|(_, q)| q.status == QueryStatus::Pending)
            .map(|(i, _)| QueryId(i))
    }

    /// Lowest-id pending query, if any — what FIFO order submits next.
    pub fn first_pending(&self) -> Option<QueryId> {
        self.pending_iter().next()
    }

    /// Number of pending queries, without allocating.
    pub fn pending_count(&self) -> usize {
        self.queries
            .iter()
            .filter(|q| q.status == QueryStatus::Pending)
            .count()
    }
}

/// A scheduling decision: which pending query to submit next and with which
/// running parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Action {
    /// Query to submit.
    pub query: QueryId,
    /// Running parameters to submit it with.
    pub params: RunParams,
}

impl Action {
    /// Convenience constructor using the default parameter configuration.
    pub fn with_default_params(query: QueryId) -> Self {
        Self {
            query,
            params: RunParams::default_config(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bq_plan::{generate, Benchmark, WorkloadSpec};

    #[test]
    fn status_indices_are_dense() {
        assert_eq!(QueryStatus::Pending.index(), 0);
        assert_eq!(QueryStatus::Running.index(), 1);
        assert_eq!(QueryStatus::Finished.index(), 2);
    }

    #[test]
    fn state_partitions_queries_by_status() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let mut queries: Vec<QueryRuntime> =
            (0..w.len()).map(|_| QueryRuntime::pending(1.0)).collect();
        queries[0].status = QueryStatus::Running;
        queries[1].status = QueryStatus::Finished;
        let state = SchedulingState {
            workload: &w,
            now: 5.0,
            queries: &queries,
        };
        assert_eq!(state.pending_count(), w.len() - 2);
        assert_eq!(state.first_pending(), Some(QueryId(2)));
    }

    #[test]
    fn action_default_params() {
        let a = Action::with_default_params(QueryId(3));
        assert_eq!(a.query, QueryId(3));
        assert_eq!(a.params, RunParams::default_config());
    }
}
