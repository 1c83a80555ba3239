//! Scheduler abstractions.
//!
//! [`SchedulerPolicy`] is the interface every strategy implements — the
//! heuristics (Random/FIFO/MCF), the adapted LSched baseline and BQSched
//! itself. [`RecoveryPolicy`] is the bounded-retry vocabulary the session
//! layer and the `bq-wire` client share for work a fault lost. The surface
//! queries are submitted to, [`ExecutorBackend`](crate::ExecutorBackend),
//! lives beside the engines in `bq-dbms` and is re-exported from this
//! crate's root.

use crate::log::EpisodeLog;
use crate::state::{Action, SchedulingState};
use bq_dbms::QueryCompletion;
use bq_plan::Workload;

/// A batch query scheduling strategy.
pub trait SchedulerPolicy {
    /// Human-readable strategy name used in logs and reports.
    fn name(&self) -> &str;

    /// Called once before each scheduling round.
    fn begin_episode(&mut self, _workload: &Workload) {}

    /// Select the next query (and its running parameters) to submit to the
    /// free connection described by `state`.
    ///
    /// Implementations must return an action whose query is pending in
    /// `state`; the episode runner enforces this.
    fn select(&mut self, state: &SchedulingState<'_>) -> Action;

    /// Observe an individual query completion (the per-query signal IQ-PPO
    /// exploits). Default: ignore.
    fn observe_completion(&mut self, _completion: &QueryCompletion) {}

    /// Called once after the round with the full episode log. Default: ignore.
    fn end_episode(&mut self, _log: &EpisodeLog) {}
}

/// Stream salt decorrelating recovery backoff draws from the admission and
/// transit jitter streams that share [`crate::rng::stream_unit`].
const BACKOFF_SALT: u64 = 0x8C90_FC18_6C35_BF11;

/// Bounded-retry policy applied when a fault loses work: how many times to
/// retry and how long to back off (exponential with seeded jitter) before
/// each retry. Shared vocabulary between the session layer (resubmitting
/// lost queries) and the `bq-wire` client (retransmitting lost exchanges),
/// so one knob tunes the whole stack's persistence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Retry budget per lost unit of work (query or request). Exhausting it
    /// fails the round loudly instead of looping forever.
    pub max_retries: u32,
    /// Backoff before the first retry, in virtual seconds.
    pub backoff_base: f64,
    /// Multiplicative backoff growth per subsequent retry.
    pub backoff_factor: f64,
    /// Width of the seeded uniform jitter applied to each backoff, as a
    /// fraction of the exponential delay (`0.0` = deterministic ladder).
    pub backoff_jitter: f64,
    /// Seed of the jitter stream (backoffs are a pure function of
    /// `(seed, key, attempt)`).
    pub seed: u64,
}

impl RecoveryPolicy {
    /// The default bounded policy: 8 retries, 50 ms base backoff doubling
    /// per attempt, 50% seeded jitter.
    pub fn bounded() -> Self {
        Self {
            max_retries: 8,
            backoff_base: 0.05,
            backoff_factor: 2.0,
            backoff_jitter: 0.5,
            seed: 0,
        }
    }

    /// Re-seed the jitter stream.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Backoff before retry number `attempt` (1-based) of the work unit
    /// identified by `key` — a pure function of `(seed, key, attempt)`, so
    /// recovered episodes replay exactly.
    pub fn backoff(&self, attempt: u32, key: u64) -> f64 {
        let exp = self.backoff_base
            * self
                .backoff_factor
                .powi(attempt.saturating_sub(1).min(i32::MAX as u32) as i32);
        if self.backoff_jitter <= 0.0 {
            return exp;
        }
        let unit = crate::rng::stream_unit(self.seed, BACKOFF_SALT, key, attempt as u64);
        exp * (1.0 + self.backoff_jitter * unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_backoff_is_a_pure_growing_function_of_its_inputs() {
        let p = RecoveryPolicy::bounded().with_seed(7);
        // Pure function of (seed, key, attempt).
        assert_eq!(p.backoff(1, 3), p.backoff(1, 3));
        assert_ne!(p.backoff(1, 3), p.backoff(2, 3));
        assert_ne!(p.backoff(1, 3), p.backoff(1, 4));
        assert_ne!(p.backoff(1, 3), p.with_seed(8).backoff(1, 3));
        // The exponential ladder dominates the jitter: with factor 2 and
        // jitter 0.5, attempt n+1's floor (2^n * base) exceeds attempt n's
        // ceiling (2^(n-1) * base * 1.5).
        for attempt in 1..6 {
            assert!(p.backoff(attempt + 1, 9) > p.backoff(attempt, 9));
        }
        // Jitter-free policies are exactly the exponential ladder.
        let flat = RecoveryPolicy {
            backoff_jitter: 0.0,
            ..RecoveryPolicy::bounded()
        };
        assert_eq!(flat.backoff(1, 0), 0.05);
        assert_eq!(flat.backoff(3, 0), 0.2);
    }
}
