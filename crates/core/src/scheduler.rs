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

/// Backoff before the first retry, in virtual seconds.
const BACKOFF_BASE: f64 = 0.05;

/// Multiplicative backoff growth per subsequent retry.
const BACKOFF_FACTOR: f64 = 2.0;

/// Width of the seeded uniform jitter applied to each backoff, as a
/// fraction of the exponential delay.
const BACKOFF_JITTER: f64 = 0.5;

/// Bounded-retry recovery for work a fault lost: passing it turns recovery
/// on, leaving it out makes a loss fail the round loudly. Each lost unit
/// of work is retried at most [`RecoveryPolicy::MAX_RETRIES`] times, after
/// an exponential backoff with seeded jitter in virtual time. The session
/// layer (resubmitting lost queries) and the `bq-wire` client
/// (retransmitting lost exchanges) share it, so both recover alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy;

impl RecoveryPolicy {
    /// Retry budget per lost unit of work (query or request). Exhausting it
    /// fails the round loudly instead of looping forever.
    pub const MAX_RETRIES: u32 = 8;

    /// Backoff before retry number `attempt` (1-based) of the work unit
    /// identified by `key`: 50 ms doubling per attempt, widened by up to
    /// 50% of seeded jitter. A pure function of `(key, attempt)`, so
    /// recovered episodes replay exactly.
    pub fn backoff(&self, attempt: u32, key: u64) -> f64 {
        let exp = BACKOFF_BASE
            * BACKOFF_FACTOR.powi(attempt.saturating_sub(1).min(i32::MAX as u32) as i32);
        let unit = crate::rng::stream_unit(0, BACKOFF_SALT, key, attempt as u64);
        exp * (1.0 + BACKOFF_JITTER * unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_backoff_is_a_pure_growing_function_of_its_inputs() {
        let p = RecoveryPolicy;
        // Pure function of (key, attempt).
        assert_eq!(p.backoff(1, 3), p.backoff(1, 3));
        assert_ne!(p.backoff(1, 3), p.backoff(2, 3));
        assert_ne!(p.backoff(1, 3), p.backoff(1, 4));
        // The exponential ladder dominates the jitter: with factor 2 and
        // jitter 0.5, attempt n+1's floor (2^n * base) exceeds attempt n's
        // ceiling (2^(n-1) * base * 1.5).
        for attempt in 1..6 {
            assert!(p.backoff(attempt + 1, 9) > p.backoff(attempt, 9));
        }
    }

    /// The recovery backoff every recovered episode replays, pinned bit for
    /// bit: attempts 1–4 of keys 0, 3 and 9, and the retry budget.
    #[test]
    fn recovery_backoff_bits_are_pinned() {
        let p = RecoveryPolicy;
        assert_eq!(RecoveryPolicy::MAX_RETRIES, 8);
        let bits: Vec<u64> = [0, 3, 9]
            .into_iter()
            .flat_map(|key| (1..=4).map(move |attempt| p.backoff(attempt, key).to_bits()))
            .collect();
        assert_eq!(
            bits,
            [
                0x3fae_6a33_57d3_f982,
                0x3fc3_0f3f_7bc3_7a1d,
                0x3fd0_3a28_8745_1335,
                0x3fe0_9b5c_c660_8124,
                0x3fb0_a6ce_6471_480c,
                0x3fc1_a48c_b1e0_b013,
                0x3fd0_59d1_b34e_782f,
                0x3fdf_d777_8ef9_5e7a,
                0x3faa_f597_7efb_b6ac,
                0x3fbc_c53b_3f50_c36d,
                0x3fcf_3e2d_652d_8cad,
                0x3fdc_1a15_d897_d94a,
            ]
        );
    }
}
