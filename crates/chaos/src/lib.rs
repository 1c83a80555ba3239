//! # bq-chaos
//!
//! Deterministic fault injection for the scheduling stack: replayable fault
//! schedules, chaos decorators for the wire transport and for executor
//! backends, and the glue that lets a session *recover* from the injected
//! faults — so degraded-mode behaviour is testable, replayable and gateable
//! exactly like healthy behaviour.
//!
//! The paper's premise is a non-intrusive scheduler driving a black-box
//! DBMS; real deployments of that shape lose connections, suffer partial
//! writes, and watch executor shards stall or die. This crate makes those
//! failures first-class *inputs*: every chaos episode is a pure function of
//! `(workload, profile, seed, fault schedule)`, and the schedule is a list
//! of hand-placed fault events — see [`FaultSchedule::from_events`].
//!
//! * [`schedule`] — [`FaultSpec`] and [`FaultSchedule`]: the replayable
//!   fault plan;
//! * [`transport`] — [`ChaosTransport`]: outage windows, a mid-frame
//!   truncation and congestion windows over an in-process link's two ends
//!   ([`bq_wire::WireTransport`] and [`bq_wire::ServerTransport`]);
//! * [`backend`] — [`ChaosBackend`]: bounded shard stalls and permanent
//!   shard deaths over any [`bq_core::ExecutorBackend`] with a shard
//!   topology.
//!
//! # Recovery composition
//!
//! Recovery is on or off; [`bq_core::RecoveryPolicy`] has nothing to tune.
//! Transport faults are absorbed once `WireBackend::with_recovery` turns it
//! on (bounded seeded retransmission; the sequence prefix plus the server's
//! cached response replay keep execution at-most-once). Shard faults are
//! absorbed at the session level: with recovery on, lost queries are
//! resubmitted after a seeded backoff, and [`bq_core::FaultAwareRouter`]
//! routes placements away from down shards, reintegrating recovered ones.
//! Fault and recovery events land in the episode log
//! ([`bq_core::EpisodeLog::faults`]) and feed the degraded-mode metrics
//! ([`bq_core::degraded_evaluation`]).
//!
//! # Determinism contract
//!
//! Under the empty schedule both decorators are **byte-identical
//! passthroughs** through the whole session stack (pinned by proptests and
//! the conformance suite); under any fixed nonzero schedule an episode
//! replays byte-identically, faults included.
//!
//! ```
//! use bq_chaos::{ChaosBackend, FaultSchedule, FaultSpec};
//! use bq_core::{FaultAwareRouter, FifoScheduler, LeastLoadedRouter, RecoveryPolicy,
//!               ScheduleSession};
//! use bq_dbms::{DbmsProfile, ShardedEngine};
//! use bq_plan::{generate, Benchmark, WorkloadSpec};
//!
//! let workload = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
//! let schedule = FaultSchedule::from_events(vec![
//!     FaultSpec::ShardDeath { shard: 1, at: 0.5 },
//! ]);
//! let sharded = ShardedEngine::new(DbmsProfile::dbms_x(), &workload, 0, 2);
//! let mut backend = ChaosBackend::new(sharded, &schedule);
//! let mut router = FaultAwareRouter::new(LeastLoadedRouter);
//! let log = ScheduleSession::builder(&workload)
//!     .router(&mut router)
//!     .recovery(RecoveryPolicy) // on: resubmit what the dead shard lost
//!     .build(&mut backend)
//!     .run(&mut FifoScheduler::new());
//! assert_eq!(log.len(), workload.len()); // every query completed anyway
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod schedule;
pub mod transport;

pub use backend::ChaosBackend;
pub use schedule::{FaultSchedule, FaultSpec};
pub use transport::ChaosTransport;

#[cfg(test)]
mod tests {
    use super::*;
    use bq_core::{
        degraded_evaluation, FaultAwareRouter, FaultEvent, FifoScheduler, LeastLoadedRouter,
        RecoveryPolicy, ScheduleSession,
    };
    use bq_dbms::{DbmsProfile, ExecutionEngine, ShardedEngine};
    use bq_plan::{generate, Benchmark, Workload, WorkloadSpec};
    use bq_wire::{InMemoryDuplex, Loopback, WireBackend, WireServer};

    fn tpch() -> Workload {
        generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1))
    }

    #[test]
    fn empty_schedule_backend_is_byte_identical_through_the_session() {
        let w = tpch();
        let profile = DbmsProfile::dbms_x();
        for seed in [0u64, 4] {
            let mut bare = ShardedEngine::new(profile.clone(), &w, seed, 2);
            let base = ScheduleSession::builder(&w)
                .dbms(profile.kind)
                .round(seed)
                .build(&mut bare)
                .run(&mut FifoScheduler::new());
            let mut chaotic = ChaosBackend::new(
                ShardedEngine::new(profile.clone(), &w, seed, 2),
                &FaultSchedule::from_events(Vec::new()),
            );
            let quiet = ScheduleSession::builder(&w)
                .dbms(profile.kind)
                .round(seed)
                .build(&mut chaotic)
                .run(&mut FifoScheduler::new());
            assert_eq!(base.to_json(), quiet.to_json(), "seed {seed}");
        }
    }

    #[test]
    fn empty_schedule_transport_is_byte_identical_through_the_session() {
        let w = tpch();
        let profile = DbmsProfile::dbms_x();
        let mut bare = ExecutionEngine::new(profile.clone(), &w, 0);
        let base = ScheduleSession::builder(&w)
            .dbms(profile.kind)
            .build(&mut bare)
            .run(&mut FifoScheduler::new());
        let transport = ChaosTransport::lossless(&FaultSchedule::from_events(Vec::new()), 0);
        let server = WireServer::new(ExecutionEngine::new(profile.clone(), &w, 0));
        let mut wired =
            WireBackend::connect(Loopback::new(server, transport)).expect("clean handshake");
        let quiet = ScheduleSession::builder(&w)
            .dbms(profile.kind)
            .build(&mut wired)
            .run(&mut FifoScheduler::new());
        assert_eq!(base.to_json(), quiet.to_json());
    }

    #[test]
    fn a_shard_death_episode_recovers_and_replays_identically() {
        let w = tpch();
        let profile = DbmsProfile::dbms_x();
        let schedule = FaultSchedule::from_events(vec![
            FaultSpec::ShardStall {
                shard: 0,
                at: 0.2,
                resume_at: 0.4,
            },
            FaultSpec::ShardDeath { shard: 1, at: 0.5 },
        ]);
        let run = || {
            let mut backend =
                ChaosBackend::new(ShardedEngine::new(profile.clone(), &w, 0, 2), &schedule);
            let mut router = FaultAwareRouter::new(LeastLoadedRouter);
            ScheduleSession::builder(&w)
                .dbms(profile.kind)
                .router(&mut router)
                .recovery(RecoveryPolicy)
                .build(&mut backend)
                .run(&mut FifoScheduler::new())
        };
        let log = run();
        // Every query completed despite the dead shard.
        assert_eq!(log.len(), w.len());
        assert!(log.lost_queries() >= 1, "the death must cost something");
        assert_eq!(
            log.recovered_submissions(),
            log.lost_queries(),
            "every lost query was resubmitted"
        );
        assert_eq!(log.fault_count("shard_died"), 1);
        assert_eq!(log.fault_count("shard_stalled"), 1);
        assert_eq!(log.fault_count("shard_resumed"), 1);
        // The degraded episode is strictly slower than the healthy one.
        let mut healthy_backend = ShardedEngine::new(profile.clone(), &w, 0, 2);
        let mut healthy_router = LeastLoadedRouter;
        let healthy = ScheduleSession::builder(&w)
            .dbms(profile.kind)
            .router(&mut healthy_router)
            .build(&mut healthy_backend)
            .run(&mut FifoScheduler::new());
        let degraded = degraded_evaluation(&log);
        assert!(
            degraded.makespan > healthy.makespan(),
            "losing a shard cannot speed the episode up: {} vs {}",
            degraded.makespan,
            healthy.makespan()
        );
        assert_eq!(degraded.lost_queries, log.lost_queries());
        // Byte-identical replay, faults included.
        assert_eq!(log.to_json(), run().to_json());
    }

    #[test]
    fn stalled_completions_deliver_rewritten_to_the_thaw_instant() {
        let w = tpch();
        let profile = DbmsProfile::dbms_x();
        // Find the healthy first-completion instant, then freeze its shard
        // across it.
        let mut probe = ShardedEngine::new(profile.clone(), &w, 0, 2);
        let healthy = ScheduleSession::builder(&w)
            .dbms(profile.kind)
            .build(&mut probe)
            .run(&mut FifoScheduler::new());
        let first = healthy
            .records
            .iter()
            .map(|r| r.finished_at)
            .fold(f64::INFINITY, f64::min);
        let thaw = first + 1.0;
        let schedule = FaultSchedule::from_events(vec![FaultSpec::ShardStall {
            shard: 0,
            at: first / 2.0,
            resume_at: thaw,
        }]);
        let mut backend =
            ChaosBackend::new(ShardedEngine::new(profile.clone(), &w, 0, 2), &schedule);
        let log = ScheduleSession::builder(&w)
            .dbms(profile.kind)
            .recovery(RecoveryPolicy)
            .build(&mut backend)
            .run(&mut FifoScheduler::new());
        assert_eq!(log.len(), w.len());
        // No shard-0 completion lands inside the freeze window.
        for r in &log.records {
            let on_stalled_shard = r.connection < 18;
            if on_stalled_shard {
                assert!(
                    r.finished_at < first / 2.0 - 1e-9 || r.finished_at >= thaw - 1e-9,
                    "completion at {} landed inside the freeze window",
                    r.finished_at
                );
            }
        }
        assert_eq!(log.fault_count("shard_stalled"), 1);
        assert_eq!(log.fault_count("shard_resumed"), 1);
        assert_eq!(log.lost_queries(), 0, "a stall loses nothing");
    }

    /// Build the regression scenario for an *engine-level* advance stall
    /// underneath the chaos decorator: shard 0's advance budget is forced to
    /// zero (it stalls on the first integration), while the fault schedule
    /// stalls shard 1 at the chaos layer. The decorator must never mask the
    /// engine diagnostic — the merge loop used to re-advance the broken
    /// shard with a fresh budget on every poll, spinning instead of failing.
    fn engine_stall_under_chaos(w: &Workload) -> ChaosBackend<ShardedEngine> {
        let profile = DbmsProfile::dbms_x();
        let schedule = FaultSchedule::from_events(vec![FaultSpec::ShardStall {
            shard: 1,
            at: 0.2,
            resume_at: 0.4,
        }]);
        let mut sharded = ShardedEngine::new(profile, w, 0, 2);
        sharded.force_shard_advance_budget(0, 0);
        ChaosBackend::new(sharded, &schedule)
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "advance budget exhausted")]
    fn an_engine_stall_under_chaos_asserts_in_debug() {
        let w = tpch();
        let mut backend = engine_stall_under_chaos(&w);
        ScheduleSession::builder(&w)
            .dbms(DbmsProfile::dbms_x().kind)
            .recovery(RecoveryPolicy)
            .build(&mut backend)
            .run(&mut FifoScheduler::new());
    }

    // Release-only: in debug the shard's own stall assert fires first (the
    // test above). Here the stall is recorded instead, and the session must
    // fail the round loudly via `stall_diagnostic` — never spin.
    #[cfg(not(debug_assertions))]
    #[test]
    #[should_panic(expected = "stalled mid-round")]
    fn an_engine_stall_under_chaos_fails_the_round_loudly() {
        let w = tpch();
        let mut backend = engine_stall_under_chaos(&w);
        ScheduleSession::builder(&w)
            .dbms(DbmsProfile::dbms_x().kind)
            .recovery(RecoveryPolicy)
            .build(&mut backend)
            .run(&mut FifoScheduler::new());
    }

    #[test]
    fn transport_chaos_retransmits_and_replays_identically() {
        let w = tpch();
        let profile = DbmsProfile::dbms_x();
        // The truncation arms just after the submissions at t = 0, so the
        // first exchange once time has passed is cut mid-frame; the outage
        // window sits mid-episode.
        let schedule = FaultSchedule::from_events(vec![
            FaultSpec::PartialWrite { at: 1e-3 },
            FaultSpec::Disconnect {
                at: 0.8,
                duration: 0.1,
            },
            FaultSpec::LatencySpike {
                at: 1.5,
                duration: 0.5,
                extra: 0.05,
            },
        ]);
        let run = || {
            let transport = ChaosTransport::new(InMemoryDuplex::lossless(), &schedule, 13);
            let server = WireServer::new(ExecutionEngine::new(profile.clone(), &w, 0));
            let mut wired = WireBackend::connect(Loopback::new(server, transport))
                .expect("the faults arm after the handshake")
                .with_recovery(RecoveryPolicy);
            ScheduleSession::builder(&w)
                .dbms(profile.kind)
                .build(&mut wired)
                .run(&mut FifoScheduler::new())
        };
        let log = run();
        assert_eq!(log.len(), w.len());
        assert!(
            log.fault_count("transport_retransmit") >= 1,
            "the truncated exchange must have been retransmitted"
        );
        assert_eq!(log.lost_queries(), 0, "the wire recovers below the session");
        assert_eq!(log.to_json(), run().to_json());
    }

    #[test]
    fn a_shard_that_dies_mid_stall_stays_out_of_rotation() {
        let w = tpch();
        let profile = DbmsProfile::dbms_x();
        // The stalled shard dies before its thaw: the thaw must never be
        // announced, so the router never places a query on the dead shard
        // and no query is lost twice.
        let schedule = FaultSchedule::from_events(vec![
            FaultSpec::ShardStall {
                shard: 1,
                at: 0.2,
                resume_at: 2.0,
            },
            FaultSpec::ShardDeath { shard: 1, at: 0.5 },
        ]);
        let mut backend =
            ChaosBackend::new(ShardedEngine::new(profile.clone(), &w, 0, 2), &schedule);
        let mut router = FaultAwareRouter::new(LeastLoadedRouter);
        let log = ScheduleSession::builder(&w)
            .dbms(profile.kind)
            .router(&mut router)
            .recovery(RecoveryPolicy)
            .build(&mut backend)
            .run(&mut FifoScheduler::new());
        assert_eq!(log.len(), w.len());
        let mut losses = vec![0usize; w.len()];
        for fault in &log.faults {
            if let FaultEvent::QueryLost { query, .. } = fault {
                losses[query.0] += 1;
            }
        }
        assert!(log.lost_queries() >= 1, "the death must cost something");
        assert!(
            losses.iter().all(|&n| n <= 1),
            "a query was lost more than once: {losses:?}"
        );
        assert_eq!(log.fault_count("shard_resumed"), 0);
    }
}
