//! Backend-generic contract tests for the `ScheduleSession` API: saturation
//! and completeness invariants for arbitrary seeds, golden-artifact pins for
//! the monolithic backends, and the loud-failure paths for advance stalls.
//!
//! The per-backend conformance contract (byte-identical logs, bounded
//! advances that stop at their bound, ordered running views, stall
//! surfacing) lives in `tests/backend_conformance.rs`, which runs the same
//! parametrized harness over every `ExecutorBackend`.

mod common;

use bqsched::core::{
    EpisodeLog, ExecEvent, ExecutorBackend, FifoScheduler, RandomScheduler, ScheduleSession,
};
use bqsched::dbms::{DbmsProfile, ExecutionEngine, RunParams, ShardedEngine};
use bqsched::plan::{generate, Benchmark, QueryId, Workload, WorkloadSpec};
use bqsched::sched::LearnedSimulator;
use proptest::prelude::*;

use common::{session_round, simulator_parts};

/// Check the two session invariants on a finished log:
/// 1. every query completes exactly once;
/// 2. between any two consecutive events, all `|C|` connections are busy
///    while enough queries remain (work-conserving saturation).
fn assert_session_invariants(log: &EpisodeLog, workload: &Workload, connections: usize) {
    assert_eq!(log.len(), workload.len(), "every query must complete");
    let mut seen = vec![false; workload.len()];
    for r in &log.records {
        assert!(!seen[r.query.0], "query {:?} completed twice", r.query);
        seen[r.query.0] = true;
        assert!(r.finished_at > r.started_at, "durations must be positive");
    }
    assert!(
        seen.iter().all(|&s| s),
        "every query must appear in the log"
    );

    // Saturation: probe the midpoint of every inter-event interval.
    let mut events: Vec<f64> = log
        .records
        .iter()
        .flat_map(|r| [r.started_at, r.finished_at])
        .collect();
    events.sort_by(|a, b| a.partial_cmp(b).unwrap());
    events.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    let n = workload.len();
    for pair in events.windows(2) {
        let t = (pair[0] + pair[1]) / 2.0;
        let running = log
            .records
            .iter()
            .filter(|r| r.started_at <= t && t < r.finished_at)
            .count();
        let finished = log.records.iter().filter(|r| r.finished_at <= t).count();
        let expected = connections.min(n - finished);
        assert_eq!(
            running, expected,
            "at t={t:.4} only {running}/{expected} connections were busy \
             ({finished}/{n} finished)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn engine_sessions_saturate_and_complete(seed in 0u64..200, n in 6usize..22) {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let w = w.subset(&(0..n.min(w.len())).collect::<Vec<_>>());
        let profile = DbmsProfile::dbms_x();
        let mut engine = ExecutionEngine::new(profile.clone(), &w, seed);
        let log = session_round(&mut RandomScheduler::new(seed), &w, &mut engine, seed);
        assert_session_invariants(&log, &w, profile.connections);
    }

    #[test]
    fn sharded_sessions_saturate_and_complete(seed in 0u64..100, shards in 1usize..4) {
        // The sharded backend obeys the same work-conserving saturation law
        // over its *global* slot space: while queries pend, every one of the
        // shards × per-shard connections is busy.
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let profile = DbmsProfile::dbms_x();
        let total = profile.connections * shards;
        let mut engine = ShardedEngine::new(profile, &w, seed, shards);
        let log = session_round(&mut RandomScheduler::new(seed), &w, &mut engine, seed);
        assert_session_invariants(&log, &w, total);
    }
}

#[test]
fn simulator_sessions_saturate_and_complete() {
    let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
    let (model, embs, avg) = simulator_parts(&w);
    for connections in [4usize, 8] {
        let mut sim = LearnedSimulator::new(&model, &w, &embs, avg.clone(), connections);
        let log = session_round(&mut FifoScheduler::new(), &w, &mut sim, 0);
        assert_session_invariants(&log, &w, connections);
    }
}

#[test]
fn engine_log_matches_golden_artifact_for_seed_zero() {
    // Pins the episode log against a fixed on-disk artifact, so a refactor
    // that changes behavior (not just determinism) fails here. The artifact
    // was verified byte-identical to the pre-unification engine's output
    // (PR 1, seeds 0/3/11/40 and more), so it carries the cross-version
    // contract forward.
    let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
    let profile = DbmsProfile::dbms_x();
    let mut engine = ExecutionEngine::new(profile.clone(), &w, 0);
    let json = ScheduleSession::builder(&w)
        .dbms(profile.kind)
        .round(0)
        .build(&mut engine)
        .run(&mut FifoScheduler::new())
        .to_json();
    common::assert_matches_golden("engine_fifo_tpch_seed0.json", &json);
}

#[test]
fn simulator_log_matches_golden_artifact() {
    // Same cross-version pin for the learned simulator: its episode log for
    // a fixed (untrained, deterministic) model must match the on-disk
    // artifact, so refactors of its advance paths are checked against a
    // fixed log rather than run-vs-run.
    let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
    let (model, embs, avg) = simulator_parts(&w);
    let mut sim = LearnedSimulator::new(&model, &w, &embs, avg, 6);
    let json = ScheduleSession::builder(&w)
        .dbms(bqsched::dbms::DbmsKind::X)
        .round(5)
        .build(&mut sim)
        .run(&mut FifoScheduler::new())
        .to_json();
    common::assert_matches_golden("simulator_fifo_tpch.json", &json);
}

// Release-only: in debug the engine debug_asserts at the stall site before
// the session-level check can observe the diagnostic. CI runs this via the
// dedicated `cargo test --release` stall step.
#[cfg(not(debug_assertions))]
#[test]
#[should_panic(expected = "stalled mid-round")]
fn session_fails_loudly_when_the_backend_stalls() {
    // An exhausted advance budget records a stall diagnostic on the engine;
    // the session must surface it (via `ExecutorBackend::stall_diagnostic`)
    // instead of logging partially-advanced state as a healthy round.
    let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
    let mut profile = DbmsProfile::dbms_x();
    profile.cpu_units_per_sec = 1e-9;
    let mut engine = ExecutionEngine::new(profile, &w, 0);
    engine.force_advance_budget(1);
    ScheduleSession::builder(&w)
        .build(&mut engine)
        .run(&mut FifoScheduler::new());
}

// Release-only for the same reason as above.
#[cfg(not(debug_assertions))]
#[test]
#[should_panic(expected = "stalled mid-round")]
fn session_fails_loudly_when_a_stall_precedes_the_final_completion() {
    // The escape path: a wire server's arrival advance stalls on a phase
    // boundary, then the poll it serves completes the last query with a
    // fresh budget, so the round reaches finished == n with the stall
    // recorded. The session must still refuse to return the
    // partially-advanced log.
    use bqsched::wire::{TransportProfile, WireBackend};
    let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
    let w = w.subset(&[0]);
    let stalling_engine = || {
        let mut engine = ExecutionEngine::new(DbmsProfile::dbms_x(), &w, 0);
        engine.force_advance_budget(1);
        engine
    };
    // Alone on a cold engine, query 0 ends its I/O phase before it
    // completes: a one-iteration advance gives up at that phase boundary.
    let mut probe = stalling_engine();
    probe.submit(QueryId(0), RunParams::default_config(), 0);
    probe.poll_event(); // the submission echo
    probe.advance_to(f64::INFINITY);
    let phase_end = probe
        .stall_diagnostic()
        .expect("query 0's I/O phase ends before it completes")
        .now;
    let ExecEvent::Completed(alone) = probe.poll_event() else {
        panic!("a fresh budget completes query 0");
    };
    // Over a link of latency L the handshake returns at 2L, the submission
    // starts query 0 at 3L and the session's poll arrives at 5L: 2L into
    // the query, between its phase boundary and its completion.
    let latency = (phase_end + alone.finished_at) / 4.0;
    let mut wired = WireBackend::with_profile(stalling_engine(), TransportProfile::fixed(latency));
    ScheduleSession::builder(&w)
        .build(&mut wired)
        .run(&mut FifoScheduler::new());
}

// Release-only for the same reason as above: the sharded backend aggregates
// per-shard stalls and the session must fail the round just as loudly.
#[cfg(not(debug_assertions))]
#[test]
#[should_panic(expected = "stalled mid-round")]
fn session_fails_loudly_when_a_shard_stalls() {
    let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
    let mut profile = DbmsProfile::dbms_x();
    profile.cpu_units_per_sec = 1e-9;
    let mut engine = ShardedEngine::new(profile, &w, 0, 2);
    engine.force_advance_budget(1);
    ScheduleSession::builder(&w)
        .build(&mut engine)
        .run(&mut FifoScheduler::new());
}

#[test]
fn simulator_bounded_advances_respect_predicted_completions() {
    let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
    let (model, embs, avg) = simulator_parts(&w);
    // Six queries running on a fresh simulator session.
    let running = || {
        let mut sim = LearnedSimulator::new(&model, &w, &embs, avg.clone(), 6);
        for q in 0..6 {
            sim.submit(QueryId(q), RunParams::default_config(), q);
        }
        while sim.events_pending() {
            sim.poll_event();
        }
        sim
    };
    let mut sim = running();
    let ExecEvent::Completed(first) = sim.poll_event() else {
        panic!("queries are running");
    };

    // A bound far beyond the predicted completion changes nothing: the
    // simulator still completes the predicted query at its predicted
    // instant instead of running to the bound.
    let mut sim = running();
    sim.advance_to(first.finished_at * 100.0);
    assert!(sim.events_pending(), "the predicted completion is buffered");
    assert_eq!(sim.now(), first.finished_at);
    assert_eq!(sim.poll_event(), ExecEvent::Completed(first.clone()));

    // A bound before it stops at the bound, with every query still running.
    let mut sim = running();
    let tight = first.finished_at / 2.0;
    sim.advance_to(tight);
    assert_eq!(sim.now(), tight);
    assert!(!sim.events_pending());
    assert_eq!(sim.running_view().count(), 6);
}

#[test]
fn random_policy_is_reproducible_across_backends_per_seed() {
    // Same seed, same backend type => identical logs; the session introduces
    // no hidden nondeterminism.
    let w = generate(&WorkloadSpec::new(Benchmark::TpcDs, 1.0, 1));
    let profile = DbmsProfile::dbms_y();
    let run = |seed: u64| {
        let mut engine = ExecutionEngine::new(profile.clone(), &w, seed);
        session_round(&mut RandomScheduler::new(seed), &w, &mut engine, seed).to_json()
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9), run(10));
}

#[test]
fn query_ids_stay_in_range_for_all_backends() {
    let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
    let profile = DbmsProfile::dbms_x();
    let mut engine = ExecutionEngine::new(profile.clone(), &w, 2);
    let log = session_round(&mut FifoScheduler::new(), &w, &mut engine, 2);
    for r in &log.records {
        assert!(r.query.0 < w.len());
        assert!(r.connection < profile.connections);
    }

    let (model, embs, avg) = simulator_parts(&w);
    let mut sim = LearnedSimulator::new(&model, &w, &embs, avg, 5);
    let log = session_round(&mut FifoScheduler::new(), &w, &mut sim, 2);
    for r in &log.records {
        assert!(r.query.0 < w.len());
        assert!(r.connection < 5, "simulator connection out of range");
    }

    let mut sharded = ShardedEngine::new(profile.clone(), &w, 2, 3);
    let log = session_round(&mut FifoScheduler::new(), &w, &mut sharded, 2);
    for r in &log.records {
        assert!(r.query.0 < w.len());
        assert!(
            r.connection < profile.connections * 3,
            "sharded connection out of global range"
        );
    }
}
