//! The reusable `ExecutorBackend` conformance suite.
//!
//! Every execution substrate — the simulated DBMS (`ExecutionEngine`), the
//! learned incremental simulator (`LearnedSimulator`), the sharded
//! multi-engine backend (`ShardedEngine`), the async submission adapter
//! (`AsyncAdapter`, wrapped over each of the three), the wire-protocol
//! backend (`WireBackend`, alone and under the adapter, in process and as
//! the `RemoteBackend` over a Unix-domain socket), and the chaos
//! fault-injection decorator (`ChaosBackend`, a drop-in under the empty
//! schedule) — must satisfy the same observable contract, because
//! schedulers are non-intrusive and cannot tell backends apart. The contract, asserted here over every backend
//! through one parametrized harness:
//!
//! 1. **Determinism** — fixed seeds reproduce episode logs byte for byte;
//! 2. **Bounded advance** — with nothing buffered, `advance_to(b)` never
//!    moves the clock past `b`, and either reaches `b` or buffers a
//!    completion at or before it; mid-round, completions name the query on
//!    their connection and the running view stays consistent and
//!    connection-ordered;
//! 3. **Ordered running view** — `RunningView` iterates in ascending global
//!    connection order regardless of submission order;
//! 4. **Stall surfacing** — healthy rounds never leave a stall diagnostic
//!    behind;
//! 5. **Self-description** — the backend reports the workload size it was
//!    built for and a shard topology spanning exactly its slot space.
//!
//! To hold a new backend to the contract, add one `*_passes_conformance`
//! test constructing it fresh per seed — nothing else.

mod common;

use bqsched::adapter::{AsyncAdapter, DispatchProfile};
use bqsched::chaos::{ChaosBackend, FaultSchedule, FaultSpec};
use bqsched::core::{
    ExecEvent, ExecutorBackend, FaultAwareRouter, FifoScheduler, LeastLoadedRouter, RecoveryPolicy,
    ScheduleSession,
};
use bqsched::dbms::{DbmsProfile, ExecutionEngine, QueryCompletion, RunParams, ShardedEngine};
use bqsched::plan::{generate, Benchmark, QueryId, Workload, WorkloadSpec};
use bqsched::sched::LearnedSimulator;
use bqsched::wire::net::{connect_remote, serve_connection, Endpoint, ServerSocket, SocketClient};
use bqsched::wire::{TransportProfile, WireBackend, WireServer};

fn tpch() -> Workload {
    generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1))
}

/// Invariant 1: an episode is a pure function of (backend seed, policy) —
/// two rounds on freshly built backends with the same seed produce
/// byte-identical logs (including within-instant completion batches).
fn check_byte_identical_logs<E, F>(name: &str, w: &Workload, fresh: &mut F)
where
    E: ExecutorBackend,
    F: FnMut(u64) -> E,
{
    for seed in [0u64, 3] {
        let run = |backend: &mut E| {
            ScheduleSession::builder(w)
                .round(seed)
                .build(backend)
                .run(&mut FifoScheduler::new())
                .to_json()
        };
        let a = run(&mut fresh(seed));
        let b = run(&mut fresh(seed));
        assert_eq!(a, b, "{name}: seed {seed} did not reproduce its log");
    }
}

/// Tolerance when comparing virtual-time instants.
const TIME_EPS: f64 = 1e-9;

/// Pops every buffered event; returns the completions among them.
fn drain_completions<E: ExecutorBackend>(backend: &mut E) -> Vec<QueryCompletion> {
    let mut completed = Vec::new();
    while backend.events_pending() {
        if let ExecEvent::Completed(c) = backend.poll_event() {
            completed.push(c);
        }
    }
    completed
}

/// `advance_to(bound)` with nothing buffered, checked against the bound:
/// the clock ends at or before it, and at it unless a completion at or
/// before it was buffered. Returns the buffered completions.
fn advance_within_bound<E: ExecutorBackend>(
    name: &str,
    backend: &mut E,
    bound: f64,
) -> Vec<QueryCompletion> {
    assert!(!backend.events_pending(), "{name}: events are buffered");
    backend.advance_to(bound);
    let now = backend.now();
    assert!(
        now <= bound + TIME_EPS,
        "{name}: advance_to({bound}) moved the clock to {now}"
    );
    let completed = drain_completions(backend);
    for c in &completed {
        assert!(
            c.finished_at <= bound + TIME_EPS,
            "{name}: advance_to({bound}) buffered a completion at {}",
            c.finished_at
        );
    }
    assert!(
        !completed.is_empty() || now >= bound - TIME_EPS,
        "{name}: advance_to({bound}) stopped at {now} with nothing buffered"
    );
    completed
}

/// Checks `completed` against the queries this check placed (`placed[c]`
/// is the query running on connection `c`), clears their connections, and
/// checks that the running view lists exactly the placed queries still
/// running, in connection order. Returns how many completed.
fn settle<E: ExecutorBackend>(
    name: &str,
    backend: &E,
    placed: &mut [Option<QueryId>],
    completed: Vec<QueryCompletion>,
) -> usize {
    for c in &completed {
        assert_eq!(
            placed[c.connection].take(),
            Some(c.query),
            "{name}: a completion named the wrong query or connection"
        );
    }
    let view: Vec<(usize, QueryId)> = backend.running_view().map(|(q, _, _, c)| (c, q)).collect();
    let running: Vec<(usize, QueryId)> = (0..placed.len())
        .filter_map(|c| Some((c, placed[c]?)))
        .collect();
    assert_eq!(view, running, "{name}: running view diverged mid-round");
    completed.len()
}

/// Invariant 2: a bounded advance stops at its bound. A FIFO round is driven
/// by hand: whenever nothing is buffered, `advance_to(now + 0.5)` is
/// checked, and when it reached its bound without a completion, a bound
/// far past every completion must stop at the next one. The adapter's
/// admissions, the chaos decorator's thaws, session recovery and the wire
/// server's arrival advance all rely on this bound. Along the way each
/// completion must name the query placed on its connection, and the running
/// view must list exactly the placed queries still running, in connection
/// order, however many slots freed mid-round.
fn check_advance_to_respects_its_bound<E: ExecutorBackend>(
    name: &str,
    w: &Workload,
    backend: &mut E,
) {
    let mut placed: Vec<Option<QueryId>> = vec![None; backend.connection_count()];
    let mut next = 0usize;
    let mut done = 0usize;
    let mut reached = 0usize;
    while done < w.len() {
        while next < w.len() {
            let Some(free) = backend.first_free() else {
                break;
            };
            backend.submit(QueryId(next), RunParams::default_config(), free);
            placed[free] = Some(QueryId(next));
            next += 1;
        }
        let completed = drain_completions(backend);
        done += settle(name, backend, &mut placed, completed);
        if done == w.len() {
            break;
        }
        let mut completed = advance_within_bound(name, backend, backend.now() + 0.5);
        if completed.is_empty() {
            reached += 1;
            completed = advance_within_bound(name, backend, backend.now() + 1e6);
            assert!(
                !completed.is_empty(),
                "{name}: a far bound must stop at a completion"
            );
        }
        done += settle(name, backend, &mut placed, completed);
    }
    assert!(
        reached > 0,
        "{name}: no bound fell before the next completion"
    );
    assert!(
        backend.connections().iter().all(|s| s.is_free()),
        "{name}: no slot may stay busy after the round"
    );
}

/// Invariant 3: the running view iterates in ascending global connection
/// order no matter in which order the slots were filled.
fn check_running_view_is_connection_ordered<E: ExecutorBackend>(name: &str, backend: &mut E) {
    let conns = backend.connection_count().min(6);
    // Fill high-to-low so an insertion-ordered view would come out reversed.
    for (q, conn) in (0..conns).rev().enumerate() {
        backend.submit(QueryId(q), RunParams::default_config(), conn);
    }
    while backend.events_pending() {
        backend.poll_event();
    }
    let seen: Vec<usize> = backend.running_view().map(|(_, _, _, c)| c).collect();
    let expected: Vec<usize> = (0..conns).collect();
    assert_eq!(
        seen, expected,
        "{name}: running view must iterate global connections in order"
    );
}

/// Invariant 4: a healthy round leaves no stall diagnostic behind (the loud
/// failure on an actual stall is covered by the release-only stall tests).
fn check_healthy_rounds_surface_no_stall<E, F>(name: &str, w: &Workload, fresh: &mut F)
where
    E: ExecutorBackend,
    F: FnMut(u64) -> E,
{
    let mut backend = fresh(11);
    let log = common::session_round(&mut FifoScheduler::new(), w, &mut backend, 11);
    assert_eq!(log.len(), w.len());
    assert!(
        backend.stall_diagnostic().is_none(),
        "{name}: healthy round must not record an advance stall"
    );
}

/// Invariant 5: the backend knows the workload size it was built for — the
/// wire server's unknown-query validation reads it, and the trait default
/// (`None`) would silently switch that validation off — and its shard
/// topology spans exactly its connection-slot space.
fn check_reports_its_workload_and_topology<E: ExecutorBackend>(
    name: &str,
    w: &Workload,
    backend: &E,
) {
    assert_eq!(
        backend.known_query_count(),
        Some(w.len()),
        "{name}: must report the workload size it was built for"
    );
    assert_eq!(
        backend.shard_topology().connection_count(),
        backend.connection_count(),
        "{name}: shard topology must span the connection-slot space"
    );
}

/// The full conformance suite over one backend family; `fresh(seed)` must
/// build a cold backend for `w` with at least 6 connections.
fn conformance_suite<E, F>(name: &str, w: &Workload, mut fresh: F)
where
    E: ExecutorBackend,
    F: FnMut(u64) -> E,
{
    check_byte_identical_logs(name, w, &mut fresh);
    check_advance_to_respects_its_bound(name, w, &mut fresh(7));
    check_running_view_is_connection_ordered(name, &mut fresh(5));
    check_healthy_rounds_surface_no_stall(name, w, &mut fresh);
    check_reports_its_workload_and_topology(name, w, &fresh(13));
}

#[test]
fn execution_engine_passes_conformance() {
    let w = tpch();
    conformance_suite("engine", &w, |seed| {
        ExecutionEngine::new(DbmsProfile::dbms_x(), &w, seed)
    });
}

#[test]
fn learned_simulator_passes_conformance() {
    let w = tpch();
    let (model, embs, avg) = common::simulator_parts(&w);
    conformance_suite("simulator", &w, |_seed| {
        LearnedSimulator::new(&model, &w, &embs, avg.clone(), 6)
    });
}

#[test]
fn sharded_engine_passes_conformance() {
    let w = tpch();
    for shards in [1usize, 2, 4] {
        conformance_suite(&format!("sharded{shards}"), &w, |seed| {
            ShardedEngine::new(DbmsProfile::dbms_x(), &w, seed, shards)
        });
    }
}

/// The cells above run 22 queries on 36/72 slots, so every query starts at
/// t=0 and no slot is ever refilled — the blind spot that once let
/// ahead-shard refill bugs slip through. This cell shrinks the per-shard
/// connection pool until the workload overflows the sharded slot space, so
/// refills land mid-merge and bounded advances fall between cross-shard
/// completions.
#[test]
fn sharded_engine_passes_conformance_when_refills_race_the_merge() {
    let w = tpch();
    let mut profile = DbmsProfile::dbms_x();
    profile.connections = 4;
    for shards in [2usize, 4] {
        assert!(
            w.len() > shards * profile.connections,
            "cell must overflow the slot space to exercise refills"
        );
        conformance_suite(&format!("sharded{shards}x4"), &w, |seed| {
            ShardedEngine::new(profile.clone(), &w, seed, shards)
        });
    }
}

/// The single-shard deployment is not merely self-consistent: it replays the
/// monolithic engine byte for byte through the whole session stack, so the
/// sharded backend inherits every behavioral pin the engine has.
#[test]
fn sharded_one_is_byte_identical_to_the_engine_on_golden_seeds() {
    let w = tpch();
    let profile = DbmsProfile::dbms_x();
    for seed in [0u64, 5] {
        let mut engine = ExecutionEngine::new(profile.clone(), &w, seed);
        let mono = ScheduleSession::builder(&w)
            .dbms(profile.kind)
            .round(seed)
            .build(&mut engine)
            .run(&mut FifoScheduler::new());
        let mut sharded = ShardedEngine::new(profile.clone(), &w, seed, 1);
        let one = ScheduleSession::builder(&w)
            .dbms(profile.kind)
            .round(seed)
            .build(&mut sharded)
            .run(&mut FifoScheduler::new());
        assert_eq!(mono.to_json(), one.to_json(), "seed {seed}");
    }
}

/// And therefore it also matches the engine's pinned on-disk artifact.
#[test]
fn sharded_one_matches_the_engine_golden_artifact() {
    let w = tpch();
    let profile = DbmsProfile::dbms_x();
    let mut sharded = ShardedEngine::new(profile.clone(), &w, 0, 1);
    let json = ScheduleSession::builder(&w)
        .dbms(profile.kind)
        .round(0)
        .build(&mut sharded)
        .run(&mut FifoScheduler::new())
        .to_json();
    common::assert_matches_golden("engine_fifo_tpch_seed0.json", &json);
}

/// Cross-version pins for the sharded backend itself: fixed (workload,
/// profile, seed, shard count) must keep reproducing the same on-disk log,
/// so refactors of the event merge are checked against fixed artifacts
/// rather than run-vs-run. Re-bless deliberately with `BLESS=1`.
#[test]
fn sharded_logs_match_golden_artifacts() {
    let w = tpch();
    let profile = DbmsProfile::dbms_x();
    for (shards, artifact) in [
        (2usize, "engine_sharded2_tpch_seed0.json"),
        (4usize, "engine_sharded4_tpch_seed0.json"),
    ] {
        let mut sharded = ShardedEngine::new(profile.clone(), &w, 0, shards);
        let json = ScheduleSession::builder(&w)
            .dbms(profile.kind)
            .round(0)
            .build(&mut sharded)
            .run(&mut FifoScheduler::new())
            .to_json();
        common::assert_matches_golden(artifact, &json);
    }
}

// --- The async submission adapter (`bq-adapter`) -------------------------
//
// With the synchronous dispatch profile (zero admission latency, batch
// size 1, unbounded window) the adapter must be a drop-in for the wrapped
// backend — so it runs the full conformance suite over all three backend
// families. Deferred-admission behavior gets its own cells below.

#[test]
fn async_adapter_over_the_engine_passes_conformance() {
    let w = tpch();
    conformance_suite("adapter(engine)", &w, |seed| {
        AsyncAdapter::new(
            ExecutionEngine::new(DbmsProfile::dbms_x(), &w, seed),
            DispatchProfile::synchronous(),
        )
    });
}

#[test]
fn async_adapter_over_the_simulator_passes_conformance() {
    let w = tpch();
    let (model, embs, avg) = common::simulator_parts(&w);
    conformance_suite("adapter(simulator)", &w, |_seed| {
        AsyncAdapter::new(
            LearnedSimulator::new(&model, &w, &embs, avg.clone(), 6),
            DispatchProfile::synchronous(),
        )
    });
}

#[test]
fn async_adapter_over_the_sharded_engine_passes_conformance() {
    let w = tpch();
    for shards in [1usize, 2, 4] {
        conformance_suite(&format!("adapter(sharded{shards})"), &w, |seed| {
            AsyncAdapter::new(
                ShardedEngine::new(DbmsProfile::dbms_x(), &w, seed, shards),
                DispatchProfile::synchronous(),
            )
        });
    }
}

/// The load-bearing invariant of the adapter: with zero admission latency
/// and batch size 1 it is **byte-identical** through the whole session
/// stack to the wrapped backend — for the engine, the learned simulator and
/// the sharded backend at 1/2/4 shards. (The engine and sharded cases are
/// additionally pinned over arbitrary workload subsets in
/// `tests/properties.rs`.)
#[test]
fn zero_latency_adapter_replays_every_backend_byte_for_byte() {
    let w = tpch();
    let profile = DbmsProfile::dbms_x();
    for seed in [0u64, 5] {
        let mut bare = ExecutionEngine::new(profile.clone(), &w, seed);
        let base = common::session_round(&mut FifoScheduler::new(), &w, &mut bare, seed);
        let mut wrapped = AsyncAdapter::new(
            ExecutionEngine::new(profile.clone(), &w, seed),
            DispatchProfile::synchronous(),
        );
        let adapted = common::session_round(&mut FifoScheduler::new(), &w, &mut wrapped, seed);
        assert_eq!(base.to_json(), adapted.to_json(), "engine seed {seed}");

        for shards in [1usize, 2, 4] {
            let mut bare = ShardedEngine::new(profile.clone(), &w, seed, shards);
            let base = common::session_round(&mut FifoScheduler::new(), &w, &mut bare, seed);
            let mut wrapped = AsyncAdapter::new(
                ShardedEngine::new(profile.clone(), &w, seed, shards),
                DispatchProfile::synchronous(),
            );
            let adapted = common::session_round(&mut FifoScheduler::new(), &w, &mut wrapped, seed);
            assert_eq!(
                base.to_json(),
                adapted.to_json(),
                "sharded({shards}) seed {seed}"
            );
        }
    }
    let (model, embs, avg) = common::simulator_parts(&w);
    let mut bare = LearnedSimulator::new(&model, &w, &embs, avg.clone(), 6);
    let base = common::session_round(&mut FifoScheduler::new(), &w, &mut bare, 0);
    let mut wrapped = AsyncAdapter::new(
        LearnedSimulator::new(&model, &w, &embs, avg, 6),
        DispatchProfile::synchronous(),
    );
    let adapted = common::session_round(&mut FifoScheduler::new(), &w, &mut wrapped, 0);
    assert_eq!(base.to_json(), adapted.to_json(), "learned simulator");
}

/// Deferred admission under pressure: a tight in-flight window on a small
/// slot pool, so the workload overflows the slot space and submissions wait
/// in the backpressure queue while earlier ones are still in flight. Every
/// query must still complete exactly once, the window must drain, and the
/// whole episode must replay byte-identically.
#[test]
fn async_adapter_backpressure_drains_the_admission_queue() {
    let w = tpch();
    let mut profile = DbmsProfile::dbms_x();
    profile.connections = 4;
    assert!(w.len() > profile.connections, "cell must overflow the pool");
    let dispatch = DispatchProfile::fixed(1.5)
        .with_jitter(1.0)
        .with_max_in_flight(2)
        .with_max_batch(2)
        .with_seed(9);
    let run = |hook: Option<&mut Vec<usize>>| {
        let mut backend = AsyncAdapter::new(ExecutionEngine::new(profile.clone(), &w, 0), dispatch);
        let builder = ScheduleSession::builder(&w);
        let builder = match hook {
            Some(counts) => builder.on_completion(|c| counts[c.query.0] += 1),
            None => builder,
        };
        let log = builder.build(&mut backend).run(&mut FifoScheduler::new());
        assert!(
            backend.connections().iter().all(|s| s.is_free()),
            "no slot may stay occupied after the round"
        );
        assert_eq!(backend.in_flight(), 0);
        log
    };
    let mut counts = vec![0usize; w.len()];
    let log = run(Some(&mut counts));
    assert_eq!(log.len(), w.len(), "every query must complete");
    assert!(
        counts.iter().all(|&n| n == 1),
        "every slot must free exactly once: {counts:?}"
    );
    // The episode is deterministic: an identical replay is byte-identical.
    let replay = run(None);
    assert_eq!(log.to_json(), replay.to_json());
}

// --- The wire-protocol backend (`bq-wire`) --------------------------------
//
// With the zero-latency in-memory transport the wire stack must be a
// drop-in for the hosted backend — every call still round-trips through
// real frame encode/decode, so passing the full conformance suite here
// exercises the codec, the server validation and the client mirror on
// every event of every cell. The fifth backend family: wired engine, wired
// sharded engine, wired learned simulator, the adapter-over-wire
// composition a real deployment would run (admission latency in front of
// wire latency), and the engine behind a real Unix-domain socket.

#[test]
fn wire_backend_over_the_engine_passes_conformance() {
    let w = tpch();
    conformance_suite("wire(engine)", &w, |seed| {
        WireBackend::lossless(ExecutionEngine::new(DbmsProfile::dbms_x(), &w, seed))
    });
}

#[test]
fn wire_backend_over_the_sharded_engine_passes_conformance() {
    let w = tpch();
    for shards in [1usize, 2] {
        conformance_suite(&format!("wire(sharded{shards})"), &w, |seed| {
            WireBackend::lossless(ShardedEngine::new(DbmsProfile::dbms_x(), &w, seed, shards))
        });
    }
}

#[test]
fn wire_backend_over_the_simulator_passes_conformance() {
    let w = tpch();
    let (model, embs, avg) = common::simulator_parts(&w);
    conformance_suite("wire(simulator)", &w, |_seed| {
        WireBackend::lossless(LearnedSimulator::new(&model, &w, &embs, avg.clone(), 6))
    });
}

#[test]
fn async_adapter_over_the_wire_backend_passes_conformance() {
    let w = tpch();
    conformance_suite("adapter(wire(engine))", &w, |seed| {
        AsyncAdapter::new(
            WireBackend::lossless(ExecutionEngine::new(DbmsProfile::dbms_x(), &w, seed)),
            DispatchProfile::synchronous(),
        )
    });
}

/// The composition `fifo_uds` times: a `RemoteBackend` over a Unix-domain
/// socket, at zero transport latency, to an engine served on its own
/// thread the way a `bq-serve` worker serves it. Each fresh backend gets
/// its own socket path and server thread; the thread ends when the backend
/// hangs up, and every one is joined once the suite has dropped them all.
#[test]
fn remote_backend_over_a_unix_socket_passes_conformance() {
    let w = tpch();
    let mut servers = Vec::new();
    conformance_suite("remote(engine)", &w, |seed| {
        let path = std::env::temp_dir().join(format!(
            "bq-conformance-{}-{}.sock",
            std::process::id(),
            servers.len()
        ));
        let mut socket = ServerSocket::bind_uds(&path).expect("bind a Unix socket");
        let engine = ExecutionEngine::new(DbmsProfile::dbms_x(), &w, seed);
        servers.push(std::thread::spawn(move || {
            let mut conn = socket.accept().expect("accept");
            serve_connection(&mut WireServer::new(engine), &mut conn, 50);
        }));
        let client =
            SocketClient::connect(Endpoint::uds(&path), TransportProfile::zero()).expect("connect");
        connect_remote(client).expect("handshake")
    });
    for server in servers {
        server.join().expect("server thread");
    }
}

/// The wired engine is not merely self-consistent: at zero transport
/// latency it replays the engine's pinned on-disk artifact byte for byte,
/// through real serialization of every message.
#[test]
fn wire_backend_matches_the_engine_golden_artifact() {
    let w = tpch();
    let profile = DbmsProfile::dbms_x();
    let mut wired = WireBackend::over_engine(&profile, &w, 0, TransportProfile::zero());
    let json = ScheduleSession::builder(&w)
        .dbms(profile.kind)
        .round(0)
        .build(&mut wired)
        .run(&mut FifoScheduler::new())
        .to_json();
    common::assert_matches_golden("engine_fifo_tpch_seed0.json", &json);
}

/// The deployment shape the wire layer exists for: an `AsyncAdapter`
/// modelling admission latency **over** a `WireBackend` modelling transit
/// latency. The composition must complete every query exactly once and be
/// a pure function of (workload, profile, seed, dispatch profile,
/// transport profile).
#[test]
fn async_adapter_over_a_latency_wire_completes_and_replays() {
    let w = tpch();
    let profile = DbmsProfile::dbms_x();
    let dispatch = DispatchProfile::fixed(0.2)
        .with_jitter(0.1)
        .with_max_in_flight(4)
        .with_max_batch(4)
        .with_seed(3);
    let transport = TransportProfile::fixed(0.05).with_jitter(0.02).with_seed(7);
    let run = || {
        let mut stack = AsyncAdapter::new(
            WireBackend::over_engine(&profile, &w, 1, transport),
            dispatch,
        );
        ScheduleSession::builder(&w)
            .dbms(profile.kind)
            .round(1)
            .build(&mut stack)
            .run(&mut FifoScheduler::new())
    };
    let log = run();
    assert_eq!(log.len(), w.len());
    let mut seen = vec![false; w.len()];
    for r in &log.records {
        assert!(!seen[r.query.0], "duplicate completion for {:?}", r.query);
        seen[r.query.0] = true;
        assert!(r.finished_at > r.started_at);
        assert!(
            r.started_at >= 0.2 + 0.05 - 1e-9,
            "nothing can start before one admission latency plus one wire \
             transit: {}",
            r.started_at
        );
    }
    assert_eq!(log.to_json(), run().to_json(), "replay must be identical");
}

// --- The chaos fault-injection decorator (`bq-chaos`) ---------------------
//
// Under the EMPTY fault schedule the chaos decorator must be a drop-in for
// the wrapped backend — so it runs the full conformance suite over the
// engine and the sharded engine, and replays the engine's pinned golden
// artifact. Under a fixed nonzero schedule the recovered episode must be
// deterministic: replayed twice byte for byte and pinned on disk.

#[test]
fn chaos_backend_with_the_empty_schedule_passes_conformance() {
    let w = tpch();
    conformance_suite("chaos(engine)", &w, |seed| {
        ChaosBackend::new(
            ExecutionEngine::new(DbmsProfile::dbms_x(), &w, seed),
            &FaultSchedule::from_events(Vec::new()),
        )
    });
    for shards in [1usize, 2] {
        conformance_suite(&format!("chaos(sharded{shards})"), &w, |seed| {
            ChaosBackend::new(
                ShardedEngine::new(DbmsProfile::dbms_x(), &w, seed, shards),
                &FaultSchedule::from_events(Vec::new()),
            )
        });
    }
}

/// The empty-schedule chaos decorator is not merely self-consistent: it
/// replays the engine's pinned on-disk artifact byte for byte through the
/// whole session stack.
#[test]
fn chaos_backend_with_the_empty_schedule_matches_the_engine_golden_artifact() {
    let w = tpch();
    let profile = DbmsProfile::dbms_x();
    let mut chaotic = ChaosBackend::new(
        ExecutionEngine::new(profile.clone(), &w, 0),
        &FaultSchedule::from_events(Vec::new()),
    );
    let json = ScheduleSession::builder(&w)
        .dbms(profile.kind)
        .round(0)
        .build(&mut chaotic)
        .run(&mut FifoScheduler::new())
        .to_json();
    common::assert_matches_golden("engine_fifo_tpch_seed0.json", &json);
}

/// A recovered chaos episode — a bounded stall on shard 0 and a permanent
/// death of shard 1, absorbed by the fault-aware router and a bounded
/// recovery policy — is deterministic: two cold runs replay byte for byte,
/// faults and resubmissions included, and the log is pinned against an
/// on-disk golden artifact. Re-bless deliberately with `BLESS=1`.
#[test]
fn chaos_episode_replays_identically_and_matches_golden_artifact() {
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
        let mut chaotic =
            ChaosBackend::new(ShardedEngine::new(profile.clone(), &w, 0, 2), &schedule);
        ScheduleSession::builder(&w)
            .dbms(profile.kind)
            .round(0)
            .router(FaultAwareRouter::new(LeastLoadedRouter))
            .recovery(RecoveryPolicy)
            .build(&mut chaotic)
            .run(&mut FifoScheduler::new())
    };
    let log = run();
    assert_eq!(log.len(), w.len(), "recovery must complete the episode");
    assert!(log.lost_queries() >= 1, "the death must cost something");
    assert_eq!(
        log.to_json(),
        run().to_json(),
        "a chaos episode must replay byte-identically"
    );
    common::assert_matches_golden("chaos_stall_death_tpch_seed0.json", &log.to_json());
}

// --- The observability layer (`bq-obs`) -----------------------------------
//
// The tracing-never-perturbs contract: attaching a *recording* observability
// handle to any layer of any backend stack must leave the episode log
// byte-identical to the unobserved run — observation reads virtual time and
// identities, and nothing flows back. One cell per backend family, each
// observing both the backend and the session, each also proving the run was
// actually observed (a vacuous pass with an inert handle proves nothing).

use bqsched::obs::Obs;

fn check_recording_obs_never_perturbs<E, F, G>(
    name: &str,
    w: &Workload,
    mut fresh: F,
    mut attach: G,
    backend_counter: &'static str,
) where
    E: ExecutorBackend,
    F: FnMut(u64) -> E,
    G: FnMut(&mut E, Obs),
{
    for seed in [0u64, 3] {
        let plain = {
            let mut backend = fresh(seed);
            ScheduleSession::builder(w)
                .round(seed)
                .build(&mut backend)
                .run(&mut FifoScheduler::new())
                .to_json()
        };
        let obs = Obs::recording();
        let observed = {
            let mut backend = fresh(seed);
            attach(&mut backend, obs.clone());
            ScheduleSession::builder(w)
                .round(seed)
                .obs(obs.clone())
                .build(&mut backend)
                .run(&mut FifoScheduler::new())
                .to_json()
        };
        assert_eq!(
            plain, observed,
            "{name}: recording observability perturbed the episode (seed {seed})"
        );
        assert!(
            obs.counter("session_decisions") > 0,
            "{name}: the session layer must actually have been observed"
        );
        assert!(
            obs.counter(backend_counter) > 0,
            "{name}: the backend layer must actually have been observed \
             ({backend_counter} stayed 0)"
        );
        assert!(
            !obs.trace_jsonl().is_empty(),
            "{name}: the recording sink must have captured events"
        );
    }
}

#[test]
fn recording_observability_never_perturbs_any_backend_family() {
    let w = tpch();
    let profile = DbmsProfile::dbms_x();
    check_recording_obs_never_perturbs(
        "engine",
        &w,
        |seed| ExecutionEngine::new(profile.clone(), &w, seed),
        |b, o| b.set_obs(o),
        "engine_advances",
    );
    check_recording_obs_never_perturbs(
        "sharded2",
        &w,
        |seed| ShardedEngine::new(profile.clone(), &w, seed, 2),
        |b, o| b.set_obs(o),
        "sharded_deliveries",
    );
    check_recording_obs_never_perturbs(
        "adapter(engine)",
        &w,
        |seed| {
            AsyncAdapter::new(
                ExecutionEngine::new(profile.clone(), &w, seed),
                DispatchProfile::fixed(0.2)
                    .with_max_in_flight(2)
                    .with_max_batch(2)
                    .with_seed(seed),
            )
        },
        |b, o| b.set_obs(o),
        "adapter_admissions",
    );
    check_recording_obs_never_perturbs(
        "wire(engine)",
        &w,
        |seed| {
            WireBackend::over_engine(
                &profile,
                &w,
                seed,
                TransportProfile::fixed(0.05).with_seed(seed),
            )
        },
        |b, o| b.set_obs(o),
        "wire_frames_sent",
    );
}

/// The chaos family needs its own cell: a recovered episode requires the
/// fault-aware router and a recovery policy on the session, and the thing
/// worth pinning is that observing the *faulted* path — fault events, lost
/// queries, recovery resubmissions — perturbs nothing either.
#[test]
fn recording_observability_never_perturbs_a_recovered_chaos_episode() {
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
    for seed in [0u64, 3] {
        let run = |obs: Option<Obs>| {
            let mut chaotic =
                ChaosBackend::new(ShardedEngine::new(profile.clone(), &w, seed, 2), &schedule);
            let mut builder = ScheduleSession::builder(&w)
                .round(seed)
                .router(FaultAwareRouter::new(LeastLoadedRouter))
                .recovery(RecoveryPolicy);
            if let Some(obs) = obs {
                chaotic.set_obs(obs.clone());
                builder = builder.obs(obs);
            }
            builder
                .build(&mut chaotic)
                .run(&mut FifoScheduler::new())
                .to_json()
        };
        let obs = Obs::recording();
        assert_eq!(
            run(None),
            run(Some(obs.clone())),
            "chaos: recording observability perturbed the episode (seed {seed})"
        );
        assert!(
            obs.counter("chaos_shard_died") >= 1,
            "the observed run must have seen the death"
        );
        assert!(
            obs.counter("session_queries_lost") >= 1
                && obs.histogram("session_recovery_latency").is_some(),
            "the recovery path must have been observed"
        );
    }
}

/// The canonical trace artifact — one recording FIFO episode over the plain
/// engine on TPC-H seed 0, the exact JSONL `--trace-out` dumps — is a pure
/// function of the episode: two cold recordings are byte-identical, and the
/// artifact is pinned on disk. Re-bless deliberately with `BLESS=1`.
#[test]
fn golden_trace_artifact_replays_identically() {
    let w = tpch();
    let first = bq_bench::trace_artifact();
    let second = bq_bench::trace_artifact();
    assert_eq!(
        first, second,
        "the trace artifact must replay byte-identically"
    );
    // At minimum one decision and one completion event per query, plus
    // engine advances — and every line is a self-contained JSON object.
    assert!(first.lines().count() >= 2 * w.len());
    assert!(first.lines().all(|l| l.starts_with("{\"kind\":\"")));
    assert!(first.lines().any(|l| l.contains("\"kind\":\"decision\"")));
    assert!(first
        .lines()
        .any(|l| l.contains("\"kind\":\"completion_delivered\"")));
    common::assert_matches_golden("trace_engine_tpch_seed0.jsonl", &first);
}

/// Cross-version pin for a nonzero-latency adapter configuration: fixed
/// (workload, profile, seed, dispatch profile) must keep reproducing the
/// same on-disk log. Re-bless deliberately with `BLESS=1`.
#[test]
fn async_adapter_log_matches_golden_artifact() {
    let w = tpch();
    let profile = DbmsProfile::dbms_x();
    let dispatch = DispatchProfile::fixed(0.5)
        .with_jitter(0.25)
        .with_max_in_flight(8)
        .with_max_batch(4)
        .with_seed(1);
    let mut adapter = AsyncAdapter::new(ExecutionEngine::new(profile.clone(), &w, 0), dispatch);
    let json = ScheduleSession::builder(&w)
        .dbms(profile.kind)
        .round(0)
        .build(&mut adapter)
        .run(&mut FifoScheduler::new())
        .to_json();
    common::assert_matches_golden("engine_async_tpch_seed0.json", &json);
}
