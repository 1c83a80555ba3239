//! Property-based tests on cross-crate invariants: the execution engine never
//! loses queries and respects physical bounds, the async submission adapter
//! is a byte-identical passthrough at zero latency and a pure function of its
//! dispatch profile otherwise, the wire-protocol backend is a byte-identical
//! passthrough over the zero-latency transport and a pure function of its
//! transport profile otherwise, the chaos decorators are byte-identical
//! passthroughs under the empty fault schedule and recovered chaos episodes
//! are a pure function of the schedule otherwise, the gain matrix is
//! symmetric, masking never removes every configuration, and clustering
//! always yields a partition — for arbitrary workload subsets, seeds and
//! parameters.

use bqsched::adapter::{AsyncAdapter, DispatchProfile};
use bqsched::chaos::{ChaosBackend, ChaosTransport, FaultSchedule, FaultSpec};
use bqsched::core::{
    collect_history, FaultAwareRouter, FifoScheduler, LeastLoadedRouter, RandomScheduler,
    RecoveryPolicy, ScheduleSession,
};
use bqsched::dbms::{DbmsProfile, ExecutionEngine, ParamSpace, ShardedEngine};
use bqsched::plan::{generate, Benchmark, QueryId, WorkloadSpec};
use bqsched::sched::{gains_from_history, AdaptiveMask, QueryClustering};
use bqsched::wire::{Loopback, TransportProfile, WireBackend, WireServer};
use proptest::prelude::*;

fn workload_for(benchmark: Benchmark, n: usize) -> bqsched::plan::Workload {
    let w = generate(&WorkloadSpec::new(benchmark, 1.0, 1));
    let n = n.min(w.len()).max(2);
    w.subset(&(0..n).collect::<Vec<_>>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engine_conserves_queries_and_time(seed in 0u64..500, n in 4usize..22) {
        let workload = workload_for(Benchmark::TpcH, n);
        let profile = DbmsProfile::dbms_x();
        let log = ScheduleSession::builder(&workload)
            .run_on_profile(&profile, seed, &mut RandomScheduler::new(seed));
        // Every query completes exactly once.
        prop_assert_eq!(log.len(), workload.len());
        let mut seen = vec![false; workload.len()];
        for r in &log.records {
            prop_assert!(!seen[r.query.0]);
            seen[r.query.0] = true;
            prop_assert!(r.finished_at > r.started_at);
        }
        // Makespan bounds: at least the longest query, at most the serial sum.
        let longest = log.records.iter().map(|r| r.duration()).fold(0.0, f64::max);
        let serial: f64 = log.records.iter().map(|r| r.duration()).sum();
        prop_assert!(log.makespan() >= longest - 1e-6);
        prop_assert!(log.makespan() <= serial + 1e-6);
    }

    #[test]
    fn scheduling_order_does_not_lose_connections(seed in 0u64..200) {
        let workload = workload_for(Benchmark::TpcH, 22);
        let profile = DbmsProfile::dbms_y();
        let log = ScheduleSession::builder(&workload)
            .run_on_profile(&profile, seed, &mut RandomScheduler::new(seed));
        // No connection index outside the profile's range is ever used.
        for r in &log.records {
            prop_assert!(r.connection < profile.connections);
        }
    }

    #[test]
    fn single_shard_episodes_are_byte_identical_to_the_engine(seed in 0u64..300, n in 4usize..22) {
        // For ANY workload subset and seed, `ShardedEngine` with shards=1 is
        // not just equivalent to the monolithic engine — its episode log is
        // byte for byte the same, through the whole session stack. This pins
        // the global↔shard slot mapping, the clock anchoring and the event
        // merge to "exactly the engine" in the degenerate case.
        let workload = workload_for(Benchmark::TpcH, n);
        let profile = DbmsProfile::dbms_x();
        let mut engine = ExecutionEngine::new(profile.clone(), &workload, seed);
        let mono = ScheduleSession::builder(&workload)
            .round(seed)
            .build(&mut engine)
            .run(&mut FifoScheduler::new());
        let mut sharded = ShardedEngine::new(profile, &workload, seed, 1);
        let one = ScheduleSession::builder(&workload)
            .round(seed)
            .build(&mut sharded)
            .run(&mut FifoScheduler::new());
        prop_assert_eq!(mono.to_json(), one.to_json());
    }

    #[test]
    fn shard_count_never_changes_the_completed_set(seed in 0u64..200, n in 4usize..22) {
        // Scaling the shard count redistributes queries over shards (so
        // timings shift with the new intra-shard mixes), but never the *set*
        // of completed queries: every query completes exactly once at every
        // shard count, with a positive duration — and per shard count the
        // per-query durations are a deterministic function of the seed.
        let workload = workload_for(Benchmark::TpcH, n);
        let profile = DbmsProfile::dbms_x();
        for shards in [1usize, 2, 4] {
            let run = || {
                let mut e = ShardedEngine::new(profile.clone(), &workload, seed, shards);
                ScheduleSession::builder(&workload)
                    .round(seed)
                    .build(&mut e)
                    .run(&mut FifoScheduler::new())
            };
            let log = run();
            prop_assert_eq!(log.len(), workload.len(), "{} shards lost queries", shards);
            let mut seen = vec![false; workload.len()];
            for r in &log.records {
                prop_assert!(!seen[r.query.0], "{} shards: duplicate completion", shards);
                seen[r.query.0] = true;
                prop_assert!(r.finished_at > r.started_at);
            }
            prop_assert!(seen.iter().all(|&s| s));
            // Determinism of the per-query durations at this shard count.
            let replay = run();
            for (a, b) in log.records.iter().zip(&replay.records) {
                prop_assert_eq!(a.query, b.query);
                prop_assert_eq!(a.duration(), b.duration());
            }
        }
    }

    #[test]
    fn zero_latency_adapter_is_byte_identical_for_any_subset(seed in 0u64..300, n in 4usize..22) {
        // For ANY workload subset and seed, wrapping the engine in an
        // `AsyncAdapter` with the synchronous dispatch profile (zero
        // admission latency, batch size 1) changes NOTHING: the episode log
        // is byte for byte the wrapped backend's, through the whole session
        // stack. This is the adapter's load-bearing invariant.
        let workload = workload_for(Benchmark::TpcH, n);
        let profile = DbmsProfile::dbms_x();
        let mut bare = ExecutionEngine::new(profile.clone(), &workload, seed);
        let base = ScheduleSession::builder(&workload)
            .round(seed)
            .build(&mut bare)
            .run(&mut FifoScheduler::new());
        let mut wrapped = AsyncAdapter::new(
            ExecutionEngine::new(profile, &workload, seed),
            DispatchProfile::synchronous(),
        );
        let adapted = ScheduleSession::builder(&workload)
            .round(seed)
            .build(&mut wrapped)
            .run(&mut FifoScheduler::new());
        prop_assert_eq!(base.to_json(), adapted.to_json());
    }

    #[test]
    fn zero_latency_adapter_is_byte_identical_on_the_sharded_backend(
        seed in 0u64..100,
        n in 4usize..22,
        shard_idx in 0usize..3,
    ) {
        let shards = [1usize, 2, 4][shard_idx];
        let workload = workload_for(Benchmark::TpcH, n);
        let profile = DbmsProfile::dbms_x();
        let mut bare = ShardedEngine::new(profile.clone(), &workload, seed, shards);
        let base = ScheduleSession::builder(&workload)
            .round(seed)
            .build(&mut bare)
            .run(&mut FifoScheduler::new());
        let mut wrapped = AsyncAdapter::new(
            ShardedEngine::new(profile, &workload, seed, shards),
            DispatchProfile::synchronous(),
        );
        let adapted = ScheduleSession::builder(&workload)
            .round(seed)
            .build(&mut wrapped)
            .run(&mut FifoScheduler::new());
        prop_assert_eq!(base.to_json(), adapted.to_json());
    }

    #[test]
    fn adapter_episodes_are_a_pure_function_of_the_dispatch_profile(
        seed in 0u64..200,
        n in 4usize..22,
        latency_deci in 1u32..30,
        window in 1usize..6,
        batch in 1usize..6,
    ) {
        // For ANY deferred-admission configuration, the episode log is a
        // pure function of (workload, profile, seed, dispatch profile):
        // replays are byte-identical, every query completes exactly once,
        // and nothing starts before one base admission latency has elapsed.
        let workload = workload_for(Benchmark::TpcH, n);
        let profile = DbmsProfile::dbms_x();
        let base_latency = latency_deci as f64 / 10.0;
        let dispatch = DispatchProfile::fixed(base_latency)
            .with_jitter(0.5)
            .with_max_in_flight(window)
            .with_max_batch(batch)
            .with_seed(seed);
        let run = || {
            let mut adapter = AsyncAdapter::new(
                ExecutionEngine::new(profile.clone(), &workload, seed),
                dispatch,
            );
            ScheduleSession::builder(&workload)
                .round(seed)
                .build(&mut adapter)
                .run(&mut FifoScheduler::new())
        };
        let log = run();
        prop_assert_eq!(log.len(), workload.len());
        let mut seen = vec![false; workload.len()];
        for r in &log.records {
            prop_assert!(!seen[r.query.0], "duplicate completion");
            seen[r.query.0] = true;
            prop_assert!(r.finished_at > r.started_at);
            prop_assert!(
                r.started_at >= base_latency - 1e-9,
                "no query can start before one admission latency"
            );
        }
        prop_assert!(seen.iter().all(|&s| s));
        prop_assert_eq!(log.to_json(), run().to_json(), "replay must be byte-identical");
    }

    #[test]
    fn zero_latency_wire_is_byte_identical_for_any_subset(seed in 0u64..300, n in 4usize..22) {
        // For ANY workload subset and seed, running the session against the
        // engine THROUGH the framed wire protocol (every call encoded,
        // transmitted, decoded, validated) over the zero-latency transport
        // changes NOTHING: the episode log is byte for byte the bare
        // engine's. This is the wire stack's load-bearing invariant.
        let workload = workload_for(Benchmark::TpcH, n);
        let profile = DbmsProfile::dbms_x();
        let mut bare = ExecutionEngine::new(profile.clone(), &workload, seed);
        let base = ScheduleSession::builder(&workload)
            .round(seed)
            .build(&mut bare)
            .run(&mut FifoScheduler::new());
        let mut wired = WireBackend::over_engine(&profile, &workload, seed, TransportProfile::zero());
        let over_wire = ScheduleSession::builder(&workload)
            .round(seed)
            .build(&mut wired)
            .run(&mut FifoScheduler::new());
        prop_assert_eq!(base.to_json(), over_wire.to_json());
    }

    #[test]
    fn wired_episodes_are_a_pure_function_of_the_transport_profile(
        seed in 0u64..200,
        n in 4usize..22,
        latency_centi in 1u32..50,
        jitter_centi in 0u32..20,
    ) {
        // For ANY latency-injecting transport configuration, the wired
        // episode is a pure function of (workload, profile, seed, transport
        // profile): replays are byte-identical, every query completes
        // exactly once, and nothing starts before one wire transit.
        let workload = workload_for(Benchmark::TpcH, n);
        let profile = DbmsProfile::dbms_x();
        let base_latency = latency_centi as f64 / 100.0;
        let transport = TransportProfile::fixed(base_latency)
            .with_jitter(jitter_centi as f64 / 100.0)
            .with_seed(seed);
        let run = || {
            let mut wired = WireBackend::over_engine(&profile, &workload, seed, transport);
            ScheduleSession::builder(&workload)
                .round(seed)
                .build(&mut wired)
                .run(&mut FifoScheduler::new())
        };
        let log = run();
        prop_assert_eq!(log.len(), workload.len());
        let mut seen = vec![false; workload.len()];
        for r in &log.records {
            prop_assert!(!seen[r.query.0], "duplicate completion");
            seen[r.query.0] = true;
            prop_assert!(r.finished_at > r.started_at);
            prop_assert!(
                r.started_at >= base_latency - 1e-9,
                "no query can start before one wire transit"
            );
        }
        prop_assert!(seen.iter().all(|&s| s));
        prop_assert_eq!(log.to_json(), run().to_json(), "replay must be byte-identical");
    }

    #[test]
    fn empty_chaos_schedule_backend_is_byte_identical_for_any_subset(
        seed in 0u64..200,
        n in 4usize..22,
        shard_idx in 0usize..3,
    ) {
        // For ANY workload subset, seed and shard count, decorating the
        // sharded backend with a `ChaosBackend` carrying the EMPTY fault
        // schedule changes NOTHING: the episode log is byte for byte the
        // bare backend's, through the whole session stack. This is the
        // chaos subsystem's load-bearing invariant — fault injection is
        // strictly additive.
        let shards = [1usize, 2, 4][shard_idx];
        let workload = workload_for(Benchmark::TpcH, n);
        let profile = DbmsProfile::dbms_x();
        let mut bare = ShardedEngine::new(profile.clone(), &workload, seed, shards);
        let base = ScheduleSession::builder(&workload)
            .round(seed)
            .build(&mut bare)
            .run(&mut FifoScheduler::new());
        let mut chaotic = ChaosBackend::new(
            ShardedEngine::new(profile, &workload, seed, shards),
            &FaultSchedule::from_events(Vec::new()),
        );
        let quiet = ScheduleSession::builder(&workload)
            .round(seed)
            .build(&mut chaotic)
            .run(&mut FifoScheduler::new());
        prop_assert_eq!(base.to_json(), quiet.to_json());
    }

    #[test]
    fn empty_chaos_schedule_transport_is_byte_identical_for_any_subset(
        seed in 0u64..200,
        n in 4usize..22,
    ) {
        // Same invariant one layer down: a `ChaosTransport` carrying the
        // empty schedule over the zero-latency duplex leaves the whole wire
        // stack byte-identical to the bare engine.
        let workload = workload_for(Benchmark::TpcH, n);
        let profile = DbmsProfile::dbms_x();
        let mut bare = ExecutionEngine::new(profile.clone(), &workload, seed);
        let base = ScheduleSession::builder(&workload)
            .round(seed)
            .build(&mut bare)
            .run(&mut FifoScheduler::new());
        let transport = ChaosTransport::lossless(&FaultSchedule::from_events(Vec::new()), seed);
        let server = WireServer::new(ExecutionEngine::new(profile, &workload, seed));
        let mut wired =
            WireBackend::connect(Loopback::new(server, transport)).expect("clean handshake");
        let quiet = ScheduleSession::builder(&workload)
            .round(seed)
            .build(&mut wired)
            .run(&mut FifoScheduler::new());
        prop_assert_eq!(base.to_json(), quiet.to_json());
    }

    #[test]
    fn chaos_episodes_are_a_pure_function_of_the_fault_schedule(
        seed in 0u64..100,
        n in 6usize..22,
        stall_deci in 1u32..6,
        death_deci in 3u32..12,
    ) {
        // For ANY nonzero fault schedule drawn from this family (a bounded
        // stall on shard 0 and a permanent death of shard 1), the recovered
        // episode is a pure function of (workload, seed, schedule): every
        // query still completes exactly once, and the replay — faults,
        // resubmissions and all — is byte-identical.
        let workload = workload_for(Benchmark::TpcH, n);
        let profile = DbmsProfile::dbms_x();
        let stall_at = stall_deci as f64 / 10.0;
        let schedule = FaultSchedule::from_events(vec![
            FaultSpec::ShardStall {
                shard: 0,
                at: stall_at,
                resume_at: stall_at + 0.2,
            },
            FaultSpec::ShardDeath {
                shard: 1,
                at: death_deci as f64 / 10.0,
            },
        ]);
        let run = || {
            let mut chaotic = ChaosBackend::new(
                ShardedEngine::new(profile.clone(), &workload, seed, 2),
                &schedule,
            );
            ScheduleSession::builder(&workload)
                .round(seed)
                .router(FaultAwareRouter::new(LeastLoadedRouter))
                .recovery(RecoveryPolicy::bounded())
                .build(&mut chaotic)
                .run(&mut FifoScheduler::new())
        };
        let log = run();
        prop_assert_eq!(log.len(), workload.len(), "recovery must complete the episode");
        let mut seen = vec![false; workload.len()];
        for r in &log.records {
            prop_assert!(!seen[r.query.0], "duplicate completion");
            seen[r.query.0] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
        prop_assert_eq!(log.to_json(), run().to_json(), "replay must be byte-identical");
    }

    #[test]
    fn gain_matrix_is_symmetric_and_finite(rounds in 1u64..4, n in 4usize..16) {
        let workload = workload_for(Benchmark::TpcH, n);
        let profile = DbmsProfile::dbms_x();
        let history = collect_history(&mut FifoScheduler::new(), &workload, &profile, rounds, 3);
        let gains = gains_from_history(&history, workload.len());
        for i in 0..workload.len() {
            for j in 0..workload.len() {
                let a = gains.gain(QueryId(i), QueryId(j));
                let b = gains.gain(QueryId(j), QueryId(i));
                prop_assert!((a - b).abs() < 1e-12);
                prop_assert!(a.is_finite());
            }
        }
    }

    #[test]
    fn adaptive_mask_always_leaves_an_allowed_config(n in 2usize..40) {
        let workload = workload_for(Benchmark::TpcDs, n);
        let space = ParamSpace::full();
        let mask = AdaptiveMask::from_workload(&workload, &space, DbmsProfile::dbms_x().low_mem_grant_pages);
        for i in 0..workload.len() {
            prop_assert!(mask.allowed(QueryId(i)).iter().any(|&a| a), "query {} fully masked", i);
        }
    }

    #[test]
    fn clustering_is_always_a_partition(n in 4usize..30, k in 1usize..12) {
        let workload = workload_for(Benchmark::TpcDs, n);
        let profile = DbmsProfile::dbms_x();
        let history = collect_history(&mut FifoScheduler::new(), &workload, &profile, 1, 9);
        let gains = gains_from_history(&history, workload.len());
        let clustering = QueryClustering::agglomerative(&gains, k);
        prop_assert!(clustering.num_clusters() <= workload.len());
        prop_assert!(clustering.num_clusters() >= 1);
        let mut seen = vec![false; workload.len()];
        for c in 0..clustering.num_clusters() {
            for q in clustering.members(c) {
                prop_assert!(!seen[q.0]);
                seen[q.0] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }
}
