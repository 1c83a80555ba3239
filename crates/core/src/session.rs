//! The [`ScheduleSession`] facade: one entry point for running a scheduling
//! round against any [`ExecutorBackend`].
//!
//! A session owns the per-query runtime arena and drives the event loop that
//! the paper's problem simplification prescribes ("we select and submit the
//! next query to execute to connection c_i once the previous query on c_i
//! finishes"): fill every free connection while queries pend, then consume
//! executor events until the next completion(s), repeat. The hot loop is
//! allocation-free — [`SchedulingState`] borrows the arena instead of being
//! cloned per decision, and connection occupancy is read from the backend's
//! borrowed [`ConnectionSlot`] slice.
//!
//! ```
//! use bq_core::{FifoScheduler, ScheduleSession};
//! use bq_dbms::{DbmsProfile, ExecutionEngine};
//! use bq_plan::{generate, Benchmark, WorkloadSpec};
//!
//! let workload = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
//! let profile = DbmsProfile::dbms_x();
//! let mut engine = ExecutionEngine::new(profile.clone(), &workload, 0);
//! let log = ScheduleSession::builder(&workload)
//!     .dbms(profile.kind)
//!     .round(0)
//!     .build(&mut engine)
//!     .run(&mut FifoScheduler::new());
//! assert_eq!(log.len(), workload.len());
//! ```

use crate::log::{EpisodeLog, ExecutionHistory};
use crate::routing::ShardRouter;
use crate::scheduler::{RecoveryPolicy, SchedulerPolicy};
use crate::state::{QueryRuntime, QueryStatus, SchedulingState};
use bq_dbms::{
    ConnectionSlot, DbmsKind, ExecEvent, ExecutorBackend, FaultEvent, QueryCompletion, RunParams,
    ShardTopology,
};
use bq_obs::{Obs, TraceEvent, TraceKind};
use bq_plan::{QueryId, Workload};

/// Callback invoked on every completion.
pub type CompletionHook<'a> = Box<dyn FnMut(&QueryCompletion) + 'a>;

/// Tolerance when comparing virtual-time instants (recovery backoff
/// arithmetic).
const TIME_EPS: f64 = 1e-9;

/// Configures and builds a [`ScheduleSession`].
///
/// Collapses the positional-argument episode runners into one readable entry
/// point: workload, backend, history, round label, completion hook, router,
/// recovery and observability all live here.
pub struct ScheduleSessionBuilder<'a> {
    workload: &'a Workload,
    history: Option<&'a ExecutionHistory>,
    dbms: Option<DbmsKind>,
    round: Option<u64>,
    on_completion: Option<CompletionHook<'a>>,
    router: Option<Box<dyn ShardRouter + 'a>>,
    recovery: Option<RecoveryPolicy>,
    obs: Obs,
}

impl<'a> ScheduleSessionBuilder<'a> {
    fn new(workload: &'a Workload) -> Self {
        Self {
            workload,
            history: None,
            dbms: None,
            round: None,
            on_completion: None,
            router: None,
            recovery: None,
            obs: Obs::off(),
        }
    }

    /// Use `history` to populate the per-query average execution times that
    /// feed the `t̄_i` running-state feature and cost-based heuristics.
    pub fn history(mut self, history: &'a ExecutionHistory) -> Self {
        self.history = Some(history);
        self
    }

    /// Like [`ScheduleSessionBuilder::history`], but accepts an `Option`
    /// (convenient when threading history through generic call sites).
    pub fn maybe_history(mut self, history: Option<&'a ExecutionHistory>) -> Self {
        self.history = history;
        self
    }

    /// Label the episode log with the DBMS the round ran on (default: X).
    pub fn dbms(mut self, dbms: DbmsKind) -> Self {
        self.dbms = Some(dbms);
        self
    }

    /// Round index recorded in the episode log (default: 0).
    pub fn round(mut self, round: u64) -> Self {
        self.round = Some(round);
        self
    }

    /// Invoke `hook` on every completion, after the log records it.
    pub fn on_completion(mut self, hook: impl FnMut(&QueryCompletion) + 'a) -> Self {
        self.on_completion = Some(Box::new(hook));
        self
    }

    /// Route submissions through `router` instead of always filling the
    /// lowest-numbered free connection. The router sees the backend's
    /// [`ShardTopology`] (queried once at build time)
    /// and the live occupancy view, so placement can be shard-aware on a
    /// sharded backend — on a monolithic backend every router degrades to a
    /// within-shard choice. Accepts a router by value or by `&mut` borrow
    /// (to read its state back after the round). Default: first-free.
    pub fn router(mut self, router: impl ShardRouter + 'a) -> Self {
        self.router = Some(Box::new(router));
        self
    }

    /// Turn on recovery from faults reported by the backend (via
    /// [`ExecutorBackend::poll_fault`]): a query reported as
    /// [`FaultEvent::QueryLost`] is resubmitted after the seeded
    /// [`RecoveryPolicy::backoff`], for at most
    /// [`RecoveryPolicy::MAX_RETRIES`] attempts per query. Resubmissions
    /// re-enter the session's normal fill loop — they compete for free
    /// connections like first-time submissions, so an async adapter's
    /// admission window and backpressure queue apply to them unchanged.
    /// Fault and recovery events are recorded in the episode log. Without
    /// recovery, a lost query fails the round loudly.
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Observe the round through `obs`: per-round decision counts, queue
    /// depth and latency histograms land in its metrics registry, and a
    /// typed trace event is emitted for every decision, completion and
    /// recovery resubmission. Observation is strictly read-only — the
    /// episode is byte-identical with observability off, on, or recording
    /// (pinned by the conformance passthrough cell). Metric names are
    /// pre-registered at build time so steady-state recording stays
    /// allocation-free. Default: [`Obs::off`].
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The common "one round on a fresh simulated DBMS" shape: build an
    /// [`ExecutionEngine`](bq_dbms::ExecutionEngine) from `profile` seeded
    /// with `seed` and run `policy` to completion. Unless the caller set
    /// them explicitly, the log is labeled with `profile.kind` and
    /// `round(seed)`.
    pub fn run_on_profile(
        mut self,
        profile: &bq_dbms::DbmsProfile,
        seed: u64,
        policy: &mut dyn SchedulerPolicy,
    ) -> EpisodeLog {
        let mut engine = bq_dbms::ExecutionEngine::new(profile.clone(), self.workload, seed);
        self.dbms = Some(self.dbms.unwrap_or(profile.kind));
        self.round = Some(self.round.unwrap_or(seed));
        self.build(&mut engine).run(policy)
    }

    /// Attach the executor backend and finish building.
    pub fn build<E: ExecutorBackend>(self, backend: &'a mut E) -> ScheduleSession<'a, E> {
        let n = self.workload.len();
        let runtimes = (0..n)
            .map(|i| {
                let avg = self
                    .history
                    .and_then(|h| h.avg_exec_time(bq_plan::QueryId(i)))
                    .unwrap_or(0.0);
                QueryRuntime::pending(avg)
            })
            .collect();
        let topology = backend.shard_topology();
        self.obs.preregister(
            &["session_decisions", "session_fills", "session_queries_lost"],
            &[
                "session_queue_depth",
                "session_query_duration",
                "session_recovery_latency",
            ],
        );
        ScheduleSession {
            workload: self.workload,
            dbms: self.dbms.unwrap_or(DbmsKind::X),
            round: self.round.unwrap_or(0),
            on_completion: self.on_completion,
            router: self.router,
            recovery: self.recovery,
            obs: self.obs,
            topology,
            backend,
            runtimes,
            batch: Vec::new(),
            slot_scratch: Vec::new(),
            cooling: Vec::new(),
            resubmit_attempts: vec![0; n],
            idle_spins: 0,
            finished: 0,
            pending_count: n,
        }
    }
}

/// One scheduling round bound to a backend, ready to [`ScheduleSession::run`].
pub struct ScheduleSession<'a, E> {
    workload: &'a Workload,
    dbms: DbmsKind,
    round: u64,
    on_completion: Option<CompletionHook<'a>>,
    /// Placement policy for submissions; `None` = first free connection.
    router: Option<Box<dyn ShardRouter + 'a>>,
    /// Resubmit-on-loss policy; `None` = any lost query fails the round.
    recovery: Option<RecoveryPolicy>,
    /// Observability handle; [`Obs::off`] unless the builder attached one.
    obs: Obs,
    /// The backend's slot-space partition, queried once at build time.
    topology: ShardTopology,
    backend: &'a mut E,
    /// Session-owned runtime arena; [`SchedulingState`] borrows it.
    runtimes: Vec<QueryRuntime>,
    /// Reusable buffer collecting every decision made at one observable
    /// instant, dispatched together through
    /// [`ExecutorBackend::submit_batch`].
    batch: Vec<(QueryId, RunParams, usize)>,
    /// Reusable occupancy copy in which the current instant's earlier
    /// decisions are marked [`ConnectionSlot::Pending`], so routing sees
    /// reserved slots before the batch reaches the backend.
    slot_scratch: Vec<ConnectionSlot>,
    /// Lost queries waiting out their recovery backoff: `(eligible_at,
    /// lost_at, query)`. Flipped back to `Pending` once the clock reaches
    /// `eligible_at`, re-entering the fill loop's admission path; the loss
    /// instant rides along so the resubmission can report its recovery
    /// latency.
    cooling: Vec<(f64, f64, QueryId)>,
    /// Per-query resubmission count, checked against the recovery budget.
    resubmit_attempts: Vec<u32>,
    /// Consecutive idle polls with pending-but-unroutable queries; bounds
    /// the recovery loop so an unrecoverable cluster fails loudly.
    idle_spins: usize,
    finished: usize,
    /// Number of arena entries currently [`QueryStatus::Pending`], maintained
    /// at every status transition so the fill loop's "work left?" check is
    /// O(1) instead of an O(queries) scan per decision.
    pending_count: usize,
}

impl<'a> ScheduleSession<'a, ()> {
    /// Start configuring a session for `workload`.
    ///
    /// (`()` is a type-level "no backend yet" placeholder; the concrete
    /// backend is attached by [`ScheduleSessionBuilder::build`].)
    pub fn builder(workload: &Workload) -> ScheduleSessionBuilder<'_> {
        ScheduleSessionBuilder::new(workload)
    }
}

impl<'a, E: ExecutorBackend> ScheduleSession<'a, E> {
    /// Run the round to completion and return its episode log.
    pub fn run(mut self, policy: &mut dyn SchedulerPolicy) -> EpisodeLog {
        let n = self.workload.len();
        let mut log = EpisodeLog::new(self.dbms, policy.name().to_string(), self.round);
        policy.begin_episode(self.workload);

        while self.finished < n {
            self.check_stall(n);
            self.drain_faults(&mut log);
            self.release_cooling(&mut log);

            // Apply buffered completions BEFORE any refill, so the policy
            // never selects on a stale arena and simultaneous completions
            // are processed as one batch — exactly the legacy semantics.
            self.drain_buffered_events(policy, &mut log);
            if self.finished >= n {
                break;
            }

            // Observe any faults the drain surfaced before routing, so the
            // router never places onto a shard that just went down.
            self.drain_faults(&mut log);
            // A submission buffers no event, so nothing is left to drain
            // before the next poll.
            self.fill_free_connections(policy);

            // Advance to the next natural completion and apply, with its
            // simultaneous batch, before refilling.
            match self.backend.poll_event() {
                ExecEvent::Completed(c) => {
                    self.apply_completion(c, policy, &mut log);
                    self.drain_buffered_events(policy, &mut log);
                }
                ExecEvent::Idle => {
                    self.drain_faults(&mut log);
                    if !self.cooling.is_empty() {
                        // Nothing is running, but lost queries are waiting
                        // out their backoff: advance the clock to the
                        // earliest eligibility instant and resubmit.
                        let earliest = self
                            .cooling
                            .iter()
                            .map(|(at, ..)| *at)
                            .fold(f64::INFINITY, f64::min);
                        if earliest > self.backend.now() + TIME_EPS {
                            self.backend.advance_to(earliest);
                        }
                        if self.release_cooling(&mut log) == 0 {
                            // The backend clock cannot reach the instant
                            // (idle backends may refuse to advance); release
                            // the earliest entry anyway so the round makes
                            // progress — the resubmission timestamp is the
                            // backend's own `now`, so the log stays honest.
                            self.force_release_earliest(&mut log);
                        }
                        continue;
                    }
                    if self.pending_count > 0 {
                        // Lost queries were just released (or never started):
                        // go back around and refill. Bounded, so a cluster
                        // with no routable shard left fails loudly instead
                        // of spinning forever.
                        self.idle_spins += 1;
                        assert!(
                            self.idle_spins <= self.workload.len() + 4,
                            "recovery made no progress: pending queries \
                             cannot be routed ({}/{} finished)",
                            self.finished,
                            n
                        );
                        continue;
                    }
                    self.check_stall(n);
                    // bq-lint: allow(panic-surface): a wedged executor must fail the round loudly — logging partial state as healthy would poison the goldens
                    panic!(
                        "executor stalled with {}/{} queries finished",
                        self.finished, n
                    )
                }
            }
        }

        // A stall set while the round's last completions were arriving
        // (e.g. a wire server's arrival advance gave up, then the poll it
        // served finished the last query with a fresh budget) must still
        // fail the round: the logged timestamps came from
        // partially-advanced state.
        self.check_stall(n);

        policy.end_episode(&log);
        log
    }

    /// Fail the round loudly if the backend recorded an advance stall: a
    /// bounded advance gave up mid-flight (broken executor dynamics), so
    /// continuing would log partially-advanced state as if it were healthy.
    fn check_stall(&self, n: usize) {
        if let Some(stall) = self.backend.stall_diagnostic() {
            // bq-lint: allow(panic-surface): documented contract — a mid-round advance stall invalidates every logged timestamp, so the round must die loudly
            panic!(
                "executor advance stalled mid-round with {}/{} queries \
                 finished: {stall:?}",
                self.finished, n
            );
        }
    }

    /// Drain fault events the backend has queued: record each in the
    /// episode log, let the router observe it (so placement adapts), and
    /// start the recovery clock for lost queries. Fault-free backends take
    /// the default `poll_fault` (always `None`), so this is a no-op for
    /// every existing episode — byte-identity preserved.
    fn drain_faults(&mut self, log: &mut EpisodeLog) {
        while let Some(event) = self.backend.poll_fault() {
            log.push_fault(&event);
            if let Some(router) = self.router.as_mut() {
                router.observe_fault(&event);
            }
            if let FaultEvent::QueryLost { query, at, .. } = event {
                let policy = self.recovery.unwrap_or_else(|| {
                    // bq-lint: allow(panic-surface): documented contract (pinned by a should_panic test) — losing work with no recovery policy must fail the round loudly
                    panic!(
                        "query {query:?} lost to a fault at t={at} but the \
                         session has no recovery policy; configure one with \
                         ScheduleSessionBuilder::recovery"
                    )
                });
                let attempt = &mut self.resubmit_attempts[query.0];
                *attempt += 1;
                assert!(
                    *attempt <= RecoveryPolicy::MAX_RETRIES,
                    "recovery budget exhausted: query {query:?} lost {} \
                     times (max_retries = {})",
                    *attempt,
                    RecoveryPolicy::MAX_RETRIES
                );
                self.obs.inc("session_queries_lost");
                self.obs.emit(
                    TraceEvent::new(TraceKind::FaultInjected, at)
                        .with_round(self.round)
                        .with_query(query.0),
                );
                let eligible = at + policy.backoff(*attempt, query.0 as u64);
                self.cooling.push((eligible, at, query));
            }
        }
    }

    /// Flip cooled-down lost queries back to `Pending` so the fill loop
    /// resubmits them; returns how many were released. Each release is
    /// recorded as a [`FaultEvent::QueryResubmitted`] recovery event.
    fn release_cooling(&mut self, log: &mut EpisodeLog) -> usize {
        if self.cooling.is_empty() {
            return 0;
        }
        let now = self.backend.now();
        let mut released = 0;
        let mut i = 0;
        while i < self.cooling.len() {
            if self.cooling[i].0 <= now + TIME_EPS {
                let (_, lost_at, query) = self.cooling.swap_remove(i);
                self.release_lost_query(query, lost_at, now, log);
                released += 1;
            } else {
                i += 1;
            }
        }
        released
    }

    /// Release the earliest cooling entry regardless of the clock — used
    /// when an idle backend cannot advance to the eligibility instant.
    fn force_release_earliest(&mut self, log: &mut EpisodeLog) {
        let Some(i) = self
            .cooling
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0))
            .map(|(i, _)| i)
        else {
            return; // nothing cooling — the caller's guard already held
        };
        let (_, lost_at, query) = self.cooling.swap_remove(i);
        let now = self.backend.now();
        self.release_lost_query(query, lost_at, now, log);
    }

    fn release_lost_query(&mut self, query: QueryId, lost_at: f64, now: f64, log: &mut EpisodeLog) {
        let rt = &mut self.runtimes[query.0];
        debug_assert!(
            rt.status == QueryStatus::Running,
            "lost query not in flight"
        );
        rt.status = QueryStatus::Pending;
        rt.params = None;
        rt.elapsed = 0.0;
        self.pending_count += 1;
        self.idle_spins = 0;
        self.obs.observe("session_recovery_latency", now - lost_at);
        self.obs.emit(
            TraceEvent::new(TraceKind::RecoveryResubmission, now)
                .with_round(self.round)
                .with_query(query.0)
                .with_value(now - lost_at),
        );
        log.push_fault(&FaultEvent::QueryResubmitted {
            query,
            attempt: self.resubmit_attempts[query.0],
            at: now,
        });
    }

    /// Apply every buffered completion (no virtual-time advance).
    fn drain_buffered_events(&mut self, policy: &mut dyn SchedulerPolicy, log: &mut EpisodeLog) {
        while self.backend.events_pending() {
            match self.backend.poll_event() {
                ExecEvent::Completed(c) => self.apply_completion(c, policy, log),
                ExecEvent::Idle => break,
            }
        }
    }

    /// Decide a query for every free connection while pending queries
    /// remain, refreshing the runtime arena before each decision, then
    /// dispatch the whole instant's decisions as **one batch** through
    /// [`ExecutorBackend::submit_batch`] — so an async adapter can coalesce
    /// the round trip, and every backend sees the decisions of one
    /// observable instant together. Zero heap allocations per iteration
    /// (the batch and occupancy scratch buffers are session-owned and
    /// reused). With a router configured, the router picks which free
    /// connection (and thereby which shard) each decision lands on; it
    /// routes over the scratch occupancy in which earlier decisions of this
    /// instant are already marked [`ConnectionSlot::Pending`], so no slot is
    /// handed out twice before the batch reaches the backend.
    // bq-lint: hot-path
    fn fill_free_connections(&mut self, policy: &mut dyn SchedulerPolicy) {
        self.batch.clear();
        self.slot_scratch.clear();
        self.slot_scratch
            .extend_from_slice(self.backend.connections());
        // Refresh elapsed times for running queries, once per fill: the
        // backend's clock and occupancy cannot change while decisions are
        // being collected (the batch is dispatched only at the end), so a
        // per-decision refresh would rewrite the same values.
        let now = self.backend.now();
        for (q, params, elapsed, _conn) in self.backend.running_view() {
            let rt = &mut self.runtimes[q.0];
            if rt.status == QueryStatus::Pending {
                self.pending_count -= 1;
            }
            rt.status = QueryStatus::Running;
            rt.params = Some(params);
            rt.elapsed = elapsed;
        }
        self.obs.inc("session_fills");
        self.obs
            .observe("session_queue_depth", self.pending_count as f64);
        while self.pending_count > 0 {
            let routed = match &mut self.router {
                Some(router) => router.route(&self.topology, &self.slot_scratch),
                None => self.slot_scratch.iter().position(ConnectionSlot::is_free),
            };
            let Some(free) = routed else {
                break;
            };
            assert!(
                self.slot_scratch
                    .get(free)
                    .is_some_and(ConnectionSlot::is_free),
                "router returned non-free connection {free}"
            );

            let state = SchedulingState {
                workload: self.workload,
                now,
                queries: &self.runtimes,
            };
            let action = policy.select(&state);
            assert!(
                self.runtimes[action.query.0].status == QueryStatus::Pending,
                "policy {} selected non-pending query {:?}",
                policy.name(),
                action.query
            );
            self.obs.inc("session_decisions");
            self.obs.emit(
                TraceEvent::new(TraceKind::Decision, now)
                    .with_round(self.round)
                    .with_connection(free)
                    .with_query(action.query.0),
            );
            self.slot_scratch[free] = ConnectionSlot::Pending {
                query: action.query,
                params: action.params,
                queued_at: now,
            };
            self.batch.push((action.query, action.params, free));
            self.runtimes[action.query.0].status = QueryStatus::Running;
            self.runtimes[action.query.0].params = Some(action.params);
            self.pending_count -= 1;
        }
        if !self.batch.is_empty() {
            self.backend.submit_batch(&self.batch);
        }
    }
    // bq-lint: hot-path-end

    fn apply_completion(
        &mut self,
        completion: QueryCompletion,
        policy: &mut dyn SchedulerPolicy,
        log: &mut EpisodeLog,
    ) {
        let rt = &mut self.runtimes[completion.query.0];
        rt.status = QueryStatus::Finished;
        rt.elapsed = completion.finished_at - completion.started_at;
        self.finished += 1;
        self.idle_spins = 0;
        self.obs.observe("session_query_duration", rt.elapsed);
        self.obs.emit(
            TraceEvent::new(TraceKind::CompletionDelivered, completion.finished_at)
                .with_round(self.round)
                .with_connection(completion.connection)
                .with_query(completion.query.0)
                .with_value(rt.elapsed),
        );
        policy.observe_completion(&completion);
        log.push_completion(self.workload, &completion);
        if let Some(hook) = self.on_completion.as_mut() {
            hook(&completion);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::FifoScheduler;
    use crate::state::Action;
    use bq_dbms::{DbmsProfile, ExecutionEngine, RunParams};
    use bq_plan::{generate, Benchmark, QueryId, WorkloadSpec};

    #[test]
    fn session_completes_every_query_exactly_once() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let profile = DbmsProfile::dbms_x();
        let mut engine = ExecutionEngine::new(profile.clone(), &w, 0);
        let log = ScheduleSession::builder(&w)
            .dbms(profile.kind)
            .build(&mut engine)
            .run(&mut FifoScheduler::new());
        assert_eq!(log.len(), w.len());
        let mut seen = vec![false; w.len()];
        for r in &log.records {
            assert!(!seen[r.query.0], "query {:?} completed twice", r.query);
            seen[r.query.0] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn completion_hook_sees_every_completion() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let mut engine = ExecutionEngine::new(DbmsProfile::dbms_x(), &w, 0);
        let mut observed = 0usize;
        let log = ScheduleSession::builder(&w)
            .on_completion(|_c| observed += 1)
            .build(&mut engine)
            .run(&mut FifoScheduler::new());
        assert_eq!(observed, log.len());
    }

    #[test]
    fn a_fifo_round_makes_one_decision_per_query() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let mut engine = ExecutionEngine::new(DbmsProfile::dbms_x(), &w, 0);
        let obs = Obs::enabled();
        let log = ScheduleSession::builder(&w)
            .obs(obs.clone())
            .build(&mut engine)
            .run(&mut FifoScheduler::new());
        assert_eq!(log.len(), w.len());
        assert_eq!(obs.counter("session_decisions"), w.len() as u64);
    }

    /// Always picks query 0, so its second decision re-selects a running
    /// query.
    struct Repeater;

    impl SchedulerPolicy for Repeater {
        fn name(&self) -> &str {
            "Repeater"
        }

        fn select(&mut self, _state: &SchedulingState<'_>) -> Action {
            Action::with_default_params(QueryId(0))
        }
    }

    #[test]
    #[should_panic(expected = "policy Repeater selected non-pending query QueryId(0)")]
    fn a_policy_that_reselects_a_running_query_panics() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let mut engine = ExecutionEngine::new(DbmsProfile::dbms_x(), &w, 0);
        ScheduleSession::builder(&w)
            .build(&mut engine)
            .run(&mut Repeater);
    }

    #[test]
    fn connections_stay_busy_while_queries_pend() {
        // With 22 queries and 18 connections, at least 18 queries must start
        // at time 0 (the session keeps all connections busy).
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let profile = DbmsProfile::dbms_x();
        let log =
            ScheduleSession::builder(&w).run_on_profile(&profile, 0, &mut FifoScheduler::new());
        let at_zero = log.records.iter().filter(|r| r.started_at == 0.0).count();
        assert_eq!(at_zero, profile.connections.min(w.len()));
    }

    #[test]
    fn run_on_profile_respects_explicit_labels() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let profile = DbmsProfile::dbms_x();
        // Defaults come from the profile and seed...
        let log =
            ScheduleSession::builder(&w).run_on_profile(&profile, 3, &mut FifoScheduler::new());
        assert_eq!(log.dbms, profile.kind);
        assert_eq!(log.round, 3);
        // ...but explicit labels win.
        let log = ScheduleSession::builder(&w)
            .dbms(bq_dbms::DbmsKind::Z)
            .round(7)
            .run_on_profile(&profile, 3, &mut FifoScheduler::new());
        assert_eq!(log.dbms, bq_dbms::DbmsKind::Z);
        assert_eq!(log.round, 7);
    }

    /// A policy whose `select` allocates nothing — used to pin the
    /// allocation-free contract of the session's fill loop.
    pub(crate) struct FirstPendingNoAlloc;

    impl SchedulerPolicy for FirstPendingNoAlloc {
        fn name(&self) -> &str {
            "FirstPendingNoAlloc"
        }

        fn select(&mut self, state: &SchedulingState<'_>) -> Action {
            let pick = state
                .queries
                .iter()
                .position(|q| q.status == QueryStatus::Pending)
                .expect("select() called with no pending queries");
            Action {
                query: QueryId(pick),
                params: RunParams::default_config(),
            }
        }
    }

    #[test]
    fn first_free_router_reproduces_the_default_placement() {
        // Routing through an explicit FirstFreeRouter must be byte-identical
        // to the implicit default, on both a monolithic and a sharded
        // backend.
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let profile = DbmsProfile::dbms_x();
        let mut a = ExecutionEngine::new(profile.clone(), &w, 2);
        let default = ScheduleSession::builder(&w)
            .build(&mut a)
            .run(&mut FifoScheduler::new());
        let mut b = ExecutionEngine::new(profile.clone(), &w, 2);
        let mut router = crate::routing::FirstFreeRouter;
        let routed = ScheduleSession::builder(&w)
            .router(&mut router)
            .build(&mut b)
            .run(&mut FifoScheduler::new());
        assert_eq!(default.to_json(), routed.to_json());

        let mut a = bq_dbms::ShardedEngine::new(profile.clone(), &w, 2, 2);
        let default = ScheduleSession::builder(&w)
            .build(&mut a)
            .run(&mut FifoScheduler::new());
        let mut b = bq_dbms::ShardedEngine::new(profile, &w, 2, 2);
        let mut router = crate::routing::FirstFreeRouter;
        let routed = ScheduleSession::builder(&w)
            .router(&mut router)
            .build(&mut b)
            .run(&mut FifoScheduler::new());
        assert_eq!(default.to_json(), routed.to_json());
    }

    #[test]
    fn least_loaded_router_spreads_a_sharded_round_across_shards() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let profile = DbmsProfile::dbms_x();
        let shards = 2usize;
        let per_shard = profile.connections;
        let mut engine = bq_dbms::ShardedEngine::new(profile, &w, 0, shards);
        let mut router = crate::routing::LeastLoadedRouter;
        let log = ScheduleSession::builder(&w)
            .router(&mut router)
            .build(&mut engine)
            .run(&mut FifoScheduler::new());
        assert_eq!(log.len(), w.len());
        // 22 queries over 2×18 slots: balanced placement puts exactly half
        // the queries on each shard (first-free would pack all 22 onto
        // shard 0's 18 slots first).
        let on_shard1 = log
            .records
            .iter()
            .filter(|r| r.connection >= per_shard)
            .count();
        assert_eq!(on_shard1, w.len() / 2, "load should split across shards");
    }

    #[test]
    fn hash_router_sessions_are_reproducible_and_complete() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let profile = DbmsProfile::dbms_x();
        let run = || {
            let mut engine = bq_dbms::ShardedEngine::new(profile.clone(), &w, 3, 4);
            let mut router = crate::routing::HashRouter::new(42);
            ScheduleSession::builder(&w)
                .router(&mut router)
                .build(&mut engine)
                .run(&mut FifoScheduler::new())
                .to_json()
        };
        assert_eq!(run(), run(), "hash routing must be deterministic");
    }

    /// An engine that loses the query on connection 0 once: that
    /// connection's first completion is swallowed (never delivered) and a
    /// `QueryLost` fault is reported instead, the way a dead shard's
    /// completions surface — the minimal fault a recovery policy must
    /// survive.
    struct LossyBackend {
        inner: ExecutionEngine,
        fault: Option<FaultEvent>,
        lost: bool,
    }

    impl ExecutorBackend for LossyBackend {
        fn connections(&self) -> &[ConnectionSlot] {
            self.inner.connections()
        }

        fn now(&self) -> f64 {
            self.inner.now()
        }

        fn submit(&mut self, query: QueryId, params: RunParams, connection: usize) {
            self.inner.submit(query, params, connection);
        }

        fn poll_event(&mut self) -> ExecEvent {
            loop {
                match self.inner.poll_event() {
                    ExecEvent::Completed(c) if !self.lost && c.connection == 0 => {
                        // The engine already freed the slot, so the session
                        // can resubmit the query once it drains the fault.
                        self.lost = true;
                        self.fault = Some(FaultEvent::QueryLost {
                            query: c.query,
                            connection: 0,
                            at: self.inner.now(),
                        });
                    }
                    event => return event,
                }
            }
        }

        fn events_pending(&self) -> bool {
            self.inner.events_pending()
        }

        fn advance_to(&mut self, until: f64) {
            self.inner.advance_to(until);
        }

        fn poll_fault(&mut self) -> Option<FaultEvent> {
            self.fault.take()
        }
    }

    #[test]
    fn recovery_policy_resubmits_a_lost_query() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let mut backend = LossyBackend {
            inner: ExecutionEngine::new(DbmsProfile::dbms_x(), &w, 0),
            fault: None,
            lost: false,
        };
        let log = ScheduleSession::builder(&w)
            .recovery(RecoveryPolicy)
            .build(&mut backend)
            .run(&mut FifoScheduler::new());
        // Every query still completes exactly once, and the log records
        // both the loss and the recovery.
        assert_eq!(log.len(), w.len());
        let mut seen = vec![false; w.len()];
        for r in &log.records {
            assert!(!seen[r.query.0], "query {:?} completed twice", r.query);
            seen[r.query.0] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(log.lost_queries(), 1);
        assert_eq!(log.recovered_submissions(), 1);
        // The resubmission waited out a backoff after the loss.
        let lost = &log.faults[0];
        let resub = &log.faults[1];
        assert_eq!(lost.kind(), "query_lost");
        assert_eq!(resub.kind(), "query_resubmitted");
        assert!(resub.at() >= lost.at());
    }

    #[test]
    #[should_panic(expected = "no recovery policy")]
    fn lost_query_without_recovery_policy_fails_loudly() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let mut backend = LossyBackend {
            inner: ExecutionEngine::new(DbmsProfile::dbms_x(), &w, 0),
            fault: None,
            lost: false,
        };
        ScheduleSession::builder(&w)
            .build(&mut backend)
            .run(&mut FifoScheduler::new());
    }

    #[test]
    fn no_alloc_policy_matches_fifo_schedule() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let profile = DbmsProfile::dbms_x();
        let mut a = ExecutionEngine::new(profile.clone(), &w, 3);
        let mut b = ExecutionEngine::new(profile, &w, 3);
        let la = ScheduleSession::builder(&w)
            .build(&mut a)
            .run(&mut FifoScheduler::new());
        let lb = ScheduleSession::builder(&w)
            .build(&mut b)
            .run(&mut FirstPendingNoAlloc);
        let ja = la.to_json();
        // Only the strategy name differs.
        let jb = lb.to_json().replace("FirstPendingNoAlloc", "FIFO");
        assert_eq!(ja, jb);
    }
}
