//! Sharded multi-engine execution backend.
//!
//! [`ShardedEngine`] scales the simulated DBMS out the way the paper's
//! non-intrusive model allows: `N` independent [`ExecutionEngine`] shards —
//! each with its own buffer pool, resource envelope and noise stream, so
//! concurrency interference stays strictly intra-shard — presented to the
//! scheduler as **one** executor with a single global connection-slot space.
//! Schedulers keep seeing nothing but connection slots and completion
//! events; they cannot tell a sharded substrate from a monolithic one.
//!
//! # Global ↔ shard slot mapping
//!
//! Each shard owns a contiguous block of the global connection space:
//! global connection `c` lives on shard `c / connections_per_shard` at local
//! slot `c % connections_per_shard`. The sharded backend maintains a global
//! [`ConnectionSlot`] *mirror* — the session-observable occupancy at the
//! global clock — while each shard's own slot vector remains the shard-local
//! source of identity. A shard's internal completion frees the shard-local
//! slot immediately, but the mirror slot stays `Busy` until the completion
//! is *delivered* through the cross-shard merge, so every view the session
//! derives (free slots, running view, per-shard load) is consistent with
//! the time it has observed.
//!
//! # Deterministic event merge
//!
//! Shards advance independently, so their clocks drift apart between
//! deliveries. Harvested completions are merged **by `(finished_at, global
//! connection id)`** — never by shard polling order — which makes episode
//! logs a pure function of (workload, profile, seed, shard count): shard 0
//! with the same seed replays the monolithic engine exactly, and cross-shard
//! ties (two shards completing at the same instant) always resolve toward
//! the lower global connection id. Before delivering a candidate event the
//! merge integrates every busy shard that has no harvested event of its own
//! up to the candidate's instant, so an event from a fast shard can never
//! overtake an earlier completion still latent in a slow shard.
//!
//! # Observable-clock discipline
//!
//! A shard integrated up to its own next completion during a merge holds a
//! harvested-but-undelivered completion, and its local timeline then runs
//! *ahead* of the observable clock until that completion is delivered.
//! Shards cannot rewind, so every observable stamp is taken from the
//! session-observable state instead of a shard timeline that ran ahead:
//! submissions onto an ahead shard are mirrored (and their completions
//! reconciled at harvest) with `started_at` at the observable clock, and a
//! bounded [`ShardedEngine::advance_to`] may move the clock up to — but
//! never across — the earliest undelivered completion, so a caller's bound
//! that falls before it is still reached mid-merge.
//!
//! # Stall aggregation
//!
//! Every shard keeps its own bounded advance budget. If any shard exhausts
//! one (broken dynamics — debug builds assert at the shard's stall site),
//! [`ShardedEngine::stall_diagnostic`] aggregates the per-shard
//! [`AdvanceStall`]s into one diagnostic (earliest stalled instant, total
//! busy connections across stalled shards, largest exhausted budget) so the
//! session layer fails the round loudly exactly as it does for one engine.

use crate::engine::{AdvanceStall, ConnectionSlot, ExecutionEngine, QueryCompletion};
use crate::executor::{ExecEvent, ExecutorBackend, ShardTopology};
use crate::params::RunParams;
use crate::profiles::DbmsProfile;
use bq_obs::{Obs, TraceEvent, TraceKind};
use bq_plan::{QueryId, Workload};

/// Tolerance when comparing virtual-time instants across shards.
const TIME_EPS: f64 = 1e-9;

/// Spacing of per-shard RNG seeds; shard 0 keeps the caller's seed verbatim
/// so a single-shard deployment replays the monolithic engine byte for byte.
// bq-lint: allow(unseeded-rng): golden-ratio seed spacing, not a generator — bq-dbms sits below bq-core in the dependency order and cannot import bq_core::rng
const SHARD_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// `N` independent [`ExecutionEngine`]s behind one executor surface.
///
/// See the [module docs](self) for the slot mapping, the deterministic event
/// merge and the stall aggregation. Like [`ExecutionEngine`], it is driven
/// through [`ExecutorBackend`], and it drives each shard through the same
/// trait.
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<ExecutionEngine>,
    /// The global slot space's partition into one block per shard.
    topology: ShardTopology,
    /// Session-observable virtual time: the instant of the last delivered
    /// event or the last bounded advance, never ahead of any undelivered
    /// completion.
    clock: f64,
    /// Global occupancy mirror — what the session sees at `clock`. Mirror
    /// slots free on *delivery*, not on a shard's internal completion.
    mirror: Vec<ConnectionSlot>,
    /// Harvested, not-yet-delivered completions (global connection ids).
    pending: Vec<QueryCompletion>,
    /// Observability handle; [`Obs::off`] unless [`ShardedEngine::set_obs`]
    /// installed one.
    obs: Obs,
}

impl ShardedEngine {
    /// Create a cold sharded engine: `shards` independent copies of
    /// `profile` (each shard is a full resource envelope — own buffer pool,
    /// cores, I/O bandwidth and `profile.connections` slots) over the same
    /// `workload`. Shard `i` seeds its noise stream with
    /// `seed + i * STRIDE`, so shard 0 replays `ExecutionEngine::new(profile,
    /// workload, seed)` exactly and shards never share a noise stream.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn new(profile: DbmsProfile, workload: &Workload, seed: u64, shards: usize) -> Self {
        assert!(shards > 0, "a sharded engine needs at least one shard");
        let per_shard = profile.connections;
        let engines: Vec<ExecutionEngine> = (0..shards)
            .map(|i| {
                let shard_seed = seed.wrapping_add((i as u64).wrapping_mul(SHARD_SEED_STRIDE));
                ExecutionEngine::new(profile.clone(), workload, shard_seed)
            })
            .collect();
        let topology = ShardTopology::uniform(shards, per_shard);
        let total = topology.connection_count();
        Self {
            shards: engines,
            topology,
            clock: 0.0,
            mirror: vec![ConnectionSlot::Free; total],
            pending: Vec::with_capacity(total),
            obs: Obs::off(),
        }
    }

    /// Observe the cross-shard merge through `obs`: per-shard advance
    /// counts (`shard_advance_<i>` plus a [`TraceKind::ShardAdvance`] event
    /// per advanced shard), delivered completions (`sharded_deliveries`),
    /// merge-set depth at each delivery (`sharded_merge_queue_depth`) and
    /// all-shards-stalled polls (`sharded_stall_events`). The shard engines
    /// themselves stay unobserved, and observation is read-only, so
    /// episodes stay byte-identical.
    pub fn set_obs(&mut self, obs: Obs) {
        obs.preregister(
            &["sharded_deliveries", "sharded_stall_events"],
            &["sharded_merge_queue_depth"],
        );
        self.obs = obs;
    }

    /// Integrate busy shard `s` up to `bound`, record the advance, and
    /// harvest its completions into the merge set.
    fn advance_shard(&mut self, s: usize, bound: f64) {
        self.shards[s].advance_to(bound);
        self.obs.inc_indexed("shard_advance", s);
        self.obs
            .emit(TraceEvent::new(TraceKind::ShardAdvance, self.shards[s].now()).with_shard(s));
        self.harvest(s);
    }

    /// Shrink every shard's advance-loop iteration budget (tests only) so
    /// the aggregated stall path is reachable without broken dynamics.
    #[doc(hidden)]
    pub fn force_advance_budget(&mut self, budget: usize) {
        for shard in &mut self.shards {
            shard.force_advance_budget(budget);
        }
    }

    /// Shrink a single shard's advance-loop iteration budget (tests only) so
    /// a partial stall — one broken shard among healthy siblings — is
    /// reachable without broken dynamics.
    #[doc(hidden)]
    // bq-lint: allow(dead-pub): test hook of bq-chaos's one-broken-shard stall test
    pub fn force_shard_advance_budget(&mut self, shard: usize, budget: usize) {
        self.shards[shard].force_advance_budget(budget);
    }

    /// Whether shard `s` has a query running on it.
    fn shard_busy(&self, s: usize) -> bool {
        self.shards[s]
            .connections()
            .iter()
            .any(|slot| !slot.is_free())
    }

    /// Translate and collect shard `s`'s buffered completions into the merge
    /// set. Polling a buffered event never advances a shard's clock, and a
    /// completion is the only event a shard buffers.
    fn harvest(&mut self, s: usize) {
        let offset = self.topology.range_of(s).start;
        while self.shards[s].events_pending() {
            let ExecEvent::Completed(mut completion) = self.shards[s].poll_event() else {
                unreachable!("a shard's only buffered events after an advance are completions");
            };
            completion.connection += offset;
            // The mirror's stamp is the observable submission instant; it
            // differs from the shard's own stamp only when the submission
            // landed on a shard that had run ahead mid-merge. Delivered
            // completions carry the observable stamp (a verbatim no-op in
            // every other case, so byte-identity with the monolithic engine
            // is untouched).
            if let Some(started_at) = self.mirror[completion.connection].started_at() {
                completion.started_at = started_at;
            }
            self.pending.push(completion);
        }
    }

    /// Index of the merge-order minimum pending completion: earliest
    /// `finished_at`, ties broken by the lower global connection id.
    fn min_pending(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, c) in self.pending.iter().enumerate() {
            best = Some(match best {
                None => i,
                Some(b) => {
                    let cur = &self.pending[b];
                    let earlier = c.finished_at < cur.finished_at
                        || (c.finished_at == cur.finished_at && c.connection < cur.connection);
                    if earlier {
                        i
                    } else {
                        b
                    }
                }
            });
        }
        best
    }

    fn shard_has_pending(&self, s: usize) -> bool {
        let range = self.topology.range_of(s);
        self.pending.iter().any(|c| range.contains(&c.connection))
    }
}

impl ExecutorBackend for ShardedEngine {
    /// Global per-connection occupancy at the observable clock, indexed by
    /// global connection id.
    fn connections(&self) -> &[ConnectionSlot] {
        &self.mirror
    }

    /// Session-observable virtual time.
    fn now(&self) -> f64 {
        self.clock
    }

    /// Submit `query` with `params` to a specific free global connection.
    ///
    /// The owning shard is first synced to the global clock if its local
    /// timeline lags (an idle shard's clock stops between queries), so the
    /// submission is stamped at the session-observable instant.
    ///
    /// A shard whose timeline ran *ahead* of the observable clock (it holds
    /// an undelivered completion from a cross-shard merge in progress, and
    /// the session fills one of its free slots) accepts submissions too:
    /// the shard stamps the query at its own local instant, but the mirror —
    /// and the eventual completion, reconciled at harvest — records the
    /// *observable* submission instant, so the session never sees a
    /// `started_at` in its future. The sliver of virtual time between the two stamps is
    /// execution the shard does not simulate; it is bounded by the
    /// undelivered completion's instant (shards cannot rewind, so this is
    /// the price of keeping the observable surface consistent).
    ///
    /// # Panics
    /// Panics if the connection is busy or out of range, like the
    /// [`ExecutionEngine`]'s `submit`.
    fn submit(&mut self, query: QueryId, params: RunParams, connection: usize) {
        assert!(
            connection < self.mirror.len(),
            "connection {connection} out of range"
        );
        assert!(
            self.mirror[connection].is_free(),
            "connection {connection} is busy"
        );
        let s = self.topology.shard_of(connection);
        let local = connection % self.topology.connections_per_shard();
        if self.shards[s].now() < self.clock {
            self.shards[s].advance_to(self.clock);
            self.harvest(s);
        }
        debug_assert!(
            self.shards[s].now() + TIME_EPS >= self.clock,
            "shard {s} timeline lags the global clock after sync"
        );
        self.shards[s].submit(query, params, local);
        // Copy the shard's slot verbatim so `started_at` is bit-identical to
        // the shard timeline (the mirror is a view, not a second stamping) —
        // unless the shard ran ahead mid-merge, in which case its own stamp
        // lies in the observable future and the mirror records the
        // observable instant instead.
        let mut slot = self.shards[s].connections()[local];
        if self.shards[s].now() > self.clock + TIME_EPS {
            if let ConnectionSlot::Busy { started_at, .. } = &mut slot {
                *started_at = self.clock;
            }
        }
        self.mirror[connection] = slot;
    }

    /// The next completion in global merge order, advancing shard timelines
    /// first if none is ready. [`ExecEvent::Idle`] when nothing is running
    /// anywhere (or every busy shard is stalled — see
    /// [`ExecutorBackend::stall_diagnostic`]).
    fn poll_event(&mut self) -> ExecEvent {
        loop {
            match self.min_pending() {
                None => {
                    // No harvested candidate: advance every busy shard to
                    // its own next completion and try again. Shards that
                    // already stalled are skipped, exactly as in the
                    // candidate branch below — re-advancing one would burn a
                    // fresh budget on every poll (and re-trip the debug
                    // stall assert) without ever surfacing an event; the
                    // recorded `AdvanceStall` is the loud signal instead.
                    let mut any_busy = false;
                    for s in 0..self.shards.len() {
                        if !self.shard_busy(s) {
                            continue;
                        }
                        any_busy = true;
                        if self.shards[s].stall_diagnostic().is_none() {
                            self.advance_shard(s, f64::INFINITY);
                        }
                    }
                    if !any_busy || self.min_pending().is_none() {
                        if any_busy {
                            // Busy shards produced no event: every one of
                            // them stalled mid-advance.
                            self.obs.inc("sharded_stall_events");
                        }
                        // Idle, or every busy shard stalled mid-advance
                        // (diagnosable via `stall_diagnostic`).
                        return ExecEvent::Idle;
                    }
                }
                Some(idx) => {
                    let t = self.pending[idx].finished_at;
                    // A busy shard with no harvested event of its own may
                    // still complete before `t`: integrate it to `t` before
                    // committing to the candidate. Stalled shards are
                    // skipped — they cannot make progress and would loop.
                    // Each test reads only shard `s` (its pending check only
                    // `s`'s connection block), so harvesting a lower shard
                    // first cannot change it.
                    let mut advanced = false;
                    for s in 0..self.shards.len() {
                        if self.shard_busy(s)
                            && self.shards[s].now() + TIME_EPS < t
                            && !self.shard_has_pending(s)
                            && self.shards[s].stall_diagnostic().is_none()
                        {
                            self.advance_shard(s, t);
                            advanced = true;
                        }
                    }
                    if advanced {
                        continue; // an earlier candidate may have surfaced
                    }
                    self.obs.inc("sharded_deliveries");
                    self.obs
                        .observe("sharded_merge_queue_depth", self.pending.len() as f64);
                    let completion = self.pending.remove(idx);
                    debug_assert!(completion.finished_at + TIME_EPS >= self.clock);
                    self.clock = self.clock.max(completion.finished_at);
                    self.mirror[completion.connection] = ConnectionSlot::Free;
                    return ExecEvent::Completed(completion);
                }
            }
        }
    }

    /// Whether buffered events exist that can be consumed without advancing
    /// the observable clock: harvested completions of the already-reached
    /// instant (the rest of a same-instant batch).
    fn events_pending(&self) -> bool {
        self.pending
            .iter()
            .any(|c| c.finished_at <= self.clock + TIME_EPS)
    }

    /// Advance the observable clock to at most `until`: every busy shard
    /// integrates its own dynamics up to the bound (stopping early at its
    /// next completion, which is harvested into the merge). Undelivered
    /// cross-shard completions cap the bound rather than blocking the
    /// advance — the clock may move up to, but never across, the earliest
    /// pending instant — so a bounded advance keeps working mid-merge and a
    /// bound between the clock and a pending completion is reached exactly.
    /// The clock moves to the bound when no
    /// completion precedes it, and to the *earliest* harvested completion
    /// otherwise — exactly where the monolithic engine's clock would stop —
    /// so the completion batch is immediately visible via
    /// [`ExecutorBackend::events_pending`].
    fn advance_to(&mut self, until: f64) {
        let bound = match self.min_pending() {
            Some(idx) => until.min(self.pending[idx].finished_at),
            None => until,
        };
        if bound <= self.clock {
            return;
        }
        for s in 0..self.shards.len() {
            if self.shard_busy(s) {
                self.advance_shard(s, bound);
            } else {
                // An idle shard only syncs its clock to a finite bound; it
                // completes nothing, so there is nothing to harvest.
                self.shards[s].advance_to(bound);
            }
        }
        if let Some(idx) = self.min_pending() {
            // Completions at or before the bound anchor the clock at the
            // earliest one (exactly where the monolithic engine's clock
            // stops), so the batch is immediately visible via
            // `events_pending`; a pre-existing pending completion
            // beyond the bound caps the clock at the bound instead.
            self.clock = self.clock.max(self.pending[idx].finished_at.min(bound));
        } else if bound.is_finite() {
            // Every busy shard reached the bound (up to its own fp
            // rounding); anchor the clock on the shard timelines rather
            // than on the bound so a single-shard deployment reports the
            // exact instant the monolithic engine would. Shards that ran
            // ahead mid-merge must not drag the clock past the bound.
            let frontier = (0..self.shards.len())
                .filter(|&s| self.shard_busy(s))
                .map(|s| self.shards[s].now())
                .min_by(|a, b| a.partial_cmp(b).expect("clocks are finite"))
                .unwrap_or(bound);
            self.clock = self.clock.max(frontier.min(bound));
        }
    }

    /// Aggregated stall diagnostic: `None` while every shard is healthy;
    /// otherwise the earliest stalled instant, the total busy connections
    /// across the stalled shards, and the largest exhausted budget.
    fn stall_diagnostic(&self) -> Option<AdvanceStall> {
        let mut agg: Option<AdvanceStall> = None;
        for stall in self
            .shards
            .iter()
            .filter_map(ExecutionEngine::stall_diagnostic)
        {
            agg = Some(match agg {
                None => stall,
                Some(a) => AdvanceStall {
                    now: a.now.min(stall.now),
                    busy: a.busy + stall.busy,
                    budget: a.budget.max(stall.budget),
                },
            });
        }
        agg
    }

    /// The uniform partition: one block of `connections_per_shard` slots per
    /// shard.
    fn shard_topology(&self) -> ShardTopology {
        self.topology
    }

    /// Number of queries in the workload the shards were built for (every
    /// shard sees the same workload).
    fn known_query_count(&self) -> Option<usize> {
        self.shards[0].known_query_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{fifo_round, next_completion};
    use bq_plan::{generate, Benchmark, WorkloadSpec};

    fn tpch_workload() -> Workload {
        generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1))
    }

    fn default_params() -> RunParams {
        RunParams::default_config()
    }

    /// Observably busy (mirror) connections.
    fn busy(e: &ShardedEngine) -> usize {
        e.running_view().count()
    }

    /// Global connection id of shard-local slot `local` on `shard`.
    fn global_of(e: &ShardedEngine, shard: usize, local: usize) -> usize {
        e.shard_topology().range_of(shard).start + local
    }

    #[test]
    fn slot_mapping_round_trips() {
        let w = tpch_workload();
        let e = ShardedEngine::new(DbmsProfile::dbms_x(), &w, 0, 4);
        let topo = e.shard_topology();
        assert_eq!(topo.shard_count(), 4);
        assert_eq!(topo.connections_per_shard(), 18);
        assert_eq!(e.connection_count(), 72);
        for conn in 0..72 {
            let s = topo.shard_of(conn);
            let l = conn - topo.range_of(s).start;
            assert!(s < 4 && l < 18);
            assert_eq!(global_of(&e, s, l), conn);
        }
        assert_eq!(topo.shard_of(17), 0);
        assert_eq!(topo.shard_of(18), 1);
    }

    #[test]
    fn single_shard_replays_the_monolithic_engine_byte_for_byte() {
        let w = tpch_workload();
        for seed in [0u64, 7, 40] {
            let mut mono = ExecutionEngine::new(DbmsProfile::dbms_x(), &w, seed);
            let mut sharded = ShardedEngine::new(DbmsProfile::dbms_x(), &w, seed, 1);
            let mono_done = fifo_round(&mut mono, w.len());
            let sharded_done = fifo_round(&mut sharded, w.len());
            assert_eq!(mono_done.len(), sharded_done.len());
            for (a, b) in mono_done.iter().zip(&sharded_done) {
                assert_eq!(a, b, "seed {seed} diverged");
            }
            assert_eq!(mono.now(), sharded.now());
        }
    }

    #[test]
    fn cross_shard_ties_resolve_by_global_connection_not_polling_order() {
        // With noise disabled, the same query on two fresh shards finishes
        // at exactly the same instant; the merge must emit the lower global
        // connection first and expose the pair as one same-instant batch.
        let w = tpch_workload();
        let mut profile = DbmsProfile::dbms_x();
        profile.noise_std = 0.0;
        let mut e = ShardedEngine::new(profile, &w, 0, 2);
        let on_shard1 = global_of(&e, 1, 0);
        // Submit to the *higher* shard first: polling order must not leak.
        e.submit(QueryId(3), default_params(), on_shard1);
        e.submit(QueryId(3), default_params(), 0);
        let first = next_completion(&mut e).expect("both running");
        assert_eq!(first.connection, 0, "tie must break toward connection 0");
        assert!(
            e.events_pending(),
            "the tied sibling is part of the same-instant batch"
        );
        let second = next_completion(&mut e).expect("sibling buffered");
        assert_eq!(second.connection, on_shard1);
        assert_eq!(first.finished_at, second.finished_at);
    }

    #[test]
    fn buffer_state_is_shard_local() {
        // A warm buffer speeds up a repeated scan on the same shard but must
        // not leak into a sibling shard.
        let w = tpch_workload();
        let mut profile = DbmsProfile::dbms_x();
        profile.noise_std = 0.0;
        let (io_q, _) = w
            .iter()
            .max_by(|a, b| {
                a.1.profile
                    .io_fraction()
                    .partial_cmp(&b.1.profile.io_fraction())
                    .unwrap()
            })
            .unwrap();
        let mut e = ShardedEngine::new(profile, &w, 0, 2);
        let run_on = |e: &mut ShardedEngine, conn: usize| -> f64 {
            e.submit(io_q, default_params(), conn);
            next_completion(e).expect("query running").duration()
        };
        let shard1_conn = global_of(&e, 1, 0);
        let cold_shard0 = run_on(&mut e, 0);
        let warm_shard0 = run_on(&mut e, 0);
        let cold_shard1 = run_on(&mut e, shard1_conn);
        assert!(
            warm_shard0 < cold_shard0 * 0.95,
            "same-shard rerun should hit the warm buffer: {warm_shard0} vs {cold_shard0}"
        );
        assert!(
            cold_shard1 > warm_shard0,
            "the sibling shard's buffer must be cold: {cold_shard1} vs {warm_shard0}"
        );
    }

    #[test]
    fn submission_to_a_lagging_idle_shard_is_stamped_at_the_global_clock() {
        let w = tpch_workload();
        let mut e = ShardedEngine::new(DbmsProfile::dbms_x(), &w, 0, 2);
        // Run one query to completion on shard 0; shard 1 idles at t=0.
        e.submit(QueryId(0), default_params(), 0);
        let done = next_completion(&mut e).expect("running");
        let t = done.finished_at;
        assert!(t > 0.0);
        assert_eq!(e.now(), t);
        // Routing the next query onto idle shard 1 must stamp it at the
        // global instant, not at shard 1's stale local clock.
        let conn = global_of(&e, 1, 0);
        e.submit(QueryId(1), default_params(), conn);
        assert_eq!(e.connections()[conn].started_at(), Some(t));
    }

    #[test]
    fn advance_to_bounds_every_shard_and_moves_the_clock() {
        let w = tpch_workload();
        let mut e = ShardedEngine::new(DbmsProfile::dbms_x(), &w, 0, 2);
        e.submit(QueryId(0), default_params(), 0);
        e.submit(QueryId(1), default_params(), global_of(&e, 1, 0));
        // A bound far below any completion: both shards integrate to it.
        e.advance_to(1e-3);
        assert!(!e.events_pending(), "nothing completes this early");
        assert!((e.now() - 1e-3).abs() < 1e-9);
        assert_eq!(busy(&e), 2);
        // The clock never runs ahead of an undelivered completion.
        while next_completion(&mut e).is_some() {}
        assert_eq!(busy(&e), 0);
    }

    #[test]
    fn bounded_advance_anchors_the_clock_at_the_earliest_harvested_completion() {
        // Regression (review finding): a bounded advance that harvests a
        // completion must move the observable clock to that instant — like
        // the monolithic engine — so the batch is immediately visible and
        // later submissions on a sibling shard cannot stamp times far beyond
        // an undelivered completion.
        let w = tpch_workload();
        // Solo duration of the short query on a fresh shard 0 (the main
        // engine below replays the same noise draw exactly).
        let mut probe = ShardedEngine::new(DbmsProfile::dbms_x(), &w, 0, 2);
        let shard1_conn = global_of(&probe, 1, 0);
        probe.submit(QueryId(1), default_params(), 0);
        let t_short = next_completion(&mut probe).expect("running").finished_at;
        // The long query must outlive the advance bound used below.
        let mut probe = ShardedEngine::new(DbmsProfile::dbms_x(), &w, 0, 2);
        probe.submit(QueryId(0), default_params(), shard1_conn);
        let t_long = next_completion(&mut probe).expect("running").finished_at;
        assert!(t_long > t_short + 2.0, "test needs a duration gap");

        let mut e = ShardedEngine::new(DbmsProfile::dbms_x(), &w, 0, 2);
        e.submit(QueryId(1), default_params(), 0);
        e.submit(QueryId(0), default_params(), shard1_conn);
        // Advance just past shard 0's completion (still far below shard
        // 1's): the event is harvested, the clock anchors at t_short (not
        // at the bound, not left behind), and the batch is visible without
        // another advance.
        e.advance_to(t_short + 1.0);
        assert_eq!(e.now(), t_short, "clock anchors at the earliest completion");
        assert!(e.events_pending(), "the harvested batch is visible");
        // The long query on the sibling shard is still observably running,
        // and the harvested completion delivers first, at the anchored
        // instant, without moving the clock.
        assert_eq!(e.connections()[shard1_conn].started_at(), Some(0.0));
        let delivered = next_completion(&mut e).expect("batch pending");
        assert_eq!(delivered.connection, 0);
        assert_eq!(delivered.finished_at, t_short);
        assert_eq!(e.now(), t_short);
        assert_eq!(busy(&e), 1, "only the long query still runs");
    }

    #[test]
    fn completions_conserve_queries_across_shard_counts() {
        let w = tpch_workload();
        for shards in [1usize, 2, 3] {
            let mut e = ShardedEngine::new(DbmsProfile::dbms_x(), &w, 9, shards);
            let done = fifo_round(&mut e, w.len());
            assert_eq!(done.len(), w.len(), "{shards} shards lost queries");
            let mut seen = vec![false; w.len()];
            for c in &done {
                assert!(!seen[c.query.0], "{shards} shards: duplicate completion");
                seen[c.query.0] = true;
                assert!(c.finished_at >= c.started_at);
            }
            assert_eq!(busy(&e), 0);
            assert_eq!(e.stall_diagnostic(), None);
        }
    }

    #[test]
    fn submitting_to_a_shard_that_ran_ahead_stamps_the_observable_clock() {
        // Review regression: during a cross-shard merge the non-delivering
        // shard's timeline runs ahead to its own next completion. A refill
        // onto one of its free slots mid-merge must be stamped at the
        // observable clock — not the
        // shard's future, which would show policies a negative elapsed time
        // — and the eventual completion must carry that observable stamp.
        let w = tpch_workload();
        let mut e = ShardedEngine::new(DbmsProfile::dbms_x(), &w, 0, 2);
        let shard1_conn = global_of(&e, 1, 0);
        // Long query on shard 0, short query on shard 1.
        e.submit(QueryId(0), default_params(), 0);
        e.submit(QueryId(1), default_params(), shard1_conn);
        // The merge delivers shard 1's early completion; shard 0 advanced to
        // its own later completion (still pending, mirror still busy).
        let first = next_completion(&mut e).expect("both running");
        assert_eq!(first.connection, shard1_conn, "short query finishes first");
        let t_obs = e.now();
        // Shard 0's timeline is ahead, but its free slots accept refills,
        // stamped at the instant the session has observed.
        e.submit(QueryId(2), default_params(), 1);
        assert_eq!(e.connections()[1].started_at(), Some(t_obs));
        // Merge order is unchanged: the pending long query delivers first,
        // then the refill — whose completion carries the observable stamp.
        let second = next_completion(&mut e).expect("pending long query");
        assert_eq!(second.connection, 0);
        let third = next_completion(&mut e).expect("refilled query running");
        assert_eq!(third.connection, 1);
        assert_eq!(
            third.started_at, t_obs,
            "completion carries the mirror stamp"
        );
        assert!(third.finished_at > third.started_at);
    }

    #[test]
    fn bounded_advance_is_honored_while_a_cross_shard_completion_is_pending() {
        // Review regression (medium severity): a bounded advance must not
        // be silently skipped while an undelivered cross-shard completion
        // exists — the clock advances up to, but never across, the pending
        // instant, so a bound falling between the two is reached exactly
        // instead of the delivery jumping the clock past it.
        let w = tpch_workload();
        let mut e = ShardedEngine::new(DbmsProfile::dbms_x(), &w, 0, 2);
        let shard1_conn = global_of(&e, 1, 0);
        e.submit(QueryId(0), default_params(), 0);
        e.submit(QueryId(1), default_params(), shard1_conn);
        let first = next_completion(&mut e).expect("both running");
        assert_eq!(first.connection, shard1_conn, "short query finishes first");
        let t_obs = e.now();
        // Shard 0's completion is harvested but undelivered; a bound below
        // its instant is reached exactly.
        let bound = t_obs + 1e-3;
        e.advance_to(bound);
        assert!(
            (e.now() - bound).abs() < 1e-9,
            "a bound before the pending completion must be reached: {} vs {bound}",
            e.now()
        );
        assert!(!e.events_pending(), "the pending instant lies beyond");
        // A bound beyond the pending instant stops AT the pending instant —
        // never past an undelivered completion — and makes it visible.
        e.advance_to(1e18);
        let pending_instant = e.now();
        assert!(pending_instant > bound);
        assert!(e.events_pending(), "the pending completion is visible");
        let second = next_completion(&mut e).expect("pending completion");
        assert_eq!(second.connection, 0);
        assert_eq!(second.finished_at, pending_instant);
    }

    #[test]
    fn sharded_delivery_order_is_deterministic_and_follows_the_merge_key() {
        // Two identical runs produce bit-identical completion sequences, and
        // the delivery order obeys the (finished_at, connection) merge key.
        let w = tpch_workload();
        for shards in [2usize, 3, 8] {
            let run = || {
                let mut e = ShardedEngine::new(DbmsProfile::dbms_x(), &w, 33, shards);
                fifo_round(&mut e, w.len())
            };
            let a = run();
            let b = run();
            assert_eq!(a, b, "{shards} shards: runs diverged");
            for pair in a.windows(2) {
                assert!(
                    pair[0].finished_at < pair[1].finished_at
                        || (pair[0].finished_at == pair[1].finished_at
                            && pair[0].connection < pair[1].connection),
                    "{shards} shards: merge order violated"
                );
            }
        }
    }

    // Release-only like the aggregate-stall test: in debug the stalled
    // shard's debug_assert fires (covered by `shard_stalls_assert_in_debug`).
    #[cfg(not(debug_assertions))]
    #[test]
    fn a_stalled_shard_does_not_spin_while_healthy_shards_deliver() {
        // Regression: the merge loop's "no candidate" branch used to
        // re-advance every busy shard unconditionally, so a stalled shard
        // burned a fresh advance budget on every poll without ever producing
        // an event. Now it is skipped: healthy siblings keep delivering, the
        // poll after the last healthy completion returns None, and the
        // AdvanceStall diagnostic stays readable.
        let w = tpch_workload();
        let mut e = ShardedEngine::new(DbmsProfile::dbms_x(), &w, 3, 2);
        let shard1 = global_of(&e, 1, 0);
        e.submit(QueryId(0), default_params(), 0);
        e.submit(QueryId(1), default_params(), shard1);
        // Break shard 0 only; shard 1 keeps its generous default budget.
        e.force_shard_advance_budget(0, 0);
        let healthy = next_completion(&mut e).expect("shard 1 still delivers");
        assert_eq!(healthy.connection, shard1);
        assert!(
            next_completion(&mut e).is_none(),
            "the stalled shard must surface as None, not spin or deliver"
        );
        let stall = e.stall_diagnostic().expect("stall must be diagnosed");
        assert_eq!(stall.busy, 1);
        assert_eq!(busy(&e), 1, "the stuck query still occupies its slot");
    }

    #[test]
    #[should_panic(expected = "busy")]
    fn double_submit_to_same_global_connection_panics() {
        let w = tpch_workload();
        let mut e = ShardedEngine::new(DbmsProfile::dbms_x(), &w, 0, 2);
        e.submit(QueryId(0), default_params(), 20);
        e.submit(QueryId(1), default_params(), 20);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let w = tpch_workload();
        ShardedEngine::new(DbmsProfile::dbms_x(), &w, 0, 0);
    }

    /// Near-zero rates with a budget of 1 stall every busy shard; the
    /// aggregate must combine the per-shard diagnostics.
    fn stalled_sharded_engine() -> ShardedEngine {
        let w = tpch_workload();
        let mut profile = DbmsProfile::dbms_x();
        profile.cpu_units_per_sec = 1e-9;
        let mut e = ShardedEngine::new(profile, &w, 1, 2);
        e.submit(QueryId(0), default_params(), 0);
        e.submit(QueryId(1), default_params(), 1);
        let shard1 = global_of(&e, 1, 0);
        e.submit(QueryId(2), default_params(), shard1);
        e.force_advance_budget(1);
        e
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "advance budget exhausted")]
    fn shard_stalls_assert_in_debug() {
        stalled_sharded_engine().advance_to(1e18);
    }

    // Release-only: in debug the per-shard debug_assert fires first. CI runs
    // it in the release test step, which runs all of bq-dbms.
    #[cfg(not(debug_assertions))]
    #[test]
    fn shard_stalls_aggregate_across_shards_in_release() {
        let mut e = stalled_sharded_engine();
        e.advance_to(1e18);
        let stall = e
            .stall_diagnostic()
            .expect("exhausted budgets must be diagnosed");
        assert_eq!(stall.busy, 3, "busy connections sum across stalled shards");
        assert_eq!(stall.budget, 1);
        assert_eq!(busy(&e), 3, "no slot was freed by the stall");
        // Like the monolithic engine, later polls retry with fresh budgets
        // and may make progress — but the diagnostic stays recorded so the
        // session layer still fails the round loudly.
        let _ = e.poll_event();
        assert!(e.stall_diagnostic().is_some(), "diagnostic must persist");
    }
}
