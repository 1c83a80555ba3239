//! Discrete-event concurrent query execution engine.
//!
//! This is the substrate that plays the role of the real DBMS in the paper's
//! experiments: the scheduler submits a query (with running parameters) to a
//! connection, and the engine reports, in virtual time, when each query
//! finishes. Between events the engine allocates the node's CPU cores and
//! I/O bandwidth across the running queries, applies buffer-sharing benefits
//! for overlapping table footprints, charges spill I/O when a query's memory
//! demand exceeds its grant, and perturbs every execution with bounded noise
//! — reproducing the contention / sharing / long-tail dynamics that make
//! batch query scheduling worthwhile.
//!
//! The engine is non-intrusive in the same sense as the paper: schedulers can
//! only observe submission and completion times (plus their own submitted
//! parameters), never the internal resource counters.
//!
//! A bounded advance ([`ExecutorBackend::advance_to`]) is exact up to the
//! event loop's progress floor, `MIN_DT` (1 µs): every step moves the clock
//! by at least that much, so when a bound falls less than `MIN_DT` before
//! a completion, the next step overshoots the completion and records it up
//! to `MIN_DT` late. That is the engine's contract: advancing to an instant
//! in several steps completes the same queries on the same connections in
//! the same order as one poll, and each completion may move by less than
//! `MIN_DT`. Conformance invariant 6 (`tests/backend_conformance.rs`)
//! holds every backend family to 1 µs. The floor stays because it also
//! fires in unstepped rounds, so removing it would move the pinned
//! training fingerprint for a drift no schedule can observe.

use crate::buffer::BufferPool;
use crate::executor::{ExecEvent, ExecutorBackend};
use crate::params::RunParams;
use crate::profiles::DbmsProfile;
use bq_obs::{Obs, TraceEvent, TraceKind};
use bq_plan::{QueryId, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Maximum fraction of a node's I/O bandwidth a single query may consume,
/// in every DBMS profile.
const MAX_IO_SHARE_PER_QUERY: f64 = 0.5;

/// Static resource demand of one query, captured at engine construction.
#[derive(Debug, Clone)]
struct QueryDemand {
    cpu_work: f64,
    table_pages: Vec<(bq_plan::TableId, f64)>,
    parallel_fraction: f64,
    memory_pages: f64,
}

/// Physical progress of the query occupying one connection slot.
///
/// Indexed by connection id, parallel to the [`ConnectionSlot`] vec. Identity
/// (query id, params, submission time) lives *only* in the slot; this table
/// carries the resource counters the engine integrates between events and is
/// meaningful only while the owning slot is [`ConnectionSlot::Busy`].
#[derive(Debug, Clone, Copy, Default)]
struct SlotProgress {
    cpu_remaining: f64,
    io_remaining: f64,
    parallel_fraction: f64,
    /// Requested degree of parallelism (`params.workers as f64`), cached at
    /// submission so the rate loop never re-derives it from the slot enum.
    workers_cap: f64,
}

/// Diagnostic recorded when a bounded advance exhausts its iteration budget
/// without completing a query or reaching its time bound. The engine's
/// dynamics guarantee this cannot happen (each iteration finishes a query,
/// exhausts an I/O phase, or reaches the bound), so a stall indicates broken
/// invariants; debug builds assert, release builds record the diagnostic
/// instead of silently leaving the clock mid-advance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdvanceStall {
    /// Virtual time at which the advance gave up.
    pub now: f64,
    /// Number of busy connections at that moment.
    pub busy: usize,
    /// Iteration budget that was exhausted.
    pub budget: usize,
}

/// Occupancy of one client connection, exposed as a borrow-based view so
/// schedulers can inspect the executor without per-decision allocations.
///
/// The three phases mirror the submission lifecycle of an asynchronous
/// dispatch boundary (decided → queued → admitted → running → completed):
/// a slot is [`ConnectionSlot::Free`] until a decision claims it,
/// [`ConnectionSlot::Pending`] while the submission sits in an admission
/// queue (dispatched but not yet accepted by the executor — only async
/// adapters surface this phase; the in-process backends admit synchronously
/// and never do), and [`ConnectionSlot::Busy`] once the executor has
/// admitted it and execution has begun. Occupancy-wise a pending slot is
/// taken (it is not free for another submission), but it is not running:
/// [`ConnectionSlot::started_at`] is `None` until admission, so queued time
/// never counts as execution time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConnectionSlot {
    /// No query assigned; ready for a submission.
    Free,
    /// A submission was dispatched to this connection but the executor has
    /// not admitted it yet (it waits in an admission or backpressure queue).
    /// The slot is occupied — no other query may be submitted to it — but
    /// execution has not started.
    Pending {
        /// The dispatched query.
        query: QueryId,
        /// Parameters it was dispatched with.
        params: RunParams,
        /// Virtual time at which the dispatch was issued.
        queued_at: f64,
    },
    /// A query is executing on this connection.
    Busy {
        /// The running query.
        query: QueryId,
        /// Parameters it was submitted with.
        params: RunParams,
        /// Virtual time at which it was submitted.
        started_at: f64,
    },
}

impl ConnectionSlot {
    /// Whether the slot has no query assigned.
    pub fn is_free(&self) -> bool {
        matches!(self, ConnectionSlot::Free)
    }

    /// Whether a submission is queued for admission on this slot
    /// (dispatched, not yet executing).
    pub fn is_pending(&self) -> bool {
        matches!(self, ConnectionSlot::Pending { .. })
    }

    /// The occupying query (pending or running), or `None` when free.
    pub fn query(&self) -> Option<QueryId> {
        match self {
            ConnectionSlot::Busy { query, .. } | ConnectionSlot::Pending { query, .. } => {
                Some(*query)
            }
            ConnectionSlot::Free => None,
        }
    }

    /// Parameters the occupying query was submitted with, or `None` when free.
    pub fn params(&self) -> Option<RunParams> {
        match self {
            ConnectionSlot::Busy { params, .. } | ConnectionSlot::Pending { params, .. } => {
                Some(*params)
            }
            ConnectionSlot::Free => None,
        }
    }

    /// Execution start time of the occupying query. `None` when free — and
    /// `None` while the submission is still pending admission, which is what
    /// keeps queued-but-not-started work out of elapsed execution times.
    pub fn started_at(&self) -> Option<f64> {
        match self {
            ConnectionSlot::Busy { started_at, .. } => Some(*started_at),
            ConnectionSlot::Free | ConnectionSlot::Pending { .. } => None,
        }
    }

    /// Dispatch time of a pending submission, or `None` otherwise.
    pub fn queued_at(&self) -> Option<f64> {
        match self {
            ConnectionSlot::Pending { queued_at, .. } => Some(*queued_at),
            ConnectionSlot::Free | ConnectionSlot::Busy { .. } => None,
        }
    }
}

/// Completion record returned by the engine — the only feedback a
/// non-intrusive scheduler receives.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCompletion {
    /// The finished query.
    pub query: QueryId,
    /// Connection it ran on (now free again).
    pub connection: usize,
    /// Parameters it ran with.
    pub params: RunParams,
    /// Submission time.
    pub started_at: f64,
    /// Completion time.
    pub finished_at: f64,
}

impl QueryCompletion {
    /// Wall-clock (virtual) duration of the execution.
    pub fn duration(&self) -> f64 {
        self.finished_at - self.started_at
    }
}

/// The concurrent execution engine for one scheduling round.
///
/// Occupancy is represented once: `slots` is the single source of query
/// identity (which query runs where, with which parameters, since when), and
/// `progress` is a slot-indexed side table of resource counters with no
/// identity fields of its own. There is no separate "running" collection to
/// keep in sync, so submission and completion each mutate exactly one
/// place.
#[derive(Debug)]
pub struct ExecutionEngine {
    profile: DbmsProfile,
    demands: Vec<QueryDemand>,
    buffers: Vec<BufferPool>,
    now: f64,
    rng: StdRng,
    slots: Vec<ConnectionSlot>,
    progress: Vec<SlotProgress>,
    completion_events: VecDeque<QueryCompletion>,
    submitted_events: VecDeque<(QueryId, usize)>,
    scratch: RateScratch,
    last_stall: Option<AdvanceStall>,
    advance_budget_override: Option<usize>,
    obs: Obs,
}

/// Reusable buffers for the rate computation, so advancing virtual time does
/// not allocate on every event-loop iteration.
#[derive(Debug, Default)]
struct RateScratch {
    rates: Vec<(f64, f64)>,
    cpu_active: Vec<usize>,
    caps: Vec<f64>,
    granted: Vec<f64>,
    open: Vec<usize>,
    still_open: Vec<usize>,
    io_active: Vec<usize>,
}

/// Spilled bytes are written and re-read, so each spilled page costs two I/Os.
const SPILL_IO_FACTOR: f64 = 2.0;
/// Extra buffer-hit fraction granted when another running query on the same
/// node is scanning the same table (synchronized-scan style sharing).
const CONCURRENT_SCAN_HIT: f64 = 0.5;
/// Per-interval minimum advance, to guarantee progress in the event loop.
/// A bounded advance may therefore move a completion by less than this
/// (see the module docs).
const MIN_DT: f64 = 1e-6;

impl ExecutionEngine {
    /// Create a cold engine for one round of scheduling `workload` on the
    /// given DBMS profile. `seed` controls the execution noise; different
    /// rounds should use different seeds.
    pub fn new(profile: DbmsProfile, workload: &Workload, seed: u64) -> Self {
        let demands = workload
            .queries
            .iter()
            .map(|q| QueryDemand {
                cpu_work: q.profile.cpu_work,
                table_pages: q.profile.table_pages.clone(),
                parallel_fraction: q.profile.parallel_fraction,
                memory_pages: q.profile.memory_pages,
            })
            .collect();
        let buffers = (0..profile.nodes)
            .map(|_| BufferPool::new(profile.buffer_pages))
            .collect();
        let slots = vec![ConnectionSlot::Free; profile.connections];
        let connections = profile.connections;
        Self {
            profile,
            demands,
            buffers,
            now: 0.0,
            rng: StdRng::seed_from_u64(seed),
            slots,
            progress: vec![SlotProgress::default(); connections],
            completion_events: VecDeque::with_capacity(connections),
            submitted_events: VecDeque::with_capacity(connections),
            scratch: RateScratch::default(),
            last_stall: None,
            advance_budget_override: None,
            obs: Obs::off(),
        }
    }

    /// Observe this engine's virtual-time advances through `obs`: each
    /// productive advance increments `engine_advances` and emits a
    /// [`TraceKind::ShardAdvance`] event; a budget-exhausted advance
    /// increments `engine_stalls`. Observation is read-only — dynamics,
    /// clocks and noise draws are untouched, so an observed episode stays
    /// byte-identical to an unobserved one.
    pub fn set_obs(&mut self, obs: Obs) {
        obs.preregister(&["engine_advances", "engine_stalls"], &[]);
        self.obs = obs;
    }

    /// Number of queries currently executing.
    fn busy_count(&self) -> usize {
        self.slots.iter().filter(|s| !s.is_free()).count()
    }

    /// Pop one buffered submission echo `(query, connection)` without
    /// advancing virtual time.
    fn pop_submit_echo(&mut self) -> Option<(QueryId, usize)> {
        self.submitted_events.pop_front()
    }

    /// Per-connection (cpu_rate, io_rate) under the current mix, in work
    /// units and pages per virtual second respectively. Results land in
    /// `self.scratch.rates`, indexed by connection id (free slots read as
    /// zero); every buffer is reused across calls so the event loop performs
    /// no per-iteration allocations once warm.
    // bq-lint: hot-path
    fn compute_rates(&mut self) {
        let mut s = std::mem::take(&mut self.scratch);
        s.rates.clear();
        s.rates.resize(self.slots.len(), (0.0, 0.0));
        for node in 0..self.profile.nodes {
            // One pass over the slots collects this node's CPU-active and
            // I/O-active members (ascending connection order, exactly like
            // the separate filter passes it replaces) together with their
            // cached parallelism caps.
            s.cpu_active.clear();
            s.caps.clear();
            s.io_active.clear();
            for (c, slot) in self.slots.iter().enumerate() {
                if slot.is_free() || self.profile.node_of_connection(c) != node {
                    continue;
                }
                let p = &self.progress[c];
                if p.cpu_remaining > 0.0 {
                    s.cpu_active.push(c);
                    s.caps.push(p.workers_cap);
                }
                if p.io_remaining > 0.0 {
                    s.io_active.push(c);
                }
            }
            // --- CPU: water-filling allocation of the node's cores over the
            // queries that still have CPU work, capped by each query's
            // requested degree of parallelism.
            let cores = self.profile.cores_per_node as f64;
            if !s.cpu_active.is_empty() {
                s.granted.clear();
                s.granted.resize(s.cpu_active.len(), 0.0);
                let mut remaining = cores;
                s.open.clear();
                s.open.extend(0..s.cpu_active.len());
                while remaining > 1e-6 && !s.open.is_empty() {
                    let share = remaining / s.open.len() as f64;
                    s.still_open.clear();
                    for &k in &s.open {
                        let take = (s.caps[k] - s.granted[k]).min(share);
                        s.granted[k] += take;
                        remaining -= take;
                        if s.caps[k] - s.granted[k] > 1e-9 {
                            s.still_open.push(k);
                        }
                    }
                    if s.still_open.len() == s.open.len() {
                        break;
                    }
                    std::mem::swap(&mut s.open, &mut s.still_open);
                }
                // Context-switch / memory-bandwidth interference when the total
                // requested workers oversubscribe the cores, softened by the
                // DBMS's own workload management. Requesting parallelism that
                // cannot be used productively therefore has a real cost, which
                // is what adaptive masking exploits.
                let total_workers: f64 = s.caps.iter().sum();
                let overload = (total_workers / cores).max(1.0);
                let penalty =
                    1.0 + (overload - 1.0) * 0.3 * (1.0 - self.profile.contention_mitigation);
                for (k, &c) in s.cpu_active.iter().enumerate() {
                    let p = self.progress[c].parallel_fraction;
                    let g = s.granted[k];
                    let speedup = if g >= 1.0 {
                        1.0 / ((1.0 - p) + p / g)
                    } else {
                        g.max(0.05)
                    };
                    s.rates[c].0 = self.profile.cpu_units_per_sec * speedup / penalty;
                }
            }
            // --- I/O: share the node's bandwidth over queries still reading.
            if !s.io_active.is_empty() {
                let bw = self.profile.io_pages_per_sec;
                let fair = bw / s.io_active.len() as f64;
                let cap = bw * MAX_IO_SHARE_PER_QUERY;
                for &c in &s.io_active {
                    s.rates[c].1 = fair.min(cap).max(1.0);
                }
            }
        }
        self.scratch = s;
    }

    /// Advance virtual time until at least one running query completes,
    /// pushing the completions (all events of that instant) into the internal
    /// event buffer and freeing their connections. No-op when idle.
    fn advance_until_completion(&mut self) {
        self.advance_bounded(f64::INFINITY);
    }

    /// Iteration budget for one bounded advance over `busy` running queries.
    /// Generous for any physical dynamics (each iteration finishes a query,
    /// exhausts an I/O phase, or reaches the time bound); tests can shrink it
    /// to exercise the stall diagnostic.
    fn advance_budget(&self, busy: usize) -> usize {
        self.advance_budget_override.unwrap_or(4 * busy + 8)
    }

    /// Shrink the advance-loop iteration budget (tests only) so the stall
    /// path is reachable without constructing broken dynamics.
    #[doc(hidden)]
    pub fn force_advance_budget(&mut self, budget: usize) {
        self.advance_budget_override = Some(budget);
    }

    /// Advance until a completion occurs or `until` is reached.
    ///
    /// If the iteration budget is exhausted first — impossible under healthy
    /// dynamics — debug builds assert and release builds record an
    /// [`AdvanceStall`] (readable via [`ExecutorBackend::stall_diagnostic`])
    /// so the partially-advanced state is diagnosable instead of silent.
    fn advance_bounded(&mut self, until: f64) {
        let before = self.now;
        self.advance_bounded_inner(until);
        if self.now > before {
            self.obs.inc("engine_advances");
            self.obs.emit(
                TraceEvent::new(TraceKind::ShardAdvance, self.now).with_value(self.now - before),
            );
        }
    }

    fn advance_bounded_inner(&mut self, until: f64) {
        let busy = self.busy_count();
        if busy == 0 {
            return;
        }
        let budget = self.advance_budget(busy);
        for _ in 0..budget {
            if self.now >= until {
                return;
            }
            self.compute_rates();
            // Time until the next interesting event under constant rates.
            let mut dt = f64::INFINITY;
            for (c, p) in self.progress.iter().enumerate() {
                if self.slots[c].is_free() {
                    continue;
                }
                let (cpu_rate, io_rate) = self.scratch.rates[c];
                let t_cpu = if p.cpu_remaining > 0.0 {
                    p.cpu_remaining / cpu_rate.max(1e-9)
                } else {
                    0.0
                };
                let t_io = if p.io_remaining > 0.0 {
                    p.io_remaining / io_rate.max(1e-9)
                } else {
                    0.0
                };
                let t_done = t_cpu.max(t_io);
                dt = dt.min(t_done);
                if p.io_remaining > 0.0 && t_io > 0.0 {
                    dt = dt.min(t_io);
                }
            }
            let dt = dt.max(MIN_DT).min((until - self.now).max(0.0));
            self.now += dt;
            // Integrate progress and emit completions in one ascending pass
            // over the connections: same update arithmetic and same emission
            // order as the separate passes it replaces, so the batch an
            // instant produces stays deterministic by construction. (The
            // engine's own slots are only ever Free or Busy; the Pending
            // phase exists for async adapters layered above it.)
            let now = self.now;
            let mut emitted = false;
            for c in 0..self.slots.len() {
                let ConnectionSlot::Busy {
                    query,
                    params,
                    started_at,
                } = self.slots[c]
                else {
                    continue;
                };
                let (cpu_rate, io_rate) = self.scratch.rates[c];
                let p = &mut self.progress[c];
                p.cpu_remaining = (p.cpu_remaining - cpu_rate * dt).max(0.0);
                p.io_remaining = (p.io_remaining - io_rate * dt).max(0.0);
                if p.cpu_remaining <= 1e-9 && p.io_remaining <= 1e-9 {
                    self.slots[c] = ConnectionSlot::Free;
                    self.completion_events.push_back(QueryCompletion {
                        query,
                        connection: c,
                        params,
                        started_at,
                        finished_at: now,
                    });
                    emitted = true;
                }
            }
            if emitted {
                return;
            }
        }
        if self.now >= until {
            return;
        }
        let stall = AdvanceStall {
            now: self.now,
            busy: self.busy_count(),
            budget,
        };
        debug_assert!(
            false,
            "engine advance budget exhausted without progress: {stall:?}"
        );
        self.obs.inc("engine_stalls");
        self.last_stall = Some(stall);
    }
    // bq-lint: hot-path-end
}

// bq-lint: hot-path
impl ExecutorBackend for ExecutionEngine {
    /// Per-connection occupancy, indexed by connection id.
    fn connections(&self) -> &[ConnectionSlot] {
        &self.slots
    }

    /// Current virtual time in seconds.
    fn now(&self) -> f64 {
        self.now
    }

    /// Submit `query` with `params` to a specific free connection; the
    /// submission echo is buffered for the next [`ExecutorBackend::poll_event`].
    ///
    /// # Panics
    /// Panics if the connection is busy or out of range, or the query id is
    /// out of range.
    fn submit(&mut self, query: QueryId, params: RunParams, connection: usize) {
        assert!(
            connection < self.profile.connections,
            "connection {connection} out of range"
        );
        assert!(
            self.slots[connection].is_free(),
            "connection {connection} is busy"
        );
        assert!(query.0 < self.demands.len(), "query {query:?} out of range");
        let node = self.profile.node_of_connection(connection);
        // Split borrows: the demand row is read in place (no per-submission
        // clone of its table list) while the node's buffer pool is updated.
        let Self {
            profile,
            demands,
            buffers,
            slots,
            progress,
            rng,
            ..
        } = self;
        let demand = &demands[query.0];

        // Execution noise: every run of the same query differs slightly, which
        // is what produces the σ_ov the paper reports.
        let noise = 1.0 + profile.noise_std * (rng.gen::<f64>() + rng.gen::<f64>() - 1.0);
        let noise = noise.clamp(0.7, 1.4);

        // Effective I/O after buffer hits and concurrent-scan sharing.
        let mut io_pages = 0.0;
        for &(table, pages) in &demand.table_pages {
            let mut hit = buffers[node].hit_fraction(table, pages);
            let concurrent_scan = slots.iter().enumerate().any(|(c, s)| match s.query() {
                Some(q) => {
                    profile.node_of_connection(c) == node
                        && progress[c].io_remaining > 0.0
                        && demands[q.0].table_pages.iter().any(|(t, _)| *t == table)
                }
                None => false,
            });
            if concurrent_scan {
                hit = hit.max(CONCURRENT_SCAN_HIT);
            }
            io_pages += pages * (1.0 - hit);
            buffers[node].touch(table, pages);
        }

        // Spill I/O when the memory demand exceeds the grant.
        let grant = profile.memory_grant(params.memory);
        if demand.memory_pages > grant {
            io_pages += (demand.memory_pages - grant) * SPILL_IO_FACTOR;
        }
        let cpu_work = demand.cpu_work;
        let parallel_fraction = demand.parallel_fraction;

        // Requesting additional parallel workers carries a coordination
        // overhead: the total CPU work grows slightly with the degree of
        // parallelism, so over-parallelising a query that cannot use the
        // workers (e.g. an I/O-bound scan) is a net loss.
        let parallel_overhead = 1.0 + 0.06 * (params.workers as f64 - 1.0);
        self.slots[connection] = ConnectionSlot::Busy {
            query,
            params,
            started_at: self.now,
        };
        self.progress[connection] = SlotProgress {
            cpu_remaining: cpu_work * noise * parallel_overhead,
            io_remaining: io_pages * noise,
            parallel_fraction,
            workers_cap: params.workers as f64,
        };
        self.submitted_events.push_back((query, connection));
    }

    fn poll_event(&mut self) -> ExecEvent {
        if let Some((query, connection)) = self.pop_submit_echo() {
            return ExecEvent::Submitted { query, connection };
        }
        if self.completion_events.is_empty() {
            self.advance_until_completion();
        }
        match self.completion_events.pop_front() {
            Some(completion) => ExecEvent::Completed(completion),
            None => ExecEvent::Idle,
        }
    }

    fn events_pending(&self) -> bool {
        !self.completion_events.is_empty() || !self.submitted_events.is_empty()
    }

    /// Advance virtual time to at most `until` (without requiring a
    /// completion). Completions occurring on the way are buffered as usual,
    /// so a caller can stop at an instant that lies before the next natural
    /// completion (an admission, a thaw, a frame's arrival).
    ///
    /// An **idle** engine has no dynamics to integrate, but time still
    /// passes: a finite `until` moves the clock forward so a later
    /// submission is stamped at the caller's instant. The sharded backend
    /// relies on this to sync a lagging idle shard to the global clock
    /// before routing a query onto it; unbounded advances
    /// (`until = ∞`) leave an idle clock untouched.
    fn advance_to(&mut self, until: f64) {
        // Never move the clock while completions are still buffered: the
        // caller must drain them first (they precede `until`). Keeps the
        // ExecutorBackend contract identical across backends.
        if !self.completion_events.is_empty() {
            return;
        }
        if self.slots.iter().all(ConnectionSlot::is_free) {
            if until.is_finite() && until > self.now {
                self.now = until;
            }
            return;
        }
        self.advance_bounded(until);
    }

    /// Diagnostic from the most recent bounded advance that exhausted its
    /// iteration budget, if any ever did. Always `None` under healthy
    /// dynamics; see [`AdvanceStall`].
    fn stall_diagnostic(&self) -> Option<AdvanceStall> {
        self.last_stall
    }

    /// Number of queries in the workload the engine was built for.
    fn known_query_count(&self) -> Option<usize> {
        Some(self.demands.len())
    }
}
// bq-lint: hot-path-end

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{fifo_round, next_completion};
    use crate::params::{MemoryGrant, ParamSpace};
    use bq_plan::{generate, Benchmark, WorkloadSpec};

    fn tpch_workload() -> Workload {
        generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1))
    }

    fn default_params() -> RunParams {
        RunParams::default_config()
    }

    #[test]
    fn single_query_completes() {
        let w = tpch_workload();
        let mut e = ExecutionEngine::new(DbmsProfile::dbms_x(), &w, 1);
        e.submit(QueryId(0), default_params(), 0);
        let done = next_completion(&mut e).expect("query 0 is running");
        assert_eq!(done.query, QueryId(0));
        assert_eq!(done.connection, 0);
        assert!(done.finished_at > 0.0);
        assert!(next_completion(&mut e).is_none(), "exactly one completion");
        assert_eq!(e.busy_count(), 0);
    }

    #[test]
    fn all_queries_eventually_complete() {
        let w = tpch_workload();
        let mut e = ExecutionEngine::new(DbmsProfile::dbms_x(), &w, 2);
        // Keep all connections busy, FIFO order.
        let done = fifo_round(&mut e, w.len());
        assert_eq!(done.len(), w.len());
        assert_eq!(e.poll_event(), ExecEvent::Idle);
        assert!(e.now() > 0.0);
    }

    #[test]
    fn makespan_between_critical_path_and_serial_sum() {
        let w = tpch_workload();
        let profile = DbmsProfile::dbms_x();
        // Serial execution: one query at a time.
        let mut serial = ExecutionEngine::new(profile.clone(), &w, 3);
        for i in 0..w.len() {
            serial.submit(QueryId(i), default_params(), 0);
            let done = next_completion(&mut serial).expect("query is running");
            assert_eq!(done.query, QueryId(i));
        }
        let serial_time = serial.now();

        // Concurrent FIFO execution.
        let mut conc = ExecutionEngine::new(profile, &w, 3);
        fifo_round(&mut conc, w.len());
        let concurrent_time = conc.now();
        assert!(
            concurrent_time < serial_time,
            "concurrency should beat serial: {concurrent_time} vs {serial_time}"
        );
        assert!(concurrent_time > 0.0);
    }

    #[test]
    fn contention_slows_individual_queries() {
        let w = tpch_workload();
        let profile = DbmsProfile::dbms_x();
        // Query 0 alone.
        let mut alone = ExecutionEngine::new(profile.clone(), &w, 7);
        alone.submit(QueryId(0), default_params(), 0);
        let t_alone = next_completion(&mut alone).expect("running").duration();

        // Query 0 with 15 concurrent heavy queries competing for I/O and CPU.
        let mut busy = ExecutionEngine::new(profile, &w, 7);
        busy.submit(QueryId(0), default_params(), 0);
        for i in 1..16 {
            busy.submit(
                QueryId(i),
                RunParams {
                    workers: 4,
                    memory: MemoryGrant::Low,
                },
                i,
            );
        }
        // Run until query 0 finishes.
        let t_busy = loop {
            let c = next_completion(&mut busy).expect("query 0 is still running");
            if c.query == QueryId(0) {
                break c.duration();
            }
        };
        assert!(
            t_busy > t_alone,
            "contention should slow the query: {t_busy} vs {t_alone}"
        );
    }

    #[test]
    fn buffer_sharing_speeds_up_repeated_scans() {
        let w = tpch_workload();
        // Disable execution noise so the comparison isolates the buffer effect,
        // and pick the most I/O-intensive query so the effect is measurable.
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
        // The same query executed twice back to back: the second run should
        // benefit from the warm buffer.
        let mut e = ExecutionEngine::new(profile, &w, 5);
        e.submit(io_q, default_params(), 0);
        let first = next_completion(&mut e).expect("running").duration();
        e.submit(io_q, default_params(), 0);
        let second = next_completion(&mut e).expect("running").duration();
        assert!(
            second < first * 0.95,
            "warm-buffer run should be faster: {second} vs {first}"
        );
    }

    #[test]
    fn more_workers_help_cpu_bound_queries() {
        let w = tpch_workload();
        // Find the most CPU-bound query.
        let (cpu_q, _) = w
            .iter()
            .min_by(|a, b| {
                a.1.profile
                    .io_fraction()
                    .partial_cmp(&b.1.profile.io_fraction())
                    .unwrap()
            })
            .map(|(id, q)| (id, q.profile.io_fraction()))
            .unwrap();
        let profile = DbmsProfile::dbms_x();
        let solo = |workers: u32| {
            let mut e = ExecutionEngine::new(profile.clone(), &w, 11);
            let params = RunParams {
                workers,
                memory: MemoryGrant::High,
            };
            e.submit(cpu_q, params, 0);
            next_completion(&mut e).expect("running").duration()
        };
        let (t1, t4) = (solo(1), solo(4));
        assert!(
            t4 < t1 * 0.8,
            "4 workers should speed up a CPU-bound query: {t4} vs {t1}"
        );
    }

    #[test]
    fn high_memory_avoids_spill_for_memory_hungry_queries() {
        let w = tpch_workload();
        // Find the query with the largest memory demand.
        let (q, _) = w
            .iter()
            .max_by(|a, b| {
                a.1.profile
                    .memory_pages
                    .partial_cmp(&b.1.profile.memory_pages)
                    .unwrap()
            })
            .unwrap();
        let profile = DbmsProfile::dbms_x();
        assert!(
            w.query(q).profile.memory_pages > profile.low_mem_grant_pages,
            "test requires a query that spills under the low grant"
        );
        // The spill shows up as extra I/O to perform; whether it lengthens the
        // query depends on how contended the I/O path is, so the assertion is
        // on the induced I/O volume (read off the white-box progress table)
        // rather than on the duration.
        let io_after_submit = |memory: MemoryGrant| {
            let mut e = ExecutionEngine::new(profile.clone(), &w, 13);
            e.submit(q, RunParams { workers: 2, memory }, 0);
            e.progress[0].io_remaining
        };
        let io_low = io_after_submit(MemoryGrant::Low);
        let io_high = io_after_submit(MemoryGrant::High);
        assert!(
            io_high < io_low,
            "high memory should avoid spill I/O: {io_high} vs {io_low}"
        );
    }

    #[test]
    fn same_seed_is_deterministic_different_seed_varies() {
        let w = tpch_workload();
        let run = |seed: u64| {
            let mut e = ExecutionEngine::new(DbmsProfile::dbms_x(), &w, seed);
            fifo_round(&mut e, w.len());
            e.now()
        };
        let a = run(1);
        let b = run(1);
        let c = run(2);
        assert!(
            (a - b).abs() < 1e-9,
            "same seed must reproduce the makespan"
        );
        assert!((a - c).abs() > 1e-9, "different seeds should differ");
    }

    #[test]
    fn free_connections_track_submissions() {
        let w = tpch_workload();
        let mut e = ExecutionEngine::new(DbmsProfile::dbms_x(), &w, 1);
        assert_eq!(e.connection_count(), DbmsProfile::dbms_x().connections);
        assert_eq!(e.busy_count(), 0);
        e.submit(QueryId(0), default_params(), 0);
        e.submit(QueryId(1), default_params(), 1);
        assert_eq!(e.busy_count(), 2);
        assert!(!e.connections()[0].is_free());
        assert!(!e.connections()[1].is_free());
        assert_eq!(e.first_free(), Some(2));
    }

    #[test]
    #[should_panic(expected = "busy")]
    fn double_submit_to_same_connection_panics() {
        let w = tpch_workload();
        let mut e = ExecutionEngine::new(DbmsProfile::dbms_x(), &w, 1);
        e.submit(QueryId(0), default_params(), 3);
        e.submit(QueryId(1), default_params(), 3);
    }

    #[test]
    fn param_space_indices_cover_engine_usage() {
        // Smoke test that every configuration of the full space is accepted.
        let w = tpch_workload();
        let space = ParamSpace::full();
        let mut e = ExecutionEngine::new(DbmsProfile::dbms_x(), &w, 1);
        for i in 0..space.len() {
            e.submit(QueryId(i), space.get(i), i);
        }
        assert_eq!(e.busy_count(), space.len());
    }

    #[test]
    fn distributed_profile_uses_multiple_nodes() {
        let w = tpch_workload();
        let mut e = ExecutionEngine::new(DbmsProfile::dbms_z(), &w, 1);
        e.submit(QueryId(0), default_params(), 0);
        e.submit(QueryId(1), default_params(), 1);
        e.submit(QueryId(2), default_params(), 2);
        assert_eq!(e.busy_count(), 3);
        assert!(next_completion(&mut e).is_some());
    }

    #[test]
    fn running_slots_stay_connection_ordered_after_a_mid_completion() {
        let w = tpch_workload();
        // Rank queries by solo duration, so the shortest one can sit in the
        // middle of the filled block and finish first.
        let solo = |q: usize| {
            let mut e = ExecutionEngine::new(DbmsProfile::dbms_x(), &w, 1);
            e.submit(QueryId(q), default_params(), 0);
            next_completion(&mut e).expect("running").duration()
        };
        let mut ranked: Vec<usize> = (0..w.len()).collect();
        ranked.sort_by(|&a, &b| solo(a).total_cmp(&solo(b)));
        // Connection 2 gets the shortest query, the others the four longest.
        let placed = [
            ranked[w.len() - 1],
            ranked[w.len() - 2],
            ranked[0],
            ranked[w.len() - 3],
            ranked[w.len() - 4],
        ];
        let mut e = ExecutionEngine::new(DbmsProfile::dbms_x(), &w, 1);
        for (c, &q) in placed.iter().enumerate() {
            e.submit(QueryId(q), default_params(), c);
        }
        let first = next_completion(&mut e).expect("queries are running");
        assert_eq!(first.connection, 2, "the shortest query finishes first");
        // Freeing a slot in the middle must not reorder the view (the old
        // `running()` slice swap-removed, so the last entry jumped into the
        // hole). The slots slice itself is the ordered view, and
        // `RunningView` iterates it the same way.
        let view: Vec<(usize, QueryId)> = e.running_view().map(|(q, _, _, c)| (c, q)).collect();
        assert_eq!(
            view,
            vec![
                (0, QueryId(placed[0])),
                (1, QueryId(placed[1])),
                (3, QueryId(placed[3])),
                (4, QueryId(placed[4])),
            ]
        );
        assert_eq!(e.first_free(), Some(2));
        assert_eq!(e.busy_count(), 4);
    }

    #[test]
    fn idle_advance_to_moves_the_clock_only_for_finite_bounds() {
        let w = tpch_workload();
        let mut e = ExecutionEngine::new(DbmsProfile::dbms_x(), &w, 1);
        assert_eq!(e.now(), 0.0);
        // Finite bound on an idle engine: time passes, nothing else changes.
        e.advance_to(3.5);
        assert_eq!(e.now(), 3.5);
        assert_eq!(e.busy_count(), 0);
        // The clock never moves backwards...
        e.advance_to(1.0);
        assert_eq!(e.now(), 3.5);
        // ...and an unbounded advance leaves an idle clock untouched (there
        // is no "next completion" to reach).
        e.advance_to(f64::INFINITY);
        assert_eq!(e.now(), 3.5);
        // A submission after the idle advance is stamped at the new instant.
        e.submit(QueryId(0), default_params(), 0);
        assert_eq!(e.connections()[0].started_at(), Some(3.5));
    }

    #[test]
    fn a_buffered_completion_polls_without_advancing_time() {
        // The sharded engine harvests a shard after a bounded advance with
        // `events_pending` + `poll_event`, so a poll answered from the
        // buffer must never move the clock.
        let w = tpch_workload();
        let mut e = ExecutionEngine::new(DbmsProfile::dbms_x(), &w, 1);
        assert!(!e.events_pending());
        e.submit(QueryId(0), default_params(), 0);
        assert!(e.events_pending(), "the submission echo is buffered");
        assert!(matches!(e.poll_event(), ExecEvent::Submitted { .. }));
        // Nothing buffered now, and checking must not advance the clock.
        assert!(!e.events_pending());
        assert_eq!(e.now(), 0.0);
        e.advance_to(f64::INFINITY);
        assert!(e.events_pending(), "the advance buffered the completion");
        let before = e.now();
        let ExecEvent::Completed(c) = e.poll_event() else {
            panic!("expected the buffered completion");
        };
        assert_eq!(c.query, QueryId(0));
        assert_eq!(c.finished_at, before);
        assert_eq!(e.now(), before, "polling a buffered event keeps the clock");
        assert!(!e.events_pending());
    }

    #[test]
    fn near_zero_rate_workload_completes_without_stall() {
        // Rates near zero stretch virtual time enormously but the advance
        // loop still converges well within its budget: no stall diagnostic.
        let w = tpch_workload();
        let mut profile = DbmsProfile::dbms_x();
        profile.cpu_units_per_sec = 1e-9;
        let mut e = ExecutionEngine::new(profile, &w, 1);
        e.submit(QueryId(0), default_params(), 0);
        e.submit(QueryId(1), default_params(), 1);
        assert!(next_completion(&mut e).is_some());
        assert_eq!(e.stall_diagnostic(), None);
    }

    /// Two near-zero-rate queries with a budget of 1: the first iteration
    /// spends the budget on an I/O-phase event without completing anyone.
    fn stalled_engine() -> ExecutionEngine {
        let w = tpch_workload();
        let mut profile = DbmsProfile::dbms_x();
        profile.cpu_units_per_sec = 1e-9;
        let mut e = ExecutionEngine::new(profile, &w, 1);
        e.submit(QueryId(0), default_params(), 0);
        e.submit(QueryId(1), default_params(), 1);
        e.force_advance_budget(1);
        e
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "advance budget exhausted")]
    fn exhausted_advance_budget_asserts_in_debug() {
        stalled_engine().advance_to(1e18);
    }

    // Release-only: in debug the debug_assert fires first. CI runs it in the
    // release test step, which runs all of bq-dbms.
    #[cfg(not(debug_assertions))]
    #[test]
    fn exhausted_advance_budget_is_diagnosed_not_silent() {
        // Release builds record the diagnostic and keep the partially
        // advanced (still consistent) state instead of silently bailing.
        let mut e = stalled_engine();
        e.advance_to(1e18);
        let stall = e
            .stall_diagnostic()
            .expect("budget exhaustion must be diagnosed");
        assert_eq!(stall.busy, 2);
        assert_eq!(stall.budget, 1);
        assert!(e.now() > 0.0, "partial progress is kept, not dropped");
        assert_eq!(e.busy_count(), 2, "no slot was freed by the stall");
    }
}
