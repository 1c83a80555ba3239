//! Async submission adapter over any [`ExecutorBackend`].
//!
//! Every in-process backend admits a submission synchronously inside
//! `submit()`: the slot turns `Busy` at the call site. A real DBMS does not
//! work that way — submissions cross a client/server boundary, spend time in
//! flight, and are admitted asynchronously, possibly out of a bounded
//! server-side admission window. [`AsyncAdapter`] models that
//! boundary on top of any existing backend, so the scheduler stack can be
//! exercised against realistic dispatch dynamics without touching the
//! executors themselves.
//!
//! # Submission lifecycle
//!
//! A query moves through **decided → queued → admitted → running →
//! completed**:
//!
//! 1. **decided** — the session picked the query for a free connection and
//!    hands the whole instant's decisions to
//!    [`ExecutorBackend::submit_batch`];
//! 2. **queued** — the adapter claims the slot
//!    ([`ConnectionSlot::Pending`]) and the dispatch waits out its admission
//!    latency (or, beyond the in-flight window, waits in the backpressure
//!    queue). The slot is occupied but has no `started_at`, so queued time
//!    never counts as execution time;
//! 3. **admitted** — the latency elapsed in virtual time: the adapter
//!    forwards the submission to the wrapped backend and the slot turns
//!    [`ConnectionSlot::Busy`] stamped at the admission instant. Admission
//!    is not an event: [`ExecutorBackend::poll_event`] applies every
//!    admission due on its way to the next completion, and
//!    [`ExecutorBackend::advance_to`] every admission due by its bound —
//!    never `submit`;
//! 4. **running / completed** — exactly the wrapped backend's semantics.
//!
//! # Determinism
//!
//! Admission latencies are a pure function of `(seed, connection, dispatch
//! index)` (see [`DispatchProfile::latency_for`]), admissions deliver in
//! `(due instant, dispatch index)` order, and the backpressure queue drains
//! FIFO, so episode logs through the adapter are a pure function of
//! `(workload, profile, seed, dispatch profile)`.
//!
//! # The zero-latency invariant
//!
//! [`DispatchProfile::synchronous`] (zero latency, batch size 1, unbounded
//! window) makes the adapter a **byte-identical passthrough**: every
//! dispatch admits at its own instant, in decision order, so the wrapped
//! backend receives exactly the call sequence it would have received bare.
//! The conformance suite and property tests pin this for the simulated
//! DBMS, the learned simulator and the sharded backend.
//!
//! ```
//! use bq_adapter::{AsyncAdapter, DispatchProfile};
//! use bq_core::{FifoScheduler, ScheduleSession};
//! use bq_dbms::{DbmsProfile, ExecutionEngine};
//! use bq_plan::{generate, Benchmark, WorkloadSpec};
//!
//! let workload = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
//! let profile = DbmsProfile::dbms_x();
//! let engine = ExecutionEngine::new(profile.clone(), &workload, 0);
//! // 50 ms dispatch latency, at most 8 admissions in flight, coalesce
//! // up to 4 decisions per dispatch.
//! let dispatch = DispatchProfile::fixed(0.05)
//!     .with_max_in_flight(8)
//!     .with_max_batch(4);
//! let mut adapter = AsyncAdapter::new(engine, dispatch);
//! let log = ScheduleSession::builder(&workload)
//!     .dbms(profile.kind)
//!     .build(&mut adapter)
//!     .run(&mut FifoScheduler::new());
//! assert_eq!(log.len(), workload.len());
//! ```

#![warn(missing_docs)]

use bq_core::{rng, ExecEvent, ExecutorBackend, FaultEvent, ShardTopology};
use bq_dbms::{AdvanceStall, ConnectionSlot, RunParams};
use bq_obs::{Obs, TraceEvent, TraceKind};
use bq_plan::QueryId;
use std::collections::VecDeque;

/// Stride decorrelating admission-jitter draws by connection id. An
/// arbitrary odd constant (not a generator constant — the mixing happens in
/// [`rng::unit`]); paired with [`DISPATCH_STRIDE`] it keys the
/// `(connection, dispatch)` lattice into one 64-bit draw.
const CONNECTION_STRIDE: u64 = 0xA076_1D64_78BD_642F;
/// Stride decorrelating admission-jitter draws by dispatch index.
const DISPATCH_STRIDE: u64 = 0xE703_7ED1_A0B4_28DB;

/// One dispatched-but-not-admitted submission: `(query, params, connection)`.
type Entry = (QueryId, RunParams, usize);

/// Configuration of the asynchronous dispatch boundary: admission-latency
/// distribution, in-flight admission window (backpressure) and batch
/// coalescing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatchProfile {
    /// Deterministic floor of every admission latency, in virtual seconds.
    pub base_latency: f64,
    /// Width of the seeded uniform jitter added on top of the floor; `0.0`
    /// makes every latency exactly [`DispatchProfile::base_latency`].
    pub jitter: f64,
    /// Maximum admissions (dispatches whose latency has not yet elapsed) in
    /// flight — each carrying up to [`DispatchProfile::max_batch`]
    /// submissions, so coalescing multiplies the window's throughput
    /// exactly the way pipelined client requests do. Submissions beyond the
    /// window wait in a FIFO backpressure queue and are dispatched as
    /// admissions complete. Zero-latency dispatches admit instantaneously
    /// and never occupy the window.
    pub max_in_flight: usize,
    /// Batch coalescing: up to this many decisions of one scheduling
    /// instant share a single dispatch — and therefore a single admission
    /// latency. `1` disables coalescing.
    pub max_batch: usize,
    /// Seed of the jitter stream (latencies are a pure function of
    /// `(seed, connection, dispatch index)`).
    pub seed: u64,
}

impl DispatchProfile {
    /// The degenerate boundary: zero latency, batch size 1, unbounded
    /// window. An [`AsyncAdapter`] with this profile is a byte-identical
    /// passthrough to the wrapped backend.
    pub fn synchronous() -> Self {
        Self {
            base_latency: 0.0,
            jitter: 0.0,
            max_in_flight: usize::MAX,
            max_batch: 1,
            seed: 0,
        }
    }

    /// A fixed admission latency of `seconds` (no jitter), batch size 1,
    /// unbounded window.
    pub fn fixed(seconds: f64) -> Self {
        assert!(
            seconds >= 0.0 && seconds.is_finite(),
            "admission latency must be finite and non-negative"
        );
        Self {
            base_latency: seconds,
            ..Self::synchronous()
        }
    }

    /// Add a seeded uniform jitter of up to `seconds` on top of the base
    /// latency.
    // bq-lint: allow(dead-pub): the async golden (engine_async_tpch_seed0.json) pins a jittered profile
    pub fn with_jitter(mut self, seconds: f64) -> Self {
        assert!(
            seconds >= 0.0 && seconds.is_finite(),
            "jitter must be finite and non-negative"
        );
        self.jitter = seconds;
        self
    }

    /// Bound the in-flight admission window (backpressure threshold).
    ///
    /// # Panics
    /// Panics if `max` is zero — a closed window could never admit anything.
    pub fn with_max_in_flight(mut self, max: usize) -> Self {
        assert!(max > 0, "the in-flight window must admit at least one");
        self.max_in_flight = max;
        self
    }

    /// Coalesce up to `max` decisions of one instant into a single dispatch.
    ///
    /// # Panics
    /// Panics if `max` is zero.
    pub fn with_max_batch(mut self, max: usize) -> Self {
        assert!(max > 0, "a dispatch carries at least one submission");
        self.max_batch = max;
        self
    }

    /// Re-seed the jitter stream.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The admission latency of dispatch number `dispatch_index` issued for
    /// `connection` — a pure function of `(seed, connection, dispatch
    /// index)`, so episodes replay exactly. A coalesced batch draws one
    /// latency from its first entry's connection.
    pub fn latency_for(&self, connection: usize, dispatch_index: u64) -> f64 {
        if self.jitter <= 0.0 {
            return self.base_latency.max(0.0);
        }
        let unit = rng::unit(
            self.seed
                ^ (connection as u64).wrapping_mul(CONNECTION_STRIDE)
                ^ dispatch_index.wrapping_mul(DISPATCH_STRIDE),
        );
        (self.base_latency + self.jitter * unit).max(0.0)
    }
}

/// One dispatch waiting out its admission latency.
#[derive(Debug)]
struct Admission {
    /// Virtual instant at which the executor admits the dispatch.
    due: f64,
    /// The coalesced submissions (≥ 1, ≤ `max_batch`).
    entries: Vec<Entry>,
}

/// Models the client/server dispatch boundary of a real DBMS over any
/// wrapped [`ExecutorBackend`].
///
/// Submissions enter an admission queue and are admitted
/// **asynchronously**: the wrapped backend receives a dispatch only once its
/// seeded admission latency has elapsed in virtual time, when a poll or a
/// bounded advance reaches that instant, never synchronously at `submit`
/// time. While queued, the connection's slot reads
/// [`ConnectionSlot::Pending`] — occupied, but with no `started_at`, so the
/// running view leaves out dispatched-but-not-admitted work. Beyond the
/// [`DispatchProfile::max_in_flight`] window, submissions wait in a FIFO
/// backpressure queue; [`ExecutorBackend::submit_batch`] coalesces one
/// scheduling instant's decisions into dispatches of up to
/// [`DispatchProfile::max_batch`] entries sharing one admission latency.
///
/// With [`DispatchProfile::synchronous`] the adapter is a byte-identical
/// passthrough (see the [module docs](self)).
#[derive(Debug)]
pub struct AsyncAdapter<B> {
    inner: B,
    profile: DispatchProfile,
    /// Session-observable occupancy: `Pending` between dispatch and
    /// admission, then a verbatim copy of the inner backend's `Busy` slot,
    /// freed when the completion is delivered (or when a fault loses the
    /// query).
    mirror: Vec<ConnectionSlot>,
    /// Dispatches waiting out their latency, in dispatch order; delivery
    /// picks the earliest `(due, dispatch index)`.
    admissions: VecDeque<Admission>,
    /// Backpressure: submissions the in-flight window rejected, FIFO.
    queued: VecDeque<Entry>,
    /// Dispatches currently occupying the in-flight window.
    in_flight: usize,
    /// Dispatches issued so far (the latency-stream index).
    dispatches: u64,
    /// Faults the adapter synthesized itself (submissions it still held for
    /// a shard that died), delivered after the inner fault that caused them.
    faults: VecDeque<FaultEvent>,
    /// Observability handle; [`Obs::off`] unless
    /// [`AsyncAdapter::set_obs`] installed one.
    obs: Obs,
}

impl<B: ExecutorBackend> AsyncAdapter<B> {
    /// Wrap `inner` behind the dispatch boundary described by `profile`.
    pub fn new(inner: B, profile: DispatchProfile) -> Self {
        let mirror = inner.connections().to_vec();
        Self {
            inner,
            profile,
            mirror,
            admissions: VecDeque::new(),
            queued: VecDeque::new(),
            in_flight: 0,
            dispatches: 0,
            faults: VecDeque::new(),
            obs: Obs::off(),
        }
    }

    /// Observe the dispatch boundary through `obs`: dispatches and
    /// admissions are counted, every admission records its queue wait
    /// (admission instant minus the instant the session claimed the slot)
    /// in the `adapter_adm_wait` histogram, and the in-flight window
    /// occupancy is sampled into `adapter_in_flight` at each dispatch.
    /// Observation is read-only — latencies, ordering and backpressure are
    /// untouched, so episodes stay byte-identical.
    pub fn set_obs(&mut self, obs: Obs) {
        obs.preregister(
            &["adapter_dispatches", "adapter_admissions"],
            &["adapter_adm_wait", "adapter_in_flight"],
        );
        self.obs = obs;
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Dispatches currently in flight (issued, latency not elapsed).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Claim the slots of `batch` and feed the entries through the
    /// in-flight window: what fits is dispatched (in coalesced chunks), the
    /// rest waits in the backpressure queue.
    fn enqueue(&mut self, batch: &[Entry]) {
        let now = self.inner.now();
        for &(query, params, connection) in batch {
            assert!(
                connection < self.mirror.len(),
                "connection {connection} out of range"
            );
            assert!(
                self.mirror[connection].is_free(),
                "connection {connection} is busy"
            );
            self.mirror[connection] = ConnectionSlot::Pending {
                query,
                params,
                queued_at: now,
            };
        }
        let mut start = 0;
        while start < batch.len() && self.in_flight < self.profile.max_in_flight {
            let chunk = self.profile.max_batch.min(batch.len() - start);
            self.dispatch(batch[start..start + chunk].to_vec());
            start += chunk;
        }
        self.queued.extend(batch[start..].iter().copied());
    }

    /// Issue one dispatch (one shared admission latency for all entries).
    /// Zero-latency dispatches admit at this very instant — which is what
    /// makes the synchronous profile a byte-identical passthrough — and
    /// never occupy the in-flight window.
    fn dispatch(&mut self, entries: Vec<Entry>) {
        debug_assert!(!entries.is_empty() && entries.len() <= self.profile.max_batch);
        let index = self.dispatches;
        self.dispatches += 1;
        let latency = self.profile.latency_for(entries[0].2, index);
        self.obs.inc("adapter_dispatches");
        self.obs.observe("adapter_in_flight", self.in_flight as f64);
        self.obs.emit(
            TraceEvent::new(TraceKind::Dispatch, self.inner.now())
                .with_connection(entries[0].2)
                .with_seq(index)
                .with_value(entries.len() as f64),
        );
        if latency <= 0.0 {
            for &(query, params, connection) in &entries {
                self.admit_one(query, params, connection);
            }
        } else {
            self.in_flight += 1;
            self.admissions.push_back(Admission {
                due: self.inner.now() + latency,
                entries,
            });
        }
    }

    /// Forward one admitted submission to the executor; the mirror copies
    /// the inner slot verbatim so `started_at` is bit-identical to the
    /// executor's own stamp.
    fn admit_one(&mut self, query: QueryId, params: RunParams, connection: usize) {
        debug_assert!(self.mirror[connection].is_pending() || self.mirror[connection].is_free());
        let queued_at = self.mirror[connection].queued_at();
        self.inner.submit(query, params, connection);
        self.mirror[connection] = self.inner.connections()[connection];
        self.obs.inc("adapter_admissions");
        let now = self.inner.now();
        let wait = queued_at.map_or(0.0, |q| (now - q).max(0.0));
        self.obs.observe("adapter_adm_wait", wait);
        self.obs.emit(
            TraceEvent::new(TraceKind::Admission, now)
                .with_connection(connection)
                .with_query(query.0)
                .with_value(wait),
        );
    }

    /// Index of the next admission to deliver: earliest `due`, ties broken
    /// toward the earlier dispatch (FIFO — strict `<` keeps the first).
    fn earliest_admission(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, a) in self.admissions.iter().enumerate() {
            match best {
                Some(b) if a.due >= self.admissions[b].due => {}
                _ => best = Some(i),
            }
        }
        best
    }

    /// Admit the dispatch at `idx` (its due instant has been reached on the
    /// inner clock), freeing its window share and draining the backpressure
    /// queue into fresh dispatches stamped at the current instant.
    fn deliver_admission(&mut self, idx: usize) {
        let admission = self
            .admissions
            .remove(idx)
            // bq-lint: allow(panic-surface): idx comes from earliest_admission over the same deque; locally provable
            .expect("earliest_admission returned a valid index");
        self.in_flight -= 1;
        for &(query, params, connection) in &admission.entries {
            self.admit_one(query, params, connection);
        }
        self.drain_queue();
    }

    /// Move backpressured submissions into the in-flight window, oldest
    /// first, coalescing up to `max_batch` per dispatch. (Zero-latency
    /// dispatches admit inline without occupying the window, so the loop
    /// always terminates by emptying the queue or filling the window.)
    fn drain_queue(&mut self) {
        while !self.queued.is_empty() && self.in_flight < self.profile.max_in_flight {
            let chunk = self.profile.max_batch.min(self.queued.len());
            let entries: Vec<Entry> = self.queued.drain(..chunk).collect();
            self.dispatch(entries);
        }
    }

    /// Remove the not-yet-admitted submission for `connection` from
    /// whichever queue holds it (its shard died before admission).
    fn revoke(&mut self, connection: usize) {
        if let Some(pos) = self.queued.iter().position(|e| e.2 == connection) {
            self.queued.remove(pos);
            return;
        }
        for i in 0..self.admissions.len() {
            let admission = &mut self.admissions[i];
            if let Some(pos) = admission.entries.iter().position(|e| e.2 == connection) {
                admission.entries.remove(pos);
                // The dispatch itself stays in flight unless it emptied.
                if admission.entries.is_empty() {
                    self.admissions.remove(i);
                    self.in_flight -= 1;
                    self.drain_queue();
                }
                return;
            }
        }
        // bq-lint: allow(panic-surface): revoke is only called for slots the adapter itself marked pending; reaching here is state corruption worth a loud stop
        unreachable!("a pending slot is always queued or awaiting admission");
    }

    /// Admit the dispatches due by `until` in `(due, dispatch index)` order,
    /// moving the inner clock to each due instant. Stops early, with the
    /// clock at the completion, when the inner backend buffers one on the
    /// way: the completion delivers before any later admission.
    fn admit_due(&mut self, until: f64) {
        while !self.inner.events_pending() {
            let Some(idx) = self.earliest_admission() else {
                return;
            };
            let due = self.admissions[idx].due;
            if due > until {
                return;
            }
            if due > self.inner.now() {
                self.inner.advance_to(due);
                if self.inner.events_pending() {
                    return;
                }
            }
            self.deliver_admission(idx);
        }
    }

    /// Pull the next inner event, freeing the mirror slot of a delivered
    /// completion.
    fn forward_event(&mut self) -> ExecEvent {
        let event = self.inner.poll_event();
        if let ExecEvent::Completed(completion) = &event {
            self.mirror[completion.connection] = ConnectionSlot::Free;
        }
        event
    }
}

impl<B: ExecutorBackend> ExecutorBackend for AsyncAdapter<B> {
    fn connections(&self) -> &[ConnectionSlot] {
        &self.mirror
    }

    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn submit(&mut self, query: QueryId, params: RunParams, connection: usize) {
        self.enqueue(&[(query, params, connection)]);
    }

    fn submit_batch(&mut self, batch: &[(QueryId, RunParams, usize)]) {
        self.enqueue(batch);
    }

    /// Admit every dispatch due on the way to the next inner completion,
    /// then deliver that completion.
    fn poll_event(&mut self) -> ExecEvent {
        self.admit_due(f64::INFINITY);
        self.forward_event()
    }

    /// Whether the inner backend has a completion buffered. A due admission
    /// is not an event: the next poll or advance applies it.
    fn events_pending(&self) -> bool {
        self.inner.events_pending()
    }

    /// Admit every dispatch due by `until`, then reach `until` unless a
    /// completion comes first.
    fn advance_to(&mut self, until: f64) {
        self.admit_due(until);
        if !self.inner.events_pending() {
            self.inner.advance_to(until);
        }
    }

    fn stall_diagnostic(&self) -> Option<AdvanceStall> {
        self.inner.stall_diagnostic()
    }

    fn shard_topology(&self) -> ShardTopology {
        self.inner.shard_topology()
    }

    fn poll_fault(&mut self) -> Option<FaultEvent> {
        if let Some(fault) = self.faults.pop_front() {
            return Some(fault);
        }
        let fault = self.inner.poll_fault()?;
        match fault {
            // The executor lost an admitted query: no completion will ever
            // free its mirror slot, so the adapter frees it here — a
            // resubmission must be able to reclaim the connection.
            FaultEvent::QueryLost { connection, .. } if connection < self.mirror.len() => {
                self.mirror[connection] = ConnectionSlot::Free;
            }
            FaultEvent::ShardDied { shard, at } => {
                // Submissions the adapter still holds for the dead shard
                // (queued or awaiting admission) will never be admitted:
                // revoke them and surface each as its own loss, after the
                // shard-death event that caused them.
                let range = self.inner.shard_topology().range_of(shard);
                for connection in range {
                    let Some(&ConnectionSlot::Pending { query, .. }) = self.mirror.get(connection)
                    else {
                        continue;
                    };
                    self.revoke(connection);
                    self.mirror[connection] = ConnectionSlot::Free;
                    self.faults.push_back(FaultEvent::QueryLost {
                        query,
                        connection,
                        at,
                    });
                }
            }
            _ => {}
        }
        Some(fault)
    }

    fn known_query_count(&self) -> Option<usize> {
        self.inner.known_query_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bq_core::{FifoScheduler, ScheduleSession};
    use bq_dbms::{DbmsProfile, ExecutionEngine, ShardedEngine};
    use bq_plan::{generate, Benchmark, Workload, WorkloadSpec};

    fn tpch() -> Workload {
        generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1))
    }

    fn engine(w: &Workload, seed: u64) -> ExecutionEngine {
        ExecutionEngine::new(DbmsProfile::dbms_x(), w, seed)
    }

    /// Natural duration of query 0 alone on a fresh engine of seed 0 (an
    /// adapter over the same engine replays the same first noise draw).
    fn solo_duration(w: &Workload) -> f64 {
        let mut probe = engine(w, 0);
        probe.submit(QueryId(0), RunParams::default_config(), 0);
        match probe.poll_event() {
            ExecEvent::Completed(c) => c.duration(),
            other => panic!("expected the completion: {other:?}"),
        }
    }

    #[test]
    fn latencies_are_a_pure_function_of_seed_connection_and_index() {
        let p = DispatchProfile::fixed(0.1).with_jitter(0.5).with_seed(7);
        assert_eq!(p.latency_for(3, 12), p.latency_for(3, 12));
        assert_ne!(p.latency_for(3, 12), p.latency_for(3, 13));
        assert_ne!(p.latency_for(3, 12), p.latency_for(4, 12));
        assert_ne!(
            p.latency_for(3, 12),
            p.with_seed(8).latency_for(3, 12),
            "the seed must vary the stream"
        );
        for i in 0..64 {
            let l = p.latency_for(i % 5, i as u64);
            assert!((0.1..0.6).contains(&l), "latency {l} out of range");
        }
        let fixed = DispatchProfile::fixed(0.25);
        assert_eq!(fixed.latency_for(0, 0), 0.25);
        assert_eq!(fixed.latency_for(9, 99), 0.25);
    }

    #[test]
    fn a_dispatch_is_never_admitted_synchronously_from_submit() {
        let w = tpch();
        let mut a = AsyncAdapter::new(engine(&w, 0), DispatchProfile::fixed(0.5));
        a.submit(QueryId(0), RunParams::default_config(), 0);
        // The slot is claimed (pending) but nothing was admitted: no event is
        // buffered, the inner backend is untouched, the slot has no start.
        assert!(!a.events_pending(), "no event may be buffered at submit");
        assert!(a.connections()[0].is_pending());
        assert_eq!(a.connections()[0].started_at(), None);
        assert_eq!(a.connections()[0].queued_at(), Some(0.0));
        assert!(a.inner().connections()[0].is_free());
        assert_eq!(a.in_flight(), 1);
        // The poll admits the dispatch once the latency elapsed, on its way
        // to the query's completion.
        let ExecEvent::Completed(done) = a.poll_event() else {
            panic!("the admitted query completes");
        };
        assert_eq!(done.query, QueryId(0));
        assert_eq!(
            done.started_at, 0.5,
            "admission happened at the due instant"
        );
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn zero_latency_adapter_is_a_passthrough_even_for_direct_submits() {
        let w = tpch();
        let mut bare = engine(&w, 3);
        let mut wrapped = AsyncAdapter::new(engine(&w, 3), DispatchProfile::synchronous());
        for q in 0..4 {
            bare.submit(QueryId(q), RunParams::default_config(), q);
            wrapped.submit(QueryId(q), RunParams::default_config(), q);
        }
        assert_eq!(bare.connections(), wrapped.connections());
        loop {
            let (a, b) = (ExecutorBackend::poll_event(&mut bare), wrapped.poll_event());
            assert_eq!(a, b);
            if a == ExecEvent::Idle {
                break;
            }
        }
        assert_eq!(bare.now(), wrapped.now());
    }

    #[test]
    fn backpressure_queues_submissions_beyond_the_window() {
        let w = tpch();
        let profile = DispatchProfile::fixed(0.25).with_max_in_flight(2);
        let mut a = AsyncAdapter::new(engine(&w, 0), profile);
        let batch: Vec<Entry> = (0..5)
            .map(|q| (QueryId(q), RunParams::default_config(), q))
            .collect();
        a.submit_batch(&batch);
        assert_eq!(a.in_flight(), 2, "window admits two dispatches");
        assert_eq!(a.queued.len(), 3, "the rest waits in the queue");
        // Every claimed slot is occupied — the session can never hand the
        // same connection out twice while the queue drains.
        for c in 0..5 {
            assert!(a.connections()[c].is_pending());
        }
        // Admissions drain the queue in FIFO order: after both in-flight
        // dispatches admit, the next two queued entries take their place.
        a.advance_to(0.25);
        assert!(!a.events_pending(), "every query is still running");
        for c in 0..2 {
            assert_eq!(a.connections()[c].started_at(), Some(0.25));
        }
        for c in 2..5 {
            assert!(a.connections()[c].is_pending());
        }
        assert_eq!(a.queued.len(), 1);
        assert_eq!(a.in_flight(), 2);
        a.advance_to(0.5);
        assert_eq!(a.connections()[2].started_at(), Some(0.5));
        assert_eq!(a.connections()[3].started_at(), Some(0.5));
        assert!(a.connections()[4].is_pending());
        assert_eq!((a.queued.len(), a.in_flight()), (0, 1));
        a.advance_to(0.75);
        assert!(!a.events_pending(), "every query is still running");
        assert_eq!(a.queued.len(), 0);
        assert_eq!(a.in_flight(), 0);
        // Requeued dispatches waited out their own latency from the instant
        // the window freed, so later admissions start strictly later.
        let starts: Vec<f64> = (0..5)
            .map(|c| a.connections()[c].started_at().expect("admitted"))
            .collect();
        assert!(starts.windows(2).all(|s| s[0] <= s[1] + 1e-12));
        assert!(starts[4] > starts[0], "drained dispatches admit later");
    }

    #[test]
    fn batch_coalescing_shares_one_admission_latency() {
        let w = tpch();
        // Jitter makes distinct dispatches get distinct latencies, so shared
        // vs per-entry latency is observable in the admission stamps.
        let profile = DispatchProfile::fixed(0.2)
            .with_jitter(0.4)
            .with_seed(11)
            .with_max_batch(3);
        let mut a = AsyncAdapter::new(engine(&w, 0), profile);
        let batch: Vec<Entry> = (0..6)
            .map(|q| (QueryId(q), RunParams::default_config(), q))
            .collect();
        a.submit_batch(&batch);
        // Every latency is under 0.2 + 0.4, far below any completion.
        a.advance_to(0.6);
        assert!(!a.events_pending(), "every query is still running");
        assert_eq!(a.in_flight(), 0);
        let starts: Vec<f64> = (0..6)
            .map(|c| a.connections()[c].started_at().expect("admitted"))
            .collect();
        // Two dispatches of three entries each: one shared stamp per chunk,
        // different stamps across chunks.
        assert_eq!(starts[0], starts[1]);
        assert_eq!(starts[1], starts[2]);
        assert_eq!(starts[3], starts[4]);
        assert_eq!(starts[4], starts[5]);
        assert_ne!(starts[0], starts[3]);
    }

    #[test]
    fn completions_on_the_way_to_an_admission_deliver_first() {
        let w = tpch();
        // Natural duration of query 0 alone on a fresh engine (the adapter
        // run below replays the same first noise draw exactly).
        let duration = solo_duration(&w);

        // Admission latency far beyond the query duration: query 0 admits
        // at L and finishes at L + duration; query 1's dispatch — issued at
        // L — admits only at 2L > L + duration, so the inner completion
        // must overtake it in event order.
        let latency = duration * 2.0;
        let mut a = AsyncAdapter::new(engine(&w, 0), DispatchProfile::fixed(latency));
        a.submit(QueryId(0), RunParams::default_config(), 0);
        a.advance_to(latency);
        assert_eq!(a.now(), latency);
        assert_eq!(a.connections()[0].started_at(), Some(latency));
        a.submit(QueryId(1), RunParams::default_config(), 1);
        match a.poll_event() {
            ExecEvent::Completed(c) => {
                assert_eq!(c.query, QueryId(0));
                assert!(
                    c.finished_at < latency * 2.0,
                    "the completion precedes the next admission instant"
                );
            }
            other => panic!("expected the completion first, got {other:?}"),
        }
        assert!(
            a.connections()[1].is_pending(),
            "the later dispatch is not admitted yet"
        );
        assert_eq!(a.in_flight(), 1);
        match a.poll_event() {
            ExecEvent::Completed(c) => {
                assert_eq!(c.query, QueryId(1));
                assert_eq!(c.started_at, latency * 2.0, "the deferred admission");
            }
            other => panic!("expected query 1's completion, got {other:?}"),
        }
    }

    #[test]
    fn session_round_completes_with_latency_batching_and_backpressure() {
        let w = tpch();
        for (latency, jitter, batch, window) in [
            (0.1, 0.0, 1, usize::MAX),
            (0.5, 0.3, 4, 8),
            (2.0, 1.0, 18, 2),
        ] {
            let mut profile = DispatchProfile::fixed(latency)
                .with_jitter(jitter)
                .with_max_batch(batch)
                .with_seed(5);
            if window != usize::MAX {
                profile = profile.with_max_in_flight(window);
            }
            let mut a = AsyncAdapter::new(engine(&w, 1), profile);
            let log = ScheduleSession::builder(&w)
                .build(&mut a)
                .run(&mut FifoScheduler::new());
            assert_eq!(log.len(), w.len());
            for r in &log.records {
                assert!(r.finished_at > r.started_at);
                assert!(
                    r.started_at >= latency - 1e-9,
                    "no query can start before one admission latency"
                );
            }
        }
    }

    #[test]
    fn adapter_forwards_the_sharded_topology() {
        let w = tpch();
        let sharded = ShardedEngine::new(DbmsProfile::dbms_x(), &w, 0, 2);
        let a = AsyncAdapter::new(sharded, DispatchProfile::fixed(0.1));
        let topo = a.shard_topology();
        assert_eq!(topo.shard_count(), 2);
        assert_eq!(topo.connections_per_shard(), 18);
    }

    #[test]
    fn advance_to_admits_due_dispatches_on_the_way() {
        let w = tpch();
        let duration = solo_duration(&w);
        let mut a = AsyncAdapter::new(engine(&w, 0), DispatchProfile::fixed(0.5));
        a.submit(QueryId(0), RunParams::default_config(), 0);
        // A bound short of the admission instant only moves the clock.
        a.advance_to(0.25);
        assert_eq!(a.now(), 0.25);
        assert!(!a.events_pending());
        assert!(a.connections()[0].is_pending());
        // A bound between the admission and the query's completion admits
        // the dispatch on the way and is reached with nothing buffered.
        let bound = 0.5 + duration / 2.0;
        a.advance_to(bound);
        assert_eq!(a.now(), bound, "the advance goes on past the admission");
        assert!(!a.events_pending());
        assert_eq!(a.connections()[0].started_at(), Some(0.5));
        assert_eq!(a.in_flight(), 0);
        match a.poll_event() {
            ExecEvent::Completed(c) => assert_eq!((c.query, c.started_at), (QueryId(0), 0.5)),
            other => panic!("expected query 0's completion, got {other:?}"),
        }
    }

    /// Forwards everything to the wrapped backend while replaying a scripted
    /// fault queue — the minimal fault source for adapter tests.
    struct FaultyShell<B> {
        inner: B,
        faults: std::collections::VecDeque<FaultEvent>,
    }

    impl<B: ExecutorBackend> ExecutorBackend for FaultyShell<B> {
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
            self.inner.poll_event()
        }
        fn events_pending(&self) -> bool {
            self.inner.events_pending()
        }
        fn advance_to(&mut self, until: f64) {
            self.inner.advance_to(until);
        }
        fn shard_topology(&self) -> ShardTopology {
            self.inner.shard_topology()
        }
        fn poll_fault(&mut self) -> Option<FaultEvent> {
            self.faults.pop_front()
        }
    }

    #[test]
    fn a_lost_query_fault_frees_the_adapter_mirror() {
        let w = tpch();
        let shell = FaultyShell {
            inner: engine(&w, 0),
            faults: [FaultEvent::QueryLost {
                query: QueryId(0),
                connection: 0,
                at: 0.0,
            }]
            .into(),
        };
        let mut a = AsyncAdapter::new(shell, DispatchProfile::synchronous());
        a.submit(QueryId(0), RunParams::default_config(), 0);
        assert!(
            !a.connections()[0].is_free(),
            "admitted: the mirror tracks the busy slot"
        );
        // The inner backend reports the query lost: the adapter must free
        // its mirror (no completion will ever deliver for it) and forward
        // the fault unchanged.
        assert!(matches!(
            a.poll_fault(),
            Some(FaultEvent::QueryLost {
                query: QueryId(0),
                connection: 0,
                ..
            })
        ));
        assert!(a.connections()[0].is_free());
        assert!(a.poll_fault().is_none());
    }

    #[test]
    fn shard_death_revokes_submissions_the_adapter_still_holds() {
        let w = tpch();
        let shell = FaultyShell {
            inner: ShardedEngine::new(DbmsProfile::dbms_x(), &w, 0, 2),
            faults: [FaultEvent::ShardDied { shard: 1, at: 0.0 }].into(),
        };
        let profile = DispatchProfile::fixed(0.5).with_max_in_flight(1);
        let mut a = AsyncAdapter::new(shell, profile);
        // Connection 18 (shard 1) takes the window; connections 0 (shard 0)
        // and 19 (shard 1) wait in the backpressure queue.
        let batch: Vec<Entry> = [(0, 18), (1, 0), (2, 19)]
            .iter()
            .map(|&(q, c)| (QueryId(q), RunParams::default_config(), c))
            .collect();
        a.submit_batch(&batch);
        assert_eq!((a.in_flight(), a.queued.len()), (1, 2));
        // The shard-death fault surfaces first, then a loss for each
        // submission the adapter still held for the dead shard, which never
        // reaches it: the in-flight one, whose revocation frees the window
        // for the queued shard-0 entry, and the backpressured one.
        assert!(matches!(
            a.poll_fault(),
            Some(FaultEvent::ShardDied { shard: 1, .. })
        ));
        for (query, connection) in [(QueryId(0), 18), (QueryId(2), 19)] {
            assert_eq!(
                a.poll_fault(),
                Some(FaultEvent::QueryLost {
                    query,
                    connection,
                    at: 0.0
                })
            );
            assert!(a.connections()[connection].is_free());
        }
        assert!(a.poll_fault().is_none());
        assert_eq!((a.in_flight(), a.queued.len()), (1, 0));
        assert!(a.connections()[0].is_pending());
        // The surviving query admits at its due instant and completes
        // normally.
        match a.poll_event() {
            ExecEvent::Completed(c) => assert_eq!((c.query, c.started_at), (QueryId(1), 0.5)),
            other => panic!("expected completion, got {other:?}"),
        }
        assert_eq!(a.poll_event(), ExecEvent::Idle);
    }

    // Release-only: debug builds assert inside the engine's advance loop
    // before the diagnostic is recorded. CI exercises this path via the
    // dedicated `cargo test --release -p bq-adapter` step.
    #[cfg(not(debug_assertions))]
    #[test]
    fn stall_diagnostics_surface_through_the_adapter() {
        let w = tpch();
        let mut profile = DbmsProfile::dbms_x();
        profile.cpu_units_per_sec = 1e-9;
        let mut e = ExecutionEngine::new(profile, &w, 1);
        e.force_advance_budget(1);
        let mut a = AsyncAdapter::new(e, DispatchProfile::synchronous());
        a.submit(QueryId(0), RunParams::default_config(), 0);
        a.submit(QueryId(1), RunParams::default_config(), 1);
        let _ = a.poll_event();
        let stall = a
            .stall_diagnostic()
            .expect("the wrapped engine's stall must surface through the adapter");
        assert_eq!(stall.busy, 2);
        assert_eq!(stall.budget, 1);
    }
}
