//! The executor surface: the one interface a non-intrusive scheduler has to
//! a DBMS.
//!
//! [`ExecutorBackend`] abstracts "the thing queries are submitted to" as an
//! event-driven, allocation-free surface: submit a query with running
//! parameters on a connection, then observe [`ExecEvent`]s. The simulated
//! DBMS ([`ExecutionEngine`](crate::ExecutionEngine)), the sharded backend
//! ([`ShardedEngine`](crate::ShardedEngine)), BQSched's learned incremental
//! simulator and the decorators layered above them (async admission, wire
//! protocol, fault injection) all implement it, so the same
//! `ScheduleSession` in the `bq-core` crate drives training on any of them
//! (the paper's pre-train-on-simulator / fine-tune-on-DBMS paradigm, kept
//! non-intrusive).

use crate::engine::{AdvanceStall, ConnectionSlot, QueryCompletion};
use crate::params::RunParams;
use bq_plan::QueryId;

/// One event observed on the executor surface.
///
/// Events are the only way information flows out of a backend while a
/// session runs, which keeps the scheduler non-intrusive: it sees
/// submissions being accepted and queries completing, never the executor's
/// internal resource state.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecEvent {
    /// A submission was accepted onto a connection.
    ///
    /// For the in-process backends this is a synchronous echo the session
    /// simply consumes. An async adapter (`AsyncAdapter` in the `bq-adapter`
    /// crate) delivers it only after the submission's admission latency has
    /// elapsed in virtual time — never from inside `submit` — modelling the
    /// client/server boundary of a real DBMS; the event model is the same
    /// either way, so schedulers cannot tell.
    Submitted {
        /// The accepted query.
        query: QueryId,
        /// Connection it was placed on.
        connection: usize,
    },
    /// A query finished (possibly one of several at the same instant; the
    /// rest stay buffered and are returned by subsequent polls without
    /// advancing virtual time).
    Completed(QueryCompletion),
    /// Nothing is running and no event is buffered.
    Idle,
}

/// One fault or recovery signal surfaced by a fault-injecting or
/// fault-tolerant backend (the `bq-chaos` decorators, the `bq-wire` client's
/// retransmission layer). Faults travel on their own channel —
/// [`ExecutorBackend::poll_fault`] — instead of [`ExecEvent`], so backends
/// without faults pay nothing and existing policies never see them; the
/// session layer drains the channel every iteration, records each event in
/// the episode log, forwards it to the configured `ShardRouter` and applies
/// its `RecoveryPolicy` to lost queries (both in the `bq-core` crate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// A request/response exchange was lost on the transport and is about to
    /// be retransmitted after a seeded backoff.
    TransportRetransmit {
        /// Virtual instant the loss was detected.
        at: f64,
        /// Retransmission attempt number (1 = first retry).
        attempt: u32,
    },
    /// A shard stopped delivering results; completions are held until
    /// `resume_at`.
    ShardStalled {
        /// The stalled shard.
        shard: usize,
        /// Virtual instant the stall began.
        at: f64,
        /// Virtual instant the shard resumes delivering.
        resume_at: f64,
    },
    /// A previously stalled shard recovered and released its held results.
    ShardResumed {
        /// The recovered shard.
        shard: usize,
        /// Virtual instant of the recovery.
        at: f64,
    },
    /// A shard died permanently; queries in flight on it are lost
    /// (each one surfaces as its own [`FaultEvent::QueryLost`]).
    ShardDied {
        /// The dead shard.
        shard: usize,
        /// Virtual instant of the death.
        at: f64,
    },
    /// An in-flight query was lost (its shard died mid-execution); the
    /// connection slot is free again and the query needs resubmission.
    QueryLost {
        /// The lost query.
        query: QueryId,
        /// Connection it was running on.
        connection: usize,
        /// Virtual instant the loss was observed.
        at: f64,
    },
    /// The session resubmitted a previously lost query after its recovery
    /// backoff elapsed (emitted by the session layer itself, never by a
    /// backend).
    QueryResubmitted {
        /// The recovered query.
        query: QueryId,
        /// Resubmission attempt number for this query (1 = first retry).
        attempt: u32,
        /// Virtual instant the query became eligible again.
        at: f64,
    },
}

impl FaultEvent {
    /// Virtual instant the event is stamped with.
    pub fn at(&self) -> f64 {
        match *self {
            FaultEvent::TransportRetransmit { at, .. }
            | FaultEvent::ShardStalled { at, .. }
            | FaultEvent::ShardResumed { at, .. }
            | FaultEvent::ShardDied { at, .. }
            | FaultEvent::QueryLost { at, .. }
            | FaultEvent::QueryResubmitted { at, .. } => at,
        }
    }

    /// The event's kind tag in the episode log: `transport_retransmit`,
    /// `shard_stalled`, `shard_resumed`, `shard_died`, `query_lost` or
    /// `query_resubmitted`.
    pub fn kind(&self) -> &'static str {
        match self {
            FaultEvent::TransportRetransmit { .. } => "transport_retransmit",
            FaultEvent::ShardStalled { .. } => "shard_stalled",
            FaultEvent::ShardResumed { .. } => "shard_resumed",
            FaultEvent::ShardDied { .. } => "shard_died",
            FaultEvent::QueryLost { .. } => "query_lost",
            FaultEvent::QueryResubmitted { .. } => "query_resubmitted",
        }
    }
}

/// Borrow-based view over the queries currently executing: iterates
/// `(query, params, elapsed, connection)` without allocating, in ascending
/// connection order.
///
/// Because it reads straight off the [`ConnectionSlot`] slice — the single
/// source of occupancy identity — the iteration order is deterministic
/// regardless of the history of submissions and completions. Policies rely
/// on that ordering (their observation layout is positional).
#[derive(Debug, Clone)]
pub struct RunningView<'a> {
    slots: &'a [ConnectionSlot],
    now: f64,
    next: usize,
}

impl<'a> RunningView<'a> {
    /// Build a view over the full slot space at virtual time `now`
    /// (connection id == slice index, ascending by construction).
    pub fn new(slots: &'a [ConnectionSlot], now: f64) -> Self {
        Self {
            slots,
            now,
            next: 0,
        }
    }
}

impl Iterator for RunningView<'_> {
    type Item = (QueryId, RunParams, f64, usize);

    fn next(&mut self) -> Option<Self::Item> {
        while self.next < self.slots.len() {
            let connection = self.next;
            self.next += 1;
            if let ConnectionSlot::Busy {
                query,
                params,
                started_at,
            } = self.slots[connection]
            {
                return Some((query, params, self.now - started_at, connection));
            }
        }
        None
    }
}

/// Static description of how a backend's global connection-slot space is
/// partitioned into shards: `shard_count` contiguous blocks of
/// `connections_per_shard` slots each. A monolithic backend is the
/// degenerate single-shard topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTopology {
    shard_count: usize,
    connections_per_shard: usize,
}

impl ShardTopology {
    /// A uniform partition: `shard_count` shards of `connections_per_shard`
    /// slots each.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn uniform(shard_count: usize, connections_per_shard: usize) -> Self {
        assert!(shard_count > 0, "topology needs at least one shard");
        assert!(
            connections_per_shard > 0,
            "topology needs at least one connection per shard"
        );
        Self {
            shard_count,
            connections_per_shard,
        }
    }

    /// The trivial topology of a monolithic backend: one shard spanning all
    /// `connections` slots.
    pub fn single(connections: usize) -> Self {
        Self::uniform(1, connections)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Connection slots per shard.
    pub fn connections_per_shard(&self) -> usize {
        self.connections_per_shard
    }

    /// Total size of the global connection-slot space.
    pub fn connection_count(&self) -> usize {
        self.shard_count * self.connections_per_shard
    }

    /// Shard owning a global connection id.
    pub fn shard_of(&self, connection: usize) -> usize {
        debug_assert!(connection < self.connection_count());
        connection / self.connections_per_shard
    }

    /// Global connection range of one shard's block.
    pub fn range_of(&self, shard: usize) -> core::ops::Range<usize> {
        debug_assert!(shard < self.shard_count);
        shard * self.connections_per_shard..(shard + 1) * self.connections_per_shard
    }

    /// Busy slots inside `shard`'s block of `slots`.
    pub fn shard_load(&self, shard: usize, slots: &[ConnectionSlot]) -> usize {
        slots[self.range_of(shard)]
            .iter()
            .filter(|s| !s.is_free())
            .count()
    }

    /// Lowest free global connection inside `shard`'s block of `slots`.
    pub fn first_free_in(&self, shard: usize, slots: &[ConnectionSlot]) -> Option<usize> {
        let range = self.range_of(shard);
        slots[range.clone()]
            .iter()
            .position(ConnectionSlot::is_free)
            .map(|local| range.start + local)
    }
}

/// The execution substrate a scheduling round runs against, as an
/// event-driven surface.
///
/// The simulated DBMS, the sharded backend and the learned incremental
/// simulator all implement this; schedulers never know which one they are
/// talking to, matching the paper's non-intrusive design. The contract is
/// allocation-free on the hot path: occupancy is exposed as a borrowed
/// [`ConnectionSlot`] slice and completions are pulled one at a time via
/// [`ExecutorBackend::poll_event`].
///
/// # Unified occupancy model
///
/// The [`ConnectionSlot`] slice is the backend's *single source of identity*
/// for running queries: which query occupies which connection, with which
/// parameters, since when. Backends must not carry a second running-set
/// representation that could drift out of sync — per-query physical progress
/// (if the backend models any) belongs in a slot-indexed side table keyed by
/// connection id, with no identity fields of its own. Everything the session
/// layer derives — [`ExecutorBackend::first_free`],
/// [`ExecutorBackend::running_view`], a router's per-shard load — reads this
/// one slice, and [`RunningView`] iterates it in ascending connection order,
/// so all views are consistent by construction.
///
/// # Sharded occupancy model
///
/// A scaled-out backend ([`ShardedEngine`](crate::ShardedEngine)) partitions
/// the slot space into shards — global connection `c` lives on shard
/// `c / connections_per_shard` at local slot `c % connections_per_shard` —
/// and still exposes **one** [`ConnectionSlot`] slice: the global *mirror*,
/// i.e. the occupancy at the session-observable clock. Two guarantees keep
/// the surface indistinguishable from a monolithic backend:
///
/// 1. **Mirror consistency.** A shard's internal completion frees the
///    shard-local slot immediately, but the mirror slot stays `Busy` until
///    the completion is delivered through [`ExecutorBackend::poll_event`].
///    Free-slot lookup and running views therefore never observe a future
///    the event stream has not reported yet.
/// 2. **Deterministic event merge.** Cross-shard completions are delivered
///    ordered by `(finished_at, global connection id)` — never by shard
///    polling order — so episode logs are a pure function of (workload,
///    profile, seed, shard count), and a single-shard deployment replays
///    the monolithic engine byte for byte.
///
/// [`ExecutorBackend::shard_topology`] describes the partition so placement
/// policies (`ShardRouter` in the `bq-core` crate) can route submissions
/// shard-aware; monolithic backends report the single-shard topology and
/// need no other change.
///
/// # Submission lifecycle
///
/// A query moves through five phases: **decided** (the policy picked it for
/// a free connection), **queued** (the submission was dispatched but the
/// executor has not admitted it — the slot reads
/// [`ConnectionSlot::Pending`]), **admitted** (the executor accepted it;
/// [`ExecEvent::Submitted`] is delivered and the slot turns
/// [`ConnectionSlot::Busy`] with `started_at` at the admission instant),
/// **running**, and **completed** ([`ExecEvent::Completed`]). The in-process
/// backends collapse queued→admitted to a single instant: `submit` admits
/// synchronously and only the `Submitted` echo is deferred to
/// [`ExecutorBackend::poll_event`]. An async adapter (the `bq-adapter`
/// crate) keeps the phases apart — submissions wait in an admission queue
/// for a seeded latency (plus a backpressure queue when the in-flight window
/// is full), and `Submitted` arrives only once that latency has elapsed in
/// virtual time. Two rules keep both shapes indistinguishable to the
/// session: a pending slot is *occupied* (never handed out again) but has no
/// `started_at`, so the running view and every elapsed time count execution
/// only, never queued time; and [`ExecutorBackend::submit_batch`] dispatches
/// one scheduling instant's decisions together, so an adapter can coalesce
/// them into a single round-trip. No query is cut short: each one is logged
/// once, when it finishes, so a round's makespan ends when its last query
/// does.
pub trait ExecutorBackend {
    /// Per-connection occupancy, indexed by connection id. The single source
    /// of identity for the running set (see the trait-level docs).
    fn connections(&self) -> &[ConnectionSlot];

    /// Current virtual time.
    fn now(&self) -> f64;

    /// Submit a query to a specific free connection.
    ///
    /// # Panics
    /// Implementations panic if the connection is busy or out of range.
    fn submit(&mut self, query: QueryId, params: RunParams, connection: usize);

    /// Dispatch one scheduling instant's decisions together: each entry is
    /// `(query, params, connection)` with every connection free, in decision
    /// order. The session layer collects all decisions made at one
    /// observable instant and hands them over through this method, so an
    /// async adapter can coalesce the round's decisions into a single
    /// dispatch sharing one admission latency. The default simply loops over
    /// [`ExecutorBackend::submit`] (synchronous admission, one echo per
    /// entry), which is exactly what every in-process backend wants.
    ///
    /// # Panics
    /// Implementations panic if any connection is busy or out of range.
    fn submit_batch(&mut self, batch: &[(QueryId, RunParams, usize)]) {
        for &(query, params, connection) in batch {
            self.submit(query, params, connection);
        }
    }

    /// Return the next event: buffered events first (without advancing
    /// virtual time), then — if queries are running — advance until at least
    /// one completes. Returns [`ExecEvent::Idle`] when nothing is running and
    /// nothing is buffered.
    fn poll_event(&mut self) -> ExecEvent;

    /// Whether buffered events exist, i.e. the next
    /// [`ExecutorBackend::poll_event`] will not advance virtual time.
    fn events_pending(&self) -> bool;

    /// Advance virtual time to at most `until` without requiring a
    /// completion; completions occurring on the way are buffered as usual.
    /// Callers use it to stop at an instant no completion marks: the session
    /// layer at a lost query's recovery eligibility, the async adapter at an
    /// admission, the chaos decorator at a thaw, the wire server at a
    /// frame's arrival. Backends that cannot advance partially may leave
    /// this a no-op (the default); those callers then reach the instant only
    /// at the next completion boundary.
    fn advance_to(&mut self, until: f64) {
        let _ = until;
    }

    /// Always `None`: no backend cancels, because every query runs until it
    /// finishes — the paper's makespan ends when the batch's last query
    /// does — and nothing calls this. The method keeps this default body
    /// only because the benchmark's timing decorator (`TimedBackend` in
    /// `perfbench/`) forwards it; deleting it waits for a change to the
    /// benchmark.
    fn cancel(&mut self, connection: usize) -> Option<QueryCompletion> {
        let _ = connection;
        None
    }

    /// Total number of client connections.
    fn connection_count(&self) -> usize {
        self.connections().len()
    }

    /// Lowest-numbered free connection, if any.
    fn first_free(&self) -> Option<usize> {
        self.connections().iter().position(ConnectionSlot::is_free)
    }

    /// Allocation-free iterator over the currently running queries as
    /// `(query, params, elapsed, connection)`.
    fn running_view(&self) -> RunningView<'_> {
        RunningView::new(self.connections(), self.now())
    }

    /// Diagnostic left behind by a bounded advance that exhausted its
    /// iteration budget without making progress — broken executor dynamics
    /// (debug builds of the simulated DBMS assert at the stall site instead
    /// of recording it). `None` for healthy backends and for backends whose
    /// advances are unbounded (the default). Sharded backends aggregate
    /// their per-shard diagnostics into one. The session layer checks this
    /// every iteration and fails the round loudly rather than logging
    /// partially-advanced state as if the round were healthy.
    fn stall_diagnostic(&self) -> Option<AdvanceStall> {
        None
    }

    /// How the global connection-slot space is partitioned into shards, for
    /// shard-aware placement (see the trait-level sharded occupancy model).
    /// Monolithic backends report the single-shard topology (the default).
    fn shard_topology(&self) -> ShardTopology {
        ShardTopology::single(self.connection_count())
    }

    /// Pop the next buffered fault or recovery signal, if any. Fault-free
    /// backends never produce one (the default); fault-injecting decorators
    /// (`bq-chaos`) and fault-tolerant boundaries (the `bq-wire` client)
    /// queue events here as they detect them. The session layer drains this
    /// every iteration — before routing decisions, so a router can stop
    /// placing work on a shard the same instant its death is observable.
    fn poll_fault(&mut self) -> Option<FaultEvent> {
        None
    }

    /// Number of workload queries the backend was built for, when it knows
    /// it. A protocol boundary in front of the backend (the `bq-wire`
    /// server) uses this to answer a submission with an unknown query id
    /// with an error frame instead of letting the id panic deep inside the
    /// executor. `None` (the default) disables that validation — the
    /// boundary then trusts the caller exactly as an in-process backend
    /// does.
    fn known_query_count(&self) -> Option<usize> {
        None
    }
}

/// Test helper: the next completion on `backend`, skipping submission
/// echoes; `None` once the backend is idle.
#[cfg(test)]
pub(crate) fn next_completion(backend: &mut impl ExecutorBackend) -> Option<QueryCompletion> {
    loop {
        match backend.poll_event() {
            ExecEvent::Submitted { .. } => {}
            ExecEvent::Completed(completion) => return Some(completion),
            ExecEvent::Idle => return None,
        }
    }
}

/// Test helper: a FIFO round of queries `0..n` driven directly against
/// `backend` (no session layer) — fill free connections in ascending order,
/// consume one completion instant's batch, refill. Returns the completions
/// in delivery order.
#[cfg(test)]
pub(crate) fn fifo_round(backend: &mut impl ExecutorBackend, n: usize) -> Vec<QueryCompletion> {
    let mut next = 0usize;
    let mut done = Vec::new();
    while done.len() < n {
        while next < n {
            let Some(free) = backend.first_free() else {
                break;
            };
            backend.submit(QueryId(next), RunParams::default_config(), free);
            next += 1;
        }
        done.push(next_completion(backend).expect("queries are running"));
        while backend.events_pending() {
            done.extend(next_completion(backend));
        }
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DbmsProfile, ExecutionEngine, ShardedEngine};
    use bq_plan::{generate, Benchmark, WorkloadSpec};

    #[test]
    fn engine_implements_backend() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let mut e = ExecutionEngine::new(DbmsProfile::dbms_x(), &w, 1);
        let exec: &mut dyn ExecutorBackend = &mut e;
        assert_eq!(exec.connection_count(), 18);
        assert!(exec.connections().iter().all(ConnectionSlot::is_free));
        assert_eq!(exec.first_free(), Some(0));

        exec.submit(QueryId(0), RunParams::default_config(), 0);
        assert_eq!(exec.running_view().count(), 1);
        assert_eq!(exec.first_free(), Some(1));
        assert!(exec.events_pending(), "submission echo must be buffered");
        assert_eq!(
            exec.poll_event(),
            ExecEvent::Submitted {
                query: QueryId(0),
                connection: 0
            }
        );

        match exec.poll_event() {
            ExecEvent::Completed(c) => {
                assert_eq!(c.query, QueryId(0));
                assert!(c.finished_at > 0.0);
            }
            other => panic!("expected completion, got {other:?}"),
        }
        assert_eq!(exec.poll_event(), ExecEvent::Idle);
        assert!(exec.now() > 0.0);
    }

    #[test]
    fn running_view_reports_elapsed_times() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let mut e = ExecutionEngine::new(DbmsProfile::dbms_x(), &w, 1);
        e.submit(QueryId(0), RunParams::default_config(), 3);
        let view: Vec<_> = e.running_view().collect();
        assert_eq!(view.len(), 1);
        let (q, _, elapsed, conn) = view[0];
        assert_eq!(q, QueryId(0));
        assert_eq!(conn, 3);
        assert_eq!(elapsed, 0.0);
    }

    #[test]
    fn sharded_engine_implements_backend_with_a_partitioned_topology() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let mut e = ShardedEngine::new(DbmsProfile::dbms_x(), &w, 1, 2);
        let exec: &mut dyn ExecutorBackend = &mut e;
        assert_eq!(exec.connection_count(), 36);
        let topo = exec.shard_topology();
        assert_eq!(topo.shard_count(), 2);
        assert_eq!(topo.connections_per_shard(), 18);
        assert_eq!(topo.connection_count(), 36);

        // Submit onto both shards; the running view stays globally ordered.
        exec.submit(QueryId(0), RunParams::default_config(), 20);
        exec.submit(QueryId(1), RunParams::default_config(), 3);
        let conns: Vec<usize> = exec.running_view().map(|(_, _, _, c)| c).collect();
        assert_eq!(conns, vec![3, 20]);
        assert_eq!(
            exec.poll_event(),
            ExecEvent::Submitted {
                query: QueryId(0),
                connection: 20
            }
        );
        assert_eq!(
            exec.poll_event(),
            ExecEvent::Submitted {
                query: QueryId(1),
                connection: 3
            }
        );
        match exec.poll_event() {
            ExecEvent::Completed(c) => assert!(c.connection == 3 || c.connection == 20),
            other => panic!("expected completion, got {other:?}"),
        }
        while !matches!(exec.poll_event(), ExecEvent::Idle) {}
        assert!(exec.connections().iter().all(ConnectionSlot::is_free));
    }

    #[test]
    fn monolithic_backend_reports_the_single_shard_topology() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let e = ExecutionEngine::new(DbmsProfile::dbms_x(), &w, 1);
        let topo = e.shard_topology();
        assert_eq!(topo.shard_count(), 1);
        assert_eq!(topo.connection_count(), 18);
    }

    #[test]
    fn topology_partitions_the_slot_space() {
        let t = ShardTopology::uniform(3, 4);
        assert_eq!(t.connection_count(), 12);
        assert_eq!(t.shard_of(0), 0);
        assert_eq!(t.shard_of(4), 1);
        assert_eq!(t.shard_of(11), 2);
        assert_eq!(t.range_of(1), 4..8);
        assert_eq!(ShardTopology::single(18).shard_count(), 1);
        assert_eq!(ShardTopology::single(18).connection_count(), 18);
    }

    #[test]
    fn fault_events_report_their_instant() {
        assert_eq!(FaultEvent::ShardDied { shard: 1, at: 2.5 }.at(), 2.5);
        assert_eq!(
            FaultEvent::QueryLost {
                query: QueryId(0),
                connection: 3,
                at: 7.0
            }
            .at(),
            7.0
        );
    }

    #[test]
    fn backends_report_no_faults_by_default() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let mut e = ExecutionEngine::new(DbmsProfile::dbms_x(), &w, 1);
        assert_eq!(e.poll_fault(), None);
    }
}
