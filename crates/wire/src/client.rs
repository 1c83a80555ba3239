//! The scheduler-facing side of the wire: [`WireBackend`] implements
//! [`ExecutorBackend`] by encoding every call into a request frame, sending
//! it through the client's end of a link ([`WireTransport`]), and decoding
//! the response — so a [`ScheduleSession`] (`bq_core`) runs unchanged
//! against a backend it can only reach through real serialization. The
//! link decides where the server is: in process behind a [`Loopback`], or
//! in a `bq-serve` process behind a [`crate::SocketClient`].
//!
//! # Observable-clock discipline
//!
//! The client's observable state — its clock, its [`ConnectionSlot`]
//! mirror, the buffered-event flag, the stall diagnostic — advances **only
//! when a response frame arrives**, to the response's arrival instant and
//! the slot updates it carries, **or when a queued event is handed out**.
//! Queued or in-flight frames never let the observable clock run ahead of
//! what the server has acknowledged: the same discipline the sharded
//! backend's mirror keeps for cross-shard completions. With a zero-latency
//! transport every response arrives at the server's own instant, which is
//! what makes the wired stack byte-identical to the bare backend.
//!
//! A response's buffered events (see [`crate::proto::BufferedEvent`]) wait
//! in a local queue, and [`ExecutorBackend::poll_event`] answers from it
//! while it is non-empty. A queued entry changes the observable state only
//! when it is handed out: then its header applies, exactly as the response
//! to a remote `PollEvent` would have, clock included. If another response
//! arrives first (a caller sent a request while events were still
//! buffered), the queued headers apply before it, because its slot updates
//! are relative to them; the queued events are still handed out in order.
//!
//! [`ScheduleSession`]: bq_core::ScheduleSession

use crate::frame::{frame, FrameReader};
use crate::proto::{
    seal, unseal, BufferedEvent, Request, Response, ResponseHeader, HANDSHAKE_MAGIC,
    PROTOCOL_VERSION,
};
use crate::server::{Loopback, WireServer};
use crate::transport::{InMemoryDuplex, TransportProfile, WireTransport};
use bq_core::{ExecEvent, ExecutorBackend, FaultEvent, RecoveryPolicy, ShardTopology};
use bq_dbms::{
    AdvanceStall, ConnectionSlot, DbmsProfile, ExecutionEngine, QueryCompletion, RunParams,
};
use bq_obs::{Obs, TraceEvent, TraceKind};
use bq_plan::{QueryId, Workload};
use std::fmt;

/// Failure to establish a wire session.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The server rejected the handshake (version or magic mismatch).
    Rejected {
        /// The server's error detail.
        detail: String,
    },
    /// The server's handshake response violated the protocol.
    Protocol {
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Rejected { detail } => write!(f, "handshake rejected: {detail}"),
            WireError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

/// An [`ExecutorBackend`] whose executor lives on the far side of a framed
/// wire protocol (see the [module docs](self)), reached through the
/// client's end `T` of a link.
///
/// Over a [`Loopback`] the server runs in process and answers each request
/// synchronously; every message still round-trips through real
/// encode/decode, so frame layout, versioning and error surfacing are
/// exercised on every call.
#[derive(Debug)]
pub struct WireBackend<T> {
    transport: T,
    reader: FrameReader,
    /// Session-observable occupancy, updated from response slot diffs.
    mirror: Vec<ConnectionSlot>,
    /// Session-observable clock: the arrival instant of the last response.
    now: f64,
    events_pending: bool,
    stall: Option<AdvanceStall>,
    topology: ShardTopology,
    known_queries: Option<usize>,
    /// Exchange sequence number of the next request (see
    /// [`crate::proto::seal`]).
    seq: u64,
    /// Connection epoch of the last delivery; a change resets the frame
    /// reader (partial frames from a torn-down connection are dead).
    epoch: u64,
    /// Retransmission policy for exchanges the transport loses. `None`
    /// keeps the strict contract: a missing response is a panic.
    recovery: Option<RecoveryPolicy>,
    /// Retransmissions performed, surfaced through
    /// [`ExecutorBackend::poll_fault`].
    faults: std::collections::VecDeque<FaultEvent>,
    /// Events the server drained into responses, not yet handed out.
    queue: std::collections::VecDeque<BufferedEvent>,
    /// How many entries at the front of `queue` already had their headers
    /// applied (a later response arrived before they were handed out).
    settled: usize,
    /// Observability handle; [`Obs::off`] unless
    /// [`WireBackend::set_obs`] installed one.
    obs: Obs,
}

impl<B: ExecutorBackend> WireBackend<Loopback<B>> {
    /// Wire `backend` through an in-memory zero-latency link — the
    /// byte-identical configuration.
    pub fn lossless(backend: B) -> Self {
        Self::with_profile(backend, TransportProfile::zero())
    }

    /// Wire `backend` through an in-memory link with the given latency
    /// model.
    pub fn with_profile(backend: B, profile: TransportProfile) -> Self {
        let link = Loopback::new(WireServer::new(backend), InMemoryDuplex::new(profile));
        Self::connect(link)
            // bq-lint: allow(panic-surface): same-version in-process handshake is infallible by construction
            .expect("handshake against a same-version server cannot fail")
    }
}

impl WireBackend<Loopback<ExecutionEngine>> {
    /// The common cell: a fresh [`ExecutionEngine`] behind an in-memory
    /// link.
    pub fn over_engine(
        profile: &DbmsProfile,
        workload: &Workload,
        seed: u64,
        transport: TransportProfile,
    ) -> Self {
        Self::with_profile(
            ExecutionEngine::new(profile.clone(), workload, seed),
            transport,
        )
    }
}

impl<T: WireTransport> WireBackend<T> {
    /// Perform the protocol-version handshake against the server on the far
    /// end of `transport` and return the connected backend.
    pub fn connect(transport: T) -> Result<Self, WireError> {
        let mut client = Self {
            transport,
            reader: FrameReader::new(),
            mirror: Vec::new(),
            now: 0.0,
            events_pending: false,
            stall: None,
            // Placeholder until the handshake reports the real partition
            // (a topology cannot have zero-sized dimensions).
            topology: ShardTopology::single(1),
            known_queries: None,
            seq: 0,
            epoch: 0,
            recovery: None,
            faults: std::collections::VecDeque::new(),
            queue: std::collections::VecDeque::new(),
            settled: 0,
            obs: Obs::off(),
        };
        match client.call(Request::Hello {
            magic: HANDSHAKE_MAGIC,
            version: PROTOCOL_VERSION,
        }) {
            Response::HelloAck {
                version,
                connections,
                shard_count,
                connections_per_shard,
                known_queries,
                header,
                ..
            } => {
                if version != PROTOCOL_VERSION {
                    return Err(WireError::Protocol {
                        detail: format!("acked version {version} != {PROTOCOL_VERSION}"),
                    });
                }
                client.mirror = vec![ConnectionSlot::Free; connections];
                client.topology = ShardTopology::uniform(shard_count, connections_per_shard);
                client.known_queries = known_queries;
                client.apply_header(&header);
                Ok(client)
            }
            Response::Error { detail, .. } => Err(WireError::Rejected { detail }),
            other => Err(WireError::Protocol {
                detail: format!("handshake answered with {other:?}"),
            }),
        }
    }

    /// The client's end of the link (for a [`Loopback`], the way to the
    /// hosted backend — test probes).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Observe the wire through `obs`: frame and byte counters per
    /// direction, per-direction transit-latency histograms
    /// (`wire_transit_to_server` = request send → server arrival,
    /// `wire_transit_to_client` = server arrival → response delivery) and
    /// a [`TraceKind::FrameSent`]/[`TraceKind::FrameReceived`] event pair
    /// per completed exchange, stamped with the exchange's `(epoch, seq)`
    /// identity. Observation is read-only — clocks, framing and retries
    /// are untouched, so episodes stay byte-identical.
    pub fn set_obs(&mut self, obs: Obs) {
        obs.preregister(
            &[
                "wire_frames_sent",
                "wire_frames_received",
                "wire_bytes_sent",
                "wire_bytes_received",
            ],
            &["wire_transit_to_server", "wire_transit_to_client"],
        );
        self.obs = obs;
    }

    /// Survive transport losses: when an exchange's response never arrives
    /// (a fault-injecting transport dropped or truncated it), retransmit the
    /// request after a seeded backoff instead of panicking, up to
    /// `policy.max_retries` times per exchange. The sequence prefix plus the
    /// server's cached-response replay make retransmission safe for
    /// non-idempotent requests (at-most-once execution). Each
    /// retransmission surfaces as a [`FaultEvent::TransportRetransmit`]
    /// through [`ExecutorBackend::poll_fault`].
    // bq-lint: allow(dead-pub): operator setting documented in docs/OPERATIONS.md
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// One request/response round trip: encode, transmit, receive and
    /// decode the response, apply its state header (clock, mirror, flags)
    /// and queue its buffered events.
    ///
    /// With a recovery policy configured, an exchange whose response never
    /// arrives is retransmitted (same sequence number) after a seeded
    /// backoff; without one, a missing response is a panic — the strict
    /// contract every well-behaved transport satisfies.
    fn call(&mut self, request: Request) -> Response {
        let seq = self.seq;
        self.seq += 1;
        let message = request.encode();
        let mut attempt = 0u32;
        let mut response = loop {
            let wire_frame = frame(&seal(seq, &message));
            let sent_at = self.now;
            let arrival = self.transport.send_to_server(&wire_frame, self.now);
            self.obs.inc("wire_frames_sent");
            self.obs.inc_by("wire_bytes_sent", wire_frame.len() as u64);
            self.obs
                .observe("wire_transit_to_server", (arrival - sent_at).max(0.0));
            self.obs.emit(
                TraceEvent::new(TraceKind::FrameSent, sent_at)
                    .with_epoch(self.epoch)
                    .with_seq(seq)
                    .with_value(wire_frame.len() as f64),
            );
            if let Some(response) = self.receive_matching(seq) {
                self.obs
                    .observe("wire_transit_to_client", (self.now - arrival).max(0.0));
                self.obs.emit(
                    TraceEvent::new(TraceKind::FrameReceived, self.now)
                        .with_epoch(self.epoch)
                        .with_seq(seq),
                );
                break response;
            }
            // The exchange was lost in transit (request or response).
            let Some(policy) = self.recovery else {
                // bq-lint: allow(panic-surface): ExecutorBackend's surface is infallible; an unanswered exchange without a recovery policy is a documented fatal contract breach
                panic!("the server must answer every request");
            };
            attempt += 1;
            assert!(
                attempt <= policy.max_retries,
                "retransmission budget exhausted: exchange {seq} lost {attempt} \
                 times (max_retries = {})",
                policy.max_retries
            );
            self.faults.push_back(FaultEvent::TransportRetransmit {
                at: self.now,
                attempt,
            });
            // Waiting out the backoff is observable time passing.
            self.now += policy.backoff(attempt, seq);
        };
        // The response's slot updates are relative to every event the
        // server drained before it, handed out or not.
        while let Some(entry) = self.queue.get(self.settled) {
            let header = entry.header.clone();
            self.apply_entry_header(&header);
            self.settled += 1;
        }
        // A handshake ack is applied by `connect` once the mirror is sized;
        // every other header is applied here, so the caches are already
        // fresh when the caller looks at the decoded response.
        if !matches!(response, Response::HelloAck { .. }) {
            if let Some(header) = response.header() {
                // Clone out of the borrow; headers are small (slot diffs
                // only).
                let header = header.clone();
                self.apply_header(&header);
            }
        }
        if let Some(buffered) = response.buffered_mut() {
            self.queue.extend(buffered.drain(..));
        }
        response
    }

    /// Drain every delivered chunk and extract the response to exchange
    /// `seq`, blocking on [`WireTransport::wait_for_client_data`] between
    /// drains until it arrives or the transport gives up. Duplicates of
    /// earlier exchanges (replays whose original also made it through) are
    /// discarded by sequence number.
    ///
    /// In-process links never wait (the default seam returns `false`), so
    /// for them this is exactly one synchronous drain — the byte-identical
    /// path is untouched by the socket seam.
    fn receive_matching(&mut self, seq: u64) -> Option<Response> {
        loop {
            if let Some(response) = self.drain_client_deliveries(seq) {
                return Some(response);
            }
            if !self.transport.wait_for_client_data() {
                return None;
            }
        }
    }

    /// One synchronous drain of everything the transport has delivered.
    fn drain_client_deliveries(&mut self, seq: u64) -> Option<Response> {
        let mut response = None;
        while let Some(delivery) = self.transport.recv_at_client() {
            if delivery.epoch != self.epoch {
                // The connection was torn down: drop any partial frame from
                // the old stream rather than splicing streams together.
                self.reader.reset();
                self.epoch = delivery.epoch;
            }
            self.obs
                .inc_by("wire_bytes_received", delivery.bytes.len() as u64);
            self.reader.feed(&delivery.bytes);
            // The observable clock is the delivery instant of what we have
            // actually received — never the send instant of something still
            // in flight.
            if delivery.at > self.now {
                self.now = delivery.at;
            }
            while let Some(payload) = self
                .reader
                .next_frame()
                // bq-lint: allow(panic-surface): a desynced response stream is a documented fatal protocol violation (client contract, see module docs)
                .unwrap_or_else(|e| panic!("response stream lost framing: {e}"))
            {
                self.obs.inc("wire_frames_received");
                let (rseq, body) =
                    // bq-lint: allow(panic-surface): documented fatal protocol violation (client contract)
                    unseal(&payload).unwrap_or_else(|e| panic!("unsealable response frame: {e}"));
                let decoded = Response::decode(body)
                    // bq-lint: allow(panic-surface): documented fatal protocol violation (client contract)
                    .unwrap_or_else(|e| panic!("malformed response frame: {e}"));
                if rseq != seq {
                    // An unsolicited error is a protocol violation; a stale
                    // sequence number is a harmless duplicate of an exchange
                    // we already completed.
                    if let Response::Error { code, detail } = decoded {
                        // bq-lint: allow(panic-surface): documented fatal protocol violation (client contract)
                        panic!("unsolicited server error ({code:?}): {detail}");
                    }
                    continue;
                }
                // A second copy is the replay of an exchange whose late
                // original also arrived: the server sent the same bytes
                // twice, so keeping the first delivers its buffered events
                // once.
                if response.is_none() {
                    response = Some(decoded);
                }
            }
        }
        response
    }

    fn apply_header(&mut self, header: &ResponseHeader) {
        for &(connection, slot) in &header.slots {
            assert!(
                connection < self.mirror.len(),
                "slot update for unknown connection {connection}"
            );
            self.mirror[connection] = slot;
        }
        self.events_pending = header.events_pending;
        self.stall = header.stall;
    }

    /// Apply a buffered entry's header: what the response to a remote
    /// `PollEvent` would have applied, including its clock (at zero latency
    /// a response arrives at its header's instant).
    fn apply_entry_header(&mut self, header: &ResponseHeader) {
        self.now = self.now.max(header.now);
        self.apply_header(header);
    }

    /// Panic with the server's rejection — the [`ExecutorBackend`] contract
    /// for an invalid submission is a panic, and over the wire the rejection
    /// arrives as an error frame instead of a local assertion.
    fn reject(response: Response, action: &str) -> ! {
        match response {
            Response::Error { code, detail } => {
                // bq-lint: allow(panic-surface): mirrors the local ExecutorBackend contract — invalid submissions panic, rejection just arrives as an error frame
                panic!("wire {action} rejected ({code:?}): {detail}")
            }
            // bq-lint: allow(panic-surface): documented fatal protocol violation (client contract)
            other => panic!("protocol violation: {action} answered with {other:?}"),
        }
    }
}

impl<T: WireTransport> ExecutorBackend for WireBackend<T> {
    fn connections(&self) -> &[ConnectionSlot] {
        &self.mirror
    }

    fn now(&self) -> f64 {
        self.now
    }

    /// One submission travels as a one-entry `SubmitBatch`, the protocol's
    /// only submission message.
    fn submit(&mut self, query: QueryId, params: RunParams, connection: usize) {
        self.submit_batch(&[(query, params, connection)]);
    }

    fn submit_batch(&mut self, batch: &[(QueryId, RunParams, usize)]) {
        if batch.is_empty() {
            return;
        }
        match self.call(Request::SubmitBatch {
            entries: batch.to_vec(),
        }) {
            Response::Ack { .. } => {}
            other => Self::reject(other, "submit_batch"),
        }
    }

    fn poll_event(&mut self) -> ExecEvent {
        if let Some(entry) = self.queue.pop_front() {
            if self.settled > 0 {
                self.settled -= 1;
            } else {
                self.apply_entry_header(&entry.header);
            }
            return entry.event;
        }
        match self.call(Request::PollEvent) {
            Response::Event { event, .. } => event,
            other => Self::reject(other, "poll_event"),
        }
    }

    fn events_pending(&self) -> bool {
        self.events_pending || !self.queue.is_empty()
    }

    fn advance_to(&mut self, until: f64) {
        match self.call(Request::AdvanceTo { until }) {
            Response::Ack { .. } => {}
            other => Self::reject(other, "advance_to"),
        }
    }

    fn cancel(&mut self, connection: usize) -> Option<QueryCompletion> {
        match self.call(Request::Cancel { connection }) {
            Response::CancelResult { completion, .. } => completion,
            other => Self::reject(other, "cancel"),
        }
    }

    fn stall_diagnostic(&self) -> Option<AdvanceStall> {
        self.stall
    }

    fn shard_topology(&self) -> ShardTopology {
        self.topology
    }

    fn poll_fault(&mut self) -> Option<FaultEvent> {
        self.faults.pop_front()
    }

    fn known_query_count(&self) -> Option<usize> {
        self.known_queries
    }
}
