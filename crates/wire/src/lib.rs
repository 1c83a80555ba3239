//! # bq-wire
//!
//! A deterministic framed wire protocol between the scheduling session and
//! any executor backend — the last layer between this reproduction and
//! fronting a real network DBMS.
//!
//! The paper's scheduler is *non-intrusive*: its whole interface to the
//! DBMS is "submit a query on a connection, observe events". `bq-adapter`
//! modelled the asynchronous admission boundary of that interface; this
//! crate puts an actual **wire** under it: every `ExecutorBackend` call is
//! encoded into a length-prefixed binary frame, transmitted over a
//! byte-stream transport, decoded and validated on the server side, applied
//! to the hosted backend, and answered with a response frame carrying the
//! observable state delta. There is no in-process shortcut — frame layout,
//! protocol versioning and error surfacing are exercised by every wired
//! call.
//!
//! * [`frame`] — length-prefixed frames, bounds-checked codec primitives,
//!   stream reassembly ([`frame::FrameReader`]);
//! * [`proto`] — the request/response vocabulary and its binary codec
//!   (versioned handshake, submit/batch/poll/advance/cancel, error frames,
//!   and the buffered events every response carries);
//! * [`transport`] — one trait per end of a link ([`WireTransport`] for
//!   the client, [`ServerTransport`] for the server) and the in-memory
//!   duplex holding both, with seeded, deterministic virtual-time latency;
//! * [`net`] — each end over real TCP and Unix-domain sockets
//!   ([`SocketClient`], [`ServerConn`]; carrier envelopes stamp each
//!   chunk's modeled virtual arrival, so determinism survives the kernel),
//!   plus the accept-side machinery the `bq-serve` binary pumps;
//! * [`server`] — [`WireServer`]: owns any backend (engine, sharded,
//!   learned simulator, or an async adapter composition) and services the
//!   protocol over a server end; [`Loopback`] hosts it in process on the
//!   far end of a duplex;
//! * [`client`] — [`WireBackend`]: implements `ExecutorBackend` over a
//!   client end, maintaining the session-observable mirror under the same
//!   observable-clock discipline the sharded backend established.
//!
//! # Determinism
//!
//! Transport latencies are a pure function of `(seed, direction, frame
//! index)`, the server handles frames in arrival order, and arrivals are
//! monotone per direction, so a wired episode is a pure function of
//! `(workload, profile, seed, transport profile)`. With the zero-latency
//! transport the wired stack is **byte-identical** through the whole
//! session stack to the bare backend — pinned by proptests and the golden
//! artifacts.
//!
//! ```
//! use bq_core::{FifoScheduler, ScheduleSession};
//! use bq_dbms::DbmsProfile;
//! use bq_plan::{generate, Benchmark, WorkloadSpec};
//! use bq_wire::{TransportProfile, WireBackend};
//!
//! let workload = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
//! let profile = DbmsProfile::dbms_x();
//! // A 10 ms wire between the session and the engine.
//! let mut backend =
//!     WireBackend::over_engine(&profile, &workload, 0, TransportProfile::fixed(0.01));
//! let log = ScheduleSession::builder(&workload)
//!     .dbms(profile.kind)
//!     .build(&mut backend)
//!     .run(&mut FifoScheduler::new());
//! assert_eq!(log.len(), workload.len());
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod net;
pub mod proto;
pub mod server;
pub mod transport;

pub use client::{WireBackend, WireError};
pub use frame::{FrameError, FrameReader, MAX_FRAME_LEN};
pub use net::{
    connect_remote, serve_connection, Endpoint, FillOutcome, RemoteBackend, ServerConn,
    ServerSocket, SocketClient,
};
pub use proto::{
    seal, unseal, Request, Response, WireErrorCode, HANDSHAKE_MAGIC, PROTOCOL_VERSION,
    UNSOLICITED_SEQ,
};
pub use server::{Loopback, WireServer};
pub use transport::{
    Delivery, Direction, InMemoryDuplex, ServerTransport, TransportProfile, WireTransport,
};

#[cfg(test)]
mod fuzz;
#[cfg(test)]
#[path = "../tests/support/worked_examples.rs"]
mod worked_examples;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{frame, FRAME_HEADER_LEN};
    use bq_core::{
        ExecEvent, ExecutorBackend, FaultEvent, FifoScheduler, RecoveryPolicy, ScheduleSession,
    };
    use bq_dbms::{
        AdvanceStall, ConnectionSlot, DbmsProfile, ExecutionEngine, QueryCompletion, RunParams,
        ShardedEngine,
    };
    use bq_obs::Obs;
    use bq_plan::{generate, Benchmark, QueryId, Workload, WorkloadSpec};
    use std::cell::Cell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    fn tpch() -> Workload {
        generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1))
    }

    fn engine(w: &Workload, seed: u64) -> ExecutionEngine {
        ExecutionEngine::new(DbmsProfile::dbms_x(), w, seed)
    }

    /// Drive a server with raw request frames (protocol-level tests that
    /// bypass `WireBackend`'s own validation).
    struct RawClient {
        link: Loopback<ExecutionEngine>,
        reader: FrameReader,
        now: f64,
        seq: u64,
    }

    impl RawClient {
        fn new(w: &Workload) -> Self {
            Self {
                link: Loopback::new(WireServer::new(engine(w, 0)), InMemoryDuplex::lossless()),
                reader: FrameReader::new(),
                now: 0.0,
                seq: 0,
            }
        }

        fn backend(&self) -> &ExecutionEngine {
            self.link.server().backend()
        }

        fn next_seq(&mut self) -> u64 {
            let seq = self.seq;
            self.seq += 1;
            seq
        }

        fn send_bytes(&mut self, bytes: &[u8]) -> Vec<Response> {
            self.link.send_to_server(bytes, self.now);
            let mut responses = Vec::new();
            while let Some(delivery) = self.link.recv_at_client() {
                self.now = self.now.max(delivery.at);
                self.reader.feed(&delivery.bytes);
                while let Some(payload) = self.reader.next_frame().expect("framing") {
                    let (_, body) = unseal(&payload).expect("sealed response");
                    responses.push(Response::decode(body).expect("decode"));
                }
            }
            responses
        }

        /// Seal `message` with a fresh sequence number and transmit it as one
        /// frame.
        fn send_sealed(&mut self, message: &[u8]) -> Vec<Response> {
            let seq = self.next_seq();
            self.send_bytes(&frame(&seal(seq, message)))
        }

        fn send(&mut self, request: Request) -> Response {
            let mut responses = self.send_sealed(&request.encode());
            assert_eq!(responses.len(), 1, "one response per request");
            responses.remove(0)
        }

        fn handshake(&mut self) {
            let resp = self.send(Request::Hello {
                magic: HANDSHAKE_MAGIC,
                version: PROTOCOL_VERSION,
            });
            assert!(matches!(resp, Response::HelloAck { .. }));
        }
    }

    #[test]
    fn handshake_reports_topology_and_workload() {
        let w = tpch();
        let backend = WireBackend::lossless(engine(&w, 0));
        assert_eq!(backend.connection_count(), 18);
        assert_eq!(backend.shard_topology().shard_count(), 1);
        assert_eq!(backend.known_query_count(), Some(w.len()));
        assert!(backend.connections().iter().all(ConnectionSlot::is_free));

        let sharded = WireBackend::lossless(ShardedEngine::new(DbmsProfile::dbms_x(), &w, 0, 2));
        assert_eq!(sharded.shard_topology().shard_count(), 2);
        assert_eq!(sharded.shard_topology().connections_per_shard(), 18);
    }

    #[test]
    fn submit_poll_complete_round_trips_through_real_frames() {
        let w = tpch();
        let mut backend = WireBackend::lossless(engine(&w, 0));
        backend.submit(QueryId(0), RunParams::default_config(), 0);
        assert!(backend.events_pending(), "the echo is buffered server-side");
        assert!(
            !backend.connections()[0].is_free(),
            "mirror tracks the slot"
        );
        assert_eq!(
            backend.poll_event(),
            ExecEvent::Submitted {
                query: QueryId(0),
                connection: 0
            }
        );
        match backend.poll_event() {
            ExecEvent::Completed(c) => {
                assert_eq!(c.query, QueryId(0));
                assert!(c.finished_at > 0.0);
            }
            other => panic!("expected completion, got {other:?}"),
        }
        assert!(
            backend.connections()[0].is_free(),
            "mirror freed on delivery"
        );
        assert_eq!(backend.poll_event(), ExecEvent::Idle);
        assert_eq!(backend.now(), backend.transport().server().backend().now());
    }

    #[test]
    fn version_mismatch_is_rejected_at_the_handshake() {
        let w = tpch();
        // Server speaking a different protocol version: connect must fail
        // with the server's rejection, not panic.
        let server = WireServer::new(engine(&w, 0)).with_version(PROTOCOL_VERSION + 1);
        let err = WireBackend::connect(Loopback::new(server, InMemoryDuplex::lossless()))
            .expect_err("mismatched versions must not connect");
        match err {
            WireError::Rejected { detail } => {
                assert!(detail.contains("protocol"), "detail: {detail}")
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // Raw handshake with a bad magic is rejected the same way.
        let mut raw = RawClient::new(&w);
        let resp = raw.send(Request::Hello {
            magic: 0xDEAD_BEEF,
            version: PROTOCOL_VERSION,
        });
        assert!(matches!(
            resp,
            Response::Error {
                code: WireErrorCode::VersionMismatch,
                ..
            }
        ));
    }

    #[test]
    fn requests_before_the_handshake_are_rejected() {
        let w = tpch();
        let mut raw = RawClient::new(&w);
        let resp = raw.send(Request::PollEvent);
        assert!(matches!(
            resp,
            Response::Error {
                code: WireErrorCode::HandshakeRequired,
                ..
            }
        ));
    }

    #[test]
    fn double_submit_and_unknown_ids_surface_as_error_frames() {
        let w = tpch();
        let mut raw = RawClient::new(&w);
        raw.handshake();
        let submit = |q: usize, c: usize| Request::SubmitBatch {
            entries: vec![(QueryId(q), RunParams::default_config(), c)],
        };
        assert!(matches!(raw.send(submit(0, 3)), Response::Ack { .. }));
        // Double-submit for the occupied slot: error frame, backend
        // untouched (the occupying query is still query 0).
        let resp = raw.send(submit(1, 3));
        assert!(matches!(
            resp,
            Response::Error {
                code: WireErrorCode::SlotOccupied,
                ..
            }
        ));
        assert_eq!(raw.backend().connections()[3].query(), Some(QueryId(0)));
        // A query id beyond the workload and an out-of-range connection are
        // validated before the backend would panic on them.
        let resp = raw.send(submit(w.len(), 4));
        assert!(matches!(
            resp,
            Response::Error {
                code: WireErrorCode::UnknownQuery,
                ..
            }
        ));
        let resp = raw.send(submit(1, 999));
        assert!(matches!(
            resp,
            Response::Error {
                code: WireErrorCode::OutOfRange,
                ..
            }
        ));
        // A batch with an internal duplicate is rejected atomically.
        let resp = raw.send(Request::SubmitBatch {
            entries: vec![
                (QueryId(1), RunParams::default_config(), 5),
                (QueryId(2), RunParams::default_config(), 5),
            ],
        });
        assert!(matches!(
            resp,
            Response::Error {
                code: WireErrorCode::SlotOccupied,
                ..
            }
        ));
        assert!(raw.backend().connections()[5].is_free());
    }

    #[test]
    fn malformed_and_truncated_frames_surface_as_error_frames() {
        let w = tpch();
        let mut raw = RawClient::new(&w);
        raw.handshake();
        // A frame whose payload is an unknown tag.
        let responses = raw.send_sealed(&[0x7F]);
        assert_eq!(responses.len(), 1);
        assert!(matches!(
            &responses[0],
            Response::Error {
                code: WireErrorCode::Malformed,
                ..
            }
        ));
        let submission = Request::SubmitBatch {
            entries: vec![(QueryId(0), RunParams::default_config(), 0)],
        }
        .encode();
        // The same submission as a version-3 `Submit` (tag 0x02, no count),
        // a request version 4 retired: malformed, and nothing executes.
        let responses = raw.send_sealed(&[&[0x02][..], &submission[5..]].concat());
        assert!(matches!(
            &responses[0],
            Response::Error {
                code: WireErrorCode::Malformed,
                ..
            }
        ));
        assert!(raw.backend().connections()[0].is_free());
        // A structurally truncated message (a submission cut mid-field).
        let responses = raw.send_sealed(&submission[..submission.len() - 2]);
        assert!(matches!(
            &responses[0],
            Response::Error {
                code: WireErrorCode::Malformed,
                ..
            }
        ));
        // The stream survives: a well-formed request still works.
        assert!(matches!(
            raw.send(Request::PollEvent),
            Response::Event { .. }
        ));
        // An oversized length prefix loses the stream and is reported.
        let bogus = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes();
        let responses = raw.send_bytes(&bogus);
        assert!(matches!(
            &responses[0],
            Response::Error {
                code: WireErrorCode::Malformed,
                ..
            }
        ));
    }

    #[test]
    fn non_finite_advance_bounds_are_rejected_before_the_backend() {
        let w = tpch();
        let mut raw = RawClient::new(&w);
        raw.handshake();
        // Keep a query busy so an unvalidated NaN bound would actually spin
        // the engine's bounded advance loop.
        assert!(matches!(
            raw.send(Request::SubmitBatch {
                entries: vec![(QueryId(0), RunParams::default_config(), 0)],
            }),
            Response::Ack { .. }
        ));
        for bound in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let resp = raw.send(Request::AdvanceTo { until: bound });
            assert!(
                matches!(
                    resp,
                    Response::Error {
                        code: WireErrorCode::Malformed,
                        ..
                    }
                ),
                "bound {bound} must be rejected, got {resp:?}"
            );
        }
        // The backend is untouched and healthy: the round still completes.
        assert!(matches!(
            raw.send(Request::PollEvent),
            Response::Event { .. }
        ));
    }

    #[test]
    fn a_request_frame_split_across_chunks_is_reassembled() {
        let w = tpch();
        let mut raw = RawClient::new(&w);
        raw.handshake();
        let seq = raw.next_seq();
        let bytes = frame(&seal(seq, &Request::PollEvent.encode()));
        let (head, tail) = bytes.split_at(3);
        assert!(raw.send_bytes(head).is_empty(), "no complete frame yet");
        let responses = raw.send_bytes(tail);
        assert_eq!(responses.len(), 1);
        assert!(matches!(&responses[0], Response::Event { .. }));
    }

    #[test]
    fn cancel_racing_an_in_flight_completion_loses_to_the_completion() {
        // The wire analogue of the sharded backend's
        // observable-completion-wins rule: while the Cancel frame is in
        // flight, the query completes naturally (the arrival advance buffers
        // the completion); the cancel must then be a no-op and the
        // completion must deliver untouched.
        let w = tpch();
        // Natural duration of query 0 alone on a fresh engine.
        let mut probe = engine(&w, 0);
        probe.submit(QueryId(0), RunParams::default_config(), 0);
        let duration = match (probe.poll_event(), probe.poll_event()) {
            (ExecEvent::Submitted { .. }, ExecEvent::Completed(c)) => c.duration(),
            other => panic!("expected the echo, then the completion: {other:?}"),
        };

        // A wire slow enough to lose the race: the submit admits at L (so
        // the query completes at L + duration), the ack returns at 2L, and
        // the cancel sent then arrives at 3L — past the completion instant
        // whenever L > duration / 2.
        let latency = duration * 0.75;
        let mut backend =
            WireBackend::with_profile(engine(&w, 0), TransportProfile::fixed(latency));
        backend.submit(QueryId(0), RunParams::default_config(), 0);
        assert!(
            backend.cancel(0).is_none(),
            "the completion was already in the observable past of the \
             cancel's arrival: the completion wins"
        );
        // The natural completion is buffered and delivers with its original
        // stamps; the slot frees on delivery, exactly once.
        assert!(backend.events_pending());
        let mut saw_completion = false;
        loop {
            match backend.poll_event() {
                ExecEvent::Submitted { .. } => {}
                ExecEvent::Completed(c) => {
                    assert_eq!(c.query, QueryId(0));
                    assert!(
                        (c.duration() - duration).abs() < 1e-9,
                        "natural duration must be preserved: {} vs {duration}",
                        c.duration()
                    );
                    saw_completion = true;
                }
                ExecEvent::Idle => break,
            }
        }
        assert!(saw_completion);
        assert!(backend.connections()[0].is_free());
    }

    #[test]
    fn cancel_arriving_before_the_completion_wins() {
        let w = tpch();
        let mut backend = WireBackend::lossless(engine(&w, 0));
        backend.submit(QueryId(0), RunParams::default_config(), 0);
        assert_eq!(
            backend.poll_event(),
            ExecEvent::Submitted {
                query: QueryId(0),
                connection: 0
            }
        );
        let c = backend
            .cancel(0)
            .expect("nothing completed yet: cancel wins");
        assert_eq!(c.query, QueryId(0));
        assert_eq!(c.finished_at, c.started_at);
        assert!(backend.cancel(0).is_none(), "slot frees exactly once");
        // A peer-controlled out-of-range index answers None without ever
        // reaching the backend's slot indexing (the learned simulator
        // indexes unchecked, so the server bound-checks, not the backend).
        assert!(backend.cancel(usize::MAX).is_none());
    }

    /// A link that loses or delays selected server→client chunks (by send
    /// index) — lost and late responses without the full chaos crate — and
    /// records the largest chunk it carried.
    struct LossyLink {
        inner: InMemoryDuplex,
        drop_indices: Vec<u64>,
        /// A held chunk travels right before the next chunk sent.
        hold_indices: Vec<u64>,
        held: Option<Vec<u8>>,
        sent: u64,
        largest: Rc<Cell<usize>>,
    }

    impl LossyLink {
        fn lossless(drop_indices: Vec<u64>) -> Self {
            Self {
                inner: InMemoryDuplex::lossless(),
                drop_indices,
                hold_indices: Vec::new(),
                held: None,
                sent: 0,
                largest: Rc::new(Cell::new(0)),
            }
        }

        fn holding(hold_indices: Vec<u64>) -> Self {
            Self {
                hold_indices,
                ..Self::lossless(Vec::new())
            }
        }
    }

    impl WireTransport for LossyLink {
        fn send_to_server(&mut self, bytes: &[u8], now: f64) -> f64 {
            self.inner.send_to_server(bytes, now)
        }
        fn recv_at_client(&mut self) -> Option<Delivery> {
            self.inner.recv_at_client()
        }
    }

    impl ServerTransport for LossyLink {
        fn recv_at_server(&mut self) -> Option<Delivery> {
            self.inner.recv_at_server()
        }
        fn send_to_client(&mut self, bytes: &[u8], now: f64) -> f64 {
            let index = self.sent;
            self.sent += 1;
            self.largest.set(self.largest.get().max(bytes.len()));
            if self.drop_indices.contains(&index) {
                return now;
            }
            if self.hold_indices.contains(&index) {
                self.held = Some(bytes.to_vec());
                return now;
            }
            if let Some(held) = self.held.take() {
                self.inner.send_to_client(&held, now);
            }
            self.inner.send_to_client(bytes, now)
        }
    }

    #[test]
    fn a_lost_response_is_retransmitted_and_executes_at_most_once() {
        let w = tpch();
        // Response 0 is the handshake ack; drop the submit's ack (index 1).
        let link = Loopback::new(WireServer::new(engine(&w, 0)), LossyLink::lossless(vec![1]));
        let mut backend = WireBackend::connect(link)
            .expect("handshake over a healthy link")
            .with_recovery(RecoveryPolicy::bounded());
        // The ack is lost in transit: the client retransmits the same
        // exchange, and the server replays its cached response without
        // re-submitting (at-most-once execution of a non-idempotent
        // request).
        backend.submit(QueryId(0), RunParams::default_config(), 0);
        assert!(matches!(
            backend.poll_fault(),
            Some(FaultEvent::TransportRetransmit { attempt: 1, .. })
        ));
        assert!(backend.poll_fault().is_none());
        assert!(
            !backend.connections()[0].is_free(),
            "exactly one submission took effect"
        );
        assert_eq!(
            backend.poll_event(),
            ExecEvent::Submitted {
                query: QueryId(0),
                connection: 0
            }
        );
        match backend.poll_event() {
            ExecEvent::Completed(c) => assert_eq!(c.query, QueryId(0)),
            other => panic!("expected completion, got {other:?}"),
        }
        assert_eq!(backend.poll_event(), ExecEvent::Idle);
        assert!(backend.connections()[0].is_free());

        // The submit's ack arrives late, right before the replay of the
        // retransmitted exchange: both copies carry the buffered echo, and
        // the client keeps only the first, so the echo is handed out once.
        let link = Loopback::new(WireServer::new(engine(&w, 0)), LossyLink::holding(vec![1]));
        let mut backend = WireBackend::connect(link)
            .expect("handshake over a healthy link")
            .with_recovery(RecoveryPolicy::bounded());
        backend.submit(QueryId(0), RunParams::default_config(), 0);
        assert!(matches!(
            backend.poll_fault(),
            Some(FaultEvent::TransportRetransmit { attempt: 1, .. })
        ));
        assert!(backend.poll_fault().is_none());
        let echo = ExecEvent::Submitted {
            query: QueryId(0),
            connection: 0,
        };
        assert_eq!(backend.poll_event(), echo);
        match backend.poll_event() {
            ExecEvent::Completed(c) => assert_eq!(c.query, QueryId(0)),
            other => panic!("the echo must be handed out once, got {other:?}"),
        }
        assert_eq!(backend.poll_event(), ExecEvent::Idle);
    }

    #[test]
    #[should_panic(expected = "must answer every request")]
    fn a_lost_response_without_a_recovery_policy_panics() {
        let w = tpch();
        let link = Loopback::new(WireServer::new(engine(&w, 0)), LossyLink::lossless(vec![1]));
        let mut backend = WireBackend::connect(link).expect("handshake over a healthy link");
        backend.submit(QueryId(0), RunParams::default_config(), 0);
    }

    #[test]
    fn zero_latency_wire_is_byte_identical_to_the_bare_engine() {
        let w = tpch();
        let profile = DbmsProfile::dbms_x();
        for seed in [0u64, 5] {
            let mut bare = ExecutionEngine::new(profile.clone(), &w, seed);
            let base = ScheduleSession::builder(&w)
                .dbms(profile.kind)
                .round(seed)
                .build(&mut bare)
                .run(&mut FifoScheduler::new());
            let mut wired = WireBackend::over_engine(&profile, &w, seed, TransportProfile::zero());
            let over_wire = ScheduleSession::builder(&w)
                .dbms(profile.kind)
                .round(seed)
                .build(&mut wired)
                .run(&mut FifoScheduler::new());
            assert_eq!(base.to_json(), over_wire.to_json(), "seed {seed}");
        }
    }

    #[test]
    fn wired_episodes_are_a_pure_function_of_the_transport_profile() {
        let w = tpch();
        let profile = DbmsProfile::dbms_x();
        let transport = TransportProfile::fixed(0.02).with_jitter(0.01).with_seed(9);
        let run = || {
            let mut wired = WireBackend::over_engine(&profile, &w, 3, transport);
            ScheduleSession::builder(&w)
                .dbms(profile.kind)
                .round(3)
                .build(&mut wired)
                .run(&mut FifoScheduler::new())
        };
        let log = run();
        assert_eq!(log.len(), w.len());
        assert_eq!(log.to_json(), run().to_json(), "replay must be identical");
        // A different transport seed yields a different (but still
        // complete) episode: the wire is part of the episode's identity.
        let other = {
            let mut wired = WireBackend::over_engine(&profile, &w, 3, transport.with_seed(10));
            ScheduleSession::builder(&w)
                .dbms(profile.kind)
                .round(3)
                .build(&mut wired)
                .run(&mut FifoScheduler::new())
        };
        assert_eq!(other.len(), w.len());
        assert_ne!(log.to_json(), other.to_json());
    }

    #[test]
    fn wire_latency_delays_first_admission() {
        let w = tpch();
        let profile = DbmsProfile::dbms_x();
        let latency = 0.25;
        let mut wired = WireBackend::over_engine(&profile, &w, 0, TransportProfile::fixed(latency));
        let log = ScheduleSession::builder(&w)
            .build(&mut wired)
            .run(&mut FifoScheduler::new());
        assert_eq!(log.len(), w.len());
        // The first submission frame needs one transit to reach the server,
        // so nothing can start before one latency has elapsed.
        for r in &log.records {
            assert!(
                r.started_at >= latency - 1e-9,
                "query started at {} before the wire could deliver it",
                r.started_at
            );
        }
    }

    #[test]
    fn wire_over_the_sharded_backend_keeps_the_partitioned_topology_and_routes() {
        let w = tpch();
        let profile = DbmsProfile::dbms_x();
        let mut wired = WireBackend::lossless(ShardedEngine::new(profile.clone(), &w, 0, 2));
        let mut router = bq_core::LeastLoadedRouter;
        let log = ScheduleSession::builder(&w)
            .router(&mut router)
            .build(&mut wired)
            .run(&mut FifoScheduler::new());
        assert_eq!(log.len(), w.len());
        let on_shard1 = log.records.iter().filter(|r| r.connection >= 18).count();
        assert_eq!(
            on_shard1,
            w.len() / 2,
            "least-loaded routing must see the wire-reported topology"
        );
    }

    #[test]
    fn timeouts_cancel_over_the_zero_latency_wire_exactly_as_bare() {
        let w = tpch();
        let profile = DbmsProfile::dbms_x();
        let mut bare = ExecutionEngine::new(profile.clone(), &w, 0);
        let natural = ScheduleSession::builder(&w)
            .build(&mut bare)
            .run(&mut FifoScheduler::new());
        let timeout = natural
            .records
            .iter()
            .map(|r| r.duration())
            .fold(0.0, f64::max)
            / 2.0;
        let mut bare = ExecutionEngine::new(profile.clone(), &w, 0);
        let base = ScheduleSession::builder(&w)
            .query_timeout(timeout)
            .build(&mut bare)
            .run(&mut FifoScheduler::new());
        let mut wired = WireBackend::over_engine(&profile, &w, 0, TransportProfile::zero());
        let over_wire = ScheduleSession::builder(&w)
            .query_timeout(timeout)
            .build(&mut wired)
            .run(&mut FifoScheduler::new());
        assert_eq!(base.to_json(), over_wire.to_json());
    }

    /// A backend whose buffered pops do what a sharded engine's merge does:
    /// each pop moves the clock, and a completion frees its slot. A
    /// submission occupies its slot and buffers `echoes` copies of its
    /// echo; a poll with nothing buffered completes every busy slot as one
    /// buffered batch, reporting a stall diagnostic until the batch is out.
    #[derive(Debug)]
    struct Scripted {
        slots: Vec<ConnectionSlot>,
        now: f64,
        echoes: usize,
        /// Each buffered event with the clock its pop moves to.
        buffered: VecDeque<(f64, ExecEvent)>,
        stall: Option<AdvanceStall>,
    }

    impl Scripted {
        const STEP: f64 = 0.125;

        fn new(connections: usize, echoes: usize) -> Self {
            Self {
                slots: vec![ConnectionSlot::Free; connections],
                now: 0.0,
                echoes,
                buffered: VecDeque::new(),
                stall: None,
            }
        }

        fn buffer(&mut self, event: impl FnOnce(f64) -> ExecEvent) {
            let at = self.buffered.back().map_or(self.now, |&(t, _)| t) + Self::STEP;
            self.buffered.push_back((at, event(at)));
        }
    }

    impl ExecutorBackend for Scripted {
        fn connections(&self) -> &[ConnectionSlot] {
            &self.slots
        }

        fn now(&self) -> f64 {
            self.now
        }

        fn submit(&mut self, query: QueryId, params: RunParams, connection: usize) {
            self.slots[connection] = ConnectionSlot::Busy {
                query,
                params,
                started_at: self.now,
            };
            for _ in 0..self.echoes {
                self.buffer(|_| ExecEvent::Submitted { query, connection });
            }
        }

        fn poll_event(&mut self) -> ExecEvent {
            if self.buffered.is_empty() {
                for connection in 0..self.slots.len() {
                    if let ConnectionSlot::Busy {
                        query,
                        params,
                        started_at,
                    } = self.slots[connection]
                    {
                        self.buffer(|finished_at| {
                            ExecEvent::Completed(QueryCompletion {
                                query,
                                connection,
                                params,
                                started_at,
                                finished_at,
                            })
                        });
                    }
                }
                self.stall = Some(AdvanceStall {
                    now: self.now,
                    busy: self.buffered.len(),
                    budget: 1,
                });
            }
            let Some((at, event)) = self.buffered.pop_front() else {
                return ExecEvent::Idle;
            };
            self.now = at;
            if let ExecEvent::Completed(c) = &event {
                self.slots[c.connection] = ConnectionSlot::Free;
            }
            if self.buffered.is_empty() {
                self.stall = None;
            }
            event
        }

        fn events_pending(&self) -> bool {
            !self.buffered.is_empty()
        }

        fn stall_diagnostic(&self) -> Option<AdvanceStall> {
            self.stall
        }
    }

    /// What a session can observe of a backend between calls.
    fn observables<E: ExecutorBackend>(
        backend: &E,
    ) -> (u64, Vec<ConnectionSlot>, bool, Option<AdvanceStall>) {
        (
            backend.now().to_bits(),
            backend.connections().to_vec(),
            backend.events_pending(),
            backend.stall_diagnostic(),
        )
    }

    #[test]
    fn each_buffered_entry_applies_its_own_header() {
        let mut bare = Scripted::new(4, 1);
        let mut wired = WireBackend::lossless(Scripted::new(4, 1));
        let obs = Obs::enabled();
        wired.set_obs(obs.clone());
        let mut polls = 0;
        for round in 0..3 {
            let batch: Vec<_> = (0..3)
                .map(|c| (QueryId(round * 3 + c), RunParams::default_config(), c))
                .collect();
            bare.submit_batch(&batch);
            wired.submit_batch(&batch);
            assert_eq!(observables(&bare), observables(&wired), "round {round}");
            // Drain the echoes, then the completion batch the next poll
            // starts: after every poll the wire reads exactly what the
            // bare backend reads, entry by entry.
            loop {
                let event = bare.poll_event();
                assert_eq!(wired.poll_event(), event, "round {round} poll {polls}");
                polls += 1;
                assert_eq!(
                    observables(&bare),
                    observables(&wired),
                    "round {round} poll {polls}"
                );
                if matches!(event, ExecEvent::Completed(_)) && !bare.events_pending() {
                    break;
                }
            }
        }
        assert_eq!(
            polls, 18,
            "three rounds of three echoes and three completions"
        );
        // Per round one batch and the one poll that starts the completion
        // batch: every other poll was answered from the queue.
        assert_eq!(obs.counter("wire_frames_sent"), 3 * 2);
    }

    #[test]
    fn queued_entries_apply_before_a_later_response() {
        let p = RunParams::default_config();
        let mut wired = WireBackend::lossless(Scripted::new(4, 0));
        wired.submit_batch(&[(QueryId(0), p, 0), (QueryId(1), p, 1)]);
        // The poll completes both queries; the second completion is queued.
        assert!(matches!(wired.poll_event(), ExecEvent::Completed(c) if c.connection == 0));
        assert!(!wired.connections()[1].is_free(), "not handed out yet");
        // A request sent while it is queued: the response's slot updates
        // are relative to the queued entry, so the entry applies first and
        // the mirror matches the server's slots.
        wired.submit(QueryId(2), p, 2);
        let server = |w: &WireBackend<Loopback<Scripted>>| {
            let backend = w.transport().server().backend();
            (backend.connections().to_vec(), backend.now().to_bits())
        };
        assert_eq!(
            server(&wired),
            (wired.connections().to_vec(), wired.now().to_bits())
        );
        assert!(
            wired.events_pending(),
            "the completion is still to hand out"
        );
        // Handing the entry out later does not apply it again: the slot it
        // freed stays with the query submitted since.
        wired.submit(QueryId(3), p, 1);
        assert!(matches!(wired.poll_event(), ExecEvent::Completed(c) if c.query == QueryId(1)));
        assert_eq!(wired.connections()[1].query(), Some(QueryId(3)));
        assert_eq!(server(&wired).0, wired.connections());
        assert!(!wired.events_pending());
    }

    #[test]
    fn a_drain_larger_than_one_frame_spans_exchanges_in_order() {
        // Every submission buffers 3000 echoes of ~23 bytes each: more
        // than one 64 KiB response can carry.
        let w = tpch();
        let mut bare = Scripted::new(2, 3000);
        let base = ScheduleSession::builder(&w)
            .build(&mut bare)
            .run(&mut FifoScheduler::new());
        let link = LossyLink::lossless(Vec::new());
        let largest = Rc::clone(&link.largest);
        let mut wired =
            WireBackend::connect(Loopback::new(WireServer::new(Scripted::new(2, 3000)), link))
                .expect("handshake");
        let obs = Obs::enabled();
        wired.set_obs(obs.clone());
        let over_wire = ScheduleSession::builder(&w)
            .build(&mut wired)
            .run(&mut FifoScheduler::new());
        assert_eq!(base.to_json(), over_wire.to_json());
        assert!(
            largest.get() <= FRAME_HEADER_LEN + MAX_FRAME_LEN,
            "a {}-byte response frame",
            largest.get()
        );
        assert!(
            largest.get() > MAX_FRAME_LEN / 2,
            "the drain fills a frame before it stops"
        );
        // 11 instants of two submissions: each instant's 6000 echoes take
        // the batch's exchange and at least two polls.
        assert!(
            obs.counter("wire_frames_sent") >= 11 * 3,
            "{} exchanges",
            obs.counter("wire_frames_sent")
        );
    }

    #[test]
    fn a_zero_latency_fifo_round_takes_one_exchange_per_batch_and_completion_poll() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcDs, 1.0, 1));
        let profile = DbmsProfile::dbms_x();
        let mut wired = WireBackend::over_engine(&profile, &w, 1, TransportProfile::zero());
        let obs = Obs::enabled();
        wired.set_obs(obs.clone());
        let log = ScheduleSession::builder(&w)
            .dbms(profile.kind)
            .round(1)
            .build(&mut wired)
            .run(&mut FifoScheduler::new());
        assert_eq!(log.len(), w.len());
        // Version 2 spent 280 exchanges on this round: one more poll per
        // submission echo.
        assert_eq!(obs.counter("wire_frames_sent"), 181);
    }

    /// A server end fed with hand-made deliveries, keeping what the server
    /// sends back.
    #[derive(Default)]
    struct Deliveries {
        inbox: VecDeque<Delivery>,
        sent: Vec<Vec<u8>>,
    }

    impl Deliveries {
        fn deliver(&mut self, bytes: Vec<u8>, epoch: u64) {
            self.inbox.push_back(Delivery {
                bytes,
                at: 0.0,
                epoch,
            });
        }
    }

    impl ServerTransport for Deliveries {
        fn recv_at_server(&mut self) -> Option<Delivery> {
            self.inbox.pop_front()
        }
        fn send_to_client(&mut self, bytes: &[u8], now: f64) -> f64 {
            self.sent.push(bytes.to_vec());
            now
        }
    }

    #[test]
    fn after_lost_framing_the_server_ignores_the_rest_of_the_epoch() {
        let w = tpch();
        let mut server = WireServer::new(engine(&w, 0));
        let mut link = Deliveries::default();
        let hello = Request::Hello {
            magic: HANDSHAKE_MAGIC,
            version: PROTOCOL_VERSION,
        };
        let submit = frame(&seal(
            1,
            &Request::SubmitBatch {
                entries: vec![(QueryId(0), RunParams::default_config(), 0)],
            }
            .encode(),
        ));
        link.deliver(frame(&seal(0, &hello.encode())), 0);
        link.deliver(u32::MAX.to_le_bytes().to_vec(), 0);
        link.deliver(submit.clone(), 0);
        server.service(&mut link);
        assert_eq!(link.sent.len(), 2, "the HelloAck and one framing error");
        let (seq, body) = unseal(&link.sent[1][FRAME_HEADER_LEN..]).expect("sealed");
        assert_eq!(seq, UNSOLICITED_SEQ);
        assert!(matches!(
            Response::decode(body),
            Ok(Response::Error {
                code: WireErrorCode::Malformed,
                ..
            })
        ));
        assert!(
            server.backend().connections()[0].is_free(),
            "a frame after lost framing must not execute"
        );
        // A reconnect (new epoch) is a fresh stream, served again.
        link.deliver(submit, 1);
        server.service(&mut link);
        assert_eq!(link.sent.len(), 3);
        assert!(!server.backend().connections()[0].is_free());
    }
}
