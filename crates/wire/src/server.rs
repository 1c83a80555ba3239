//! The engine-hosting side of the wire: [`WireServer`] owns any
//! [`ExecutorBackend`] and services the framed protocol over the server's
//! end of a link ([`ServerTransport`]). `bq-serve` services it over an
//! accepted socket; in process, [`Loopback`] puts it on the far end of a
//! duplex.
//!
//! The server is a pure request handler: its backend's state changes only
//! while a request frame is being handled, never between frames, so the
//! client's caches are exact between round trips. Each inbound frame first
//! advances the backend's observable clock to the frame's arrival instant
//! (queries keep executing while a frame is in flight — completions
//! occurring on the way are buffered and delivered through subsequent
//! `PollEvent`s, which is what lets a completion already in the observable
//! past win against a cancel frame still in flight). The arrival advance
//! happens for every frame, valid or not — time passes regardless of what
//! the frame says — but requests are validated **before** they act on the
//! backend: a malformed frame, an unknown query id, a double-submit, an
//! out-of-range connection or a non-finite advance bound is answered with a
//! [`Response::Error`] frame and changes nothing beyond that clock movement
//! (the next successful response's header carries any slot diffs the
//! advance buffered).
//!
//! Once a request is handled, a non-error response also carries the events
//! the backend still has buffered: the server pops them while
//! `events_pending()` holds and attaches each with the header a `PollEvent`
//! answering it would have carried, so the client answers those polls
//! locally. The drain stops before the sealed response could pass
//! [`MAX_FRAME_LEN`]; whatever stays buffered is flagged in the last
//! header and fetched by the next poll. The response still travels at the
//! instant it was built, so at zero latency it arrives at exactly the
//! clock its own header reports.
//!
//! A frame with an oversized length prefix loses the stream's framing: the
//! server reports it once and ignores every later delivery of that
//! connection epoch, until a reconnect starts a fresh stream.

use crate::frame::{frame, FrameReader, MAX_FRAME_LEN};
use crate::proto::{
    seal, unseal, BufferedEvent, Request, Response, ResponseHeader, WireErrorCode, HANDSHAKE_MAGIC,
    PROTOCOL_VERSION, SEQ_LEN, UNSOLICITED_SEQ,
};
use crate::transport::{Delivery, InMemoryDuplex, ServerTransport, WireTransport};
use bq_core::ExecutorBackend;
use bq_dbms::ConnectionSlot;

/// Serves the wire protocol over an owned [`ExecutorBackend`].
#[derive(Debug)]
pub struct WireServer<B> {
    backend: B,
    /// Protocol version this server speaks (overridable for negotiation
    /// tests; production servers keep [`PROTOCOL_VERSION`]).
    version: u16,
    reader: FrameReader,
    /// Slot states as of the last response — the diff base for the next
    /// response's slot updates.
    last_sent: Vec<ConnectionSlot>,
    handshaken: bool,
    /// Connection epoch of the last delivery; a change means the link was
    /// torn down and any partially buffered frame is dead.
    epoch: u64,
    /// Whether this epoch's stream lost its framing (an oversized length
    /// prefix): its later deliveries are not interpreted.
    framing_lost: bool,
    /// Sequence number of the last answered exchange, with its sealed
    /// response bytes: a duplicate sequence number is a retransmission
    /// (the response was lost in transit), answered by replaying the cached
    /// bytes without touching the backend — at-most-once execution.
    last_seq: Option<u64>,
    last_response: Vec<u8>,
}

impl<B: ExecutorBackend> WireServer<B> {
    /// Host `backend` behind the wire protocol.
    pub fn new(backend: B) -> Self {
        Self {
            backend,
            version: PROTOCOL_VERSION,
            reader: FrameReader::new(),
            last_sent: Vec::new(),
            handshaken: false,
            epoch: 0,
            framing_lost: false,
            last_seq: None,
            last_response: Vec::new(),
        }
    }

    /// Override the protocol version this server answers the handshake with
    /// (version-negotiation tests; a mismatching client is rejected).
    // bq-lint: allow(dead-pub): only way to test rejection by a peer of another version
    pub fn with_version(mut self, version: u16) -> Self {
        self.version = version;
        self
    }

    /// The hosted backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Service every complete request frame that has reached the server:
    /// decode, validate, apply to the backend, and transmit one response
    /// frame per request.
    pub fn service<T: ServerTransport>(&mut self, transport: &mut T) {
        while let Some(delivery) = transport.recv_at_server() {
            if delivery.epoch != self.epoch {
                // The link was torn down and re-established: whatever the
                // old connection left half-delivered is dead, never spliced
                // onto the new stream (a truncated write surfaces as a lost
                // frame, not corruption).
                self.reader.reset();
                self.epoch = delivery.epoch;
                self.framing_lost = false;
            }
            if self.framing_lost {
                continue;
            }
            self.reader.feed(&delivery.bytes);
            let arrival = delivery.at;
            loop {
                let sealed = match self.reader.next_frame() {
                    Ok(None) => break,
                    Ok(Some(payload)) => payload,
                    // Framing is lost (oversized length prefix): report and
                    // stop interpreting the stream.
                    Err(err) => {
                        self.send_error(transport, UNSOLICITED_SEQ, err.to_string());
                        self.framing_lost = true;
                        break;
                    }
                };
                let (seq, message) = match unseal(&sealed) {
                    Ok(parts) => parts,
                    Err(err) => {
                        self.send_error(transport, UNSOLICITED_SEQ, err.to_string());
                        continue;
                    }
                };
                if self.last_seq == Some(seq) {
                    // Retransmission of an already-executed exchange: the
                    // response was lost, not the request. Replay the cached
                    // response verbatim — the backend is not touched, so
                    // even non-idempotent requests execute at most once.
                    let bytes = frame(&self.last_response);
                    transport.send_to_client(&bytes, self.backend.now());
                    continue;
                }
                let mut response = match Request::decode(message) {
                    Ok(request) => self.handle(request, arrival),
                    Err(err) => Response::Error {
                        code: WireErrorCode::Malformed,
                        detail: err.to_string(),
                    },
                };
                let sent_at = self.backend.now();
                self.attach_buffered(&mut response);
                let sealed_response = seal(seq, &response.encode());
                self.last_seq = Some(seq);
                self.last_response.clear();
                self.last_response.extend_from_slice(&sealed_response);
                transport.send_to_client(&frame(&sealed_response), sent_at);
            }
        }
    }

    /// Pop the backend's buffered events into `response`'s buffered list,
    /// each with the header a `PollEvent` answering it would have carried,
    /// stopping before the sealed response could pass [`MAX_FRAME_LEN`].
    /// An error response carries no list.
    fn attach_buffered(&mut self, response: &mut Response) {
        let mut len = SEQ_LEN + response.encode().len();
        let Some(buffered) = response.buffered_mut() else {
            return;
        };
        let bound = BufferedEvent::max_encoded_len(self.backend.connection_count());
        while self.backend.events_pending() && len + bound <= MAX_FRAME_LEN {
            let event = self.backend.poll_event();
            let entry = BufferedEvent {
                header: self.header(),
                event,
            };
            len += entry.encoded_len();
            buffered.push(entry);
        }
    }

    /// Transmit an error frame outside any cached exchange.
    fn send_error<T: ServerTransport>(&mut self, transport: &mut T, seq: u64, detail: String) {
        let response = Response::Error {
            code: WireErrorCode::Malformed,
            detail,
        };
        let sealed = seal(seq, &response.encode());
        transport.send_to_client(&frame(&sealed), self.backend.now());
    }

    /// Handle one decoded request that arrived at `arrival`.
    fn handle(&mut self, request: Request, arrival: f64) -> Response {
        // The backend keeps executing while the frame is in flight: move the
        // observable clock up to the arrival instant first. Completions on
        // the way are buffered (never skipped) and deliver through
        // subsequent polls. With a zero-latency transport `arrival` equals
        // the current clock exactly and the backend is not touched.
        if arrival > self.backend.now() {
            self.backend.advance_to(arrival);
        }

        if let Request::Hello { magic, version } = request {
            if magic != HANDSHAKE_MAGIC {
                return Response::Error {
                    code: WireErrorCode::VersionMismatch,
                    detail: format!("bad handshake magic {magic:#010x}"),
                };
            }
            if version != self.version {
                return Response::Error {
                    code: WireErrorCode::VersionMismatch,
                    detail: format!(
                        "client speaks protocol v{version}, server speaks v{}",
                        self.version
                    ),
                };
            }
            self.handshaken = true;
            // The diff base resets so the ack's header carries a full
            // snapshot of every occupied slot.
            self.last_sent = vec![ConnectionSlot::Free; self.backend.connection_count()];
            let topology = self.backend.shard_topology();
            return Response::HelloAck {
                version: self.version,
                connections: self.backend.connection_count(),
                shard_count: topology.shard_count(),
                connections_per_shard: topology.connections_per_shard(),
                known_queries: self.backend.known_query_count(),
                header: self.header(),
                buffered: Vec::new(),
            };
        }
        if !self.handshaken {
            return Response::Error {
                code: WireErrorCode::HandshakeRequired,
                detail: "first frame must be Hello".into(),
            };
        }

        match request {
            // bq-lint: allow(panic-surface): Hello is intercepted before this match; locally provable
            Request::Hello { .. } => unreachable!("handled above"),
            Request::SubmitBatch { entries } => {
                // Validate the whole batch before touching the backend, so a
                // rejected batch is rejected atomically.
                let mut claimed = Vec::with_capacity(entries.len());
                for &(query, _, connection) in &entries {
                    if let Some(error) = self.validate_submission(query, connection, &claimed) {
                        return error;
                    }
                    claimed.push(connection);
                }
                self.backend.submit_batch(&entries);
                Response::Ack {
                    header: self.header(),
                    buffered: Vec::new(),
                }
            }
            Request::PollEvent => {
                let event = self.backend.poll_event();
                Response::Event {
                    header: self.header(),
                    event,
                    buffered: Vec::new(),
                }
            }
            Request::AdvanceTo { until } => {
                // A non-finite bound would make a bounded advance burn its
                // whole budget without progress (NaN clamps every step to
                // zero) — a peer-driven stall the validation contract
                // forbids.
                if !until.is_finite() {
                    return Response::Error {
                        code: WireErrorCode::Malformed,
                        detail: format!("advance bound must be finite, got {until}"),
                    };
                }
                self.backend.advance_to(until);
                Response::Ack {
                    header: self.header(),
                    buffered: Vec::new(),
                }
            }
            Request::Cancel { connection } => {
                // An out-of-range connection answers `None` — the shape the
                // `cancel` trait contract gives a free/unknown connection —
                // without reaching the backend: the index comes from the
                // peer, so the boundary validates it itself instead of
                // trusting every hosted backend to range-check it.
                let completion = if connection < self.backend.connection_count() {
                    self.backend.cancel(connection)
                } else {
                    None
                };
                Response::CancelResult {
                    header: self.header(),
                    completion,
                    buffered: Vec::new(),
                }
            }
        }
    }

    /// Reject a submission the backend would panic on: out-of-range or
    /// occupied connection (including one claimed earlier in the same
    /// batch), or a query id outside the workload.
    fn validate_submission(
        &self,
        query: bq_plan::QueryId,
        connection: usize,
        claimed: &[usize],
    ) -> Option<Response> {
        if connection >= self.backend.connection_count() {
            return Some(Response::Error {
                code: WireErrorCode::OutOfRange,
                detail: format!("connection {connection} out of range"),
            });
        }
        if !self.backend.connections()[connection].is_free() || claimed.contains(&connection) {
            return Some(Response::Error {
                code: WireErrorCode::SlotOccupied,
                detail: format!("connection {connection} is occupied"),
            });
        }
        if let Some(limit) = self.backend.known_query_count() {
            if query.0 >= limit {
                return Some(Response::Error {
                    code: WireErrorCode::UnknownQuery,
                    detail: format!("query id {} beyond workload of {limit}", query.0),
                });
            }
        }
        None
    }

    /// Build the state header for the next response: observable clock,
    /// buffered-event flag, stall diagnostic, and the slots that changed
    /// since the previous response (updating the diff base).
    fn header(&mut self) -> ResponseHeader {
        let slots = self.backend.connections();
        let mut updates = Vec::new();
        for (i, slot) in slots.iter().enumerate() {
            if self.last_sent.get(i) != Some(slot) {
                updates.push((i, *slot));
            }
        }
        self.last_sent.clear();
        self.last_sent.extend_from_slice(slots);
        ResponseHeader {
            now: self.backend.now(),
            events_pending: self.backend.events_pending(),
            stall: self.backend.stall_diagnostic(),
            slots: updates,
        }
    }
}

/// An in-process link with a [`WireServer`] on its far end: the client's
/// end of `duplex`, whose server end the hosted server answers on.
///
/// The server handles whatever has reached it each time the client looks
/// for a response, so a request is serviced after its send and before its
/// response is drained, exactly as a remote server would answer it. Every
/// message still round-trips through real encode/decode.
#[derive(Debug)]
pub struct Loopback<B, D = InMemoryDuplex> {
    server: WireServer<B>,
    duplex: D,
}

impl<B: ExecutorBackend, D> Loopback<B, D> {
    /// Host `server` on the far end of `duplex`.
    pub fn new(server: WireServer<B>, duplex: D) -> Self {
        Self { server, duplex }
    }

    /// The hosted server (and through it the backend — test probes).
    pub fn server(&self) -> &WireServer<B> {
        &self.server
    }
}

impl<B: ExecutorBackend, D: WireTransport + ServerTransport> WireTransport for Loopback<B, D> {
    fn send_to_server(&mut self, bytes: &[u8], now: f64) -> f64 {
        self.duplex.send_to_server(bytes, now)
    }

    fn recv_at_client(&mut self) -> Option<Delivery> {
        self.server.service(&mut self.duplex);
        self.duplex.recv_at_client()
    }
}
