//! Message layer: the request/response vocabulary and its binary codec.
//!
//! Every message round-trips through real encode/decode — there is no
//! in-process shortcut anywhere in the wire stack — so the frame layout
//! below is load-bearing, pinned by round-trip tests and exercised by every
//! wired episode.
//!
//! # Message catalogue
//!
//! | dir | tag | message | payload |
//! |-----|-----|---------------|------------------------------------------|
//! | →   | 0x01| `Hello`       | magic u32, version u16                   |
//! | →   | 0x03| `SubmitBatch` | count u32, then (query, params, conn)*   |
//! | →   | 0x04| `PollEvent`   | —                                        |
//! | →   | 0x05| `AdvanceTo`   | until f64                                |
//! | ←   | 0x81| `HelloAck`    | version u16, connections u32, shards u32, per_shard u32, option\<queries u32\>, header, buffered |
//! | ←   | 0x82| `Ack`         | header, buffered                         |
//! | ←   | 0x83| `Event`       | header, event, buffered                  |
//! | ←   | 0x86| `Error`       | code u8, detail string                   |
//!
//! An **event** is a tag byte and its payload: `0x01` `Completed` (one
//! query completion) or `0x02` `Idle`. A submission reports nothing back:
//! tag `0x00`, the submission echo, was retired in version 6.
//!
//! Every non-error response carries a [`ResponseHeader`]: the server's
//! observable clock, whether events are buffered, any advance-stall
//! diagnostic, and the **slot updates** — the connection slots that changed
//! since the previous response, which is how the client's session-observable
//! mirror stays exactly in sync without ever shipping the full slot space
//! per message. `f64` fields travel as IEEE-754 bit patterns, so virtual
//! time round-trips bit-exactly and a zero-latency wired episode can be
//! byte-identical to a bare one.
//!
//! After its own fields, every non-error response ends with the
//! **buffered** list, `count u32` × ([`BufferedEvent`]): the events the
//! server's backend still had buffered once the request was handled, each
//! with the header the `PollEvent` answering it would have carried. The
//! client hands them out from a local queue instead of polling for each, so
//! the rest of a same-instant completion batch costs no round trip of its
//! own.

use crate::frame::{Cursor, FrameError, Writer};
use bq_dbms::{AdvanceStall, ConnectionSlot, ExecEvent, MemoryGrant, QueryCompletion, RunParams};
use bq_plan::QueryId;

/// Version of the wire protocol. Bumped on any frame-layout change; the
/// handshake rejects a peer speaking a different version.
///
/// Version 2 added the exchange-sequence prefix ([`seal`] / [`unseal`])
/// that makes every request/response exchange at-most-once, so a client may
/// safely retransmit a request whose response was lost by the transport.
/// Version 3 appended the buffered-event list ([`BufferedEvent`]) to every
/// non-error response. Version 4 retired the single-entry `Submit` request
/// (tag `0x02`): a submission of one query is a one-entry
/// [`Request::SubmitBatch`]. Version 5 retired the cancel request (tag
/// `0x06`) and its answer (tag `0x84`): every query runs until it
/// finishes. Version 6 retired the submission echo (event tag `0x00`): a
/// submission buffers no event, so only completions travel as events.
pub const PROTOCOL_VERSION: u16 = 6;

/// Sequence number stamped on server frames that answer no request (e.g. an
/// error for a frame whose sequence prefix itself was unreadable).
pub const UNSOLICITED_SEQ: u64 = u64::MAX;

/// Size of the exchange-sequence prefix [`seal`] puts before a message.
pub(crate) const SEQ_LEN: usize = 8;

/// Prefix `message` with its exchange sequence number. Every frame payload
/// is `seq: u64 LE ++ message`: requests carry the client's monotonically
/// increasing exchange number, responses echo the number of the request
/// they answer. The pairing is what makes lossy transports survivable — a
/// client that retransmits after a loss can match the (single) response to
/// its exchange and discard stale duplicates, and a server that sees an
/// already-answered sequence number replays its cached response instead of
/// re-executing a non-idempotent request.
pub fn seal(seq: u64, message: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEQ_LEN + message.len());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(message);
    out
}

/// Split a sealed frame payload into its sequence number and message bytes.
pub fn unseal(payload: &[u8]) -> Result<(u64, &[u8]), FrameError> {
    if payload.len() < SEQ_LEN {
        return Err(FrameError::Truncated);
    }
    let mut seq_bytes = [0u8; SEQ_LEN];
    seq_bytes.copy_from_slice(&payload[..SEQ_LEN]);
    Ok((u64::from_le_bytes(seq_bytes), &payload[SEQ_LEN..]))
}

/// Magic constant opening every handshake (`"bqwp"`), so a stray peer that
/// is not speaking this protocol at all fails before version comparison.
pub const HANDSHAKE_MAGIC: u32 = 0x6271_7770;

const REQ_HELLO: u8 = 0x01;
const REQ_SUBMIT_BATCH: u8 = 0x03;
const REQ_POLL_EVENT: u8 = 0x04;
const REQ_ADVANCE_TO: u8 = 0x05;

const RESP_HELLO_ACK: u8 = 0x81;
const RESP_ACK: u8 = 0x82;
const RESP_EVENT: u8 = 0x83;
const RESP_ERROR: u8 = 0x86;

/// One submission entry: `(query, params, connection)`.
pub type WireEntry = (QueryId, RunParams, usize);

/// Client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Protocol-version handshake; must be the first frame on a connection.
    Hello {
        /// Must equal [`HANDSHAKE_MAGIC`].
        magic: u32,
        /// The client's [`PROTOCOL_VERSION`].
        version: u16,
    },
    /// Dispatch one scheduling instant's decisions together (a single
    /// submission is a one-entry batch).
    SubmitBatch {
        /// The decisions, in decision order.
        entries: Vec<WireEntry>,
    },
    /// Deliver the next executor event (advancing virtual time if needed).
    PollEvent,
    /// Advance virtual time to at most `until`.
    AdvanceTo {
        /// The advance bound.
        until: f64,
    },
}

/// State piggybacked on every non-error response, keeping the client's
/// session-observable caches (clock, mirror, buffered-event flag, stall
/// diagnostic) exactly in sync with the server after each round trip.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResponseHeader {
    /// The server backend's observable clock after handling the request.
    pub now: f64,
    /// Whether the server backend has buffered events.
    pub events_pending: bool,
    /// Advance-stall diagnostic, if the backend recorded one.
    pub stall: Option<AdvanceStall>,
    /// Connection slots that changed since the previous response, as
    /// `(connection, slot)` in ascending connection order.
    pub slots: Vec<(usize, ConnectionSlot)>,
}

/// One event the server's backend still had buffered after handling a
/// request, drained into the response: byte for byte the `Event` response
/// (header, event) the next `PollEvent` would have received. Each entry
/// keeps its own header because a buffered pop may move the backend's
/// clock and free slots.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferedEvent {
    /// State after the pop.
    pub header: ResponseHeader,
    /// The event itself.
    pub event: ExecEvent,
}

impl BufferedEvent {
    /// Upper bound on one entry's encoding for a backend with `connections`
    /// slots: a stall diagnostic, every slot changed to its longest form,
    /// and a completion. A server checks it before each pop, since a popped
    /// event cannot be put back.
    pub(crate) fn max_encoded_len(connections: usize) -> usize {
        const HEADER: usize = 8 + 1 + (1 + 8 + 4 + 4) + 4;
        const SLOT_UPDATE: usize = 4 + (1 + 4 + 5 + 8);
        const COMPLETED: usize = 1 + (4 + 4 + 5 + 8 + 8);
        HEADER + connections * SLOT_UPDATE + COMPLETED
    }

    /// This entry's encoded size.
    pub(crate) fn encoded_len(&self) -> usize {
        let mut w = Writer::new();
        put_buffered_event(&mut w, self);
        w.into_payload().len()
    }
}

/// Server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful handshake.
    HelloAck {
        /// The server's protocol version (== the client's, or no ack).
        version: u16,
        /// Total connection-slot count (sizes the client mirror).
        connections: usize,
        /// Shard count of the backend's topology.
        shard_count: usize,
        /// Connections per shard.
        connections_per_shard: usize,
        /// Workload size the backend was built for, when it knows it — the
        /// client re-exports this through
        /// [`ExecutorBackend::known_query_count`](bq_core::ExecutorBackend::known_query_count).
        known_queries: Option<usize>,
        /// Initial state (slot updates carry the full snapshot).
        header: ResponseHeader,
        /// Events buffered after the handshake.
        buffered: Vec<BufferedEvent>,
    },
    /// A state-changing request (submit / batch / advance) succeeded.
    Ack {
        /// Post-request state.
        header: ResponseHeader,
        /// Events buffered after the request, in pop order.
        buffered: Vec<BufferedEvent>,
    },
    /// The next executor event.
    Event {
        /// Post-request state.
        header: ResponseHeader,
        /// The event itself.
        event: ExecEvent,
        /// Events buffered after this one, in pop order.
        buffered: Vec<BufferedEvent>,
    },
    /// The request was rejected; the backend was not touched.
    Error {
        /// Machine-readable rejection reason.
        code: WireErrorCode,
        /// Human-readable detail for diagnostics.
        detail: String,
    },
}

/// Machine-readable rejection reasons carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireErrorCode {
    /// The frame decoded to no known message (or decoding failed).
    Malformed,
    /// The handshake's magic or protocol version did not match.
    VersionMismatch,
    /// A request other than `Hello` arrived before the handshake.
    HandshakeRequired,
    /// A submitted query id is outside the workload the backend was built
    /// for.
    UnknownQuery,
    /// A submission targeted an occupied slot (double-submit).
    SlotOccupied,
    /// A connection index outside the slot space.
    OutOfRange,
}

impl WireErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            WireErrorCode::Malformed => 0,
            WireErrorCode::VersionMismatch => 1,
            WireErrorCode::HandshakeRequired => 2,
            WireErrorCode::UnknownQuery => 3,
            WireErrorCode::SlotOccupied => 4,
            WireErrorCode::OutOfRange => 5,
        }
    }

    fn from_u8(v: u8) -> Result<Self, FrameError> {
        Ok(match v {
            0 => WireErrorCode::Malformed,
            1 => WireErrorCode::VersionMismatch,
            2 => WireErrorCode::HandshakeRequired,
            3 => WireErrorCode::UnknownQuery,
            4 => WireErrorCode::SlotOccupied,
            5 => WireErrorCode::OutOfRange,
            other => return Err(FrameError::BadTag(other)),
        })
    }
}

// --- field codecs ---------------------------------------------------------

fn put_params(w: &mut Writer, params: RunParams) {
    w.u32(params.workers);
    w.u8(params.memory.index() as u8);
}

fn get_params(c: &mut Cursor<'_>) -> Result<RunParams, FrameError> {
    let workers = c.u32()?;
    let memory = match c.u8()? {
        0 => MemoryGrant::Low,
        1 => MemoryGrant::High,
        _ => return Err(FrameError::BadValue("unknown memory grant")),
    };
    Ok(RunParams { workers, memory })
}

fn put_slot(w: &mut Writer, slot: &ConnectionSlot) {
    match *slot {
        ConnectionSlot::Free => w.u8(0),
        ConnectionSlot::Pending {
            query,
            params,
            queued_at,
        } => {
            w.u8(1);
            w.u32(query.0 as u32);
            put_params(w, params);
            w.f64(queued_at);
        }
        ConnectionSlot::Busy {
            query,
            params,
            started_at,
        } => {
            w.u8(2);
            w.u32(query.0 as u32);
            put_params(w, params);
            w.f64(started_at);
        }
    }
}

fn get_slot(c: &mut Cursor<'_>) -> Result<ConnectionSlot, FrameError> {
    Ok(match c.u8()? {
        0 => ConnectionSlot::Free,
        1 => ConnectionSlot::Pending {
            query: QueryId(c.u32()? as usize),
            params: get_params(c)?,
            queued_at: c.f64()?,
        },
        2 => ConnectionSlot::Busy {
            query: QueryId(c.u32()? as usize),
            params: get_params(c)?,
            started_at: c.f64()?,
        },
        other => return Err(FrameError::BadTag(other)),
    })
}

fn put_completion(w: &mut Writer, c: &QueryCompletion) {
    w.u32(c.query.0 as u32);
    w.u32(c.connection as u32);
    put_params(w, c.params);
    w.f64(c.started_at);
    w.f64(c.finished_at);
}

fn get_completion(c: &mut Cursor<'_>) -> Result<QueryCompletion, FrameError> {
    Ok(QueryCompletion {
        query: QueryId(c.u32()? as usize),
        connection: c.u32()? as usize,
        params: get_params(c)?,
        started_at: c.f64()?,
        finished_at: c.f64()?,
    })
}

fn put_event(w: &mut Writer, event: &ExecEvent) {
    match event {
        ExecEvent::Completed(c) => {
            w.u8(1);
            put_completion(w, c);
        }
        ExecEvent::Idle => w.u8(2),
    }
}

fn get_event(c: &mut Cursor<'_>) -> Result<ExecEvent, FrameError> {
    Ok(match c.u8()? {
        1 => ExecEvent::Completed(get_completion(c)?),
        2 => ExecEvent::Idle,
        other => return Err(FrameError::BadTag(other)),
    })
}

fn put_header(w: &mut Writer, h: &ResponseHeader) {
    w.f64(h.now);
    w.bool(h.events_pending);
    match &h.stall {
        None => w.u8(0),
        Some(s) => {
            w.u8(1);
            w.f64(s.now);
            w.u32(s.busy as u32);
            w.u32(s.budget as u32);
        }
    }
    w.u32(h.slots.len() as u32);
    for (conn, slot) in &h.slots {
        w.u32(*conn as u32);
        put_slot(w, slot);
    }
}

fn get_header(c: &mut Cursor<'_>) -> Result<ResponseHeader, FrameError> {
    let now = c.f64()?;
    let events_pending = c.bool()?;
    let stall = match c.u8()? {
        0 => None,
        1 => Some(AdvanceStall {
            now: c.f64()?,
            busy: c.u32()? as usize,
            budget: c.u32()? as usize,
        }),
        other => return Err(FrameError::BadTag(other)),
    };
    let count = c.u32()? as usize;
    let mut slots = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let conn = c.u32()? as usize;
        slots.push((conn, get_slot(c)?));
    }
    Ok(ResponseHeader {
        now,
        events_pending,
        stall,
        slots,
    })
}

fn put_buffered_event(w: &mut Writer, entry: &BufferedEvent) {
    put_header(w, &entry.header);
    put_event(w, &entry.event);
}

fn put_buffered(w: &mut Writer, buffered: &[BufferedEvent]) {
    w.u32(buffered.len() as u32);
    for entry in buffered {
        put_buffered_event(w, entry);
    }
}

fn get_buffered(c: &mut Cursor<'_>) -> Result<Vec<BufferedEvent>, FrameError> {
    let count = c.u32()? as usize;
    let mut buffered = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        buffered.push(BufferedEvent {
            header: get_header(c)?,
            event: get_event(c)?,
        });
    }
    Ok(buffered)
}

// --- message codecs -------------------------------------------------------

impl Request {
    /// Encode into a frame payload (prepend the length prefix with
    /// [`crate::frame::frame`] before transmitting).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::Hello { magic, version } => {
                w.u8(REQ_HELLO);
                w.u32(*magic);
                w.u16(*version);
            }
            Request::SubmitBatch { entries } => {
                w.u8(REQ_SUBMIT_BATCH);
                w.u32(entries.len() as u32);
                for (query, params, connection) in entries {
                    w.u32(query.0 as u32);
                    put_params(&mut w, *params);
                    w.u32(*connection as u32);
                }
            }
            Request::PollEvent => w.u8(REQ_POLL_EVENT),
            Request::AdvanceTo { until } => {
                w.u8(REQ_ADVANCE_TO);
                w.f64(*until);
            }
        }
        w.into_payload()
    }

    /// Decode one frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self, FrameError> {
        let mut c = Cursor::new(payload);
        let req = match c.u8()? {
            REQ_HELLO => Request::Hello {
                magic: c.u32()?,
                version: c.u16()?,
            },
            REQ_SUBMIT_BATCH => {
                let count = c.u32()? as usize;
                let mut entries = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let query = QueryId(c.u32()? as usize);
                    let params = get_params(&mut c)?;
                    let connection = c.u32()? as usize;
                    entries.push((query, params, connection));
                }
                Request::SubmitBatch { entries }
            }
            REQ_POLL_EVENT => Request::PollEvent,
            REQ_ADVANCE_TO => Request::AdvanceTo { until: c.f64()? },
            other => return Err(FrameError::BadTag(other)),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// The state header piggybacked on this response, if it carries one
    /// (every variant except [`Response::Error`] does).
    pub fn header(&self) -> Option<&ResponseHeader> {
        match self {
            Response::HelloAck { header, .. }
            | Response::Ack { header, .. }
            | Response::Event { header, .. } => Some(header),
            Response::Error { .. } => None,
        }
    }

    /// The buffered-event list this response carries, if it carries one
    /// (every variant except [`Response::Error`] does).
    pub(crate) fn buffered_mut(&mut self) -> Option<&mut Vec<BufferedEvent>> {
        match self {
            Response::HelloAck { buffered, .. }
            | Response::Ack { buffered, .. }
            | Response::Event { buffered, .. } => Some(buffered),
            Response::Error { .. } => None,
        }
    }

    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Response::HelloAck {
                version,
                connections,
                shard_count,
                connections_per_shard,
                known_queries,
                header,
                buffered,
            } => {
                w.u8(RESP_HELLO_ACK);
                w.u16(*version);
                w.u32(*connections as u32);
                w.u32(*shard_count as u32);
                w.u32(*connections_per_shard as u32);
                match known_queries {
                    None => w.u8(0),
                    Some(n) => {
                        w.u8(1);
                        w.u32(*n as u32);
                    }
                }
                put_header(&mut w, header);
                put_buffered(&mut w, buffered);
            }
            Response::Ack { header, buffered } => {
                w.u8(RESP_ACK);
                put_header(&mut w, header);
                put_buffered(&mut w, buffered);
            }
            Response::Event {
                header,
                event,
                buffered,
            } => {
                w.u8(RESP_EVENT);
                put_header(&mut w, header);
                put_event(&mut w, event);
                put_buffered(&mut w, buffered);
            }
            Response::Error { code, detail } => {
                w.u8(RESP_ERROR);
                w.u8(code.to_u8());
                w.string(detail);
            }
        }
        w.into_payload()
    }

    /// Decode one frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self, FrameError> {
        let mut c = Cursor::new(payload);
        let resp = match c.u8()? {
            RESP_HELLO_ACK => {
                let version = c.u16()?;
                let connections = c.u32()? as usize;
                let shard_count = c.u32()? as usize;
                let connections_per_shard = c.u32()? as usize;
                let known_queries = match c.u8()? {
                    0 => None,
                    1 => Some(c.u32()? as usize),
                    other => return Err(FrameError::BadTag(other)),
                };
                Response::HelloAck {
                    version,
                    connections,
                    shard_count,
                    connections_per_shard,
                    known_queries,
                    header: get_header(&mut c)?,
                    buffered: get_buffered(&mut c)?,
                }
            }
            RESP_ACK => Response::Ack {
                header: get_header(&mut c)?,
                buffered: get_buffered(&mut c)?,
            },
            RESP_EVENT => Response::Event {
                header: get_header(&mut c)?,
                event: get_event(&mut c)?,
                buffered: get_buffered(&mut c)?,
            },
            RESP_ERROR => Response::Error {
                code: WireErrorCode::from_u8(c.u8()?)?,
                detail: c.string()?,
            },
            other => return Err(FrameError::BadTag(other)),
        };
        c.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn params() -> RunParams {
        RunParams {
            workers: 4,
            memory: MemoryGrant::High,
        }
    }

    /// One message of every request variant.
    pub(crate) fn sample_requests() -> Vec<Request> {
        vec![
            Request::Hello {
                magic: HANDSHAKE_MAGIC,
                version: PROTOCOL_VERSION,
            },
            Request::SubmitBatch {
                entries: vec![(QueryId(17), params(), 3)],
            },
            Request::SubmitBatch {
                entries: vec![
                    (QueryId(0), RunParams::default_config(), 0),
                    (QueryId(9), params(), 12),
                ],
            },
            Request::PollEvent,
            Request::AdvanceTo { until: 0.1 + 0.2 },
        ]
    }

    /// Every response variant, every slot and event shape, both shapes of
    /// the optional workload size, and buffered lists of 0, 1 and many
    /// entries.
    pub(crate) fn sample_responses() -> Vec<Response> {
        let header = ResponseHeader {
            now: 12.75,
            events_pending: true,
            stall: Some(AdvanceStall {
                now: 12.5,
                busy: 3,
                budget: 100,
            }),
            slots: vec![
                (0, ConnectionSlot::Free),
                (
                    2,
                    ConnectionSlot::Pending {
                        query: QueryId(5),
                        params: params(),
                        queued_at: 1.25,
                    },
                ),
                (
                    4,
                    ConnectionSlot::Busy {
                        query: QueryId(6),
                        params: RunParams::default_config(),
                        started_at: 2.5,
                    },
                ),
            ],
        };
        let completion = QueryCompletion {
            query: QueryId(6),
            connection: 4,
            params: params(),
            started_at: 2.5,
            finished_at: 7.125,
        };
        let one = BufferedEvent {
            header: ResponseHeader {
                now: 12.75,
                ..ResponseHeader::default()
            },
            event: ExecEvent::Completed(completion.clone()),
        };
        let many: Vec<BufferedEvent> = (0..5)
            .map(|i| BufferedEvent {
                header: ResponseHeader {
                    now: 12.75 + f64::from(i),
                    events_pending: i < 4,
                    stall: None,
                    slots: vec![(i as usize, ConnectionSlot::Free)],
                },
                event: ExecEvent::Completed(QueryCompletion {
                    connection: i as usize,
                    ..completion.clone()
                }),
            })
            .collect();
        vec![
            Response::HelloAck {
                version: PROTOCOL_VERSION,
                connections: 18,
                shard_count: 2,
                connections_per_shard: 9,
                known_queries: Some(22),
                header: header.clone(),
                buffered: Vec::new(),
            },
            Response::HelloAck {
                version: PROTOCOL_VERSION,
                connections: 4,
                shard_count: 1,
                connections_per_shard: 4,
                known_queries: None,
                header: ResponseHeader::default(),
                buffered: vec![one.clone()],
            },
            Response::Ack {
                header: header.clone(),
                buffered: Vec::new(),
            },
            Response::Ack {
                header: header.clone(),
                buffered: vec![one],
            },
            Response::Event {
                header,
                event: ExecEvent::Completed(completion),
                buffered: many,
            },
            Response::Event {
                header: ResponseHeader::default(),
                event: ExecEvent::Idle,
                buffered: Vec::new(),
            },
            Response::Error {
                code: WireErrorCode::SlotOccupied,
                detail: "connection 3 is busy".into(),
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let decoded = Request::decode(&req.encode()).expect("round trip");
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            let decoded = Response::decode(&resp.encode()).expect("round trip");
            assert_eq!(decoded, resp);
        }
    }

    #[test]
    fn the_entry_bound_covers_the_longest_entry() {
        // Every slot changed to its longest form, a stall diagnostic and a
        // completion: the worst case the server budgets for before a pop.
        let connections = 7;
        let busy = ConnectionSlot::Busy {
            query: QueryId(u32::MAX as usize),
            params: params(),
            started_at: 1.0,
        };
        let worst = BufferedEvent {
            header: ResponseHeader {
                now: 1.0,
                events_pending: true,
                stall: Some(AdvanceStall {
                    now: 1.0,
                    busy: 1,
                    budget: 1,
                }),
                slots: (0..connections).map(|c| (c, busy)).collect(),
            },
            event: ExecEvent::Completed(QueryCompletion {
                query: QueryId(0),
                connection: 0,
                params: params(),
                started_at: 0.0,
                finished_at: 1.0,
            }),
        };
        assert_eq!(
            worst.encoded_len(),
            BufferedEvent::max_encoded_len(connections)
        );
    }

    #[test]
    fn sealed_payloads_round_trip() {
        let msg = Request::PollEvent.encode();
        let sealed = seal(41, &msg);
        let (seq, rest) = unseal(&sealed).unwrap();
        assert_eq!(seq, 41);
        assert_eq!(rest, &msg[..]);
        assert_eq!(unseal(&sealed[..7]), Err(FrameError::Truncated));
    }

    #[test]
    fn virtual_time_round_trips_bit_exactly() {
        for v in [0.0, -0.0, 0.1 + 0.2, f64::MIN_POSITIVE, 1e300] {
            let req = Request::AdvanceTo { until: v };
            let Request::AdvanceTo { until } = Request::decode(&req.encode()).unwrap() else {
                panic!("wrong variant");
            };
            assert_eq!(until.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncated_payload_decodes_to_an_error() {
        let full = Request::SubmitBatch {
            entries: vec![(QueryId(1), params(), 0)],
        }
        .encode();
        for cut in 0..full.len() {
            let err = Request::decode(&full[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        // 0x07 and 0x85 were the retired `Topology` / `TopologyInfo` pair,
        // 0x02 the single-entry `Submit` retired in version 4, and 0x06 and
        // 0x84 the cancel request and its answer, retired in version 5: a
        // peer that still sends them gets the error any unknown tag gets.
        for tag in [0x02, 0x06, 0x07, 0x7F] {
            assert_eq!(Request::decode(&[tag]), Err(FrameError::BadTag(tag)));
        }
        for tag in [0x10, 0x84, 0x85] {
            assert_eq!(Response::decode(&[tag]), Err(FrameError::BadTag(tag)));
        }
        // Event tag 0 was the submission echo, retired in version 6. The
        // event byte sits just before the empty buffered list's count.
        let mut event = Response::Event {
            header: ResponseHeader::default(),
            event: ExecEvent::Idle,
            buffered: Vec::new(),
        }
        .encode();
        let at = event.len() - 5;
        assert_eq!(event[at], 2, "the Idle tag");
        event[at] = 0;
        assert_eq!(Response::decode(&event), Err(FrameError::BadTag(0)));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Request::PollEvent.encode();
        payload.push(0xFF);
        assert_eq!(
            Request::decode(&payload),
            Err(FrameError::BadValue("trailing bytes after message"))
        );
    }
}
