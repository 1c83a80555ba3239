//! Both ends of a link over real kernel sockets — TCP and Unix-domain — so
//! the engine can run as its own OS process behind `bq-serve`.
//! [`SocketClient`] is the client's end ([`WireTransport`]) and
//! [`ServerConn`], one accepted connection, the server's
//! ([`ServerTransport`]).
//!
//! # The carrier envelope
//!
//! The protocol's virtual-time determinism must survive the move onto a
//! real byte stream, where *wall* time between chunks says nothing about
//! *virtual* time. Each transmitted chunk therefore rides in a small
//! carrier envelope stamping the chunk with its **modeled** virtual
//! arrival instant, computed by the sender with the same per-direction
//! stamp [`InMemoryDuplex`] uses: `(now + latency).max(horizon)` with the
//! latency drawn from the link's [`TransportProfile`] by `(direction,
//! chunk index)`. The receiver surfaces the chunk as a [`Delivery`] at the
//! stamped instant, so everything above the transport — server clock
//! advancement, the client's observable-clock discipline, the transit
//! histograms — behaves identically to the in-memory link with the same
//! profile. Real kernel latency is observed separately, through an
//! injected [`WallClock`], and never feeds back into the episode.
//!
//! Envelope layout (all little-endian, preceded once per connection by the
//! [`PREAMBLE_LEN`]-byte transport preamble, which the server reads as the
//! connection's first bytes):
//!
//! ```text
//! [u64: IEEE-754 bits of the modeled arrival instant][u32: len][len bytes]
//! ```
//!
//! # Connection epochs and partial writes
//!
//! A socket teardown surfaces exactly like a [`ChaosTransport`]
//! disconnect: the client bumps its connection epoch on every successful
//! reconnect, deliveries carry the epoch, and both frame readers reset on
//! an epoch change. A write that dies partway (the kernel accepted a
//! prefix, then the connection failed) leaves a truncated envelope on the
//! wire; the truncated tail never completes, the peer observes EOF, and
//! the half-delivered exchange is simply *lost* — never corrupted framing
//! — to be restored by [`WireBackend::with_recovery`]'s retransmission
//! against a server that survives reconnects (`bq-serve
//! --single-session`). This is the observable behavior the chaos suite
//! pins for `FaultSpec::PartialWrite`/`Disconnect`, reproduced over real
//! sockets.
//!
//! [`ChaosTransport`]: https://docs.rs/bq-chaos
//! [`WireBackend::with_recovery`]: crate::WireBackend::with_recovery
//! [`InMemoryDuplex`]: crate::InMemoryDuplex
//! [`WallClock`]: bq_obs::WallClock

use crate::frame::{FRAME_HEADER_LEN, MAX_FRAME_LEN};
use crate::server::WireServer;
use crate::transport::{
    Delivery, Direction, ModeledDirection, ServerTransport, TransportProfile, WireTransport,
};
use bq_core::ExecutorBackend;
use bq_obs::{Obs, WallClock};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Magic prefix of the transport preamble (`"bqtp"` in ASCII).
pub const PREAMBLE_MAGIC: u32 = 0x6271_7470;

/// Size of the transport preamble each client transmits immediately after
/// connecting: magic `u32`, then the link's [`TransportProfile`] as
/// `base_latency` f64 bits, `jitter` f64 bits and `seed` u64 — all
/// little-endian. The accepting side adopts the profile for its
/// server→client direction, so both directions of one connection model the
/// same link, exactly like the in-memory duplex.
pub const PREAMBLE_LEN: usize = 28;

/// Size of the carrier-envelope header: arrival bits (8) + chunk length (4).
pub const ENVELOPE_HEADER_LEN: usize = 12;

/// Largest chunk an envelope may carry: one maximal frame. A larger length
/// prefix is corruption and tears the connection down.
pub const MAX_ENVELOPE_LEN: usize = MAX_FRAME_LEN + FRAME_HEADER_LEN;

/// Encode the transport preamble declaring `profile` as the link's latency
/// model (see [`PREAMBLE_LEN`] for the layout).
pub fn preamble(profile: &TransportProfile) -> [u8; PREAMBLE_LEN] {
    let mut out = [0u8; PREAMBLE_LEN];
    out[0..4].copy_from_slice(&PREAMBLE_MAGIC.to_le_bytes());
    out[4..12].copy_from_slice(&profile.base_latency.to_bits().to_le_bytes());
    out[12..20].copy_from_slice(&profile.jitter.to_bits().to_le_bytes());
    out[20..28].copy_from_slice(&profile.seed.to_le_bytes());
    out
}

/// Decode a transport preamble, rejecting a bad magic or a non-finite /
/// negative latency model (a NaN base latency would poison every modeled
/// arrival the connection ever stamps).
pub fn decode_preamble(bytes: &[u8; PREAMBLE_LEN]) -> Result<TransportProfile, String> {
    let mut u32buf = [0u8; 4];
    u32buf.copy_from_slice(&bytes[0..4]);
    let magic = u32::from_le_bytes(u32buf);
    if magic != PREAMBLE_MAGIC {
        return Err(format!("bad preamble magic {magic:#010x}"));
    }
    let mut u64buf = [0u8; 8];
    u64buf.copy_from_slice(&bytes[4..12]);
    let base_latency = f64::from_bits(u64::from_le_bytes(u64buf));
    u64buf.copy_from_slice(&bytes[12..20]);
    let jitter = f64::from_bits(u64::from_le_bytes(u64buf));
    u64buf.copy_from_slice(&bytes[20..28]);
    let seed = u64::from_le_bytes(u64buf);
    if !base_latency.is_finite() || base_latency < 0.0 || !jitter.is_finite() || jitter < 0.0 {
        return Err(format!(
            "preamble latency model must be finite and non-negative \
             (base {base_latency}, jitter {jitter})"
        ));
    }
    Ok(TransportProfile {
        base_latency,
        jitter,
        seed,
    })
}

/// Wrap one transmitted chunk in its carrier envelope (see the
/// [module docs](self) for the layout).
pub fn envelope(arrival: f64, chunk: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_HEADER_LEN + chunk.len());
    out.extend_from_slice(&arrival.to_bits().to_le_bytes());
    out.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
    out.extend_from_slice(chunk);
    out
}

/// Reassembles carrier envelopes from an arbitrarily-chunked byte stream —
/// the envelope-layer analogue of [`crate::frame::FrameReader`].
#[derive(Debug, Default)]
pub(crate) struct EnvelopeReader {
    buf: Vec<u8>,
}

impl EnvelopeReader {
    pub(crate) fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete envelope as `(arrival, chunk)`, `Ok(None)`
    /// when more bytes are needed, or `Err` on corruption (oversized
    /// length, non-finite arrival stamp) — after which the stream is
    /// uninterpretable and the connection must be torn down.
    pub(crate) fn next_envelope(&mut self) -> Result<Option<(f64, Vec<u8>)>, String> {
        if self.buf.len() < ENVELOPE_HEADER_LEN {
            return Ok(None);
        }
        let mut bits = [0u8; 8];
        bits.copy_from_slice(&self.buf[0..8]);
        let arrival = f64::from_bits(u64::from_le_bytes(bits));
        let mut len_bytes = [0u8; 4];
        len_bytes.copy_from_slice(&self.buf[8..12]);
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > MAX_ENVELOPE_LEN {
            self.buf.clear();
            return Err(format!(
                "envelope of {len} bytes exceeds the {MAX_ENVELOPE_LEN}-byte cap"
            ));
        }
        if !arrival.is_finite() {
            self.buf.clear();
            return Err(format!("non-finite envelope arrival stamp {arrival}"));
        }
        if self.buf.len() < ENVELOPE_HEADER_LEN + len {
            return Ok(None);
        }
        let chunk = self.buf[ENVELOPE_HEADER_LEN..ENVELOPE_HEADER_LEN + len].to_vec();
        self.buf.drain(..ENVELOPE_HEADER_LEN + len);
        Ok(Some((arrival, chunk)))
    }

    /// Pop the transport preamble off the front of the stream: `None`
    /// until all [`PREAMBLE_LEN`] bytes are in, then the decoded profile or
    /// the reason it is unacceptable.
    pub(crate) fn take_preamble(&mut self) -> Option<Result<TransportProfile, String>> {
        let mut bytes = [0u8; PREAMBLE_LEN];
        bytes.copy_from_slice(self.buf.get(..PREAMBLE_LEN)?);
        self.buf.drain(..PREAMBLE_LEN);
        Some(decode_preamble(&bytes))
    }

    fn reset(&mut self) {
        self.buf.clear();
    }
}

/// Either kind of connected socket, unified behind blocking reads/writes
/// with a read timeout.
#[derive(Debug)]
enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn set_read_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(Some(timeout)),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(Some(timeout)),
        }
    }
}

/// Push every byte of `bytes` into the stream, retrying interrupted and
/// would-block writes. An error means the connection died with an unknown
/// prefix of the bytes delivered — the socket form of a partial write.
fn write_fully(stream: &mut Stream, bytes: &[u8]) -> std::io::Result<()> {
    let mut written = 0;
    while written < bytes.len() {
        match stream.write(&bytes[written..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::WriteZero,
                    "socket accepted zero bytes",
                ))
            }
            Ok(n) => written += n,
            Err(e) if matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::WouldBlock) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn is_read_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Where a [`SocketClient`] connects, or a [`ServerSocket`] listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address (`host:port`).
    Tcp(String),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Uds(PathBuf),
}

impl Endpoint {
    /// A TCP endpoint.
    pub fn tcp(addr: impl Into<String>) -> Self {
        Endpoint::Tcp(addr.into())
    }

    /// A Unix-domain-socket endpoint.
    #[cfg(unix)]
    pub fn uds(path: impl Into<PathBuf>) -> Self {
        Endpoint::Uds(path.into())
    }

    fn connect(&self) -> std::io::Result<Stream> {
        match self {
            Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(Stream::Tcp),
            #[cfg(unix)]
            Endpoint::Uds(path) => UnixStream::connect(path).map(Stream::Unix),
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            #[cfg(unix)]
            Endpoint::Uds(path) => write!(f, "uds://{}", path.display()),
        }
    }
}

/// Consecutive silent reads a [`SocketClient`] tolerates before it declares
/// an exchange lost (total patience = `WAIT_BUDGET x read_timeout`).
const WAIT_BUDGET: u32 = 100;

/// The client's end of a socket link: a [`WireTransport`] whose peer is a
/// `bq-serve` process on the far side of a TCP or Unix-domain socket.
///
/// Virtual time flows through the carrier envelope (see the
/// [module docs](self)); wall time is observed only through the injected
/// [`WallClock`] (if any) into the `wire_rtt_wall` histogram, and never
/// influences the episode. On connection loss the client reconnects (with
/// a bounded, paused retry loop), bumps its connection epoch, and reports
/// the in-flight exchange lost so [`WireBackend::with_recovery`]
/// retransmits it.
///
/// [`WireBackend::with_recovery`]: crate::WireBackend::with_recovery
pub struct SocketClient {
    endpoint: Endpoint,
    stream: Option<Stream>,
    /// The modeled client→server direction (its profile is the one the
    /// preamble declares).
    to_server: ModeledDirection,
    /// Connection epoch: 0 on the first connection, +1 per reconnect.
    epoch: u64,
    reader: EnvelopeReader,
    inbox: VecDeque<Delivery>,
    read_timeout: Duration,
    reconnect_attempts: u32,
    reconnect_pause: Duration,
    clock: Option<Box<dyn WallClock + Send>>,
    /// Wall-clock send stamps awaiting their response envelope.
    rtt_stamps: VecDeque<f64>,
    obs: Obs,
}

impl std::fmt::Debug for SocketClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketClient")
            .field("endpoint", &self.endpoint)
            .field("connected", &self.stream.is_some())
            .field("epoch", &self.epoch)
            .field("sent_to_server", &self.to_server.sent)
            .finish_non_exhaustive()
    }
}

impl SocketClient {
    /// Connect to `endpoint` and transmit the transport preamble declaring
    /// `profile` as the link's latency model. The initial connect retries
    /// on the same bounded schedule as reconnects (default: 40 attempts,
    /// 250 ms apart), so a client racing a just-spawned server converges.
    pub fn connect(endpoint: Endpoint, profile: TransportProfile) -> std::io::Result<Self> {
        let mut client = Self {
            endpoint,
            stream: None,
            to_server: ModeledDirection::new(profile, Direction::ToServer),
            epoch: 0,
            reader: EnvelopeReader::default(),
            inbox: VecDeque::new(),
            read_timeout: Duration::from_millis(100),
            reconnect_attempts: 40,
            reconnect_pause: Duration::from_millis(250),
            clock: None,
            rtt_stamps: VecDeque::new(),
            obs: Obs::off(),
        };
        let mut attempt = 0;
        loop {
            match client.establish() {
                Ok(()) => return Ok(client),
                Err(err) => {
                    attempt += 1;
                    if attempt > client.reconnect_attempts {
                        return Err(err);
                    }
                    std::thread::sleep(client.reconnect_pause);
                }
            }
        }
    }

    /// Override the per-read timeout (default 100 ms). Total patience per
    /// exchange is `read_timeout x WAIT_BUDGET` (100 silent reads).
    // bq-lint: allow(dead-pub): operator setting documented in docs/OPERATIONS.md
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Override the reconnect schedule (default 40 attempts, 250 ms apart).
    // bq-lint: allow(dead-pub): operator setting documented in docs/OPERATIONS.md
    pub fn with_reconnect(mut self, attempts: u32, pause: Duration) -> Self {
        self.reconnect_attempts = attempts;
        self.reconnect_pause = pause;
        self
    }

    /// Inject a wall clock: every response envelope then records the real
    /// kernel round-trip of its exchange into the `wire_rtt_wall`
    /// histogram of the installed [`Obs`]. Reporting-only — wall time
    /// never reaches the episode.
    pub fn with_wall_clock(mut self, clock: Box<dyn WallClock + Send>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Observe the socket through `obs`: the `wire_rtt_wall` histogram
    /// (with an injected clock) and the `wire_reconnects` counter.
    pub fn set_obs(&mut self, obs: Obs) {
        obs.preregister(&["wire_reconnects"], &["wire_rtt_wall"]);
        self.obs = obs;
    }

    /// One connection attempt: dial, set the read timeout, send the
    /// preamble.
    fn establish(&mut self) -> std::io::Result<()> {
        let mut stream = self.endpoint.connect()?;
        stream.set_read_timeout(self.read_timeout)?;
        write_fully(&mut stream, &preamble(&self.to_server.profile))?;
        self.stream = Some(stream);
        Ok(())
    }

    /// Drop the connection: any partially received envelope is dead, and
    /// the wall stamps of in-flight exchanges will never pair.
    fn teardown(&mut self) {
        self.stream = None;
        self.reader.reset();
        self.rtt_stamps.clear();
    }

    /// Bounded, paused reconnect loop. A success bumps the epoch: the new
    /// socket is a new connection, and deliveries on it must not splice
    /// onto frames from the old one.
    fn reconnect(&mut self) -> bool {
        for _ in 0..self.reconnect_attempts {
            std::thread::sleep(self.reconnect_pause);
            if self.establish().is_ok() {
                self.epoch += 1;
                self.obs.inc("wire_reconnects");
                return true;
            }
        }
        false
    }

    /// Decode every complete envelope out of `bytes` into the inbox,
    /// stamping the current epoch. Corruption tears the connection down.
    fn ingest(&mut self, bytes: &[u8]) {
        self.reader.feed(bytes);
        loop {
            match self.reader.next_envelope() {
                Ok(Some((arrival, chunk))) => {
                    if let (Some(clock), Some(stamp)) = (&self.clock, self.rtt_stamps.pop_front()) {
                        self.obs
                            .observe("wire_rtt_wall", clock.now_seconds() - stamp);
                    }
                    self.inbox.push_back(Delivery {
                        bytes: chunk,
                        at: arrival,
                        epoch: self.epoch,
                    });
                }
                Ok(None) => return,
                Err(_) => {
                    // The stream is uninterpretable; everything still in
                    // flight is lost, like a mid-stream disconnect.
                    self.teardown();
                    return;
                }
            }
        }
    }
}

impl WireTransport for SocketClient {
    fn send_to_server(&mut self, bytes: &[u8], now: f64) -> f64 {
        let arrival = self.to_server.stamp(now);
        if let Some(clock) = &self.clock {
            self.rtt_stamps.push_back(clock.now_seconds());
        }
        let carried = envelope(arrival, bytes);
        if let Some(stream) = &mut self.stream {
            if write_fully(stream, &carried).is_err() {
                // The connection died mid-write: the peer holds an unknown
                // prefix of the envelope (the partial-write shape). The
                // sender learns nothing — exactly like a write into a
                // dying TCP connection — and the exchange is recovered by
                // retransmission after the reconnect.
                self.teardown();
            }
        }
        // With no connection the chunk is silently lost, matching the
        // chaos transport's outage-window semantics.
        arrival
    }

    fn recv_at_client(&mut self) -> Option<Delivery> {
        self.inbox.pop_front()
    }

    fn wait_for_client_data(&mut self) -> bool {
        if self.stream.is_none() {
            // Re-establish first, then report the in-flight exchange lost:
            // whatever was pending died with the old connection, and the
            // caller must retransmit over the new epoch.
            self.reconnect();
            return false;
        }
        let mut silent = 0u32;
        while silent < WAIT_BUDGET {
            let Some(stream) = self.stream.as_mut() else {
                return false;
            };
            let mut buf = [0u8; 16 * 1024];
            match stream.read(&mut buf) {
                Ok(0) => {
                    // EOF: the server hung up. Reconnect for the
                    // retransmission, but this exchange is lost.
                    self.teardown();
                    self.reconnect();
                    return false;
                }
                Ok(n) => {
                    self.ingest(&buf[..n]);
                    if !self.inbox.is_empty() {
                        return true;
                    }
                    // A partial envelope is progress, not silence.
                    silent = 0;
                }
                Err(e) if is_read_timeout(&e) => silent += 1,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.teardown();
                    self.reconnect();
                    return false;
                }
            }
        }
        false
    }
}

/// The listening half of a socket transport: accepts connections and hands
/// each one out as a [`ServerConn`].
///
/// Binding a Unix-domain socket claims the path; dropping the
/// `ServerSocket` removes it again, so a cleanly shut-down `bq-serve`
/// leaves no stale socket file behind.
#[derive(Debug)]
pub struct ServerSocket {
    listener: Listener,
    /// Connections accepted so far — the epoch assigned to the next one,
    /// so a server session persisting across reconnects always sees a
    /// fresh epoch per accepted connection.
    accepted: u64,
    #[cfg(unix)]
    uds_path: Option<PathBuf>,
}

#[derive(Debug)]
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl ServerSocket {
    /// Listen on a TCP address (`127.0.0.1:0` picks an ephemeral port;
    /// read it back with [`ServerSocket::local_addr`]).
    pub fn bind_tcp(addr: &str) -> std::io::Result<Self> {
        Ok(Self {
            listener: Listener::Tcp(TcpListener::bind(addr)?),
            accepted: 0,
            #[cfg(unix)]
            uds_path: None,
        })
    }

    /// Listen on a Unix-domain socket path, replacing a stale socket file
    /// left by a crashed predecessor.
    #[cfg(unix)]
    pub fn bind_uds(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        if path.exists() {
            std::fs::remove_file(&path)?;
        }
        Ok(Self {
            listener: Listener::Unix(UnixListener::bind(&path)?),
            accepted: 0,
            uds_path: Some(path),
        })
    }

    /// The bound address, as a display string (`host:port` for TCP, the
    /// path for UDS).
    pub fn local_addr(&self) -> String {
        match &self.listener {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<unbound>".to_string()),
            #[cfg(unix)]
            Listener::Unix(_) => self
                .uds_path
                .as_ref()
                .map(|p| p.display().to_string())
                .unwrap_or_else(|| "<unbound>".to_string()),
        }
    }

    /// Connections accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Block until the next client connects and hand the connection out at
    /// once; its transport preamble is read by [`ServerConn::fill`], so a
    /// silent client holds up only its own connection. The assigned epoch
    /// is the accept ordinal, so a [`WireServer`] persisting across
    /// connections resets its frame reader on each new one.
    pub fn accept(&mut self) -> std::io::Result<ServerConn> {
        let stream = match &self.listener {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                Stream::Tcp(s)
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                Stream::Unix(s)
            }
        };
        stream.set_read_timeout(Duration::from_millis(100))?;
        let epoch = self.accepted;
        self.accepted += 1;
        Ok(ServerConn {
            stream: Some(stream),
            awaiting_preamble: true,
            // The preamble replaces the profile before anything is sent.
            to_client: ModeledDirection::new(TransportProfile::zero(), Direction::ToClient),
            epoch,
            reader: EnvelopeReader::default(),
            inbox: VecDeque::new(),
            received_chunks: 0,
        })
    }
}

impl Drop for ServerSocket {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Some(path) = &self.uds_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Outcome of one [`ServerConn::fill`] read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillOutcome {
    /// At least one complete request chunk was ingested — service it.
    Data,
    /// The read timed out with nothing (or only a partial preamble or
    /// envelope) received; the connection is still healthy.
    Quiet,
    /// The peer hung up, sent an unacceptable preamble, or the stream turned
    /// uninterpretable; this connection is finished.
    Closed,
}

/// One accepted connection: the server's end of a socket link, which a
/// [`WireServer`] is pumped over by `bq-serve`'s accept loop.
///
/// The server→client direction state (chunk index and arrival horizon) is
/// exposed so a single engine session served across reconnects can carry
/// it from one connection to the next, exactly like the in-memory link
/// persisting across a chaos-transport disconnect.
#[derive(Debug)]
pub struct ServerConn {
    stream: Option<Stream>,
    /// Whether the transport preamble has yet to arrive; the connection
    /// carries envelopes only after it.
    awaiting_preamble: bool,
    /// The modeled server→client direction, with the latency model the
    /// client's preamble declares.
    to_client: ModeledDirection,
    epoch: u64,
    reader: EnvelopeReader,
    inbox: VecDeque<Delivery>,
    received_chunks: u64,
}

impl ServerConn {
    /// Complete request chunks received on this connection.
    pub fn received_chunks(&self) -> u64 {
        self.received_chunks
    }

    /// The server→client direction state `(chunk index, arrival horizon)`
    /// — carry it into [`ServerConn::adopt_direction`] on the next
    /// connection when one engine session spans reconnects.
    pub fn direction_state(&self) -> (u64, f64) {
        (self.to_client.sent, self.to_client.horizon)
    }

    /// Continue the server→client latency stream of a previous connection
    /// (see [`ServerConn::direction_state`]).
    pub fn adopt_direction(&mut self, (sent, horizon): (u64, f64)) {
        self.to_client.sent = sent;
        self.to_client.horizon = horizon;
    }

    /// Actively close the connection (server-initiated disconnect — the
    /// restart-mid-episode tests use this).
    pub fn shutdown(&mut self) {
        self.stream = None;
        self.reader.reset();
    }

    /// One blocking read: ingest whatever arrived into the inbox. The
    /// connection's first [`PREAMBLE_LEN`] bytes are the transport
    /// preamble, whose latency model then drives the server→client
    /// direction; a bad magic or latency model closes the connection. The
    /// accept-loop idiom is `fill` → [`WireServer::service`] on
    /// [`FillOutcome::Data`], stop on [`FillOutcome::Closed`].
    pub fn fill(&mut self) -> FillOutcome {
        let Some(stream) = self.stream.as_mut() else {
            return FillOutcome::Closed;
        };
        let mut buf = [0u8; 16 * 1024];
        match stream.read(&mut buf) {
            Ok(0) => {
                self.shutdown();
                FillOutcome::Closed
            }
            Ok(n) => {
                self.reader.feed(&buf[..n]);
                if self.awaiting_preamble {
                    match self.reader.take_preamble() {
                        None => return FillOutcome::Quiet,
                        Some(Ok(profile)) => {
                            self.to_client.profile = profile;
                            self.awaiting_preamble = false;
                        }
                        Some(Err(_)) => {
                            self.shutdown();
                            return FillOutcome::Closed;
                        }
                    }
                }
                let mut got = false;
                loop {
                    match self.reader.next_envelope() {
                        Ok(Some((arrival, chunk))) => {
                            self.received_chunks += 1;
                            self.inbox.push_back(Delivery {
                                bytes: chunk,
                                at: arrival,
                                epoch: self.epoch,
                            });
                            got = true;
                        }
                        Ok(None) => break,
                        Err(_) => {
                            self.shutdown();
                            // Chunks already decoded are still serviceable.
                            return if got {
                                FillOutcome::Data
                            } else {
                                FillOutcome::Closed
                            };
                        }
                    }
                }
                if got {
                    FillOutcome::Data
                } else {
                    FillOutcome::Quiet
                }
            }
            Err(e) if is_read_timeout(&e) => FillOutcome::Quiet,
            Err(e) if e.kind() == ErrorKind::Interrupted => FillOutcome::Quiet,
            Err(_) => {
                self.shutdown();
                FillOutcome::Closed
            }
        }
    }
}

impl ServerTransport for ServerConn {
    fn recv_at_server(&mut self) -> Option<Delivery> {
        self.inbox.pop_front()
    }

    fn send_to_client(&mut self, bytes: &[u8], now: f64) -> f64 {
        let arrival = self.to_client.stamp(now);
        let carried = envelope(arrival, bytes);
        if let Some(stream) = &mut self.stream {
            if write_fully(stream, &carried).is_err() {
                // The response is lost with the dying connection; the
                // client will retransmit and the server's cached-response
                // replay answers it on the next connection.
                self.shutdown();
            }
        }
        arrival
    }
}

/// Pump `server` over one accepted connection until the peer hangs up or
/// the connection stays silent for `idle_budget` consecutive quiet reads
/// (each one read-timeout long). Returns the number of request chunks
/// serviced.
pub fn serve_connection<B: ExecutorBackend>(
    server: &mut WireServer<B>,
    conn: &mut ServerConn,
    idle_budget: u32,
) -> u64 {
    let mut quiet = 0u32;
    loop {
        match conn.fill() {
            FillOutcome::Data => {
                quiet = 0;
                server.service(conn);
            }
            FillOutcome::Quiet => {
                quiet += 1;
                if quiet >= idle_budget {
                    return conn.received_chunks();
                }
            }
            FillOutcome::Closed => return conn.received_chunks(),
        }
    }
}

/// A [`crate::WireBackend`] whose engine lives in another OS process,
/// reached over a [`SocketClient`].
pub type RemoteBackend = crate::WireBackend<SocketClient>;

/// Handshake against a remote `bq-serve` process over `client` and return
/// the connected backend. Everything the session needs — connection count,
/// shard topology, workload size — comes from the remote `HelloAck`.
pub fn connect_remote(client: SocketClient) -> Result<RemoteBackend, crate::WireError> {
    crate::WireBackend::connect(client)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelopes_reassemble_across_arbitrary_chunk_boundaries() {
        let a = envelope(1.5, b"hello");
        let b = envelope(2.25, b"");
        let mut stream: Vec<u8> = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);
        // Feed one byte at a time — the worst segmentation a socket can do.
        let mut reader = EnvelopeReader::default();
        let mut out = Vec::new();
        for byte in stream {
            reader.feed(&[byte]);
            while let Some(env) = reader.next_envelope().expect("clean stream") {
                out.push(env);
            }
        }
        assert_eq!(
            out,
            vec![(1.5, b"hello".to_vec()), (2.25, Vec::new())],
            "arrival stamps and chunks must survive byte-level segmentation"
        );
    }

    #[test]
    fn corrupt_envelopes_are_rejected_not_misread() {
        // Oversized length prefix.
        let mut reader = EnvelopeReader::default();
        let mut bytes = envelope(1.0, b"x");
        bytes[8..12].copy_from_slice(&(u32::MAX).to_le_bytes());
        reader.feed(&bytes);
        assert!(reader.next_envelope().is_err());
        // Non-finite arrival stamp.
        let mut reader = EnvelopeReader::default();
        let mut bytes = envelope(1.0, b"x");
        bytes[0..8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        reader.feed(&bytes);
        assert!(reader.next_envelope().is_err());
    }

    #[test]
    fn preamble_round_trips_the_latency_model() {
        let profile = TransportProfile::fixed(0.05).with_jitter(0.01).with_seed(9);
        let decoded = decode_preamble(&preamble(&profile)).expect("round trip");
        assert_eq!(decoded, profile);
        // Bad magic and non-finite latencies are rejected.
        let mut bad = preamble(&profile);
        bad[0] ^= 0xFF;
        assert!(decode_preamble(&bad).is_err());
        let mut nan = preamble(&profile);
        nan[4..12].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(decode_preamble(&nan).is_err());
    }
}
