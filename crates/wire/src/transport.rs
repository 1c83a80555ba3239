//! Byte-stream transports with deterministic virtual-time delivery.
//!
//! A link is an ordered, reliable byte stream in each direction whose only
//! freedom is *when* (in virtual time) each transmitted chunk reaches the
//! peer. Each end of it is its own trait: [`WireTransport`] is the
//! client's end (send requests, receive responses) and [`ServerTransport`]
//! the server's (receive requests, send responses). The in-memory link
//! ([`InMemoryDuplex`]) holds both ends and delivers chunks verbatim with a
//! seeded, deterministic latency per chunk — zero for the byte-identical
//! configuration, or a fixed-plus-jitter distribution mirroring
//! `bq_adapter::DispatchProfile`'s deterministic streams for realistic wire
//! dynamics. Chunks are never reordered or dropped (TCP-like semantics);
//! delivery instants are monotone per direction. [`crate::Loopback`] puts
//! an in-process [`crate::WireServer`] on the far end of a duplex, so a
//! client drives it through its own end alone.
//!
//! [`crate::net`] implements each end over real TCP and Unix-domain
//! sockets: `SocketClient` is a client end and `ServerConn` a server end.
//! The only seam a blocking socket needs is
//! [`WireTransport::wait_for_client_data`]: an in-process link's deliveries
//! are synchronously available, so its default (`false`, nothing more is
//! coming) is exact, while the socket client blocks on the kernel there.

use bq_core::rng;
use std::collections::VecDeque;

/// Direction of one transmission, used to decorrelate the two latency
/// streams of a duplex link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client → server (requests).
    ToServer,
    /// Server → client (responses).
    ToClient,
}

impl Direction {
    fn salt(self) -> u64 {
        match self {
            Direction::ToServer => 0xA076_1D64_78BD_642F,
            Direction::ToClient => 0xE703_7ED1_A0B4_28DB,
        }
    }
}

/// Deterministic latency model of a transport link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportProfile {
    /// Deterministic floor of every chunk's transit latency, in virtual
    /// seconds.
    pub base_latency: f64,
    /// Width of the seeded uniform jitter added on top of the floor; `0.0`
    /// makes every latency exactly [`TransportProfile::base_latency`].
    pub jitter: f64,
    /// Seed of the jitter stream (latencies are a pure function of
    /// `(seed, direction, chunk index)`).
    pub seed: u64,
}

impl TransportProfile {
    /// The degenerate link: every chunk arrives the instant it is sent. A
    /// [`crate::WireBackend`] over this profile is byte-identical through
    /// the whole session stack to the bare backend.
    pub fn zero() -> Self {
        Self {
            base_latency: 0.0,
            jitter: 0.0,
            seed: 0,
        }
    }

    /// A fixed transit latency of `seconds` per chunk (no jitter).
    pub fn fixed(seconds: f64) -> Self {
        assert!(
            seconds >= 0.0 && seconds.is_finite(),
            "transit latency must be finite and non-negative"
        );
        Self {
            base_latency: seconds,
            ..Self::zero()
        }
    }

    /// Add a seeded uniform jitter of up to `seconds` on top of the base
    /// latency.
    // bq-lint: allow(dead-pub): perfbench calls `with_seed`, which seeds only this jitter
    pub fn with_jitter(mut self, seconds: f64) -> Self {
        assert!(
            seconds >= 0.0 && seconds.is_finite(),
            "jitter must be finite and non-negative"
        );
        self.jitter = seconds;
        self
    }

    /// Re-seed the jitter stream.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Transit latency of chunk number `index` in `direction` — a pure
    /// function of `(seed, direction, index)`, so wired episodes replay
    /// exactly.
    pub fn latency_for(&self, direction: Direction, index: u64) -> f64 {
        if self.jitter <= 0.0 {
            return self.base_latency.max(0.0);
        }
        let unit = rng::stream_unit(self.seed, direction.salt(), index, 0);
        (self.base_latency + self.jitter * unit).max(0.0)
    }
}

/// One chunk delivered by a transport: its bytes, arrival instant, and the
/// connection epoch it was carried on.
///
/// The epoch models connection identity: it starts at 0 and increments every
/// time the link is torn down and re-established (a fault-injecting
/// transport's disconnect, or a socket client's reconnect). Bytes from
/// different epochs never form one stream, so a receiver must reset its
/// [`crate::frame::FrameReader`] whenever the epoch changes — any partial
/// frame from the old connection is dead, never silently spliced onto new
/// bytes. Well-behaved transports stay on epoch 0 forever.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// The delivered bytes (chunk boundaries carry no framing meaning).
    pub bytes: Vec<u8>,
    /// Virtual arrival instant.
    pub at: f64,
    /// Connection epoch the chunk belongs to (monotone, starts at 0).
    pub epoch: u64,
}

impl Delivery {
    /// A chunk on the initial connection (epoch 0).
    pub fn initial(bytes: Vec<u8>, at: f64) -> Self {
        Self {
            bytes,
            at,
            epoch: 0,
        }
    }
}

/// One direction of a modeled link: stamps each chunk sent that way with
/// its arrival instant, `(now + latency).max(horizon)`, the latency drawn
/// from the profile by `(direction, chunk index)`. The clamp to the
/// direction's last arrival keeps arrivals monotone. Every transport stamps
/// through this type, so the in-memory link and both socket ends model a
/// link identically.
#[derive(Debug)]
pub(crate) struct ModeledDirection {
    pub(crate) profile: TransportProfile,
    direction: Direction,
    /// Chunks sent so far (the latency-stream index).
    pub(crate) sent: u64,
    /// Latest modeled arrival.
    pub(crate) horizon: f64,
}

impl ModeledDirection {
    pub(crate) fn new(profile: TransportProfile, direction: Direction) -> Self {
        Self {
            profile,
            direction,
            sent: 0,
            horizon: 0.0,
        }
    }

    /// The arrival instant of the next chunk, sent at `now`.
    pub(crate) fn stamp(&mut self, now: f64) -> f64 {
        let latency = self.profile.latency_for(self.direction, self.sent);
        self.sent += 1;
        let arrival = (now + latency).max(self.horizon);
        self.horizon = arrival;
        arrival
    }
}

/// The client's end of a link with virtual-time delivery.
///
/// `send_to_server` stamps the chunk with its (deterministic) arrival
/// instant and returns it; `recv_at_client` hands delivered chunks over in
/// transmission order, each with its arrival stamp and connection epoch.
/// Chunk boundaries carry no meaning — receivers reassemble frames with
/// [`crate::frame::FrameReader`], exactly as they would over a socket.
pub trait WireTransport {
    /// Transmit `bytes` client → server at virtual instant `now`; returns
    /// the arrival instant (≥ `now`, monotone across sends).
    fn send_to_server(&mut self, bytes: &[u8], now: f64) -> f64;

    /// Pop the next chunk delivered to the client.
    fn recv_at_client(&mut self) -> Option<Delivery>;

    /// Block until more client-bound data may be available, returning
    /// `true` when another [`WireTransport::recv_at_client`] drain is worth
    /// attempting and `false` when nothing more will arrive for this
    /// exchange (the client then falls back to its recovery policy, or —
    /// without one — treats the missing response as fatal).
    ///
    /// In-process links deliver synchronously, so the default is `false`:
    /// once a drain comes up empty, no amount of waiting produces more. A
    /// socket client overrides this with a bounded blocking read (and its
    /// reconnect machinery).
    fn wait_for_client_data(&mut self) -> bool {
        false
    }
}

/// The server's end of a link: the mirror image of [`WireTransport`], and
/// what [`crate::WireServer::service`] runs over.
pub trait ServerTransport {
    /// Pop the next chunk delivered to the server.
    fn recv_at_server(&mut self) -> Option<Delivery>;

    /// Transmit `bytes` server → client at virtual instant `now`; returns
    /// the arrival instant (≥ `now`, monotone across sends).
    fn send_to_client(&mut self, bytes: &[u8], now: f64) -> f64;
}

/// In-memory duplex link: both ends of one in-process link, delivering
/// chunks verbatim, in order, with the deterministic latency of its
/// [`TransportProfile`].
#[derive(Debug)]
pub struct InMemoryDuplex {
    to_server: ModeledDirection,
    to_client: ModeledDirection,
    server_inbox: VecDeque<(Vec<u8>, f64)>,
    client_inbox: VecDeque<(Vec<u8>, f64)>,
}

impl InMemoryDuplex {
    /// A link with the given latency model.
    pub fn new(profile: TransportProfile) -> Self {
        Self {
            to_server: ModeledDirection::new(profile, Direction::ToServer),
            to_client: ModeledDirection::new(profile, Direction::ToClient),
            server_inbox: VecDeque::new(),
            client_inbox: VecDeque::new(),
        }
    }

    /// The zero-latency link (the byte-identical configuration).
    pub fn lossless() -> Self {
        Self::new(TransportProfile::zero())
    }
}

impl WireTransport for InMemoryDuplex {
    fn send_to_server(&mut self, bytes: &[u8], now: f64) -> f64 {
        let arrival = self.to_server.stamp(now);
        self.server_inbox.push_back((bytes.to_vec(), arrival));
        arrival
    }

    fn recv_at_client(&mut self) -> Option<Delivery> {
        let (bytes, at) = self.client_inbox.pop_front()?;
        Some(Delivery::initial(bytes, at))
    }
}

impl ServerTransport for InMemoryDuplex {
    fn recv_at_server(&mut self) -> Option<Delivery> {
        let (bytes, at) = self.server_inbox.pop_front()?;
        Some(Delivery::initial(bytes, at))
    }

    fn send_to_client(&mut self, bytes: &[u8], now: f64) -> f64 {
        let arrival = self.to_client.stamp(now);
        self.client_inbox.push_back((bytes.to_vec(), arrival));
        arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_latency_delivers_at_the_send_instant() {
        let mut link = InMemoryDuplex::lossless();
        assert_eq!(link.send_to_server(b"abc", 1.5), 1.5);
        assert_eq!(link.send_to_client(b"xyz", 2.5), 2.5);
        assert_eq!(
            link.recv_at_server(),
            Some(Delivery::initial(b"abc".to_vec(), 1.5))
        );
        assert_eq!(
            link.recv_at_client(),
            Some(Delivery::initial(b"xyz".to_vec(), 2.5))
        );
        assert_eq!(link.recv_at_server(), None);
    }

    #[test]
    fn in_memory_links_never_leave_epoch_zero() {
        let mut link = InMemoryDuplex::lossless();
        for i in 0..8u8 {
            link.send_to_server(&[i], f64::from(i));
        }
        while let Some(d) = link.recv_at_server() {
            assert_eq!(d.epoch, 0);
        }
    }

    #[test]
    fn latencies_are_a_pure_function_of_seed_direction_and_index() {
        let p = TransportProfile::fixed(0.1).with_jitter(0.5).with_seed(7);
        assert_eq!(
            p.latency_for(Direction::ToServer, 3),
            p.latency_for(Direction::ToServer, 3)
        );
        assert_ne!(
            p.latency_for(Direction::ToServer, 3),
            p.latency_for(Direction::ToServer, 4)
        );
        assert_ne!(
            p.latency_for(Direction::ToServer, 3),
            p.latency_for(Direction::ToClient, 3),
            "the directions must draw from decorrelated streams"
        );
        assert_ne!(
            p.latency_for(Direction::ToServer, 3),
            p.with_seed(8).latency_for(Direction::ToServer, 3)
        );
        for i in 0..64 {
            let l = p.latency_for(Direction::ToServer, i);
            assert!((0.1..0.6).contains(&l), "latency {l} out of range");
        }
        assert_eq!(
            TransportProfile::fixed(0.25).latency_for(Direction::ToClient, 9),
            0.25
        );
    }

    #[test]
    fn arrivals_are_monotone_per_direction() {
        // A large-jitter profile would reorder arrivals if the link did not
        // clamp to the per-direction horizon.
        let mut link =
            InMemoryDuplex::new(TransportProfile::fixed(0.0).with_jitter(5.0).with_seed(3));
        let mut last = 0.0;
        for i in 0..32 {
            let arrival = link.send_to_server(&[i], 0.0);
            assert!(arrival >= last, "arrival {arrival} before {last}");
            last = arrival;
        }
        // Chunks pop in transmission order with their stamps.
        let mut prev = 0.0;
        while let Some(d) = link.recv_at_server() {
            assert!(d.at >= prev);
            prev = d.at;
        }
    }
}
