//! [`ChaosTransport`]: a decorator over both ends of an in-process link
//! ([`WireTransport`] and [`ServerTransport`]) that injects the
//! transport-layer faults of a [`FaultSchedule`] — outage windows that drop
//! chunks and tear the connection down, a partial write that truncates a
//! frame mid-chunk, and congestion windows that delay chunks — while staying
//! a byte-identical passthrough under the empty schedule. A
//! [`bq_wire::Loopback`] hosts the server on its far end.
//!
//! Connection teardowns surface to both endpoints as an **epoch bump** on
//! subsequent deliveries (see [`bq_wire::Delivery`]): the frame readers on
//! either side reset on the epoch change, so a truncated write is observed
//! as a cleanly lost frame — never as corrupted framing — and the client's
//! retransmission machinery (`WireBackend::with_recovery`) restores the
//! exchange.

use crate::schedule::{FaultSchedule, FaultSpec};
use bq_core::rng;
use bq_wire::{Delivery, InMemoryDuplex, ServerTransport, WireTransport};
use std::collections::VecDeque;

/// Salt of the truncation-length stream.
const TRUNCATE_SALT: u64 = 0x5F20_C4B9_8E67_D1A3;

/// Injects a [`FaultSchedule`]'s transport faults over an inner link that
/// carries both ends (see the [module docs](self)).
#[derive(Debug)]
pub struct ChaosTransport<T> {
    inner: T,
    seed: u64,
    /// Outage windows `(start, end)`, sorted by start.
    disconnects: Vec<(f64, f64)>,
    /// Armed truncation instants, sorted.
    partial_writes: Vec<f64>,
    /// Congestion windows `(start, end, extra)`, sorted by start.
    spikes: Vec<(f64, f64, f64)>,
    /// Outage windows already fully in the past (each bumped the epoch).
    passed_windows: usize,
    /// Truncations already fired.
    fired_truncations: usize,
    /// Current connection epoch, added onto the inner transport's own.
    epoch: u64,
    /// Epoch each in-flight client→server chunk was sent under (the inner
    /// transport is FIFO per direction, so a queue stays aligned).
    epochs_to_server: VecDeque<u64>,
    /// Epoch each in-flight server→client chunk was sent under.
    epochs_to_client: VecDeque<u64>,
}

impl ChaosTransport<InMemoryDuplex> {
    /// The schedule's transport faults over a zero-latency in-memory link.
    pub fn lossless(schedule: &FaultSchedule, seed: u64) -> Self {
        Self::new(InMemoryDuplex::lossless(), schedule, seed)
    }
}

impl<T: WireTransport + ServerTransport> ChaosTransport<T> {
    /// Decorate `inner` with the transport faults of `schedule`. `seed`
    /// drives the truncation-length stream (every other instant comes from
    /// the schedule itself).
    pub fn new(inner: T, schedule: &FaultSchedule, seed: u64) -> Self {
        let mut disconnects = Vec::new();
        let mut partial_writes = Vec::new();
        let mut spikes = Vec::new();
        for event in schedule.transport_events() {
            match event {
                FaultSpec::Disconnect { at, duration } => disconnects.push((at, at + duration)),
                FaultSpec::PartialWrite { at } => partial_writes.push(at),
                FaultSpec::LatencySpike {
                    at,
                    duration,
                    extra,
                } => spikes.push((at, at + duration, extra)),
                // bq-lint: allow(panic-surface): transport_events() yields only transport faults; locally provable
                other => unreachable!("transport_events filtered: {other:?}"),
            }
        }
        // The schedule is sorted by onset, so the per-class lists are too.
        Self {
            inner,
            seed,
            disconnects,
            partial_writes,
            spikes,
            passed_windows: 0,
            fired_truncations: 0,
            epoch: 0,
            epochs_to_server: VecDeque::new(),
            epochs_to_client: VecDeque::new(),
        }
    }

    /// Bump the epoch once for every outage window now fully in the past:
    /// the connection re-established after each.
    fn roll_epoch(&mut self, now: f64) {
        while self
            .disconnects
            .get(self.passed_windows)
            .is_some_and(|&(_, end)| end <= now)
        {
            self.epoch += 1;
            self.passed_windows += 1;
        }
    }

    /// Whether the link is inside an outage window at `now`.
    fn link_down(&self, now: f64) -> bool {
        self.disconnects
            .get(self.passed_windows)
            .is_some_and(|&(start, end)| now >= start && now < end)
    }

    /// Extra transit delay a chunk sent at `now` suffers.
    fn spike_extra(&self, now: f64) -> f64 {
        self.spikes
            .iter()
            .filter(|&&(start, end, _)| now >= start && now < end)
            .map(|&(_, _, extra)| extra)
            .sum()
    }

    /// Seeded truncation length for the `index`-th partial write: keeps at
    /// least one byte and drops at least one, so the cut is always mid-chunk.
    fn truncated_len(&self, index: usize, len: usize) -> usize {
        debug_assert!(len >= 2);
        let unit = rng::stream_unit(self.seed, TRUNCATE_SALT, index as u64, 0);
        1 + ((unit * (len - 1) as f64) as usize).min(len - 2)
    }
}

impl<T: WireTransport + ServerTransport> WireTransport for ChaosTransport<T> {
    fn send_to_server(&mut self, bytes: &[u8], now: f64) -> f64 {
        self.roll_epoch(now);
        if self.link_down(now) {
            // The chunk is lost in the outage; the sender learns nothing
            // (exactly like a write into a dying TCP connection).
            return now;
        }
        if self
            .partial_writes
            .get(self.fired_truncations)
            .is_some_and(|&at| now >= at)
        {
            let index = self.fired_truncations;
            self.fired_truncations += 1;
            if bytes.len() >= 2 {
                // Deliver a strict prefix under the old epoch, then tear the
                // connection down: the receiver buffers a partial frame it
                // will discard on the next delivery's epoch bump.
                let keep = self.truncated_len(index, bytes.len());
                let arrival = self.inner.send_to_server(&bytes[..keep], now);
                self.epochs_to_server.push_back(self.epoch);
                self.epoch += 1;
                return arrival;
            }
            // Nothing to cut mid-chunk: the whole write is lost with the
            // connection.
            self.epoch += 1;
            return now;
        }
        let arrival = self
            .inner
            .send_to_server(bytes, now + self.spike_extra(now));
        self.epochs_to_server.push_back(self.epoch);
        arrival
    }

    fn recv_at_client(&mut self) -> Option<Delivery> {
        let mut delivery = self.inner.recv_at_client()?;
        delivery.epoch += self
            .epochs_to_client
            .pop_front()
            // bq-lint: allow(panic-surface): send_to_client queues exactly one epoch per forwarded chunk; locally provable pairing
            .expect("every forwarded chunk queued its epoch");
        Some(delivery)
    }
}

impl<T: WireTransport + ServerTransport> ServerTransport for ChaosTransport<T> {
    fn recv_at_server(&mut self) -> Option<Delivery> {
        let mut delivery = self.inner.recv_at_server()?;
        delivery.epoch += self
            .epochs_to_server
            .pop_front()
            // bq-lint: allow(panic-surface): send_to_server queues exactly one epoch per forwarded chunk; locally provable pairing
            .expect("every forwarded chunk queued its epoch");
        Some(delivery)
    }

    fn send_to_client(&mut self, bytes: &[u8], now: f64) -> f64 {
        self.roll_epoch(now);
        if self.link_down(now) {
            return now;
        }
        let arrival = self
            .inner
            .send_to_client(bytes, now + self.spike_extra(now));
        self.epochs_to_client.push_back(self.epoch);
        arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule_of(events: Vec<FaultSpec>) -> FaultSchedule {
        FaultSchedule::from_events(events)
    }

    #[test]
    fn empty_schedule_is_a_verbatim_passthrough() {
        let mut chaos = ChaosTransport::lossless(&FaultSchedule::empty(), 0);
        let mut plain = InMemoryDuplex::lossless();
        for i in 0..8u8 {
            let at = f64::from(i) * 0.5;
            assert_eq!(
                chaos.send_to_server(&[i, i + 1], at),
                plain.send_to_server(&[i, i + 1], at)
            );
            assert_eq!(
                chaos.send_to_client(&[i], at),
                plain.send_to_client(&[i], at)
            );
        }
        loop {
            let (c, p) = (chaos.recv_at_server(), plain.recv_at_server());
            assert_eq!(c, p);
            if c.is_none() {
                break;
            }
        }
        loop {
            let (c, p) = (chaos.recv_at_client(), plain.recv_at_client());
            assert_eq!(c, p);
            if c.is_none() {
                break;
            }
        }
    }

    #[test]
    fn outage_windows_drop_chunks_and_bump_the_epoch_after() {
        let s = schedule_of(vec![FaultSpec::Disconnect {
            at: 1.0,
            duration: 1.0,
        }]);
        let mut t = ChaosTransport::lossless(&s, 0);
        t.send_to_server(b"before", 0.5);
        t.send_to_server(b"inside", 1.5); // lost
        t.send_to_server(b"after", 2.5);
        let first = t.recv_at_server().expect("pre-outage chunk");
        assert_eq!((first.bytes.as_slice(), first.epoch), (&b"before"[..], 0));
        let second = t.recv_at_server().expect("post-outage chunk");
        assert_eq!((second.bytes.as_slice(), second.epoch), (&b"after"[..], 1));
        assert!(t.recv_at_server().is_none(), "the outage chunk is gone");
    }

    #[test]
    fn a_partial_write_delivers_a_strict_prefix_then_reconnects() {
        let s = schedule_of(vec![FaultSpec::PartialWrite { at: 1.0 }]);
        let mut t = ChaosTransport::lossless(&s, 42);
        t.send_to_server(b"whole-frame-bytes", 0.0);
        t.send_to_server(b"cut-this-one", 1.0);
        t.send_to_server(b"fresh", 2.0);
        let whole = t.recv_at_server().unwrap();
        assert_eq!(
            (whole.bytes.as_slice(), whole.epoch),
            (&b"whole-frame-bytes"[..], 0)
        );
        let cut = t.recv_at_server().unwrap();
        assert!(!cut.bytes.is_empty() && cut.bytes.len() < b"cut-this-one".len());
        assert_eq!(&cut.bytes[..], &b"cut-this-one"[..cut.bytes.len()]);
        assert_eq!(
            cut.epoch, 0,
            "the prefix still travels on the old connection"
        );
        let fresh = t.recv_at_server().unwrap();
        assert_eq!((fresh.bytes.as_slice(), fresh.epoch), (&b"fresh"[..], 1));
    }

    #[test]
    fn latency_spikes_delay_chunks_inside_the_window() {
        let s = schedule_of(vec![FaultSpec::LatencySpike {
            at: 1.0,
            duration: 1.0,
            extra: 0.3,
        }]);
        let mut t = ChaosTransport::lossless(&s, 0);
        assert_eq!(t.send_to_server(b"a", 0.5), 0.5);
        assert!((t.send_to_server(b"b", 1.5) - 1.8).abs() < 1e-12);
        assert_eq!(t.send_to_server(b"c", 2.5), 2.5);
    }
}
