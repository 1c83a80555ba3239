//! Shard-aware routing over a partitioned connection-slot space.
//!
//! A sharded backend (e.g. [`bq_dbms::ShardedEngine`]) presents one global
//! slot space partitioned into shards; *which* free slot a submission lands
//! on then decides which shard's resources the query contends for.
//! [`ShardRouter`] makes that placement policy explicit and pluggable: the
//! session asks the router for the next free connection instead of always
//! taking the lowest-numbered one. Routing stays non-intrusive — a router
//! sees only the [`ConnectionSlot`] occupancy view and the static
//! [`ShardTopology`], never the executor's internals — and on a monolithic
//! backend (a single-shard topology) every router degrades gracefully.
//!
//! Provided implementations:
//!
//! * [`FirstFreeRouter`] — the historical default: lowest-numbered free
//!   global connection;
//! * [`HashRouter`] — deterministic hash of a submission counter picks the
//!   starting shard, probing onward until a shard has a free slot (spreads
//!   load without occupancy feedback);
//! * [`LeastLoadedRouter`] — the shard with the fewest busy slots wins,
//!   ties toward the lower shard id (greedy load balancing).

use bq_dbms::{ConnectionSlot, FaultEvent, ShardTopology};

/// Placement policy for submissions over a partitioned slot space: given the
/// topology and the current occupancy, choose the free global connection the
/// next query should be submitted to (`None` when every slot is busy).
///
/// Implementations must return a connection that is free in `slots`; the
/// session layer asserts this before submitting.
pub trait ShardRouter {
    /// Router name used in logs and reports.
    fn name(&self) -> &str;

    /// Choose the next free global connection, or `None` if all are busy.
    fn route(&mut self, topology: &ShardTopology, slots: &[ConnectionSlot]) -> Option<usize>;

    /// Observe a fault or recovery signal drained from the backend. The
    /// session layer forwards every [`FaultEvent`] here before its next
    /// routing decision, so fault-aware policies (see [`FaultAwareRouter`])
    /// can steer placement away from degraded shards. Default: ignore —
    /// plain placement policies stay byte-identical on fault-free backends.
    fn observe_fault(&mut self, _event: &FaultEvent) {}
}

/// Mutable references route through the referent, so a caller can hand a
/// session `&mut router` and keep inspecting the router afterwards.
impl<R: ShardRouter + ?Sized> ShardRouter for &mut R {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn route(&mut self, topology: &ShardTopology, slots: &[ConnectionSlot]) -> Option<usize> {
        (**self).route(topology, slots)
    }

    fn observe_fault(&mut self, event: &FaultEvent) {
        (**self).observe_fault(event)
    }
}

/// Boxed routers route through the referent (runtime-chosen policies).
impl<R: ShardRouter + ?Sized> ShardRouter for Box<R> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn route(&mut self, topology: &ShardTopology, slots: &[ConnectionSlot]) -> Option<usize> {
        (**self).route(topology, slots)
    }

    fn observe_fault(&mut self, event: &FaultEvent) {
        (**self).observe_fault(event)
    }
}

/// The historical placement: lowest-numbered free global connection. On a
/// sharded topology this packs load onto the lowest shards first.
#[derive(Debug, Default, Clone, Copy)]
pub struct FirstFreeRouter;

impl ShardRouter for FirstFreeRouter {
    fn name(&self) -> &str {
        "first-free"
    }

    fn route(&mut self, _topology: &ShardTopology, slots: &[ConnectionSlot]) -> Option<usize> {
        slots.iter().position(ConnectionSlot::is_free)
    }
}

/// Hash placement: a deterministic hash of the routing counter picks the
/// starting shard; shards are probed in order from there until one has a
/// free slot (then its lowest free connection is used). Spreads submissions
/// across shards without reading load, so identical runs route identically.
#[derive(Debug, Clone, Copy)]
pub struct HashRouter {
    salt: u64,
    next: u64,
}

impl HashRouter {
    /// Create a hash router; `salt` varies the placement stream (two routers
    /// with the same salt route identically).
    pub fn new(salt: u64) -> Self {
        Self { salt, next: 0 }
    }
}

impl ShardRouter for HashRouter {
    fn name(&self) -> &str {
        "hash"
    }

    fn route(&mut self, topology: &ShardTopology, slots: &[ConnectionSlot]) -> Option<usize> {
        let start =
            (crate::rng::mix(self.salt ^ self.next) % topology.shard_count() as u64) as usize;
        for probe in 0..topology.shard_count() {
            let shard = (start + probe) % topology.shard_count();
            if let Some(conn) = topology.first_free_in(shard, slots) {
                self.next += 1;
                return Some(conn);
            }
        }
        None
    }
}

/// Greedy load balancing: the shard with the fewest busy slots (ties toward
/// the lower shard id), then its lowest free connection.
#[derive(Debug, Default, Clone, Copy)]
pub struct LeastLoadedRouter;

impl ShardRouter for LeastLoadedRouter {
    fn name(&self) -> &str {
        "least-loaded"
    }

    fn route(&mut self, topology: &ShardTopology, slots: &[ConnectionSlot]) -> Option<usize> {
        (0..topology.shard_count())
            .filter(|&s| topology.first_free_in(s, slots).is_some())
            .min_by_key(|&s| topology.shard_load(s, slots))
            .and_then(|s| topology.first_free_in(s, slots))
    }
}

/// Fault-aware placement decorator: routes through the wrapped policy, but
/// never onto a shard currently known to be dead or stalled. Fault knowledge
/// arrives through [`ShardRouter::observe_fault`] (the session layer drains
/// backend faults and forwards them before every routing decision):
/// [`FaultEvent::ShardStalled`] and [`FaultEvent::ShardDied`] take a shard
/// out of rotation, [`FaultEvent::ShardResumed`] reintegrates a stalled
/// one. A death is permanent: a dead shard never rejoins rotation.
///
/// While every shard is healthy the decorator is a pure passthrough — the
/// inner policy sees the untouched occupancy view, so fault-free episodes
/// are byte-identical with and without the wrapper. With degraded shards,
/// their free slots are masked as occupied in a scratch copy before the
/// inner policy routes, so any placement policy becomes fault-aware without
/// knowing it.
#[derive(Debug, Clone)]
pub struct FaultAwareRouter<R> {
    inner: R,
    /// Per-shard health, grown lazily to the topology.
    shards: Vec<ShardHealth>,
    /// Reusable masked-occupancy copy (no per-decision allocation).
    scratch: Vec<ConnectionSlot>,
}

/// What a [`FaultAwareRouter`] knows of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShardHealth {
    Up,
    Stalled,
    Dead,
}

impl<R: ShardRouter> FaultAwareRouter<R> {
    /// Wrap `inner` with fault awareness.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            shards: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Record `shard`'s new health; a dead shard stays dead.
    fn mark(&mut self, shard: usize, health: ShardHealth) {
        if self.shards.len() <= shard {
            self.shards.resize(shard + 1, ShardHealth::Up);
        }
        if self.shards[shard] != ShardHealth::Dead {
            self.shards[shard] = health;
        }
    }
}

impl<R: ShardRouter> ShardRouter for FaultAwareRouter<R> {
    fn name(&self) -> &str {
        "fault-aware"
    }

    fn route(&mut self, topology: &ShardTopology, slots: &[ConnectionSlot]) -> Option<usize> {
        if self.shards.iter().all(|&h| h == ShardHealth::Up) {
            // Healthy cluster: the inner policy must see the untouched view
            // (byte-identity of fault-free episodes).
            return self.inner.route(topology, slots);
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(slots);
        for shard in 0..topology.shard_count().min(self.shards.len()) {
            if self.shards[shard] == ShardHealth::Up {
                continue;
            }
            for slot in &mut self.scratch[topology.range_of(shard)] {
                if slot.is_free() {
                    // Sentinel occupation: the inner policy only ever reads
                    // freeness of masked slots, never their contents.
                    *slot = ConnectionSlot::Pending {
                        query: bq_plan::QueryId(usize::MAX),
                        params: bq_dbms::RunParams::default_config(),
                        queued_at: 0.0,
                    };
                }
            }
        }
        let pick = self.inner.route(topology, &self.scratch)?;
        debug_assert!(
            slots[pick].is_free(),
            "inner router picked a slot that is not free in the real view"
        );
        Some(pick)
    }

    fn observe_fault(&mut self, event: &FaultEvent) {
        match *event {
            FaultEvent::ShardStalled { shard, .. } => self.mark(shard, ShardHealth::Stalled),
            FaultEvent::ShardDied { shard, .. } => self.mark(shard, ShardHealth::Dead),
            FaultEvent::ShardResumed { shard, .. } => self.mark(shard, ShardHealth::Up),
            _ => {}
        }
        self.inner.observe_fault(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn occupancy(busy: &[usize], total: usize) -> Vec<ConnectionSlot> {
        let mut slots = vec![ConnectionSlot::Free; total];
        for &c in busy {
            slots[c] = ConnectionSlot::Busy {
                query: bq_plan::QueryId(c),
                params: bq_dbms::RunParams::default_config(),
                started_at: 0.0,
            };
        }
        slots
    }

    #[test]
    fn first_free_router_matches_lowest_slot() {
        let t = ShardTopology::uniform(2, 3);
        let slots = occupancy(&[0, 1], 6);
        assert_eq!(FirstFreeRouter.route(&t, &slots), Some(2));
        let full = occupancy(&(0..6).collect::<Vec<_>>(), 6);
        assert_eq!(FirstFreeRouter.route(&t, &full), None);
    }

    #[test]
    fn least_loaded_router_prefers_the_emptiest_shard() {
        let t = ShardTopology::uniform(3, 4);
        // shard 0: 3 busy, shard 1: 1 busy, shard 2: 2 busy.
        let slots = occupancy(&[0, 1, 2, 4, 8, 9], 12);
        assert_eq!(LeastLoadedRouter.route(&t, &slots), Some(5));
        // Ties break toward the lower shard id.
        let tied = occupancy(&[0, 4], 12);
        assert_eq!(LeastLoadedRouter.route(&t, &tied), Some(8));
        // A fully busy shard is skipped even if others are heavily loaded.
        let shard0_full = occupancy(&[0, 1, 2, 3, 4, 5, 6, 8, 9, 10], 12);
        assert_eq!(LeastLoadedRouter.route(&t, &shard0_full), Some(7));
    }

    #[test]
    fn hash_router_is_deterministic_and_spreads_load() {
        let t = ShardTopology::uniform(4, 2);
        let free = occupancy(&[], 8);
        let picks = |salt: u64| -> Vec<usize> {
            let mut r = HashRouter::new(salt);
            (0..6).map(|_| r.route(&t, &free).unwrap()).collect()
        };
        assert_eq!(picks(7), picks(7), "same salt must route identically");
        let shards: std::collections::BTreeSet<usize> =
            picks(7).iter().map(|&c| t.shard_of(c)).collect();
        assert!(shards.len() > 1, "hash routing should hit several shards");
    }

    #[test]
    fn hash_router_probes_past_full_shards() {
        let t = ShardTopology::uniform(2, 2);
        // Whatever shard the hash picks, only connection 3 is free.
        let slots = occupancy(&[0, 1, 2], 4);
        let mut r = HashRouter::new(0);
        assert_eq!(r.route(&t, &slots), Some(3));
        let full = occupancy(&[0, 1, 2, 3], 4);
        assert_eq!(r.route(&t, &full), None);
    }

    #[test]
    fn fault_aware_router_is_a_passthrough_while_healthy() {
        let t = ShardTopology::uniform(2, 3);
        let slots = occupancy(&[0, 1], 6);
        let mut plain = FirstFreeRouter;
        let mut wrapped = FaultAwareRouter::new(FirstFreeRouter);
        assert_eq!(wrapped.route(&t, &slots), plain.route(&t, &slots));
        assert!(wrapped.shards.is_empty());
    }

    #[test]
    fn fault_aware_router_avoids_down_shards_and_reintegrates() {
        let t = ShardTopology::uniform(2, 3);
        let slots = occupancy(&[], 6);
        let mut r = FaultAwareRouter::new(FirstFreeRouter);
        r.observe_fault(&FaultEvent::ShardDied { shard: 0, at: 1.0 });
        assert_eq!(r.shards, [ShardHealth::Dead]);
        // First-free would pick slot 0; the wrapper must skip shard 0.
        assert_eq!(r.route(&t, &slots), Some(3));
        // A stalled shard is equally out of rotation...
        r.observe_fault(&FaultEvent::ShardStalled {
            shard: 1,
            at: 2.0,
            resume_at: 5.0,
        });
        assert_eq!(r.route(&t, &slots), None, "every shard is down");
        // ...until it resumes.
        r.observe_fault(&FaultEvent::ShardResumed { shard: 1, at: 5.0 });
        assert_eq!(r.route(&t, &slots), Some(3));
        assert_eq!(r.shards, [ShardHealth::Dead, ShardHealth::Up]);
    }

    #[test]
    fn fault_aware_router_never_reintegrates_a_dead_shard() {
        let t = ShardTopology::uniform(2, 3);
        let slots = occupancy(&[], 6);
        let mut r = FaultAwareRouter::new(FirstFreeRouter);
        r.observe_fault(&FaultEvent::ShardStalled {
            shard: 0,
            at: 0.2,
            resume_at: 2.0,
        });
        r.observe_fault(&FaultEvent::ShardDied { shard: 0, at: 0.5 });
        r.observe_fault(&FaultEvent::ShardResumed { shard: 0, at: 2.0 });
        assert_eq!(r.shards, [ShardHealth::Dead]);
        assert_eq!(
            r.route(&t, &slots),
            Some(3),
            "shard 0 stays out of rotation"
        );
    }

    #[test]
    fn fault_aware_router_composes_with_least_loaded() {
        let t = ShardTopology::uniform(3, 4);
        // shard 1 is the emptiest, but it is down: the wrapped least-loaded
        // policy must fall to the next emptiest (shard 2).
        let slots = occupancy(&[0, 1, 2, 4, 8, 9], 12);
        let mut r = FaultAwareRouter::new(LeastLoadedRouter);
        r.observe_fault(&FaultEvent::ShardStalled {
            shard: 1,
            at: 0.0,
            resume_at: 9.0,
        });
        assert_eq!(r.route(&t, &slots), Some(10));
    }

    #[test]
    fn routers_always_return_free_slots() {
        let t = ShardTopology::uniform(3, 3);
        let slots = occupancy(&[0, 2, 3, 5, 7], 9);
        let mut routers: Vec<Box<dyn ShardRouter>> = vec![
            Box::new(FirstFreeRouter),
            Box::new(HashRouter::new(11)),
            Box::new(LeastLoadedRouter),
        ];
        for r in &mut routers {
            let conn = r.route(&t, &slots).expect("free slots exist");
            assert!(slots[conn].is_free(), "{} returned a busy slot", r.name());
        }
    }
}
