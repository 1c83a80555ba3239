//! Replayable fault schedules: every chaos episode is a pure function of
//! `(workload, profile, seed, fault schedule)`, and the schedule is a
//! hand-placed list of fault events in virtual time, so a degraded-mode run
//! replays byte-identically, which is what lets the bench gate pin
//! degraded-mode performance the same way it pins the healthy cells.

/// One planned fault, placed in virtual time.
///
/// Transport faults ([`FaultSpec::Disconnect`], [`FaultSpec::PartialWrite`],
/// [`FaultSpec::LatencySpike`]) are injected by
/// [`ChaosTransport`](crate::ChaosTransport); shard faults
/// ([`FaultSpec::ShardStall`], [`FaultSpec::ShardDeath`]) by
/// [`ChaosBackend`](crate::ChaosBackend).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// The link is down for `[at, at + duration)`: chunks sent inside the
    /// window are lost, and once the window passes the connection
    /// re-establishes under a new epoch.
    Disconnect {
        /// Start of the outage window.
        at: f64,
        /// Length of the outage window.
        duration: f64,
    },
    /// The first client→server chunk sent at or after `at` is cut mid-write
    /// to a seeded prefix length and the connection is torn down — the
    /// truncated frame must surface as a clean loss (frame-reader reset on
    /// the epoch change), never as corruption.
    PartialWrite {
        /// Armed from this instant; fires on the next chunk.
        at: f64,
    },
    /// Chunks sent inside `[at, at + duration)` leave `extra` seconds late.
    LatencySpike {
        /// Start of the congestion window.
        at: f64,
        /// Length of the congestion window.
        duration: f64,
        /// Additional transit delay per chunk.
        extra: f64,
    },
    /// Shard `shard` freezes at `at`: completions that would land inside
    /// `[at, resume_at)` are withheld and deliver, re-stamped, at
    /// `resume_at` (bounded resume).
    ShardStall {
        /// The frozen shard.
        shard: usize,
        /// Freeze instant.
        at: f64,
        /// Instant the shard thaws and withheld completions deliver.
        resume_at: f64,
    },
    /// Shard `shard` dies at `at` and never comes back: every completion it
    /// would have produced from then on is swallowed and surfaces as a
    /// [`bq_core::FaultEvent::QueryLost`] instead.
    ShardDeath {
        /// The dead shard.
        shard: usize,
        /// Death instant.
        at: f64,
    },
}

impl FaultSpec {
    /// The virtual instant the fault begins.
    pub fn at(&self) -> f64 {
        match *self {
            FaultSpec::Disconnect { at, .. }
            | FaultSpec::PartialWrite { at }
            | FaultSpec::LatencySpike { at, .. }
            | FaultSpec::ShardStall { at, .. }
            | FaultSpec::ShardDeath { at, .. } => at,
        }
    }

    /// Whether the fault is injected at the transport layer.
    pub fn is_transport(&self) -> bool {
        matches!(
            self,
            FaultSpec::Disconnect { .. }
                | FaultSpec::PartialWrite { .. }
                | FaultSpec::LatencySpike { .. }
        )
    }
}

/// A replayable plan of fault events, sorted by onset instant.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultSpec>,
}

impl FaultSchedule {
    /// A schedule of hand-placed events, sorted by onset instant. With no
    /// events both chaos decorators are byte-identical passthroughs.
    pub fn from_events(mut events: Vec<FaultSpec>) -> Self {
        events.sort_by(|a, b| a.at().total_cmp(&b.at()));
        Self { events }
    }

    /// Every planned fault, sorted by onset.
    pub fn events(&self) -> &[FaultSpec] {
        &self.events
    }

    /// The transport-layer faults (for [`crate::ChaosTransport`]).
    pub fn transport_events(&self) -> Vec<FaultSpec> {
        self.events
            .iter()
            .copied()
            .filter(FaultSpec::is_transport)
            .collect()
    }

    /// The shard-layer faults (for [`crate::ChaosBackend`]).
    pub fn shard_events(&self) -> Vec<FaultSpec> {
        self.events
            .iter()
            .copied()
            .filter(|e| !e.is_transport())
            .collect()
    }

    /// Whether the schedule carries no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_sorted_and_split_cleanly_by_layer() {
        let s = FaultSchedule::from_events(vec![
            FaultSpec::ShardDeath { shard: 2, at: 31.0 },
            FaultSpec::LatencySpike {
                at: 12.0,
                duration: 2.5,
                extra: 0.5,
            },
            FaultSpec::ShardStall {
                shard: 1,
                at: 4.0,
                resume_at: 5.0,
            },
            FaultSpec::Disconnect {
                at: 40.0,
                duration: 1.0,
            },
            FaultSpec::PartialWrite { at: 7.5 },
            FaultSpec::ShardStall {
                shard: 0,
                at: 22.0,
                resume_at: 23.0,
            },
            FaultSpec::Disconnect {
                at: 0.5,
                duration: 1.0,
            },
            FaultSpec::LatencySpike {
                at: 18.0,
                duration: 2.5,
                extra: 0.5,
            },
        ]);
        assert_eq!(s.len(), 8);
        assert!(s.events().windows(2).all(|w| w[0].at() <= w[1].at()));
        assert_eq!(s.transport_events().len(), 5);
        assert_eq!(s.shard_events().len(), 3);
        assert!(s.transport_events().iter().all(FaultSpec::is_transport));
        assert!(s.shard_events().iter().all(|e| !e.is_transport()));
        assert!(FaultSchedule::from_events(Vec::new()).is_empty());
    }
}
