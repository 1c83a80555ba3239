//! The span/event tracing layer: typed events stamped with virtual time
//! and the `(round, connection, shard, epoch, seq)` identity the stack
//! already threads, kept by a recording [`crate::Obs`] handle.
//!
//! The contract mirrored across the whole workspace: **tracing never
//! perturbs an episode**. The handle only stores fully built events and
//! feeds nothing back into clocks, RNG streams or control flow, so an
//! episode runs byte-identically whether events are dropped, recorded, or
//! observability is off (pinned by the conformance passthrough cell and
//! the golden trace artifact).

/// What happened. One variant per instrumented action across the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// The scheduler committed a placement (session layer).
    Decision,
    /// The async adapter coalesced a dispatch batch toward the backend.
    Dispatch,
    /// A deferred submission was admitted onto a real connection.
    Admission,
    /// A request frame left the wire client.
    FrameSent,
    /// A response frame arrived back at the wire client.
    FrameReceived,
    /// An engine (or one shard of the sharded engine) advanced its clock.
    ShardAdvance,
    /// The chaos layer surfaced an injected fault.
    FaultInjected,
    /// The recovery layer resubmitted a query a fault had swallowed.
    RecoveryResubmission,
    /// A completion was delivered to the session and logged.
    CompletionDelivered,
}

impl TraceKind {
    /// Stable lowercase name used in JSONL artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::Decision => "decision",
            TraceKind::Dispatch => "dispatch",
            TraceKind::Admission => "admission",
            TraceKind::FrameSent => "frame_sent",
            TraceKind::FrameReceived => "frame_received",
            TraceKind::ShardAdvance => "shard_advance",
            TraceKind::FaultInjected => "fault_injected",
            TraceKind::RecoveryResubmission => "recovery_resubmission",
            TraceKind::CompletionDelivered => "completion_delivered",
        }
    }
}

/// One trace event: a [`TraceKind`] stamped with virtual time and the
/// identity tuple of the emitting layer. Identity fields are `-1` when the
/// layer has no such coordinate (a monolithic engine has no shard, a
/// non-wire backend has no epoch/seq); `value` carries the kind-specific
/// payload (a latency, a queue depth, a byte count). Plain `Copy` data —
/// building one never allocates, which keeps emission legal inside the
/// session's allocation-free hot loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: TraceKind,
    /// Virtual-time stamp.
    pub at: f64,
    /// Scheduling round, or -1.
    pub round: i64,
    /// Global connection id, or -1.
    pub connection: i64,
    /// Shard id, or -1.
    pub shard: i64,
    /// Wire session epoch, or -1.
    pub epoch: i64,
    /// Wire frame sequence number, or -1.
    pub seq: i64,
    /// Query id, or -1.
    pub query: i64,
    /// Kind-specific payload (latency, depth, bytes); 0 when unused.
    pub value: f64,
}

impl TraceEvent {
    /// A bare event; set identity coordinates with the `with_*` builders.
    pub fn new(kind: TraceKind, at: f64) -> Self {
        Self {
            kind,
            at,
            round: -1,
            connection: -1,
            shard: -1,
            epoch: -1,
            seq: -1,
            query: -1,
            value: 0.0,
        }
    }

    /// Stamp the scheduling round.
    pub fn with_round(mut self, round: u64) -> Self {
        self.round = round as i64;
        self
    }

    /// Stamp the global connection id.
    pub fn with_connection(mut self, connection: usize) -> Self {
        self.connection = connection as i64;
        self
    }

    /// Stamp the shard id.
    pub fn with_shard(mut self, shard: usize) -> Self {
        self.shard = shard as i64;
        self
    }

    /// Stamp the wire epoch.
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch as i64;
        self
    }

    /// Stamp the wire frame sequence number.
    pub fn with_seq(mut self, seq: u64) -> Self {
        self.seq = seq as i64;
        self
    }

    /// Stamp the query id.
    pub fn with_query(mut self, query: usize) -> Self {
        self.query = query as i64;
        self
    }

    /// Attach the kind-specific payload.
    pub fn with_value(mut self, value: f64) -> Self {
        self.value = value;
        self
    }

    /// One single-line JSON object for JSONL artifacts. Unset identity
    /// coordinates (`-1`) are omitted; floats print in Rust's
    /// shortest-round-trip form, which is deterministic across platforms.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"kind\":\"{}\",\"at\":{}",
            self.kind.name(),
            self.at
        );
        for (label, v) in [
            ("round", self.round),
            ("connection", self.connection),
            ("shard", self.shard),
            ("epoch", self.epoch),
            ("seq", self.seq),
            ("query", self.query),
        ] {
            if v >= 0 {
                let _ = write!(out, ",\"{label}\":{v}");
            }
        }
        if self.value != 0.0 {
            let _ = write!(out, ",\"value\":{}", self.value);
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_compactly_and_omit_unset_coordinates() {
        let e = TraceEvent::new(TraceKind::Decision, 1.25)
            .with_round(3)
            .with_connection(7)
            .with_query(12);
        let json = e.to_json();
        assert_eq!(
            json,
            "{\"kind\":\"decision\",\"at\":1.25,\"round\":3,\"connection\":7,\"query\":12}"
        );
        let bare = TraceEvent::new(TraceKind::ShardAdvance, 0.0).with_shard(2);
        assert_eq!(
            bare.to_json(),
            "{\"kind\":\"shard_advance\",\"at\":0,\"shard\":2}"
        );
    }
}
