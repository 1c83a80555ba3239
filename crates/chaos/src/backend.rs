//! [`ChaosBackend`]: an [`ExecutorBackend`] decorator that injects the
//! shard-layer faults of a [`FaultSchedule`] — bounded stalls and permanent
//! deaths — over any inner backend with a shard topology.
//!
//! # Fault model
//!
//! * **Stall** — shard `s` freezes over `[at, resume_at)`: completions the
//!   inner backend produces on `s` inside the window are withheld and
//!   delivered re-stamped at `resume_at` (the work resumed where it paused;
//!   the bounded-resume simplification charges the whole pause to the
//!   completion instant). The affected slots stay observably busy until the
//!   withheld completion delivers, so the session never double-books them.
//! * **Death** — shard `s` dies at `at`: every completion it would have
//!   produced from then on is swallowed; the query surfaces as a
//!   [`FaultEvent::QueryLost`] through [`ExecutorBackend::poll_fault`]
//!   instead, and its slot frees. A stall of the shard that has not thawed
//!   by then never announces its thaw. A session must run with a
//!   [`bq_core::RecoveryPolicy`] (and should route with a
//!   [`bq_core::FaultAwareRouter`]) to resubmit the lost queries elsewhere.
//!
//! Fault *events* ([`FaultEvent::ShardStalled`] / `ShardResumed` /
//! `ShardDied`) are emitted through `poll_fault` as the observable clock
//! crosses their instants — the session drains them every iteration, so the
//! fault-aware router learns about a down shard before the next placement.
//!
//! With the empty schedule every method forwards verbatim and the decorator
//! is byte-identical through the whole session stack — pinned by proptests
//! and the conformance suite.

use crate::schedule::{FaultSchedule, FaultSpec};
use bq_core::{ExecEvent, ExecutorBackend, FaultEvent, ShardTopology};
use bq_dbms::{AdvanceStall, ConnectionSlot, QueryCompletion, RunParams};
use bq_obs::{Obs, TraceEvent, TraceKind};
use bq_plan::QueryId;
use std::collections::VecDeque;

const TIME_EPS: f64 = 1e-9;

/// Injects a [`FaultSchedule`]'s shard faults over any inner backend (see
/// the [module docs](self)).
#[derive(Debug)]
pub struct ChaosBackend<B> {
    inner: B,
    /// Fault events in onset order, emitted as the clock crosses them.
    timeline: Vec<FaultEvent>,
    emitted: usize,
    /// Emitted (or synthesized) faults awaiting `poll_fault`.
    faults: VecDeque<FaultEvent>,
    /// Stall windows `(shard, at, resume_at)` for completion classification.
    stalls: Vec<(usize, f64, f64)>,
    /// Death instants `(shard, at)` for completion classification.
    deaths: Vec<(usize, f64)>,
    /// Withheld completions `(release_at, completion)` — already re-stamped
    /// to finish at their release instant.
    held: Vec<(f64, QueryCompletion)>,
    /// Captured busy slots of withheld completions (the inner backend freed
    /// them; observably they stay busy until release).
    held_slots: Vec<(usize, ConnectionSlot)>,
    /// Session-observable slots: the inner slots overlaid with `held_slots`.
    mirror: Vec<ConnectionSlot>,
    /// Clock floor: delivering a withheld completion moves observable time
    /// to its release instant even when the idle inner backend refuses to
    /// advance that far.
    now_floor: f64,
    /// Observability handle; [`Obs::off`] unless
    /// [`ChaosBackend::set_obs`] installed one.
    obs: Obs,
}

/// Per-kind counter name for an observed fault event.
fn fault_counter(event: &FaultEvent) -> &'static str {
    match event {
        FaultEvent::TransportRetransmit { .. } => "chaos_transport_retransmit",
        FaultEvent::ShardStalled { .. } => "chaos_shard_stalled",
        FaultEvent::ShardResumed { .. } => "chaos_shard_resumed",
        FaultEvent::ShardDied { .. } => "chaos_shard_died",
        FaultEvent::QueryLost { .. } => "chaos_query_lost",
        FaultEvent::QueryResubmitted { .. } => "chaos_query_resubmitted",
    }
}

/// Whether `shard` is dead by `instant` under the death instants `deaths`.
fn dead_by(deaths: &[(usize, f64)], shard: usize, instant: f64) -> bool {
    deaths
        .iter()
        .any(|&(s, at)| s == shard && instant >= at - TIME_EPS)
}

/// Shard coordinate of a fault event, if it has one.
fn fault_shard(event: &FaultEvent) -> Option<usize> {
    match event {
        FaultEvent::ShardStalled { shard, .. }
        | FaultEvent::ShardResumed { shard, .. }
        | FaultEvent::ShardDied { shard, .. } => Some(*shard),
        _ => None,
    }
}

impl<B: ExecutorBackend> ChaosBackend<B> {
    /// Decorate `inner` with the shard faults of `schedule`.
    pub fn new(inner: B, schedule: &FaultSchedule) -> Self {
        let events = schedule.shard_events();
        let deaths: Vec<(usize, f64)> = events
            .iter()
            .filter_map(|event| match *event {
                FaultSpec::ShardDeath { shard, at } => Some((shard, at)),
                _ => None,
            })
            .collect();
        let mut timeline = Vec::new();
        let mut stalls = Vec::new();
        for event in events {
            match event {
                FaultSpec::ShardStall {
                    shard,
                    at,
                    resume_at,
                } => {
                    timeline.push(FaultEvent::ShardStalled {
                        shard,
                        at,
                        resume_at,
                    });
                    if !dead_by(&deaths, shard, resume_at) {
                        timeline.push(FaultEvent::ShardResumed {
                            shard,
                            at: resume_at,
                        });
                    }
                    stalls.push((shard, at, resume_at));
                }
                FaultSpec::ShardDeath { shard, at } => {
                    timeline.push(FaultEvent::ShardDied { shard, at });
                }
                // bq-lint: allow(panic-surface): shard_events() yields only shard faults; locally provable
                other => unreachable!("shard_events filtered: {other:?}"),
            }
        }
        timeline.sort_by(|a, b| a.at().total_cmp(&b.at()));
        let mirror = inner.connections().to_vec();
        Self {
            inner,
            timeline,
            emitted: 0,
            faults: VecDeque::new(),
            stalls,
            deaths,
            held: Vec::new(),
            held_slots: Vec::new(),
            mirror,
            now_floor: 0.0,
            obs: Obs::off(),
        }
    }

    /// Observe the fault stream through `obs`: every fault surfaced by
    /// [`ExecutorBackend::poll_fault`] (injected by this decorator or
    /// bubbled up from the inner backend) increments a per-kind
    /// `chaos_*` counter and emits a [`TraceKind::FaultInjected`] event
    /// stamped with the fault's virtual instant and shard, when it has
    /// one. Observation is read-only — the schedule, classification and
    /// clock floor are untouched, so episodes stay byte-identical.
    pub fn set_obs(&mut self, obs: Obs) {
        obs.preregister(
            &[
                "chaos_transport_retransmit",
                "chaos_shard_stalled",
                "chaos_shard_resumed",
                "chaos_shard_died",
                "chaos_query_lost",
                "chaos_query_resubmitted",
            ],
            &[],
        );
        self.obs = obs;
    }

    /// Queue every timeline event whose onset the observable clock has
    /// crossed.
    fn sync_timeline(&mut self) {
        let now = self.now();
        while self
            .timeline
            .get(self.emitted)
            .is_some_and(|e| e.at() <= now + TIME_EPS)
        {
            self.faults.push_back(self.timeline[self.emitted]);
            self.emitted += 1;
        }
    }

    /// Rebuild the observable slots from the inner backend plus the
    /// withheld-completion overlay.
    fn refresh_mirror(&mut self) {
        self.mirror.clear();
        self.mirror.extend_from_slice(self.inner.connections());
        for &(connection, slot) in &self.held_slots {
            self.mirror[connection] = slot;
        }
    }

    /// Shard owning `connection` under the inner topology.
    fn shard_of(&self, connection: usize) -> usize {
        self.inner.shard_topology().shard_of(connection)
    }

    /// The stall window holding a completion on `shard` at `instant`, if
    /// any: returns the release instant.
    fn stalled_until(&self, shard: usize, instant: f64) -> Option<f64> {
        self.stalls
            .iter()
            .filter(|&&(s, at, resume)| {
                s == shard && instant >= at - TIME_EPS && instant < resume - TIME_EPS
            })
            .map(|&(_, _, resume)| resume)
            .next()
    }

    /// Index of a withheld completion that is due at the observable clock.
    fn due_held(&self) -> Option<usize> {
        let now = self.now();
        self.held
            .iter()
            .position(|&(release, _)| release <= now + TIME_EPS)
    }

    /// Index of the earliest withheld completion.
    fn earliest_held(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, &(release, _)) in self.held.iter().enumerate() {
            match best {
                Some(b) if release >= self.held[b].0 => {}
                _ => best = Some(i),
            }
        }
        best
    }

    /// Deliver the withheld completion at `idx`, freeing its overlay slot
    /// and lifting the clock floor to its release instant.
    fn release_held(&mut self, idx: usize) -> ExecEvent {
        let (release, completion) = self.held.remove(idx);
        self.held_slots
            .retain(|&(connection, _)| connection != completion.connection);
        if release > self.now_floor {
            self.now_floor = release;
        }
        self.refresh_mirror();
        self.sync_timeline();
        ExecEvent::Completed(completion)
    }

    /// Classify one inner completion: deliver it, withhold it (stall) or
    /// swallow it into a loss (death). Returns `None` when the completion
    /// was absorbed and the caller should keep polling.
    fn classify(&mut self, completion: QueryCompletion) -> Option<ExecEvent> {
        let shard = self.shard_of(completion.connection);
        if dead_by(&self.deaths, shard, completion.finished_at) {
            // The shard died before this completion could surface: the
            // query is lost. Its inner slot already freed, so the session
            // can resubmit it elsewhere once the fault is drained.
            self.faults.push_back(FaultEvent::QueryLost {
                query: completion.query,
                connection: completion.connection,
                at: self.now(),
            });
            self.refresh_mirror();
            return None;
        }
        if let Some(release) = self.stalled_until(shard, completion.finished_at) {
            // Withhold: observably the query is still running until the
            // shard thaws.
            self.held_slots.push((
                completion.connection,
                ConnectionSlot::Busy {
                    query: completion.query,
                    params: completion.params,
                    started_at: completion.started_at,
                },
            ));
            let mut held = completion;
            held.finished_at = release;
            self.held.push((release, held));
            self.refresh_mirror();
            return None;
        }
        self.refresh_mirror();
        Some(ExecEvent::Completed(completion))
    }
}

impl<B: ExecutorBackend> ExecutorBackend for ChaosBackend<B> {
    fn connections(&self) -> &[ConnectionSlot] {
        &self.mirror
    }

    fn now(&self) -> f64 {
        let inner = self.inner.now();
        if self.now_floor > inner {
            self.now_floor
        } else {
            inner
        }
    }

    fn submit(&mut self, query: QueryId, params: RunParams, connection: usize) {
        assert!(
            self.mirror[connection].is_free(),
            "connection {connection} is observably occupied"
        );
        self.inner.submit(query, params, connection);
        self.refresh_mirror();
    }

    fn submit_batch(&mut self, batch: &[(QueryId, RunParams, usize)]) {
        for &(_, _, connection) in batch {
            assert!(
                self.mirror[connection].is_free(),
                "connection {connection} is observably occupied"
            );
        }
        self.inner.submit_batch(batch);
        self.refresh_mirror();
    }

    fn poll_event(&mut self) -> ExecEvent {
        loop {
            self.sync_timeline();
            if let Some(idx) = self.due_held() {
                return self.release_held(idx);
            }
            if !self.inner.events_pending() {
                if let Some(earliest) = self.earliest_held() {
                    // Nothing buffered: move toward the thaw instant, but
                    // deliver any completion the inner backend produces on
                    // the way first.
                    let release = self.held[earliest].0;
                    self.inner.advance_to(release);
                    self.sync_timeline();
                    if !self.inner.events_pending() {
                        // The inner backend reached (or, idle, refused) the
                        // bound with nothing to say: the thaw is the next
                        // observable instant.
                        return self.release_held(earliest);
                    }
                }
            }
            let event = self.inner.poll_event();
            self.sync_timeline();
            match event {
                ExecEvent::Completed(completion) => {
                    if let Some(delivered) = self.classify(completion) {
                        return delivered;
                    }
                }
                ExecEvent::Submitted { .. } => {
                    self.refresh_mirror();
                    return event;
                }
                ExecEvent::Idle => {
                    if self.held.is_empty() {
                        self.refresh_mirror();
                        return ExecEvent::Idle;
                    }
                    // Withheld completions remain: loop around to release
                    // the earliest.
                }
            }
        }
    }

    fn events_pending(&self) -> bool {
        self.inner.events_pending() || self.due_held().is_some()
    }

    fn advance_to(&mut self, until: f64) {
        if self.inner.events_pending() || self.due_held().is_some() {
            // Buffered events precede the bound (the contract every backend
            // keeps): the caller drains them first.
            return;
        }
        // Never advance past a thaw instant — its completion is the next
        // observable event.
        let bound = match self.earliest_held() {
            Some(idx) if self.held[idx].0 < until => self.held[idx].0,
            _ => until,
        };
        self.inner.advance_to(bound);
        self.refresh_mirror();
        self.sync_timeline();
    }

    fn stall_diagnostic(&self) -> Option<AdvanceStall> {
        self.inner.stall_diagnostic()
    }

    fn shard_topology(&self) -> ShardTopology {
        self.inner.shard_topology()
    }

    fn poll_fault(&mut self) -> Option<FaultEvent> {
        self.sync_timeline();
        let fault = self
            .faults
            .pop_front()
            .or_else(|| self.inner.poll_fault())?;
        self.obs.inc(fault_counter(&fault));
        let mut event = TraceEvent::new(TraceKind::FaultInjected, fault.at());
        if let Some(shard) = fault_shard(&fault) {
            event = event.with_shard(shard);
        }
        self.obs.emit(event);
        Some(fault)
    }

    fn known_query_count(&self) -> Option<usize> {
        self.inner.known_query_count()
    }
}
