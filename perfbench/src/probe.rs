//! Timing decorators wrapped around the program's public entry points.
//!
//! The benchmark times each layer from outside: [`TimedPolicy`] wraps a
//! [`SchedulerPolicy`], [`TimedBackend`] wraps an [`ExecutorBackend`], and
//! [`span`] wraps any other call (engine construction, socket connects,
//! the IQ-PPO phases). Every decorator forwards each call unchanged, so a
//! decorated round produces the same log as an undecorated one
//! (`tests/decorators.rs` pins that).
//!
//! A probe runs in one of two modes. *Light* mode (the untraced,
//! end-to-end run) records only what the end-to-end metrics need: how long
//! a freed connection waits for its next submission, and how many queries
//! were submitted. *Traced* mode also records one span per call: name,
//! start, end, parent span and operation id, kept in memory and written out
//! at exit.

use bq_core::{
    EpisodeLog, ExecEvent, ExecutorBackend, FaultEvent, RunningView, SchedulerPolicy,
    SchedulingState, ShardTopology,
};
use bq_dbms::{AdvanceStall, ConnectionSlot, QueryCompletion, RunParams};
use bq_obs::{SystemClock, WallClock};
use bq_plan::{QueryId, Workload};
use std::cell::RefCell;
use std::rc::Rc;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified call name (`bqsched.select`, `dbms.poll_event`, ...).
    pub name: &'static str,
    /// Wall seconds since the probe's origin.
    pub start: f64,
    /// Wall seconds since the probe's origin.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (episode or training run) the span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall seconds the span lasted.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Shared recorder behind every decorator of one benchmark run.
pub struct Probe {
    clock: SystemClock,
    traced: bool,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// When the oldest completion not yet answered by a submission came back.
    freed_at: Option<f64>,
    /// Microseconds from a completion to the next submission.
    reactions_us: Vec<f64>,
    /// Queries submitted (one per policy decision).
    decisions: u64,
    /// Counts read from the program after an operation: `(op, name, value)`.
    pub counts: Vec<(u64, &'static str, f64)>,
}

/// The probe handle decorators share.
pub type SharedProbe = Rc<RefCell<Probe>>;

impl Probe {
    /// A probe in light (`traced == false`) or traced mode.
    pub fn shared(traced: bool) -> SharedProbe {
        Rc::new(RefCell::new(Probe {
            clock: SystemClock::new(),
            traced,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
            freed_at: None,
            reactions_us: Vec::new(),
            decisions: 0,
            counts: Vec::new(),
        }))
    }

    /// Wall seconds since the probe's origin.
    pub fn now(&self) -> f64 {
        self.clock.now_seconds()
    }

    /// Whether spans are being recorded.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Switch between light and traced mode (between operations only).
    pub fn set_traced(&mut self, traced: bool) {
        assert!(self.open.is_empty(), "mode switch inside an open span");
        self.traced = traced;
    }

    /// Start a new operation: later spans carry `op` as their id, and a
    /// completion left unanswered by the previous operation is forgotten.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
        self.freed_at = None;
    }

    /// Forget the reaction times and decisions recorded so far.
    pub fn reset_light(&mut self) {
        self.freed_at = None;
        self.reactions_us.clear();
        self.decisions = 0;
    }

    /// Take the reaction times (µs) and the decision count recorded since
    /// the last reset.
    pub fn take_light(&mut self) -> (Vec<f64>, f64) {
        let decisions = std::mem::take(&mut self.decisions) as f64;
        (std::mem::take(&mut self.reactions_us), decisions)
    }

    /// Record a count the program reported for the current operation.
    pub fn add_count(&mut self, name: &'static str, value: f64) {
        self.counts.push((self.op, name, value));
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn open_span(&mut self, name: &'static str) {
        let start = self.now();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: None,
            op: self.op,
        });
        let index = self.spans.len() - 1;
        if self.open.len() > 1 {
            self.spans[index].parent = Some(self.open[self.open.len() - 2]);
        }
    }

    fn close_span(&mut self) {
        let index = self.open.pop().expect("close without an open span");
        self.spans[index].end = self.now();
    }

    fn note_event(&mut self, event: &ExecEvent) {
        if matches!(event, ExecEvent::Completed(_)) && self.freed_at.is_none() {
            self.freed_at = Some(self.now());
        }
    }

    fn note_submit(&mut self, queries: usize) {
        if queries == 0 {
            return;
        }
        if let Some(freed) = self.freed_at.take() {
            self.reactions_us.push((self.now() - freed) * 1e6);
        }
        self.decisions += queries as u64;
    }
}

/// Run `f` inside a span named `name` when the probe is traced; otherwise
/// just run it.
pub fn span<R>(probe: &SharedProbe, name: &'static str, f: impl FnOnce() -> R) -> R {
    let traced = probe.borrow().traced;
    if !traced {
        return f();
    }
    probe.borrow_mut().open_span(name);
    let result = f();
    probe.borrow_mut().close_span();
    result
}

/// A [`SchedulerPolicy`] decorator: the episode span runs from
/// `begin_episode` to `end_episode`, with one child span per decision.
pub struct TimedPolicy<'a> {
    inner: &'a mut dyn SchedulerPolicy,
    probe: SharedProbe,
}

impl<'a> TimedPolicy<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a mut dyn SchedulerPolicy, probe: &SharedProbe) -> Self {
        Self {
            inner,
            probe: probe.clone(),
        }
    }
}

impl SchedulerPolicy for TimedPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin_episode(&mut self, workload: &Workload) {
        if self.probe.borrow().traced {
            self.probe.borrow_mut().open_span("episode");
        }
        self.inner.begin_episode(workload);
    }

    fn select(&mut self, state: &SchedulingState<'_>) -> bq_core::Action {
        let inner = &mut *self.inner;
        span(&self.probe, "bqsched.select", || inner.select(state))
    }

    fn observe_completion(&mut self, completion: &QueryCompletion) {
        self.inner.observe_completion(completion);
    }

    fn end_episode(&mut self, log: &EpisodeLog) {
        let inner = &mut *self.inner;
        span(&self.probe, "bqsched.end_episode", || {
            inner.end_episode(log)
        });
        if self.probe.borrow().traced {
            self.probe.borrow_mut().close_span();
        }
    }
}

/// Which layer a [`TimedBackend`]'s calls belong to, which picks its span
/// names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// An in-process engine (`ExecutionEngine`, `ShardedEngine`).
    Dbms,
    /// A `WireBackend` talking to `bq-serve` over a socket.
    Wire,
}

impl Layer {
    fn names(self) -> [&'static str; 5] {
        match self {
            Layer::Dbms => [
                "dbms.submit",
                "dbms.submit_batch",
                "dbms.poll_event",
                "dbms.advance_to",
                "dbms.cancel",
            ],
            Layer::Wire => [
                "wire.submit",
                "wire.submit_batch",
                "wire.poll_event",
                "wire.advance_to",
                "wire.cancel",
            ],
        }
    }
}

/// An [`ExecutorBackend`] decorator. Every method forwards to the inner
/// backend; the five that can do work (submissions, polls, advances,
/// cancels) are timed, the read-only accessors are not.
pub struct TimedBackend<B> {
    inner: B,
    probe: SharedProbe,
    names: [&'static str; 5],
}

impl<B: ExecutorBackend> TimedBackend<B> {
    /// Wrap `inner`, attributing its calls to `layer`.
    pub fn new(inner: B, layer: Layer, probe: &SharedProbe) -> Self {
        Self {
            inner,
            probe: probe.clone(),
            names: layer.names(),
        }
    }
}

impl<B: ExecutorBackend> ExecutorBackend for TimedBackend<B> {
    fn connections(&self) -> &[ConnectionSlot] {
        self.inner.connections()
    }

    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn submit(&mut self, query: QueryId, params: RunParams, connection: usize) {
        self.probe.borrow_mut().note_submit(1);
        let inner = &mut self.inner;
        span(&self.probe, self.names[0], || {
            inner.submit(query, params, connection)
        });
    }

    fn submit_batch(&mut self, batch: &[(QueryId, RunParams, usize)]) {
        self.probe.borrow_mut().note_submit(batch.len());
        let inner = &mut self.inner;
        span(&self.probe, self.names[1], || inner.submit_batch(batch));
    }

    fn poll_event(&mut self) -> ExecEvent {
        let inner = &mut self.inner;
        let event = span(&self.probe, self.names[2], || inner.poll_event());
        self.probe.borrow_mut().note_event(&event);
        event
    }

    fn events_pending(&self) -> bool {
        self.inner.events_pending()
    }

    fn advance_to(&mut self, until: f64) {
        let inner = &mut self.inner;
        span(&self.probe, self.names[3], || inner.advance_to(until));
    }

    fn cancel(&mut self, connection: usize) -> Option<QueryCompletion> {
        let inner = &mut self.inner;
        span(&self.probe, self.names[4], || inner.cancel(connection))
    }

    fn connection_count(&self) -> usize {
        self.inner.connection_count()
    }

    fn first_free(&self) -> Option<usize> {
        self.inner.first_free()
    }

    fn running_view(&self) -> RunningView<'_> {
        self.inner.running_view()
    }

    fn stall_diagnostic(&self) -> Option<AdvanceStall> {
        self.inner.stall_diagnostic()
    }

    fn shard_topology(&self) -> ShardTopology {
        self.inner.shard_topology()
    }

    fn poll_fault(&mut self) -> Option<FaultEvent> {
        self.inner.poll_fault()
    }

    fn known_query_count(&self) -> Option<usize> {
        self.inner.known_query_count()
    }
}

/// Write the spans of operations `< max_op` as JSON lines to `path`.
pub fn write_spans(spans: &[Span], max_op: u64, path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate().filter(|(_, s)| s.op < max_op) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start, s.end, s.op
        )?;
    }
    out.flush()
}
