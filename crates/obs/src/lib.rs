//! # bq-obs
//!
//! The deterministic observability layer of the BQSched reproduction:
//! a metrics registry (counters and log-scale latency histograms over
//! virtual time), a typed trace-event layer, and the workspace's single
//! sanctioned wall-clock profiling module.
//!
//! The one contract every piece honors: **observation never perturbs an
//! episode**. Instrumented components carry an [`Obs`] handle that
//! defaults to [`Obs::off`] — a `None` branch, no allocation, no clock,
//! no lock — and when enabled only *reads* episode state (virtual
//! timestamps, queue depths, identities) into the registry and, when
//! recording, the event list.
//! Nothing flows back: an episode is byte-identical with observability
//! off, on, or recording, which the conformance passthrough cell and the
//! golden trace artifact pin.
//!
//! Module map:
//!
//! * [`metrics`] — [`MetricsRegistry`], [`Histogram`] (fixed log-scale
//!   buckets, exact bit-level extrema, merge + percentiles);
//! * [`trace`] — [`TraceEvent`]/[`TraceKind`] and their JSONL form;
//! * [`profile`] — the host wall clock that wall-clock measurements read,
//!   carrying the workspace's one justified `bq-lint` wall-clock allow.
//!
//! The handle is `Arc`-shared so the session, the backend stack and a
//! bench harness can observe into one registry; it is `Send + Sync` so an
//! instrumented component can move to another thread (`bq-serve` runs each
//! connection's engine on its own) — but by convention one episode emits
//! from one thread, so event order is deterministic.

#![warn(missing_docs)]

pub mod metrics;
pub mod profile;
pub mod trace;

pub use metrics::{Histogram, MetricKey, MetricsRegistry};
pub use profile::{SystemClock, WallClock};
pub use trace::{TraceEvent, TraceKind};

use std::sync::{Arc, Mutex, MutexGuard};

/// The shared state behind an enabled [`Obs`] handle.
struct ObsCore {
    metrics: MetricsRegistry,
    /// Every emitted event in arrival order, when recording.
    trace: Option<Vec<TraceEvent>>,
}

/// The observability handle instrumented components hold.
///
/// Cheap to clone (an `Arc` bump, or nothing when off) and cheap to call
/// when off (one `Option` branch). Constructors: [`Obs::off`] (the
/// default), [`Obs::enabled`] (metrics only; trace events are dropped)
/// and [`Obs::recording`] (metrics plus every trace event).
#[derive(Clone, Default)]
pub struct Obs {
    core: Option<Arc<Mutex<ObsCore>>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.core.is_some() {
            "Obs(on)"
        } else {
            "Obs(off)"
        })
    }
}

impl Obs {
    /// Observability disabled: every call is a branch on `None`.
    pub fn off() -> Self {
        Self { core: None }
    }

    /// Metrics enabled, trace events dropped.
    pub fn enabled() -> Self {
        Self::with_trace(None)
    }

    /// Metrics enabled, trace events kept in arrival order.
    pub fn recording() -> Self {
        Self::with_trace(Some(Vec::new()))
    }

    fn with_trace(trace: Option<Vec<TraceEvent>>) -> Self {
        Self {
            core: Some(Arc::new(Mutex::new(ObsCore {
                metrics: MetricsRegistry::new(),
                trace,
            }))),
        }
    }

    fn lock(&self) -> Option<MutexGuard<'_, ObsCore>> {
        // A poisoned lock just means some other observer panicked
        // mid-record; the registry itself is always structurally sound,
        // so keep observing rather than propagate the panic.
        self.core
            .as_ref()
            .map(|core| core.lock().unwrap_or_else(|poisoned| poisoned.into_inner()))
    }

    /// Increment a counter by 1.
    pub fn inc(&self, name: &'static str) {
        self.inc_by(name, 1);
    }

    /// Increment a counter by `n`.
    pub fn inc_by(&self, name: &'static str, n: u64) {
        if let Some(mut core) = self.lock() {
            core.metrics.inc_by(MetricKey { name, index: None }, n);
        }
    }

    /// Increment the `index`-th instance of a counter (per shard, say).
    pub fn inc_indexed(&self, name: &'static str, index: usize) {
        if let Some(mut core) = self.lock() {
            core.metrics.inc_by(
                MetricKey {
                    name,
                    index: Some(index),
                },
                1,
            );
        }
    }

    /// Record a histogram observation.
    pub fn observe(&self, name: &'static str, value: f64) {
        if let Some(mut core) = self.lock() {
            core.metrics.observe(MetricKey { name, index: None }, value);
        }
    }

    /// Pre-register counters and histograms so steady-state recording
    /// never allocates — instrumented components call this once when the
    /// handle is attached, which keeps the session's allocation-budget
    /// test honest with observability enabled.
    pub fn preregister(&self, counters: &[&'static str], histograms: &[&'static str]) {
        if let Some(mut core) = self.lock() {
            for name in counters {
                core.metrics.ensure_counter(MetricKey { name, index: None });
            }
            for name in histograms {
                core.metrics
                    .ensure_histogram(MetricKey { name, index: None });
            }
        }
    }

    /// Emit a trace event: kept when recording, dropped otherwise.
    pub fn emit(&self, event: TraceEvent) {
        if let Some(mut core) = self.lock() {
            if let Some(trace) = core.trace.as_mut() {
                trace.push(event);
            }
        }
    }

    /// Current value of a counter (0 when off or never touched).
    pub fn counter(&self, name: &'static str) -> u64 {
        self.lock().map_or(0, |core| {
            core.metrics.counter(MetricKey { name, index: None })
        })
    }

    /// Clone a histogram out of the registry (`None` when off or absent).
    pub fn histogram(&self, name: &'static str) -> Option<Histogram> {
        self.lock()?
            .metrics
            .histogram(MetricKey { name, index: None })
            .cloned()
    }

    /// Merge every histogram registered under any of `names` (scalar and
    /// indexed instances alike) into one combined histogram.
    pub fn merged_histogram(&self, names: &[&str]) -> Histogram {
        let mut merged = Histogram::new();
        if let Some(core) = self.lock() {
            for name in names {
                merged.merge(&core.metrics.merged_histogram(name));
            }
        }
        merged
    }

    /// The `q`-quantile of a histogram (0 when off, absent or empty —
    /// never NaN, so summaries stay gate-comparable).
    pub fn quantile(&self, name: &'static str, q: f64) -> f64 {
        self.histogram(name).map_or(0.0, |h| h.quantile(q))
    }

    /// The whole registry as a single-line JSON summary.
    pub fn summary_json(&self) -> String {
        self.lock()
            .map_or_else(|| "{}".to_string(), |core| core.metrics.summary_json())
    }

    /// Every recorded trace event as JSONL, one event per line (empty when
    /// off or not recording).
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        if let Some(core) = self.lock() {
            for event in core.trace.iter().flatten() {
                out.push_str(&event.to_json());
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_off_handle_ignores_everything() {
        let obs = Obs::off();
        obs.inc("x");
        obs.observe("h", 1.0);
        obs.emit(TraceEvent::new(TraceKind::Decision, 0.0));
        assert_eq!(obs.counter("x"), 0);
        assert_eq!(obs.histogram("h"), None);
        assert_eq!(obs.quantile("h", 0.5), 0.0);
        assert_eq!(obs.summary_json(), "{}");
        assert_eq!(obs.trace_jsonl(), "");
    }

    #[test]
    fn clones_share_one_registry() {
        let obs = Obs::enabled();
        let other = obs.clone();
        obs.inc("decisions");
        other.inc("decisions");
        other.observe("latency", 0.5);
        assert_eq!(obs.counter("decisions"), 2);
        assert_eq!(obs.histogram("latency").map(|h| h.count()), Some(1));
    }

    #[test]
    fn recording_handle_captures_events_in_order() {
        let obs = Obs::recording();
        obs.emit(TraceEvent::new(TraceKind::FrameSent, 0.1).with_seq(1));
        obs.emit(TraceEvent::new(TraceKind::FrameReceived, 0.2).with_seq(1));
        let jsonl = obs.trace_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("frame_sent"));
        // The metrics-only handle drops events: same API, no capture.
        let quiet = Obs::enabled();
        quiet.emit(TraceEvent::new(TraceKind::FrameSent, 0.1));
        assert_eq!(quiet.trace_jsonl(), "");
    }

    #[test]
    fn metrics_roll_up_through_merged_histogram() {
        let obs = Obs::enabled();
        obs.observe("advance", 0.1);
        obs.observe("advance", 0.4);
        obs.observe("other", 0.2);
        let merged = obs.merged_histogram(&["advance", "other"]);
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.max(), 0.4);
        obs.inc_indexed("advances", 1);
        let json = obs.summary_json();
        assert!(json.contains("\"advances_1\":1"), "{json}");
    }
}
