//! # bqsched
//!
//! Umbrella crate of the BQSched reproduction (ICDE 2025, "BQSched: A
//! Non-Intrusive Scheduler for Batch Concurrent Queries via Reinforcement
//! Learning"). It re-exports the workspace crates so applications can depend
//! on a single crate:
//!
//! * [`nn`] — tensor / autodiff / layers substrate,
//! * [`plan`] — plan model and synthetic TPC-DS / TPC-H / JOB workloads,
//! * [`dbms`] — the simulated DBMS substrate (engine, profiles, parameters),
//! * [`core`] — scheduling framework, logs, metrics and heuristics,
//! * [`adapter`] — the async submission adapter (deferred admission,
//!   batched dispatch, backpressure) over any executor backend,
//! * [`wire`] — the framed wire protocol: a `WireServer`/`WireBackend`
//!   pair putting real serialization between the session and any backend,
//! * [`chaos`] — deterministic fault injection: replayable fault schedules
//!   and chaos decorators for transports and backends,
//! * [`obs`] — deterministic observability: metrics registry, log-scale
//!   latency histograms, typed trace events and the one wall-clock read
//!   (`SystemClock`) that reporting-only measurements go through,
//! * [`encoder`] — plan encoder and attention-based state representation,
//! * [`rl`] — PPO / PPG / IQ-PPO,
//! * [`sched`] — the BQSched agent, masking, clustering and the learned
//!   incremental simulator.
//!
//! See the `examples/` directory for end-to-end usage and `crates/bench` for
//! the experiment harness that regenerates every table and figure of the
//! paper.

#![warn(missing_docs)]

pub use bq_adapter as adapter;
pub use bq_chaos as chaos;
pub use bq_core as core;
pub use bq_dbms as dbms;
pub use bq_encoder as encoder;
pub use bq_nn as nn;
pub use bq_obs as obs;
pub use bq_plan as plan;
pub use bq_rl as rl;
pub use bq_sched as sched;
pub use bq_wire as wire;
