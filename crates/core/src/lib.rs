//! # bq-core
//!
//! The batch-query scheduling framework of the BQSched reproduction: the
//! problem definition from §II of the paper turned into code.
//!
//! The single entry point is [`ScheduleSession`]: configure a round with the
//! builder (workload, then optionally history, DBMS label, round label,
//! completion hook, shard router, recovery policy and observability
//! handle), attach any [`ExecutorBackend`] — the simulated DBMS, the learned
//! incremental simulator, or a wire-protocol client (the `bq-wire` crate)
//! fronting an executor on the far side of a framed byte stream — and
//! [`run`](ScheduleSession::run) it under a [`SchedulerPolicy`]:
//!
//! ```
//! use bq_core::{FifoScheduler, ScheduleSession};
//! use bq_dbms::{DbmsProfile, ExecutionEngine};
//! use bq_plan::{generate, Benchmark, WorkloadSpec};
//!
//! let workload = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
//! let profile = DbmsProfile::dbms_x();
//! let mut engine = ExecutionEngine::new(profile.clone(), &workload, 0);
//! let log = ScheduleSession::builder(&workload)
//!     .dbms(profile.kind)
//!     .round(0)
//!     .build(&mut engine)
//!     .run(&mut FifoScheduler::new());
//! assert_eq!(log.len(), workload.len());
//! assert!(log.makespan() > 0.0);
//! ```
//!
//! The executor surface is event-driven and allocation-free: backends expose
//! borrowed [`ConnectionSlot`] views and yield [`ExecEvent`]s one at a time,
//! and the session owns the runtime arena that [`SchedulingState`] borrows —
//! no per-decision cloning anywhere on the hot path. [`ExecutorBackend`] and
//! the types in its signatures ([`ExecEvent`], [`FaultEvent`],
//! [`RunningView`], [`ShardTopology`]) are defined in `bq-dbms`, beside the
//! engines that implement them, and re-exported here.
//!
//! Module map:
//!
//! * [`session`] — the [`ScheduleSession`] builder/facade and its event loop;
//! * [`scheduler`] — the [`SchedulerPolicy`] trait every strategy implements
//!   and the [`RecoveryPolicy`] applied to work a fault lost;
//! * [`state`] — what a scheduler observes ([`SchedulingState`]) and decides
//!   ([`Action`]): the next pending query plus its running parameters;
//! * [`routing`] — shard-aware placement over a partitioned slot space: the
//!   [`ShardRouter`] policies over the [`ShardTopology`] every backend
//!   reports (monolithic backends are the single-shard degenerate case);
//! * [`rng`] — the one blessed home of seeded randomness: the SplitMix64
//!   finalizer ([`rng::mix`]) and the keyed uniform draws ([`rng::unit`] /
//!   [`rng::stream_unit`]) every deterministic stream must flow through
//!   (enforced by `bq-lint`);
//! * [`log`] — per-round execution logs and the accumulated
//!   [`ExecutionHistory`] that feeds MCF, adaptive masking, gain clustering
//!   and the incremental simulator;
//! * [`metrics`] — the paper's `t̄_ov` / `σ_ov` evaluation protocol;
//! * [`heuristics`] — Random, FIFO and MCF baselines;
//! * [`gantt`] — Gantt-chart extraction for the Figure 9 case study.

#![warn(missing_docs)]

pub mod gantt;
pub mod heuristics;
pub mod log;
pub mod metrics;
pub mod rng;
pub mod routing;
pub mod scheduler;
pub mod session;
pub mod state;

pub use bq_dbms::{
    AdvanceStall, ConnectionSlot, ExecEvent, ExecutorBackend, FaultEvent, RunningView,
    ShardTopology,
};
pub use bq_obs::{Obs, SystemClock, TraceEvent, TraceKind, WallClock};
pub use gantt::{GanttBar, GanttChart};
pub use heuristics::{FifoScheduler, McfScheduler, RandomScheduler};
pub use log::{EpisodeLog, ExecutionHistory, QueryRecord};
pub use metrics::{
    collect_history, degraded_evaluation, evaluate_strategy, mean, std_dev, DegradedEvaluation,
    StrategyEvaluation,
};
pub use routing::{FaultAwareRouter, FirstFreeRouter, HashRouter, LeastLoadedRouter, ShardRouter};
pub use scheduler::{RecoveryPolicy, SchedulerPolicy};
pub use session::{CompletionHook, ScheduleSession, ScheduleSessionBuilder};
pub use state::{Action, QueryRuntime, QueryStatus, SchedulingState};
