//! # bq-dbms
//!
//! Simulated DBMS substrate for the BQSched reproduction.
//!
//! The paper schedules batch queries against real systems (two centralized
//! DBMSs and one distributed cloud DBMS). Because BQSched is *non-intrusive*,
//! its only interface to those systems is: submit a query with running
//! parameters on a connection, and observe when it finishes. This crate
//! provides exactly that interface on top of a discrete-event execution
//! engine with an explicit resource model:
//!
//! * [`executor`] — the executor surface itself: the [`ExecutorBackend`]
//!   trait every backend implements, the [`ExecEvent`] / [`FaultEvent`]
//!   streams it yields, the [`RunningView`] over its occupancy and the
//!   [`ShardTopology`] it reports;
//! * [`profiles`] — resource envelopes for DBMS-X / DBMS-Y / DBMS-Z
//!   (cores, I/O bandwidth, buffer pool, connections, noise, internal
//!   contention mitigation);
//! * [`params`] — per-query running parameters (parallel workers × memory
//!   grant) forming the action space BQSched prunes with adaptive masking;
//! * [`buffer`] — a table-granular LRU buffer pool providing the
//!   resource-*sharing* dynamics;
//! * [`engine`] — the event-driven concurrent execution engine providing the
//!   resource-*contention* and long-tail dynamics;
//! * [`shard`] — the sharded multi-engine backend: N independent engines,
//!   each driven through [`ExecutorBackend`] like any other backend, behind
//!   one connection-slot space with a deterministic cross-shard event merge
//!   (interference stays intra-shard).
//!
//! Any of these backends can also be hosted behind the framed wire
//! protocol of the `bq-wire` crate, which serializes this crate's types
//! ([`ConnectionSlot`], [`RunParams`], [`QueryCompletion`],
//! [`AdvanceStall`]) through a versioned binary codec.
//!
//! ```
//! use bq_dbms::{DbmsProfile, ExecEvent, ExecutionEngine, ExecutorBackend, RunParams};
//! use bq_plan::{generate, Benchmark, QueryId, WorkloadSpec};
//!
//! let workload = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
//! let mut engine = ExecutionEngine::new(DbmsProfile::dbms_x(), &workload, 42);
//! engine.submit(QueryId(0), RunParams::default_config(), 0);
//! let echo = ExecEvent::Submitted { query: QueryId(0), connection: 0 };
//! assert_eq!(engine.poll_event(), echo);
//! let ExecEvent::Completed(done) = engine.poll_event() else {
//!     panic!("query 0 is running");
//! };
//! assert_eq!(done.query, QueryId(0));
//! assert_eq!(engine.poll_event(), ExecEvent::Idle);
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod engine;
pub mod executor;
pub mod params;
pub mod profiles;
pub mod shard;

pub use buffer::BufferPool;
pub use engine::{AdvanceStall, ConnectionSlot, ExecutionEngine, QueryCompletion};
pub use executor::{ExecEvent, ExecutorBackend, FaultEvent, RunningView, ShardTopology};
pub use params::{MemoryGrant, ParamSpace, RunParams, WORKER_OPTIONS};
pub use profiles::{DbmsKind, DbmsProfile};
pub use shard::ShardedEngine;
