//! # bq-perfbench
//!
//! Wall-clock benchmark of the BQSched reproduction. Three workloads (the
//! trained agent's greedy decision loop, whose set-up includes IQ-PPO
//! training; FIFO over the sharded engine; FIFO over `bq-serve` sockets)
//! are timed end to end with tracing off, and layer by layer in a separate
//! traced run whose spans come from decorators around the program's public
//! entry points. See `README.md`.

pub mod affinity;
pub mod bench;
pub mod layers;
pub mod probe;
pub mod procfs;
pub mod train;
