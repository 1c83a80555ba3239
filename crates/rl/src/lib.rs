//! # bq-rl
//!
//! Reinforcement-learning algorithms for BQSched on the `bq-nn` substrate:
//!
//! * [`RolloutBuffer`] with generalized advantage estimation;
//! * [`IqPpoTrainer`] — the one trainer: clipped-surrogate PPO phases (the
//!   paper's backbone) plus an auxiliary phase. For the paper's IQ-PPO
//!   (Algorithm 1) that phase predicts the finish time of the earliest
//!   concurrent query from the shared state representation, with a
//!   behaviour-cloning KL term. The ablations are the same trainer with
//!   another [`Algorithm`]: PPG re-fits the value targets instead, and
//!   plain PPO skips the phase.
//!
//! The algorithms are model-agnostic: anything implementing [`ActorCritic`]
//! (the BQSched agent, the adapted LSched baseline, or the toy models used in
//! tests) can be trained.

#![warn(missing_docs)]

pub mod algo;
pub mod buffer;

pub use algo::{ActorCritic, Algorithm, AuxStats, IqPpoConfig, IqPpoTrainer, PpoStats};
pub use buffer::{AuxTarget, Estimate, RolloutBuffer, Transition};
