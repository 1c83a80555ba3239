//! # bq-encoder
//!
//! Learned representations for BQSched: a QueryFormer-style tree-Transformer
//! plan encoder and the attention-based batch-query state representation of
//! §III-A in the paper, both built on the `bq-nn` autodiff substrate.
//!
//! The typical pipeline is:
//!
//! 1. build a [`PlanEncoder`], optionally pre-train it on cost prediction
//!    ([`pretrain_on_cost`]),
//! 2. pre-compute per-query plan embeddings with
//!    [`PlanEncoder::embed_workload`],
//! 3. at every scheduling step, build an [`EncodedObservation`] from the
//!    current [`bq_core::SchedulingState`] and run it through a
//!    [`StateEncoder`] to obtain per-query (`x''_i`) and global (`x''_s`)
//!    representations, on which `bq-sched` mounts its policy, value,
//!    auxiliary and simulator heads.

#![warn(missing_docs)]

pub mod features;
pub mod plan_encoder;
pub mod state_encoder;

pub use features::{
    mean_features, node_features, plan_node_features, tree_bias, write_state_features,
    NODE_FEATURE_DIM, STATE_FEATURE_DIM, TABLE_BUCKETS, TIME_SCALE,
};
pub use plan_encoder::{pretrain_on_cost, PlanEncoder, PlanEncoderConfig, PretrainReport};
pub use state_encoder::{
    EncodedObservation, InputRowCache, StateEncoder, StateEncoderConfig, StateRepr,
};
