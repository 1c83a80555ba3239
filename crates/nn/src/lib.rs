//! # bq-nn
//!
//! A minimal, dependency-light neural network substrate for the BQSched
//! reproduction: dense 2-D tensors, tape-based reverse-mode automatic
//! differentiation, the layers the paper's models need (linear/MLP stacks,
//! multi-head attention with additive biases, layer normalisation) and the
//! Adam optimizer.
//!
//! Each layer's forward pass is defined once, over the [`Ops`] trait. A
//! [`Graph`] records it on the tape for training; [`Eager`] computes the
//! same values without a tape, reading parameters by reference, for the
//! decision loop. Both compute every value with the same
//! [`Tensor`] arithmetic, so the two are bitwise equal.
//!
//! The original BQSched implementation uses PyTorch; this crate replaces it
//! with a CPU-only implementation sized for the paper's models (tens of
//! thousands of parameters, inputs of at most a few hundred rows), so that
//! the whole scheduler — plan encoder, attention state representation,
//! IQ-PPO, gain predictor and the learned incremental simulator — runs
//! without any native ML dependency.
//!
//! ## Quick example
//!
//! Every model trains through [`fit`]: one tape per item, gradients merged
//! in item order, one clipped [`Adam`] step per epoch.
//!
//! ```
//! use bq_nn::{fit, Activation, Adam, Mlp, ParamStore, Tensor};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let mlp = Mlp::new(&mut store, "net", &[2, 8, 1], Activation::Tanh, Activation::None, &mut rng);
//!
//! // (input, target) pairs; each item's loss is its share of the mean.
//! let items = [([0.0, 1.0], 1.0), ([1.0, 0.0], -1.0)];
//! let mse: f64 = fit(&mut store, &mut Adam::new(0.01), &items, None, 10, 1.0, |g, store, (x, y)| {
//!     let xi = g.input(Tensor::row(x));
//!     let pred = mlp.forward(g, store, &xi);
//!     let loss = g.mse_loss(pred, &Tensor::scalar(*y));
//!     (g.scale(loss, 0.5), f64::from(g.value(loss).item()))
//! });
//! assert!(mse.is_finite());
//! ```

#![warn(missing_docs)]

pub mod graph;
pub mod incremental;
pub mod layers;
pub mod math;
pub mod ops;
pub mod optim;
pub mod params;
pub mod tensor;

pub use graph::{Graph, NodeId};
pub use incremental::IncrementalAttention;
pub use layers::{
    Activation, AttentionBlock, AttentionHead, LayerNorm, Linear, Mlp, MultiHeadAttention,
};
pub use ops::{Eager, Ops};
pub use optim::{fit, Adam, EpochStats};
pub use params::{Param, ParamId, ParamStore};
pub use tensor::Tensor;
