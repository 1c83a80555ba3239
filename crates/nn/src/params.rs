//! Parameter storage shared by all learnable modules.
//!
//! Parameters live outside the computation graph in a [`ParamStore`], keyed by
//! [`ParamId`]. A forward pass copies parameter values into graph leaves; the
//! backward pass accumulates gradients back into the store, where an optimizer
//! ([`crate::optim`]) consumes them. This keeps the tape free of any borrow of
//! the store, so a single store can serve many graphs per training iteration
//! (policy phase, auxiliary phase, simulator updates, ...).

use crate::tensor::Tensor;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};

/// The source of every [`ParamStore::version`]: one counter for the whole
/// process, so two stores share a version only if they hold the same
/// values: one is a clone of the other that neither has mutated since, or
/// both are new and empty (version 0).
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

fn next_version() -> u64 {
    NEXT_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Raw index of the parameter in its store.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// A single learnable parameter with its accumulated gradient.
#[derive(Debug, Clone)]
pub struct Param {
    /// Human-readable name, for debugging and test failure messages.
    pub name: String,
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

impl Param {
    fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.rows(), value.cols());
        Self {
            name: name.into(),
            value,
            grad,
        }
    }
}

/// Container for every learnable parameter of a model.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    params: Vec<Param>,
    /// Drawn from a process-wide counter on every mutable access to
    /// parameter values. Caches of values derived from parameters (e.g. the
    /// decision loop's projected input rows) compare it to decide whether
    /// they are stale.
    version: u64,
}

impl ParamStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Version of the parameter values: any call that could have mutated a
    /// value (registration, `get_mut`, `iter_mut`) draws a new one from a
    /// process-wide counter, and a clone keeps its original's. So equal
    /// versions imply equal values, across stores too: a cache derived from
    /// parameter values is valid exactly as long as the version it was
    /// built at matches, whichever store it is then used with.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Register a parameter with an explicit initial value.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = ParamId(self.params.len());
        self.params.push(Param::new(name, value));
        self.version = next_version();
        id
    }

    /// Register a parameter initialised with Xavier/Glorot-uniform values,
    /// the default for the linear and attention layers in BQSched.
    pub fn add_xavier(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        rng: &mut impl Rng,
    ) -> ParamId {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-limit..limit))
            .collect();
        self.add(name, Tensor::from_vec(rows, cols, data))
    }

    /// Register a zero-initialised parameter (used for biases).
    pub fn add_zeros(&mut self, name: impl Into<String>, rows: usize, cols: usize) -> ParamId {
        self.add(name, Tensor::zeros(rows, cols))
    }

    /// Number of registered parameters (tensors, not scalar elements).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Immutable access to a parameter.
    pub fn get(&self, id: ParamId) -> &Param {
        &self.params[id.0]
    }

    /// Mutable access to a parameter.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Param {
        self.version = next_version();
        &mut self.params[id.0]
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].grad
    }

    /// Add `delta` into the gradient accumulator of `id`.
    pub fn accumulate_grad(&mut self, id: ParamId, delta: &Tensor) {
        self.params[id.0].grad.add_assign(delta);
    }

    /// Reset all gradient accumulators to zero.
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.fill(0.0);
        }
    }

    /// Iterate over all parameters.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Param)> {
        self.params.iter().enumerate().map(|(i, p)| (ParamId(i), p))
    }

    /// Iterate mutably over all parameters.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (ParamId, &mut Param)> {
        self.version = next_version();
        self.params
            .iter_mut()
            .enumerate()
            .map(|(i, p)| (ParamId(i), p))
    }

    /// Global L2 norm of all gradients, used for gradient clipping.
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| p.grad.data().iter().map(|g| g * g).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Scale every gradient so the global norm does not exceed `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for p in &mut self.params {
                for g in p.grad.data_mut() {
                    *g *= scale;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn add_and_lookup() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::row(&[1.0, 2.0]));
        assert_eq!(store.value(id).data(), &[1.0, 2.0]);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn xavier_values_in_range() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let id = store.add_xavier("w", 8, 4, &mut rng);
        let limit = (6.0_f32 / 12.0).sqrt();
        assert!(store.value(id).data().iter().all(|v| v.abs() <= limit));
        // Not all zeros.
        assert!(store.value(id).data().iter().any(|&x| x != 0.0));
    }

    #[test]
    fn grad_accumulation_and_zero() {
        let mut store = ParamStore::new();
        let id = store.add_zeros("b", 1, 3);
        store.accumulate_grad(id, &Tensor::row(&[1.0, 2.0, 3.0]));
        store.accumulate_grad(id, &Tensor::row(&[1.0, 1.0, 1.0]));
        assert_eq!(store.grad(id).data(), &[2.0, 3.0, 4.0]);
        store.zero_grads();
        assert_eq!(store.grad(id).data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn grad_clipping_respects_norm() {
        let mut store = ParamStore::new();
        let id = store.add_zeros("w", 1, 2);
        store.accumulate_grad(id, &Tensor::row(&[3.0, 4.0]));
        assert!((store.grad_norm() - 5.0).abs() < 1e-6);
        store.clip_grad_norm(1.0);
        assert!((store.grad_norm() - 1.0).abs() < 1e-5);
        // Direction preserved.
        let g = store.grad(id);
        assert!((g.data()[1] / g.data()[0] - 4.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn clipping_leaves_small_grads_untouched() {
        let mut store = ParamStore::new();
        let id = store.add_zeros("w", 1, 2);
        store.accumulate_grad(id, &Tensor::row(&[0.1, 0.1]));
        let before = store.grad(id).clone();
        store.clip_grad_norm(10.0);
        assert_eq!(store.grad(id), &before);
    }
}
