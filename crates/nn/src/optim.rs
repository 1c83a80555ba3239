//! First-order optimizers operating on a [`ParamStore`].

use crate::params::ParamStore;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Adam optimizer (Kingma & Ba) — the default optimizer for every learned
/// component of BQSched (policy/value/auxiliary networks, the gain predictor
/// and the learned incremental simulator).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical stabiliser.
    pub eps: f32,
    /// L2 weight decay (0 disables it).
    pub weight_decay: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Create an Adam optimizer with the given learning rate and default
    /// moment coefficients (0.9 / 0.999).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Builder-style weight decay setter.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// First and second moment estimates, one tensor per parameter (empty
    /// before the first step).
    pub fn moments(&self) -> (&[Tensor], &[Tensor]) {
        (&self.m, &self.v)
    }

    fn ensure_state(&mut self, store: &ParamStore) {
        while self.m.len() < store.len() {
            let idx = self.m.len();
            let p = store.get(crate::params::ParamId(idx));
            self.m.push(Tensor::zeros(p.value.rows(), p.value.cols()));
            self.v.push(Tensor::zeros(p.value.rows(), p.value.cols()));
        }
    }

    /// Apply one update using the gradients currently accumulated in `store`,
    /// then zero the gradients.
    pub fn step(&mut self, store: &mut ParamStore) {
        self.ensure_state(store);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (id, p) in store.iter_mut() {
            let idx = id.index();
            let m = &mut self.m[idx];
            let v = &mut self.v[idx];
            for i in 0..p.value.len() {
                let mut g = p.grad.data()[i];
                if self.weight_decay > 0.0 {
                    g += self.weight_decay * p.value.data()[i];
                }
                let mi = self.beta1 * m.data()[i] + (1.0 - self.beta1) * g;
                let vi = self.beta2 * v.data()[i] + (1.0 - self.beta2) * g * g;
                m.data_mut()[i] = mi;
                v.data_mut()[i] = vi;
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                p.value.data_mut()[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
        store.zero_grads();
    }
}

/// Plain stochastic gradient descent, used in a few unit tests and available
/// for ablation experiments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Create an SGD optimizer.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            momentum: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Builder-style momentum setter.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Apply one update using accumulated gradients, then zero them.
    pub fn step(&mut self, store: &mut ParamStore) {
        while self.velocity.len() < store.len() {
            let idx = self.velocity.len();
            let p = store.get(crate::params::ParamId(idx));
            self.velocity
                .push(Tensor::zeros(p.value.rows(), p.value.cols()));
        }
        for (id, p) in store.iter_mut() {
            let vel = &mut self.velocity[id.index()];
            for i in 0..p.value.len() {
                let g = p.grad.data()[i];
                let v = self.momentum * vel.data()[i] + g;
                vel.data_mut()[i] = v;
                p.value.data_mut()[i] -= self.lr * v;
            }
        }
        store.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn quadratic_loss(store: &ParamStore, id: crate::params::ParamId) -> (Graph, usize) {
        // loss = mean((w - 3)^2)
        let mut g = Graph::new();
        let w = g.param(store, id);
        let target = Tensor::full(1, 4, 3.0);
        let loss = g.mse_loss(w, &target);
        (g, loss)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::row(&[0.0, 10.0, -5.0, 1.0]));
        let mut adam = Adam::new(0.1);
        for _ in 0..500 {
            store.zero_grads();
            let (mut g, loss) = quadratic_loss(&store, id);
            g.backward(loss);
            g.flush_grads(&mut store);
            adam.step(&mut store);
        }
        for &v in store.value(id).data() {
            assert!((v - 3.0).abs() < 0.05, "value {v} did not converge to 3");
        }
        assert_eq!(adam.steps(), 500);
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::row(&[0.0, 6.0, -2.0, 3.0]));
        let mut sgd = Sgd::new(0.5).with_momentum(0.5);
        for _ in 0..200 {
            store.zero_grads();
            let (mut g, loss) = quadratic_loss(&store, id);
            g.backward(loss);
            g.flush_grads(&mut store);
            sgd.step(&mut store);
        }
        for &v in store.value(id).data() {
            assert!((v - 3.0).abs() < 0.05, "value {v} did not converge to 3");
        }
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::row(&[1.0]));
        store.accumulate_grad(id, &Tensor::row(&[2.0]));
        let mut adam = Adam::new(0.01);
        adam.step(&mut store);
        assert_eq!(store.grad(id).data(), &[0.0]);
    }

    #[test]
    fn weight_decay_shrinks_unused_weights() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::row(&[5.0]));
        let mut adam = Adam::new(0.1).with_weight_decay(0.1);
        // Gradient is zero; only weight decay acts.
        for _ in 0..100 {
            adam.step(&mut store);
        }
        assert!(store.value(id).data()[0].abs() < 5.0);
    }
}
