//! The Adam optimizer, operating on a [`ParamStore`].

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
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
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
                let g = p.grad.data()[i];
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
    fn step_zeroes_gradients() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::row(&[1.0]));
        store.accumulate_grad(id, &Tensor::row(&[2.0]));
        let mut adam = Adam::new(0.01);
        adam.step(&mut store);
        assert_eq!(store.grad(id).data(), &[0.0]);
    }
}
