//! The Adam optimizer and [`fit`], the one training loop that steps it,
//! operating on a [`ParamStore`].

use crate::graph::{Graph, NodeId};
use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Adam optimizer (Kingma & Ba) — the default optimizer for every learned
/// component of BQSched (policy/value/auxiliary networks, the gain predictor
/// and the learned incremental simulator).
#[derive(Debug, Clone)]
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

/// An epoch's statistics in [`fit`]: the mean over the epoch's items of
/// each item's statistics.
pub trait EpochStats: Copy + Default + Send {
    /// Add `item / n` to `self`, field by field.
    fn add_share(&mut self, item: Self, n: f32);
}

/// No statistics.
impl EpochStats for () {
    fn add_share(&mut self, _item: (), _n: f32) {}
}

/// One mean loss, summed in f64.
impl EpochStats for f64 {
    fn add_share(&mut self, item: f64, n: f32) {
        *self += item / f64::from(n);
    }
}

/// Items evaluated per thread between two in-order merges. The gradients in
/// flight are bounded by `threads * WINDOW_PER_THREAD` items' worth.
const WINDOW_PER_THREAD: usize = 8;

/// `threads`, or else the host's available parallelism, read once per
/// process (each read costs tens of microseconds, and [`fit`] runs once per
/// step when a caller steps item by item).
fn thread_count(threads: Option<usize>) -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    let host = || *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    threads.unwrap_or_else(host).max(1)
}

/// `epochs` optimization epochs of `loss` over `items`: the training loop of
/// every learned model. Each epoch zeroes the gradients, accumulates every
/// item's in item order, clips them to the global norm `max_grad_norm` and
/// takes one `optimizer` step. Items are evaluated on `threads` threads
/// (`None`: every core). Returns the last epoch's statistics, or the
/// default at once when there are no items.
///
/// `loss` records an item's scalar loss on a fresh tape and returns it with
/// the item's statistics; it only reads the store. The in-order merge
/// performs the f32 additions of a per-item [`Graph::backward`] +
/// [`Graph::flush_grads`] loop, so the parameters, the optimizer's moments
/// and the statistics are bitwise independent of the thread count.
pub fn fit<T: Sync, S: EpochStats>(
    store: &mut ParamStore,
    optimizer: &mut Adam,
    items: &[T],
    threads: Option<usize>,
    epochs: usize,
    max_grad_norm: f32,
    loss: impl Fn(&mut Graph, &ParamStore, &T) -> (NodeId, S) + Sync,
) -> S {
    let mut stats = S::default();
    if items.is_empty() {
        return stats;
    }
    let (threads, n) = (thread_count(threads), items.len() as f32);
    for _ in 0..epochs {
        store.zero_grads();
        let mut epoch = S::default();
        accumulate_in_order(store, items, threads, &loss, |s| epoch.add_share(s, n));
        store.clip_grad_norm(max_grad_norm);
        optimizer.step(store);
        stats = epoch;
    }
    stats
}

/// Record `loss(item)` on a fresh tape and differentiate it for every item,
/// on `threads` threads (this one included). Then, on this thread and in
/// item order, pass each item's statistics to `merge` and accumulate its
/// parameter gradients into `store`. The merge performs the same f32
/// additions in the same order for any `threads`.
fn accumulate_in_order<T: Sync, S: Send>(
    store: &mut ParamStore,
    items: &[T],
    threads: usize,
    loss: impl Fn(&mut Graph, &ParamStore, &T) -> (NodeId, S) + Sync,
    mut merge: impl FnMut(S),
) {
    let evaluate = |store: &ParamStore, item: &T| -> (S, Vec<(ParamId, Tensor)>) {
        let mut g = Graph::new();
        let (loss, stats) = loss(&mut g, store, item);
        g.backward(loss);
        (stats, g.into_param_grads())
    };
    for window in items.chunks(threads * WINDOW_PER_THREAD) {
        let shared: &ParamStore = store;
        let next = AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            loop {
                // Each index is claimed once; the scope's join publishes the
                // results, so no stronger ordering is needed.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = window.get(i) else {
                    return done;
                };
                done.push((i, evaluate(shared, item)));
            }
        };
        let mut done = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads.min(window.len()))
                .map(|_| scope.spawn(work))
                .collect();
            let mut done = work();
            for helper in helpers {
                done.extend(
                    helper
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                );
            }
            done
        });
        // Item order, whichever thread finished first.
        done.sort_unstable_by_key(|&(i, _)| i);
        for (_, (stats, grads)) in done {
            merge(stats);
            for (id, grad) in &grads {
                store.accumulate_grad(*id, grad);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, Mlp};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::{Barrier, Condvar, Mutex};

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

    fn bits<'a>(values: impl IntoIterator<Item = &'a f32>) -> Vec<u32> {
        values.into_iter().map(|x| x.to_bits()).collect()
    }

    /// Fit a fresh MLP to 61 random regression pairs on `threads` threads:
    /// the bits of every parameter, Adam moment and returned mean loss.
    fn regression_bits(threads: usize) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            "net",
            &[3, 8, 1],
            Activation::Tanh,
            Activation::None,
            &mut rng,
        );
        // 61 items: full and partial windows for every thread count.
        let items: Vec<([f32; 3], f32)> = (0..61)
            .map(|_| ([rng.gen(), rng.gen(), rng.gen()], rng.gen_range(-1.0..1.0)))
            .collect();
        let n = items.len() as f32;
        let mut adam = Adam::new(0.01);
        let mse: f64 = fit(
            &mut store,
            &mut adam,
            &items,
            Some(threads),
            3,
            0.5,
            |g, store, (x, y)| {
                let xi = g.input(Tensor::row(x));
                let pred = mlp.forward(g, store, &xi);
                let loss = g.mse_loss(pred, &Tensor::scalar(*y));
                (g.scale(loss, 1.0 / n), f64::from(g.value(loss).item()))
            },
        );
        let (m, v) = adam.moments();
        let mut out = bits(store.iter().flat_map(|(_, p)| p.value.data()));
        out.extend(bits(m.iter().chain(v).flat_map(|t| t.data())));
        out.extend([mse.to_bits() as u32, (mse.to_bits() >> 32) as u32]);
        out
    }

    #[test]
    fn fit_is_bitwise_independent_of_the_thread_count() {
        let one = regression_bits(1);
        for threads in [2, 3] {
            assert!(
                regression_bits(threads) == one,
                "{threads} threads differ from 1 thread"
            );
        }
    }

    #[test]
    fn fit_merges_like_a_per_item_flush_loop() {
        // The loop a model would write by hand: every item's tape
        // backpropagated and flushed in order, then one clipped step.
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let w = store.add_xavier("w", 2, 2, &mut rng);
        let items: Vec<[f32; 2]> = (0..20).map(|_| [rng.gen(), rng.gen()]).collect();
        let loss = |g: &mut Graph, store: &ParamStore, x: &[f32; 2]| {
            let xi = g.input(Tensor::row(x));
            let wi = g.param(store, w);
            let y = g.matmul(xi, wi);
            let y = g.tanh(y);
            (g.mean_all(y), ())
        };
        let mut by_hand = store.clone();
        let mut adam = Adam::new(0.1);
        for _ in 0..2 {
            by_hand.zero_grads();
            for x in &items {
                let mut g = Graph::new();
                let (l, ()) = loss(&mut g, &by_hand, x);
                g.backward(l);
                g.flush_grads(&mut by_hand);
            }
            by_hand.clip_grad_norm(0.1);
            adam.step(&mut by_hand);
        }
        fit(&mut store, &mut Adam::new(0.1), &items, None, 2, 0.1, loss);
        assert_eq!(bits(store.value(w).data()), bits(by_hand.value(w).data()));
    }

    #[test]
    fn merge_follows_item_order_not_completion_order() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(1.0));
        for threads in [1, 2, 3] {
            // Whole windows, so every group below is complete.
            let items: Vec<usize> = (0..2 * threads * WINDOW_PER_THREAD).collect();
            // Each group of `threads` consecutive items meets at the barrier,
            // so every thread holds one of them; then the group finishes in
            // reverse, the last item first.
            let barrier = Barrier::new(threads);
            let finished = (Mutex::new(0usize), Condvar::new());
            let loss = |g: &mut Graph, store: &ParamStore, &i: &usize| {
                barrier.wait();
                let (count, turn) = &finished;
                let mut count = count.lock().expect("no thread panics holding it");
                while *count % threads != threads - 1 - i % threads {
                    count = turn.wait(count).expect("no thread panics holding it");
                }
                *count += 1;
                turn.notify_all();
                drop(count);
                let wi = g.param(store, w);
                (g.scale(wi, 1.0 / (i + 1) as f32), i)
            };
            let mut merged = Vec::new();
            accumulate_in_order(&mut store, &items, threads, loss, |i| merged.push(i));
            assert_eq!(merged, items, "{threads} threads");
        }
    }
}
