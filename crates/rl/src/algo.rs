//! Policy-optimization algorithms: PPO, PPG and the paper's IQ-PPO.
//!
//! All three share the clipped-surrogate PPO core (§III-B). They differ in
//! the auxiliary phase that runs every few PPO iterations:
//!
//! * **PPO** — no auxiliary phase;
//! * **PPG** — re-fits the (GAE-estimated) value targets through the shared
//!   representation, with a behaviour-cloning KL term;
//! * **IQ-PPO** — predicts the ground-truth finish time of the earliest
//!   concurrent query to finish (a *real* signal from the execution logs)
//!   through the shared representation, with the same KL term.

use crate::buffer::{Estimate, RolloutBuffer, Transition};
use bq_nn::{Adam, Graph, NodeId, ParamId, ParamStore, Tensor};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A model that exposes a policy head, a value head and an auxiliary
/// finish-time head over a shared state representation.
///
/// The trainers evaluate transitions on every core, so the model and its
/// observations are shared across threads (read only).
pub trait ActorCritic: Sync {
    /// Observation type stored in rollout buffers.
    type Obs: Sync;

    /// Record policy logits (`[1, A]`) and state value (`[1, 1]`) for `obs`.
    fn evaluate(&self, g: &mut Graph, store: &ParamStore, obs: &Self::Obs) -> (NodeId, NodeId);

    /// Record the auxiliary finish-time prediction (`[1, 1]`) for entity
    /// `index` of `obs` (the earliest concurrent query to finish).
    fn aux_prediction(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        obs: &Self::Obs,
        index: usize,
    ) -> NodeId;
}

/// Hyper-parameters shared by the PPO core of all three algorithms.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PpoConfig {
    /// Clipping parameter ε.
    pub clip: f32,
    /// Value-loss coefficient β_V.
    pub value_coef: f32,
    /// Entropy-bonus coefficient β_S.
    pub entropy_coef: f32,
    /// Optimization epochs per update.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// GAE λ.
    pub lambda: f32,
    /// Global gradient-norm clip.
    pub max_grad_norm: f32,
}

impl Default for PpoConfig {
    fn default() -> Self {
        Self {
            clip: 0.2,
            value_coef: 0.5,
            entropy_coef: 0.01,
            epochs: 3,
            lr: 3e-4,
            gamma: 0.99,
            lambda: 0.95,
            max_grad_norm: 0.5,
        }
    }
}

/// Diagnostics of one PPO update.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct PpoStats {
    /// Mean clipped-surrogate (policy) loss.
    pub policy_loss: f32,
    /// Mean value loss.
    pub value_loss: f32,
    /// Mean policy entropy.
    pub entropy: f32,
}

/// Diagnostics of one auxiliary phase.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct AuxStats {
    /// Mean auxiliary prediction loss.
    pub aux_loss: f32,
    /// Mean KL divergence to the pre-auxiliary policy.
    pub kl: f32,
}

/// Plain PPO trainer.
#[derive(Debug)]
pub struct PpoTrainer {
    /// Hyper-parameters.
    pub config: PpoConfig,
    optimizer: Adam,
    threads: Option<usize>,
}

impl PpoTrainer {
    /// Create a trainer with the given configuration.
    pub fn new(config: PpoConfig) -> Self {
        Self {
            optimizer: Adam::new(config.lr),
            config,
            threads: None,
        }
    }

    /// Test hook: evaluate transitions on exactly `threads` threads instead
    /// of [`std::thread::available_parallelism`]. The result does not
    /// depend on it; tests use it to prove that.
    #[doc(hidden)]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// The optimizer, whose moment estimates carry over between updates.
    pub fn optimizer(&self) -> &Adam {
        &self.optimizer
    }

    /// Run one PPO update on `buffer` and return diagnostics.
    pub fn update<M: ActorCritic>(
        &mut self,
        model: &M,
        store: &mut ParamStore,
        buffer: &RolloutBuffer<M::Obs>,
    ) -> PpoStats {
        if buffer.is_empty() {
            return PpoStats::default();
        }
        let threads = thread_count(self.threads);
        let estimates = buffer.normalized_gae(self.config.gamma, self.config.lambda);
        let items: Vec<_> = buffer.transitions().iter().zip(&estimates).collect();
        let n = buffer.len() as f32;
        let loss =
            |g: &mut Graph, store: &ParamStore, &(t, est): &(&Transition<M::Obs>, &Estimate)| {
                let (logits, value) = model.evaluate(g, store, &t.obs);
                let num_actions = g.value(logits).cols();
                let one_hot = Tensor::one_hot(num_actions, t.action);
                let logp = g.log_softmax_rows(logits);
                let picked = g.mul_const(logp, &one_hot);
                let logp_a = g.sum_rows(picked);
                let shifted = g.add_scalar(logp_a, -t.log_prob);
                let ratio = g.exp(shifted);
                let adv = Tensor::scalar(est.advantage);
                let surr1 = g.mul_const(ratio, &adv);
                let clipped = g.clamp(ratio, 1.0 - self.config.clip, 1.0 + self.config.clip);
                let surr2 = g.mul_const(clipped, &adv);
                let surr = g.min_elem(surr1, surr2);
                let surr_mean = g.mean_all(surr);
                let policy_loss = g.scale(surr_mean, -1.0);

                let value_loss_full = g.mse_loss(value, &Tensor::scalar(est.value_target));
                let value_loss = g.scale(value_loss_full, 0.5);
                let entropy = g.softmax_entropy(logits);

                let weighted_value = g.scale(value_loss, self.config.value_coef);
                let weighted_entropy = g.scale(entropy, -self.config.entropy_coef);
                let sum1 = g.add(policy_loss, weighted_value);
                let total = g.add(sum1, weighted_entropy);
                let stats = PpoStats {
                    policy_loss: g.value(policy_loss).item(),
                    value_loss: g.value(value_loss).item(),
                    entropy: g.value(entropy).item(),
                };
                (g.scale(total, 1.0 / n), stats)
            };
        let mut stats = PpoStats::default();
        for _ in 0..self.config.epochs {
            store.zero_grads();
            let mut epoch = PpoStats::default();
            accumulate_in_order(store, &items, threads, loss, |s| {
                epoch.policy_loss += s.policy_loss / n;
                epoch.value_loss += s.value_loss / n;
                epoch.entropy += s.entropy / n;
            });
            store.clip_grad_norm(self.config.max_grad_norm);
            self.optimizer.step(store);
            stats = epoch;
        }
        stats
    }
}

/// Transitions evaluated per thread between two in-order merges. The
/// gradients in flight are bounded by `threads * WINDOW_PER_THREAD`
/// transitions' worth.
const WINDOW_PER_THREAD: usize = 8;

/// `threads`, or else the host's available parallelism.
fn thread_count(threads: Option<usize>) -> usize {
    threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .max(1)
}

/// Record `loss(item)` on a fresh tape and differentiate it for every item,
/// on `threads` threads (this one included). Then, on this thread and in
/// item order, pass each item's statistics to `merge` and accumulate its
/// parameter gradients into `store`.
///
/// `loss` returns the scalar loss node and the item's statistics; it only
/// reads `store`. The merge performs the same f32 additions in the same
/// order for any `threads`, so the accumulated gradients — and the
/// statistics — are bitwise independent of the thread count.
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

/// IQ-PPO configuration (Algorithm 1 of the paper).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct IqPpoConfig {
    /// PPO core configuration.
    pub ppo: PpoConfig,
    /// Number of PPO iterations per auxiliary phase (`N_ppo`).
    pub ppo_iters_per_aux: usize,
    /// Optimization epochs of the auxiliary phase.
    pub aux_epochs: usize,
    /// Behaviour-cloning coefficient β_clone.
    pub beta_clone: f32,
    /// Auxiliary-phase learning rate.
    pub aux_lr: f32,
}

impl Default for IqPpoConfig {
    fn default() -> Self {
        Self {
            ppo: PpoConfig::default(),
            ppo_iters_per_aux: 10,
            aux_epochs: 2,
            beta_clone: 1.0,
            aux_lr: 3e-4,
        }
    }
}

/// IQ-PPO trainer: PPO phases plus an auxiliary phase that exploits
/// individual-query completion signals.
#[derive(Debug)]
pub struct IqPpoTrainer {
    /// Hyper-parameters.
    pub config: IqPpoConfig,
    ppo: PpoTrainer,
    aux_optimizer: Adam,
}

impl IqPpoTrainer {
    /// Create a trainer with the given configuration.
    pub fn new(config: IqPpoConfig) -> Self {
        Self {
            ppo: PpoTrainer::new(config.ppo),
            aux_optimizer: Adam::new(config.aux_lr),
            config,
        }
    }

    /// Test hook: see [`PpoTrainer::with_threads`]; applies to both phases.
    #[doc(hidden)]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.ppo = self.ppo.with_threads(threads);
        self
    }

    /// The PPO-phase and auxiliary-phase optimizers, whose moment estimates
    /// carry over from one phase to the next.
    pub fn optimizers(&self) -> [&Adam; 2] {
        [&self.ppo.optimizer, &self.aux_optimizer]
    }

    /// Number of PPO iterations to run between auxiliary phases.
    pub fn ppo_iters_per_aux(&self) -> usize {
        self.config.ppo_iters_per_aux
    }

    /// Run one PPO phase (lines 3–5 of Algorithm 1).
    pub fn ppo_phase<M: ActorCritic>(
        &mut self,
        model: &M,
        store: &mut ParamStore,
        buffer: &RolloutBuffer<M::Obs>,
    ) -> PpoStats {
        self.ppo.update(model, store, buffer)
    }

    /// Run one auxiliary phase (line 7 of Algorithm 1) over the accumulated
    /// log `buffer`: fit the finish-time of the earliest concurrent query,
    /// while cloning the pre-auxiliary policy through a KL term.
    pub fn aux_phase<M: ActorCritic>(
        &mut self,
        model: &M,
        store: &mut ParamStore,
        buffer: &RolloutBuffer<M::Obs>,
    ) -> AuxStats {
        let with_aux: Vec<&Transition<M::Obs>> = buffer
            .transitions()
            .iter()
            .filter(|t| t.aux.is_some())
            .collect();
        if with_aux.is_empty() {
            return AuxStats::default();
        }
        let threads = thread_count(self.ppo.threads);
        let n = with_aux.len() as f32;
        let loss = |g: &mut Graph, store: &ParamStore, t: &&Transition<M::Obs>| {
            let aux = t.aux.expect("filtered to transitions with aux targets");
            let pred = model.aux_prediction(g, store, &t.obs, aux.earliest_index);
            let aux_loss_full = g.mse_loss(pred, &Tensor::scalar(aux.finish_time));
            let aux_loss = g.scale(aux_loss_full, 0.5);

            let (logits, _value) = model.evaluate(g, store, &t.obs);
            let old_probs = Tensor::row(&t.action_probs);
            let kl = g.kl_divergence(logits, &old_probs);
            let weighted_kl = g.scale(kl, self.config.beta_clone);
            let joint = g.add(aux_loss, weighted_kl);
            let stats = AuxStats {
                aux_loss: g.value(aux_loss).item(),
                kl: g.value(kl).item(),
            };
            (g.scale(joint, 1.0 / n), stats)
        };
        let mut stats = AuxStats::default();
        for _ in 0..self.config.aux_epochs {
            store.zero_grads();
            let mut epoch = AuxStats::default();
            accumulate_in_order(store, &with_aux, threads, loss, |s| {
                epoch.aux_loss += s.aux_loss / n;
                epoch.kl += s.kl / n;
            });
            store.clip_grad_norm(self.config.ppo.max_grad_norm);
            self.aux_optimizer.step(store);
            stats = epoch;
        }
        stats
    }
}

/// PPG trainer: the auxiliary phase re-fits GAE value targets (rather than
/// real finish-time signals), which is the variant the paper ablates against.
#[derive(Debug)]
pub struct PpgTrainer {
    /// Hyper-parameters (reuses the IQ-PPO configuration shape).
    pub config: IqPpoConfig,
    ppo: PpoTrainer,
    aux_optimizer: Adam,
}

impl PpgTrainer {
    /// Create a trainer with the given configuration.
    pub fn new(config: IqPpoConfig) -> Self {
        Self {
            ppo: PpoTrainer::new(config.ppo),
            aux_optimizer: Adam::new(config.aux_lr),
            config,
        }
    }

    /// Test hook: see [`PpoTrainer::with_threads`]; applies to both phases.
    #[doc(hidden)]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.ppo = self.ppo.with_threads(threads);
        self
    }

    /// The PPO-phase and auxiliary-phase optimizers; see
    /// [`IqPpoTrainer::optimizers`].
    pub fn optimizers(&self) -> [&Adam; 2] {
        [&self.ppo.optimizer, &self.aux_optimizer]
    }

    /// Run one PPO phase.
    pub fn ppo_phase<M: ActorCritic>(
        &mut self,
        model: &M,
        store: &mut ParamStore,
        buffer: &RolloutBuffer<M::Obs>,
    ) -> PpoStats {
        self.ppo.update(model, store, buffer)
    }

    /// Run one auxiliary (value-distillation) phase over `buffer`.
    pub fn aux_phase<M: ActorCritic>(
        &mut self,
        model: &M,
        store: &mut ParamStore,
        buffer: &RolloutBuffer<M::Obs>,
    ) -> AuxStats {
        if buffer.is_empty() {
            return AuxStats::default();
        }
        let threads = thread_count(self.ppo.threads);
        let estimates = buffer.gae(self.config.ppo.gamma, self.config.ppo.lambda);
        let items: Vec<_> = buffer.transitions().iter().zip(&estimates).collect();
        let n = buffer.len() as f32;
        let loss =
            |g: &mut Graph, store: &ParamStore, &(t, est): &(&Transition<M::Obs>, &Estimate)| {
                let (logits, value) = model.evaluate(g, store, &t.obs);
                let value_loss_full = g.mse_loss(value, &Tensor::scalar(est.value_target));
                let value_loss = g.scale(value_loss_full, 0.5);
                let old_probs = Tensor::row(&t.action_probs);
                let kl = g.kl_divergence(logits, &old_probs);
                let weighted_kl = g.scale(kl, self.config.beta_clone);
                let joint = g.add(value_loss, weighted_kl);
                let stats = AuxStats {
                    aux_loss: g.value(value_loss).item(),
                    kl: g.value(kl).item(),
                };
                (g.scale(joint, 1.0 / n), stats)
            };
        let mut stats = AuxStats::default();
        for _ in 0..self.config.aux_epochs {
            store.zero_grads();
            let mut epoch = AuxStats::default();
            accumulate_in_order(store, &items, threads, loss, |s| {
                epoch.aux_loss += s.aux_loss / n;
                epoch.kl += s.kl / n;
            });
            store.clip_grad_norm(self.config.ppo.max_grad_norm);
            self.aux_optimizer.step(store);
            stats = epoch;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{AuxTarget, Transition};
    use bq_nn::{Activation, Mlp};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::{Barrier, Condvar, Mutex};

    /// A tiny contextual-bandit model: observation = context index (one-hot of
    /// 4), 4 actions, reward 1 when action == context.
    struct BanditModel {
        policy: Mlp,
        value: Mlp,
        aux: Mlp,
    }

    impl BanditModel {
        fn new(store: &mut ParamStore, rng: &mut StdRng) -> Self {
            Self {
                policy: Mlp::new(
                    store,
                    "policy",
                    &[4, 16, 4],
                    Activation::Tanh,
                    Activation::None,
                    rng,
                ),
                value: Mlp::new(
                    store,
                    "value",
                    &[4, 16, 1],
                    Activation::Tanh,
                    Activation::None,
                    rng,
                ),
                aux: Mlp::new(
                    store,
                    "aux",
                    &[4, 16, 1],
                    Activation::Tanh,
                    Activation::None,
                    rng,
                ),
            }
        }

        fn obs_tensor(obs: usize) -> Tensor {
            Tensor::one_hot(4, obs)
        }
    }

    impl ActorCritic for BanditModel {
        type Obs = usize;

        fn evaluate(&self, g: &mut Graph, store: &ParamStore, obs: &usize) -> (NodeId, NodeId) {
            let x = g.input(Self::obs_tensor(*obs));
            let logits = self.policy.forward(g, store, &x);
            let x2 = g.input(Self::obs_tensor(*obs));
            let value = self.value.forward(g, store, &x2);
            (logits, value)
        }

        fn aux_prediction(
            &self,
            g: &mut Graph,
            store: &ParamStore,
            obs: &usize,
            _index: usize,
        ) -> NodeId {
            let x = g.input(Self::obs_tensor(*obs));
            self.aux.forward(g, store, &x)
        }
    }

    fn sample_action(
        model: &BanditModel,
        store: &ParamStore,
        obs: usize,
        rng: &mut StdRng,
    ) -> (usize, f32, f32, Vec<f32>) {
        let mut g = Graph::new();
        let (logits, value) = model.evaluate(&mut g, store, &obs);
        let probs = g.value(logits).softmax_rows();
        let r: f32 = rng.gen();
        let mut cum = 0.0;
        let mut action = 0;
        for (i, &p) in probs.data().iter().enumerate() {
            cum += p;
            if r <= cum {
                action = i;
                break;
            }
            action = i;
        }
        let logp = probs.data()[action].max(1e-8).ln();
        (action, logp, g.value(value).item(), probs.data().to_vec())
    }

    fn collect_bandit_rollout(
        model: &BanditModel,
        store: &ParamStore,
        rng: &mut StdRng,
        steps: usize,
    ) -> (RolloutBuffer<usize>, f32) {
        let mut buffer = RolloutBuffer::new();
        let mut total_reward = 0.0;
        for _ in 0..steps {
            let obs = rng.gen_range(0..4usize);
            let (action, logp, value, probs) = sample_action(model, store, obs, rng);
            let reward = if action == obs { 1.0 } else { 0.0 };
            total_reward += reward;
            buffer.push(Transition {
                obs,
                action,
                log_prob: logp,
                value,
                reward,
                done: true,
                action_probs: probs,
                aux: Some(AuxTarget {
                    earliest_index: 0,
                    finish_time: obs as f32 / 4.0,
                }),
            });
        }
        (buffer, total_reward / steps as f32)
    }

    #[test]
    fn ppo_learns_contextual_bandit() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let model = BanditModel::new(&mut store, &mut rng);
        let mut trainer = PpoTrainer::new(PpoConfig {
            lr: 0.01,
            epochs: 4,
            ..PpoConfig::default()
        });

        let (_, initial_acc) = collect_bandit_rollout(&model, &store, &mut rng, 200);
        for _ in 0..30 {
            let (buffer, _) = collect_bandit_rollout(&model, &store, &mut rng, 64);
            trainer.update(&model, &mut store, &buffer);
        }
        let (_, final_acc) = collect_bandit_rollout(&model, &store, &mut rng, 200);
        assert!(
            final_acc > 0.8 && final_acc > initial_acc + 0.3,
            "PPO should learn the bandit: {initial_acc} -> {final_acc}"
        );
    }

    #[test]
    fn ppo_update_on_empty_buffer_is_noop() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let model = BanditModel::new(&mut store, &mut rng);
        let before = store.to_json();
        let mut trainer = PpoTrainer::new(PpoConfig::default());
        let stats = trainer.update(&model, &mut store, &RolloutBuffer::new());
        assert_eq!(stats.policy_loss, 0.0);
        assert_eq!(store.to_json(), before);
    }

    #[test]
    fn iq_ppo_aux_phase_fits_targets_without_destroying_policy() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let model = BanditModel::new(&mut store, &mut rng);
        let config = IqPpoConfig {
            ppo: PpoConfig {
                lr: 0.01,
                epochs: 4,
                ..PpoConfig::default()
            },
            aux_epochs: 3,
            beta_clone: 1.0,
            aux_lr: 0.01,
            ppo_iters_per_aux: 2,
        };
        let mut trainer = IqPpoTrainer::new(config);

        // Train the policy a bit first.
        for _ in 0..20 {
            let (buffer, _) = collect_bandit_rollout(&model, &store, &mut rng, 64);
            trainer.ppo_phase(&model, &mut store, &buffer);
        }
        let (_, acc_before_aux) = collect_bandit_rollout(&model, &store, &mut rng, 300);

        // Run several auxiliary phases on a fresh log.
        let (aux_buffer, _) = collect_bandit_rollout(&model, &store, &mut rng, 128);
        let first = trainer.aux_phase(&model, &mut store, &aux_buffer);
        let mut last = first;
        for _ in 0..5 {
            last = trainer.aux_phase(&model, &mut store, &aux_buffer);
        }
        assert!(
            last.aux_loss < first.aux_loss,
            "auxiliary loss should decrease: {} -> {}",
            first.aux_loss,
            last.aux_loss
        );
        // The behaviour-cloning term must keep the policy close to what it was.
        let (_, acc_after_aux) = collect_bandit_rollout(&model, &store, &mut rng, 300);
        assert!(
            acc_after_aux > acc_before_aux - 0.2,
            "aux phase destroyed the policy: {acc_before_aux} -> {acc_after_aux}"
        );
    }

    #[test]
    fn ppg_aux_phase_reduces_value_error() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let model = BanditModel::new(&mut store, &mut rng);
        let mut trainer = PpgTrainer::new(IqPpoConfig {
            ppo: PpoConfig {
                lr: 0.01,
                epochs: 2,
                ..PpoConfig::default()
            },
            aux_epochs: 3,
            beta_clone: 1.0,
            aux_lr: 0.01,
            ppo_iters_per_aux: 2,
        });
        let (buffer, _) = collect_bandit_rollout(&model, &store, &mut rng, 128);
        let first = trainer.aux_phase(&model, &mut store, &buffer);
        let mut last = first;
        for _ in 0..5 {
            last = trainer.aux_phase(&model, &mut store, &buffer);
        }
        assert!(
            last.aux_loss < first.aux_loss,
            "{} -> {}",
            first.aux_loss,
            last.aux_loss
        );
    }

    #[test]
    fn aux_phase_without_targets_is_noop() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let model = BanditModel::new(&mut store, &mut rng);
        let mut trainer = IqPpoTrainer::new(IqPpoConfig::default());
        let mut buffer = RolloutBuffer::new();
        buffer.push(Transition {
            obs: 0usize,
            action: 1,
            log_prob: -1.0,
            value: 0.0,
            reward: 0.0,
            done: true,
            action_probs: vec![0.25; 4],
            aux: None,
        });
        let stats = trainer.aux_phase(&model, &mut store, &buffer);
        assert_eq!(stats.aux_loss, 0.0);
        assert_eq!(stats.kl, 0.0);
    }
    fn bits<'a>(values: impl IntoIterator<Item = &'a f32>) -> Vec<u32> {
        values.into_iter().map(|x| x.to_bits()).collect()
    }

    /// Every parameter value, then every Adam moment of `optimizers`.
    fn state_bits(store: &ParamStore, optimizers: &[&Adam]) -> Vec<u32> {
        let mut out = bits(store.iter().flat_map(|(_, p)| p.value.data()));
        for adam in optimizers {
            let (m, v) = adam.moments();
            out.extend(bits(m.iter().chain(v).flat_map(|t| t.data())));
        }
        out
    }

    /// Train a fresh bandit model with `trainer` on `threads` threads; the
    /// bits of every returned statistic, parameter and Adam moment.
    fn bandit_training_bits(trainer: &str, threads: usize) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let model = BanditModel::new(&mut store, &mut rng);
        let config = IqPpoConfig {
            ppo: PpoConfig {
                lr: 0.01,
                epochs: 2,
                ..PpoConfig::default()
            },
            aux_epochs: 2,
            aux_lr: 0.01,
            ..IqPpoConfig::default()
        };
        let mut stats = Vec::new();
        let mut out = Vec::new();
        for _ in 0..2 {
            // 61 transitions: full and partial windows for every thread count.
            let (buffer, _) = collect_bandit_rollout(&model, &store, &mut rng, 61);
            match trainer {
                "ppo" => {
                    let mut t = PpoTrainer::new(config.ppo).with_threads(threads);
                    let s = t.update(&model, &mut store, &buffer);
                    stats.extend([s.policy_loss, s.value_loss, s.entropy]);
                    out = state_bits(&store, &[t.optimizer()]);
                }
                "iq-ppo" => {
                    let mut t = IqPpoTrainer::new(config).with_threads(threads);
                    let s = t.ppo_phase(&model, &mut store, &buffer);
                    let a = t.aux_phase(&model, &mut store, &buffer);
                    stats.extend([s.policy_loss, s.value_loss, s.entropy, a.aux_loss, a.kl]);
                    out = state_bits(&store, &t.optimizers());
                }
                _ => {
                    let mut t = PpgTrainer::new(config).with_threads(threads);
                    let s = t.ppo_phase(&model, &mut store, &buffer);
                    let a = t.aux_phase(&model, &mut store, &buffer);
                    stats.extend([s.policy_loss, s.value_loss, s.entropy, a.aux_loss, a.kl]);
                    out = state_bits(&store, &t.optimizers());
                }
            }
        }
        out.extend(bits(&stats));
        out
    }

    #[test]
    fn training_is_bitwise_independent_of_the_thread_count() {
        for trainer in ["ppo", "iq-ppo", "ppg"] {
            let one = bandit_training_bits(trainer, 1);
            for threads in [2, 3] {
                assert!(
                    bandit_training_bits(trainer, threads) == one,
                    "{trainer} on {threads} threads differs from 1 thread"
                );
            }
        }
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
