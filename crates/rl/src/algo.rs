//! Policy optimization: one trainer for PPO, PPG and the paper's IQ-PPO.
//!
//! IQ-PPO (Algorithm 1 of the paper) alternates clipped-surrogate PPO
//! phases (§III-B) with an auxiliary phase that fits the finish time of the
//! earliest concurrent query, a real signal from the execution logs,
//! through the shared representation, while a behaviour-cloning KL term
//! keeps the policy where the PPO phases left it. [`IqPpoTrainer`] runs all
//! three algorithms; the [`Algorithm`] only picks what the auxiliary phase
//! fits:
//!
//! * **IQ-PPO** — the earliest concurrent query's finish time;
//! * **PPG** — the GAE value targets, through the value head;
//! * **PPO** — nothing: its auxiliary phase is a no-op.

use crate::buffer::{Estimate, RolloutBuffer, Transition};
use bq_nn::{fit, Adam, EpochStats, Graph, NodeId, ParamStore, Tensor};

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

/// Clip range ε of the surrogate ratio.
const CLIP: f32 = 0.2;
/// Value-loss coefficient β_V.
const VALUE_COEF: f32 = 0.5;
/// Entropy-bonus coefficient β_S.
const ENTROPY_COEF: f32 = 0.01;
/// Discount factor γ of GAE.
const GAMMA: f32 = 0.99;
/// GAE's λ.
const LAMBDA: f32 = 0.95;
/// Global gradient-norm clip of both phases.
const MAX_GRAD_NORM: f32 = 0.5;
/// Behaviour-cloning coefficient β_clone of the auxiliary phase.
const BETA_CLONE: f32 = 1.0;

/// Diagnostics of one PPO update.
#[derive(Debug, Clone, Copy, Default)]
pub struct PpoStats {
    /// Mean clipped-surrogate (policy) loss.
    pub policy_loss: f32,
    /// Mean value loss.
    pub value_loss: f32,
    /// Mean policy entropy.
    pub entropy: f32,
}

/// Diagnostics of one auxiliary phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct AuxStats {
    /// Mean auxiliary prediction loss.
    pub aux_loss: f32,
    /// Mean KL divergence to the pre-auxiliary policy.
    pub kl: f32,
}

/// Which policy-optimization algorithm trains the agent: the auxiliary
/// phase of [`IqPpoTrainer`] differs, nothing else does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Plain PPO (the "w/ PPO" ablation and the LSched baseline): no
    /// auxiliary phase.
    Ppo,
    /// Phasic policy gradients (the "w/ PPG" ablation): the auxiliary phase
    /// re-fits the GAE value targets.
    Ppg,
    /// The paper's IQ-PPO (default): the auxiliary phase fits the finish
    /// time of the earliest concurrent query.
    IqPpo,
}

impl EpochStats for PpoStats {
    fn add_share(&mut self, item: Self, n: f32) {
        self.policy_loss += item.policy_loss / n;
        self.value_loss += item.value_loss / n;
        self.entropy += item.entropy / n;
    }
}

impl EpochStats for AuxStats {
    fn add_share(&mut self, item: Self, n: f32) {
        self.aux_loss += item.aux_loss / n;
        self.kl += item.kl / n;
    }
}

/// `0.5 · (prediction − target)²`, the regression term of the value loss
/// and of both auxiliary fits.
fn half_mse(g: &mut Graph, prediction: NodeId, target: f32) -> NodeId {
    let mse = g.mse_loss(prediction, &Tensor::scalar(target));
    g.scale(mse, 0.5)
}

/// Trainer configuration (Algorithm 1 of the paper): the epochs and Adam
/// learning rates of both phases. ε, β_V, β_S, γ, λ, β_clone and the
/// gradient-norm clip are constants of this module.
#[derive(Debug, Clone, Copy)]
pub struct IqPpoConfig {
    /// Optimization epochs per PPO phase.
    pub ppo_epochs: usize,
    /// PPO-phase learning rate.
    pub ppo_lr: f32,
    /// Optimization epochs of the auxiliary phase.
    pub aux_epochs: usize,
    /// Auxiliary-phase learning rate.
    pub aux_lr: f32,
}

impl Default for IqPpoConfig {
    fn default() -> Self {
        Self {
            ppo_epochs: 3,
            ppo_lr: 3e-4,
            aux_epochs: 2,
            aux_lr: 3e-4,
        }
    }
}

/// The trainer of all three algorithms: PPO phases plus the auxiliary
/// phase its [`Algorithm`] selects.
#[derive(Debug)]
pub struct IqPpoTrainer {
    /// Hyper-parameters.
    pub config: IqPpoConfig,
    algorithm: Algorithm,
    ppo_optimizer: Adam,
    aux_optimizer: Adam,
    threads: Option<usize>,
}

impl IqPpoTrainer {
    /// An IQ-PPO trainer with the given configuration.
    pub fn new(config: IqPpoConfig) -> Self {
        Self::for_algorithm(Algorithm::IqPpo, config)
    }

    /// A trainer of `algorithm` with the given configuration.
    pub fn for_algorithm(algorithm: Algorithm, config: IqPpoConfig) -> Self {
        Self {
            ppo_optimizer: Adam::new(config.ppo_lr),
            aux_optimizer: Adam::new(config.aux_lr),
            config,
            algorithm,
            threads: None,
        }
    }

    /// Test hook: evaluate transitions on exactly `threads` threads instead
    /// of [`std::thread::available_parallelism`], in both phases. The result
    /// does not depend on it; tests use it to prove that.
    #[doc(hidden)]
    // bq-lint: allow(dead-pub): test hook of the thread-count invariance pins
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// The PPO-phase and auxiliary-phase optimizers, whose moment estimates
    /// carry over from one phase to the next. PPO never steps the second.
    // bq-lint: allow(dead-pub): read by the training fingerprint and the optimizer-state pins
    pub fn optimizers(&self) -> [&Adam; 2] {
        [&self.ppo_optimizer, &self.aux_optimizer]
    }

    /// Run one PPO phase (lines 3–5 of Algorithm 1): a clipped-surrogate
    /// update on `buffer`.
    pub fn ppo_phase<M: ActorCritic>(
        &mut self,
        model: &M,
        store: &mut ParamStore,
        buffer: &RolloutBuffer<M::Obs>,
    ) -> PpoStats {
        let estimates = buffer.normalized_gae(GAMMA, LAMBDA);
        let items: Vec<_> = buffer.transitions().iter().zip(&estimates).collect();
        let n = items.len() as f32;
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
                let clipped = g.clamp(ratio, 1.0 - CLIP, 1.0 + CLIP);
                let surr2 = g.mul_const(clipped, &adv);
                let surr = g.min_elem(surr1, surr2);
                let surr_mean = g.mean_all(surr);
                let policy_loss = g.scale(surr_mean, -1.0);

                let value_loss = half_mse(g, value, est.value_target);
                let entropy = g.softmax_entropy(logits);

                let weighted_value = g.scale(value_loss, VALUE_COEF);
                let weighted_entropy = g.scale(entropy, -ENTROPY_COEF);
                let sum1 = g.add(policy_loss, weighted_value);
                let total = g.add(sum1, weighted_entropy);
                let stats = PpoStats {
                    policy_loss: g.value(policy_loss).item(),
                    value_loss: g.value(value_loss).item(),
                    entropy: g.value(entropy).item(),
                };
                (g.scale(total, 1.0 / n), stats)
            };
        fit(
            store,
            &mut self.ppo_optimizer,
            &items,
            self.threads,
            self.config.ppo_epochs,
            MAX_GRAD_NORM,
            loss,
        )
    }

    /// Run one auxiliary phase (line 7 of Algorithm 1) over the accumulated
    /// log `buffer`. IQ-PPO fits the finish time of the earliest concurrent
    /// query and PPG the GAE value targets, each while cloning the
    /// pre-auxiliary policy through a KL term; PPO returns at once, before
    /// it touches `store` or an optimizer.
    pub fn aux_phase<M: ActorCritic>(
        &mut self,
        model: &M,
        store: &mut ParamStore,
        buffer: &RolloutBuffer<M::Obs>,
    ) -> AuxStats {
        match self.algorithm {
            Algorithm::Ppo => AuxStats::default(),
            Algorithm::Ppg => {
                let estimates = buffer.gae(GAMMA, LAMBDA);
                let items: Vec<_> = buffer.transitions().iter().zip(&estimates).collect();
                self.aux_epochs(store, &items, |g, store, &(t, est)| {
                    let (logits, value) = model.evaluate(g, store, &t.obs);
                    (half_mse(g, value, est.value_target), logits)
                })
            }
            Algorithm::IqPpo => {
                let items: Vec<_> = buffer
                    .transitions()
                    .iter()
                    .filter_map(|t| Some((t, t.aux?)))
                    .collect();
                self.aux_epochs(store, &items, |g, store, &(t, aux)| {
                    let pred = model.aux_prediction(g, store, &t.obs, aux.earliest_index);
                    let aux_loss = half_mse(g, pred, aux.finish_time);
                    (aux_loss, model.evaluate(g, store, &t.obs).0)
                })
            }
        }
    }

    /// The auxiliary phase's epochs over `items`, each a transition and its
    /// target. `target` records the regression term and the policy logits; the
    /// loss adds the behaviour-cloning term, β_clone times the KL divergence
    /// between the transition's behaviour policy and those logits.
    fn aux_epochs<O: Sync, T: Sync>(
        &mut self,
        store: &mut ParamStore,
        items: &[(&Transition<O>, T)],
        target: impl Fn(&mut Graph, &ParamStore, &(&Transition<O>, T)) -> (NodeId, NodeId) + Sync,
    ) -> AuxStats {
        let n = items.len() as f32;
        let loss = |g: &mut Graph, store: &ParamStore, item: &(&Transition<O>, T)| {
            let (aux_loss, logits) = target(g, store, item);
            let old_probs = Tensor::row(&item.0.action_probs);
            let kl = g.kl_divergence(logits, &old_probs);
            let weighted_kl = g.scale(kl, BETA_CLONE);
            let joint = g.add(aux_loss, weighted_kl);
            let stats = AuxStats {
                aux_loss: g.value(aux_loss).item(),
                kl: g.value(kl).item(),
            };
            (g.scale(joint, 1.0 / n), stats)
        };
        fit(
            store,
            &mut self.aux_optimizer,
            items,
            self.threads,
            self.config.aux_epochs,
            MAX_GRAD_NORM,
            loss,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{AuxTarget, Transition};
    use bq_nn::{math, Activation, Mlp};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        let logp = math::ln(probs.data()[action].max(1e-8));
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
        let config = IqPpoConfig {
            ppo_epochs: 4,
            ppo_lr: 0.01,
            ..IqPpoConfig::default()
        };
        let mut trainer = IqPpoTrainer::for_algorithm(Algorithm::Ppo, config);

        let (_, initial_acc) = collect_bandit_rollout(&model, &store, &mut rng, 200);
        for _ in 0..30 {
            let (buffer, _) = collect_bandit_rollout(&model, &store, &mut rng, 64);
            trainer.ppo_phase(&model, &mut store, &buffer);
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
        let before = store_bits(&store);
        let mut trainer = IqPpoTrainer::new(IqPpoConfig::default());
        let stats = trainer.ppo_phase(&model, &mut store, &RolloutBuffer::new());
        assert_eq!(stats.policy_loss, 0.0);
        assert_eq!(store_bits(&store), before);
        assert_eq!(trainer.optimizers()[0].steps(), 0);
    }

    #[test]
    fn ppo_aux_phase_touches_neither_the_store_nor_an_optimizer() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let model = BanditModel::new(&mut store, &mut rng);
        let (buffer, _) = collect_bandit_rollout(&model, &store, &mut rng, 16);
        let before = store_bits(&store);
        let mut trainer = IqPpoTrainer::for_algorithm(Algorithm::Ppo, IqPpoConfig::default());
        let stats = trainer.aux_phase(&model, &mut store, &buffer);
        assert_eq!((stats.aux_loss, stats.kl), (0.0, 0.0));
        assert_eq!(store_bits(&store), before);
        for adam in trainer.optimizers() {
            assert_eq!(adam.steps(), 0);
            assert!(adam.moments().0.is_empty());
        }
    }

    #[test]
    fn iq_ppo_aux_phase_fits_targets_without_destroying_policy() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let model = BanditModel::new(&mut store, &mut rng);
        let config = IqPpoConfig {
            ppo_epochs: 4,
            ppo_lr: 0.01,
            aux_epochs: 3,
            aux_lr: 0.01,
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
        let config = IqPpoConfig {
            ppo_epochs: 2,
            ppo_lr: 0.01,
            aux_epochs: 3,
            aux_lr: 0.01,
        };
        let mut trainer = IqPpoTrainer::for_algorithm(Algorithm::Ppg, config);
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

    /// Every parameter's value, then its gradient.
    fn store_bits(store: &ParamStore) -> Vec<u32> {
        bits(
            store
                .iter()
                .flat_map(|(_, p)| p.value.data().iter().chain(p.grad.data())),
        )
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

    /// Train a fresh bandit model with `algorithm` on `threads` threads; the
    /// bits of every returned statistic, parameter and Adam moment.
    fn bandit_training_bits(algorithm: Algorithm, threads: usize) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let model = BanditModel::new(&mut store, &mut rng);
        let config = IqPpoConfig {
            ppo_epochs: 2,
            ppo_lr: 0.01,
            aux_epochs: 2,
            aux_lr: 0.01,
        };
        let mut stats = Vec::new();
        let mut out = Vec::new();
        for _ in 0..2 {
            // 61 transitions: full and partial windows for every thread count.
            let (buffer, _) = collect_bandit_rollout(&model, &store, &mut rng, 61);
            let mut t = IqPpoTrainer::for_algorithm(algorithm, config).with_threads(threads);
            let s = t.ppo_phase(&model, &mut store, &buffer);
            let a = t.aux_phase(&model, &mut store, &buffer);
            stats.extend([s.policy_loss, s.value_loss, s.entropy, a.aux_loss, a.kl]);
            out = state_bits(&store, &t.optimizers());
        }
        out.extend(bits(&stats));
        out
    }

    #[test]
    fn training_is_bitwise_independent_of_the_thread_count() {
        for algorithm in [Algorithm::Ppo, Algorithm::IqPpo, Algorithm::Ppg] {
            let one = bandit_training_bits(algorithm, 1);
            for threads in [2, 3] {
                assert!(
                    bandit_training_bits(algorithm, threads) == one,
                    "{algorithm:?} on {threads} threads differs from 1 thread"
                );
            }
        }
    }
}
