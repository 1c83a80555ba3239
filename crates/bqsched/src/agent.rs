//! The BQSched agent: attention-based state representation with policy, value
//! and auxiliary heads, adaptive masking, cluster-level scheduling and the
//! training loop that runs IQ-PPO or its PPO / PPG ablations (§III and §IV
//! of the paper).
//!
//! The same agent type also realises the adapted **LSched** baseline of the
//! evaluation: the paper ports LSched to query-level scheduling by reusing
//! BQSched's state representation but keeping a plain RL algorithm and none
//! of the optimization strategies — which here is simply a different
//! [`BqSchedConfig`] (see [`BqSchedConfig::lsched`]).

use crate::clustering::{gains_from_history, GainPredictor, QueryClustering};
use crate::masking::AdaptiveMask;
use crate::simulator::{LearnedSimulator, SimulatorModel};
use bq_core::{
    Action, EpisodeLog, ExecutionHistory, ExecutorBackend, QueryRuntime, QueryStatus,
    ScheduleSession, SchedulerPolicy, SchedulingState, SystemClock, WallClock,
};
use bq_dbms::{DbmsKind, DbmsProfile, ExecutionEngine, ParamSpace, RunParams};
use bq_encoder::{
    write_state_features, EncodedObservation, InputRowCache, PlanEncoder, PlanEncoderConfig,
    StateEncoder, StateEncoderConfig, STATE_FEATURE_DIM, TIME_SCALE,
};
use bq_nn::{Activation, Eager, Graph, Mlp, NodeId, Ops, ParamStore, Tensor};
use bq_plan::{QueryId, Workload};
use bq_rl::{
    ActorCritic, Algorithm, AuxTarget, IqPpoConfig, IqPpoTrainer, RolloutBuffer, Transition,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::collections::VecDeque;

/// Full agent configuration.
#[derive(Debug, Clone)]
pub struct BqSchedConfig {
    /// Plan-encoder hyper-parameters.
    pub plan_encoder: PlanEncoderConfig,
    /// State-encoder hyper-parameters.
    pub state_encoder: StateEncoderConfig,
    /// Use the attention-based state representation (`false` reproduces the
    /// "w/o attention" ablation: a per-query MLP with no interaction).
    pub use_attention: bool,
    /// Apply adaptive masking to the action space.
    pub use_masking: bool,
    /// Number of query clusters for cluster-level scheduling
    /// (`None` = query-level scheduling).
    pub cluster_count: Option<usize>,
    /// Training algorithm.
    pub algorithm: Algorithm,
    /// IQ-PPO / PPO / PPG hyper-parameters.
    pub rl: IqPpoConfig,
    /// Epochs of plan-encoder cost pre-training (0 disables it).
    pub plan_pretrain_epochs: usize,
    /// Seed for parameter initialisation and action sampling.
    pub seed: u64,
}

impl Default for BqSchedConfig {
    fn default() -> Self {
        Self {
            plan_encoder: PlanEncoderConfig {
                dim: 32,
                heads: 2,
                blocks: 1,
            },
            state_encoder: StateEncoderConfig {
                dim: 32,
                heads: 4,
                blocks: 1,
            },
            use_attention: true,
            use_masking: true,
            cluster_count: None,
            algorithm: Algorithm::IqPpo,
            rl: IqPpoConfig::default(),
            plan_pretrain_epochs: 2,
            seed: 42,
        }
    }
}

impl BqSchedConfig {
    /// The adapted LSched baseline on this configuration's encoders and
    /// seeds: a plain PPO algorithm and none of the optimization strategies
    /// (no adaptive masking, no clustering, no simulator pre-training).
    pub fn lsched(mut self) -> Self {
        self.use_masking = false;
        self.cluster_count = None;
        self.algorithm = Algorithm::Ppo;
        self
    }

    /// Ablation: remove the attention-based state representation.
    pub fn without_attention(mut self) -> Self {
        self.use_attention = false;
        self
    }

    /// Ablation: remove adaptive masking.
    pub fn without_masking(mut self) -> Self {
        self.use_masking = false;
        self
    }

    /// Use cluster-level scheduling with `n_c` clusters.
    pub fn with_clusters(mut self, n_c: usize) -> Self {
        self.cluster_count = Some(n_c);
        self
    }

    /// Switch the training algorithm.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }
}

/// A replayable observation for the RL algorithms: the encoded entities plus
/// the additive action mask.
#[derive(Debug, Clone)]
pub struct BqObs {
    /// Encoded entities (queries or clusters).
    pub encoded: EncodedObservation,
    /// Additive logit mask of length `entities × configs`.
    pub mask: Vec<f32>,
}

/// The neural decision model: shared state representation plus policy, value
/// and auxiliary heads.
#[derive(Debug)]
pub struct BqSchedModel {
    use_attention: bool,
    num_configs: usize,
    state_encoder: StateEncoder,
    plain_proj: Mlp,
    policy_head: Mlp,
    value_head: Mlp,
    aux_head: Mlp,
}

impl BqSchedModel {
    /// Create the model, registering all parameters in `store`.
    pub fn new(config: &BqSchedConfig, num_configs: usize, store: &mut ParamStore) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let enc_config = config.state_encoder;
        let state_encoder = StateEncoder::new(store, config.plan_encoder.dim, enc_config, &mut rng);
        let plain_proj = Mlp::new(
            store,
            "agent.plain_proj",
            &[
                config.plan_encoder.dim + STATE_FEATURE_DIM,
                enc_config.dim,
                enc_config.dim,
            ],
            Activation::Tanh,
            Activation::Tanh,
            &mut rng,
        );
        let policy_head = Mlp::new(
            store,
            "agent.policy",
            &[enc_config.dim, enc_config.dim, num_configs],
            Activation::Tanh,
            Activation::None,
            &mut rng,
        );
        let value_head = Mlp::new(
            store,
            "agent.value",
            &[enc_config.dim, enc_config.dim, 1],
            Activation::Tanh,
            Activation::None,
            &mut rng,
        );
        let aux_head = Mlp::new(
            store,
            "agent.aux",
            &[enc_config.dim, enc_config.dim, 1],
            Activation::Tanh,
            Activation::None,
            &mut rng,
        );
        Self {
            use_attention: config.use_attention,
            num_configs,
            state_encoder,
            plain_proj,
            policy_head,
            value_head,
            aux_head,
        }
    }

    /// Number of parameter configurations per entity.
    pub fn num_configs(&self) -> usize {
        self.num_configs
    }

    /// The MLP that projects each entity's input `e_i ∥ f_i`: the state
    /// encoder's input projection, or the whole per-entity encoding of the
    /// "w/o attention" ablation.
    fn input_proj(&self) -> &Mlp {
        if self.use_attention {
            self.state_encoder.input_proj()
        } else {
            &self.plain_proj
        }
    }

    /// The representations of the entity rows `rows` (ascending,
    /// `[rows.len(), dim]`) and of the global state (`[1, dim]`), from the
    /// projected entity inputs `x` (see [`Self::input_proj`]).
    fn representations<'s, O: Ops<'s>>(
        &self,
        g: &mut O,
        store: &'s ParamStore,
        obs: &EncodedObservation,
        x: &O::Value,
        rows: &[usize],
    ) -> (O::Value, O::Value) {
        if self.use_attention {
            let repr = self.state_encoder.attend(g, store, obs, x, rows);
            (repr.per_query, repr.global)
        } else {
            // Ablation: each entity encoded independently; the "global" state
            // is a mean pool of the per-entity representations.
            let global = g.mean_pool_rows(x);
            (g.select_rows(x, rows), global)
        }
    }

    /// The masked flat logits `[1, n·K]` and the global representation,
    /// from the projected entity inputs `x`: the body that
    /// [`ActorCritic::evaluate`] records and the decision loop evaluates
    /// eagerly. Only the selectable entities (`obs.encoded.pending`) get a
    /// policy logit; every other entity's logits are its mask entries,
    /// [`MASK_VALUE`](crate::MASK_VALUE).
    fn policy<'s, O: Ops<'s>>(
        &self,
        g: &mut O,
        store: &'s ParamStore,
        obs: &BqObs,
        x: &O::Value,
    ) -> (O::Value, O::Value) {
        let pending = &obs.encoded.pending;
        let (per_query, global) = self.representations(g, store, &obs.encoded, x, pending);
        let k = self.num_configs;
        let pending_logits = self.policy_head.forward(g, store, &per_query); // [P, K]

        // Row `P` is all zeros; every entity that is not pending reads it.
        let zero_row = g.input(Tensor::zeros(1, k));
        let padded = g.concat_rows(&pending_logits, &zero_row);
        let mut source = vec![pending.len(); obs.encoded.len()];
        for (j, &e) in pending.iter().enumerate() {
            source[e] = j;
        }
        let per_entity_logits = g.select_rows(&padded, &source); // [n, K]
        let flat = g.reshape(&per_entity_logits, 1, obs.encoded.len() * k);
        let mask = Tensor::from_vec(1, obs.mask.len(), obs.mask.clone());
        (g.add_const(&flat, &mask), global)
    }
}

impl ActorCritic for BqSchedModel {
    type Obs = BqObs;

    /// Records the policy head for the pending entities only: the loss
    /// never reads the other logits, which the mask sets to exactly
    /// [`MASK_VALUE`](crate::MASK_VALUE).
    fn evaluate(&self, g: &mut Graph, store: &ParamStore, obs: &BqObs) -> (NodeId, NodeId) {
        let x = obs.encoded.project(g, store, self.input_proj());
        let (logits, global) = self.policy(g, store, obs, &x);
        let value = self.value_head.forward(g, store, &global);
        (logits, value)
    }

    fn aux_prediction(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        obs: &BqObs,
        index: usize,
    ) -> NodeId {
        let x = obs.encoded.project(g, store, self.input_proj());
        let (row, _) = self.representations(g, store, &obs.encoded, &x, &[index]);
        self.aux_head.forward(g, store, &row)
    }
}

/// One policy decision: `(action, log_prob, value, action_probs)`.
type Decision = (usize, f32, f32, Vec<f32>);

/// A decision recorded during an episode, finalised into a transition once
/// the episode's rewards are known.
#[derive(Debug, Clone)]
struct PendingDecision {
    obs: BqObs,
    action: usize,
    log_prob: f32,
    value: f32,
    probs: Vec<f32>,
    time: f64,
}

/// Round-invariant observation data, computed once per clustering instead of
/// on every scheduling decision.
///
/// The cluster member lists, the sum-pooled per-entity plan embeddings and
/// the per-entity historical-time sums depend only on the (fixed) clustering,
/// the (frozen) plan embeddings and the (fixed) history — never on the
/// execution state — so rebuilding them per decision is pure waste. Everything
/// that *does* vary with the state (statuses, elapsed times, running/pending
/// sets, the selectable mask) is still derived fresh from the observable
/// state on every decision.
struct EntityCache {
    member_lists: Vec<Vec<QueryId>>,
    /// `[n, plan_dim]` sum-pooled member plan embeddings (paper §IV-B).
    entity_embs: Tensor,
    /// Sum of historical average times over each entity's members.
    avg_sums: Vec<f64>,
}

impl EntityCache {
    fn build(clustering: &QueryClustering, plan_embs: &Tensor, avg_times: &[f64]) -> Self {
        let member_lists = clustering.clusters();
        let plan_dim = plan_embs.cols();
        let n = member_lists.len();
        let mut emb_data = vec![0.0f32; n * plan_dim];
        let mut avg_sums = vec![0.0f64; n];
        for (e, members) in member_lists.iter().enumerate() {
            let row = &mut emb_data[e * plan_dim..(e + 1) * plan_dim];
            for q in members {
                for (c, v) in row.iter_mut().enumerate() {
                    *v += plan_embs.get(q.0, c);
                }
                avg_sums[e] += avg_times[q.0];
            }
        }
        Self {
            member_lists,
            entity_embs: Tensor::from_vec(n, plan_dim, emb_data),
            avg_sums,
        }
    }
}

/// The BQSched scheduling agent.
pub struct BqSchedAgent {
    /// Agent configuration.
    pub config: BqSchedConfig,
    /// Decision model (layer definitions).
    pub model: BqSchedModel,
    /// Learnable parameters of the decision model.
    pub store: ParamStore,
    plan_embs: Tensor,
    avg_times: Vec<f64>,
    mask: AdaptiveMask,
    clustering: QueryClustering,
    space: ParamSpace,
    entity_cache: EntityCache,
    /// The decision loop's per-round state: the projected input rows and
    /// the first attention block carried from the last decision, dropped
    /// whenever training, or any other mutable access to `store`, moves the
    /// store version.
    decision_cache: InputRowCache,
    rng: StdRng,
    /// When true, actions are sampled and transitions are recorded; when
    /// false the agent acts greedily (inference mode).
    pub explore: bool,
    commit_queue: VecDeque<(QueryId, RunParams)>,
    decisions: Vec<PendingDecision>,
    finished_rollout: RolloutBuffer<BqObs>,
    /// Sum of rewards of the most recent finished episode.
    pub last_episode_return: f64,
}

impl BqSchedAgent {
    /// Build an agent for `workload` on `profile`, bootstrapping masking,
    /// clustering and feature scales from `history` when available.
    pub fn new(
        workload: &Workload,
        profile: &DbmsProfile,
        history: Option<&ExecutionHistory>,
        config: BqSchedConfig,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5EED);
        // Plan encoder: optionally pre-trained on cost prediction, then frozen
        // as a feature extractor for per-query plan embeddings.
        let mut plan_store = ParamStore::new();
        let plan_encoder = PlanEncoder::new(&mut plan_store, config.plan_encoder, &mut rng);
        if config.plan_pretrain_epochs > 0 {
            bq_encoder::pretrain_on_cost(
                &plan_encoder,
                &mut plan_store,
                workload,
                config.plan_pretrain_epochs,
            );
        }
        let plan_embs = plan_encoder.embed_workload(&plan_store, workload);

        // Historical average times drive features, MCF-style intra-cluster
        // ordering, and the reward/aux normalisation.
        let avg_times: Vec<f64> = (0..workload.len())
            .map(|i| {
                history
                    .and_then(|h| h.avg_exec_time(QueryId(i)))
                    .unwrap_or_else(|| workload.query(QueryId(i)).plan.total_cost() / 20_000.0)
            })
            .collect();

        let space = ParamSpace::full();
        let mask = if config.use_masking {
            let base = AdaptiveMask::from_workload(workload, &space, profile.low_mem_grant_pages);
            match history {
                Some(h) => base.refine_with_history(h, &space, 0.05),
                None => base,
            }
        } else {
            AdaptiveMask::all_allowed(workload.len(), &space)
        };

        let clustering = match (config.cluster_count, history) {
            (Some(n_c), Some(h)) if n_c < workload.len() => {
                let mut gains = gains_from_history(h, workload.len());
                let mut gain_store = ParamStore::new();
                let predictor =
                    GainPredictor::new(&mut gain_store, config.plan_encoder.dim, &mut rng);
                predictor.train(&mut gain_store, &plan_embs, &gains, 30);
                predictor.complete(&gain_store, &plan_embs, &mut gains);
                QueryClustering::agglomerative(&gains, n_c)
            }
            (Some(n_c), None) if n_c < workload.len() => {
                // Without logs, fall back to a round-robin grouping over query
                // ids; later history-driven re-clustering can refine it.
                QueryClustering::from_assignment((0..workload.len()).map(|i| i % n_c).collect())
            }
            _ => QueryClustering::singleton(workload.len()),
        };

        let mut store = ParamStore::new();
        let model = BqSchedModel::new(&config, space.len(), &mut store);
        let entity_cache = EntityCache::build(&clustering, &plan_embs, &avg_times);
        Self {
            config,
            model,
            store,
            plan_embs,
            avg_times,
            mask,
            clustering,
            space,
            entity_cache,
            decision_cache: InputRowCache::default(),
            rng,
            explore: true,
            commit_queue: VecDeque::new(),
            decisions: Vec::new(),
            finished_rollout: RolloutBuffer::new(),
            last_episode_return: 0.0,
        }
    }

    /// Number of scheduling entities (queries or clusters).
    pub fn num_entities(&self) -> usize {
        self.clustering.num_clusters()
    }

    /// Take the rollout recorded for the most recent finished episode.
    pub fn take_rollout(&mut self) -> RolloutBuffer<BqObs> {
        std::mem::take(&mut self.finished_rollout)
    }

    /// Build the entity-level observation and mask for a scheduling state.
    ///
    /// Round-invariant data (member lists, sum-pooled plan embeddings,
    /// historical-time sums) is served from [`EntityCache`]; everything
    /// derived from the execution state is recomputed fresh every decision.
    fn build_obs(&self, state: &SchedulingState<'_>) -> BqObs {
        let cache = &self.entity_cache;
        let n = cache.member_lists.len();
        let mut running = Vec::new();
        let mut pending = Vec::new();
        let mut selectable = vec![false; n];
        let mut feat_data = vec![0.0f32; n * STATE_FEATURE_DIM];
        for (e, members) in cache.member_lists.iter().enumerate() {
            let mut any_pending = false;
            let mut first_running: Option<QueryId> = None;
            let mut running_count = 0usize;
            let mut elapsed_sum = 0.0f64;
            for q in members {
                match state.queries[q.0].status {
                    QueryStatus::Pending => any_pending = true,
                    QueryStatus::Running => {
                        if first_running.is_none() {
                            first_running = Some(*q);
                        }
                        running_count += 1;
                        elapsed_sum += state.queries[q.0].elapsed;
                    }
                    _ => {}
                }
            }
            let status = if any_pending {
                QueryStatus::Pending
            } else if running_count > 0 {
                QueryStatus::Running
            } else {
                QueryStatus::Finished
            };
            if running_count > 0 {
                running.push(e);
            }
            if any_pending {
                pending.push(e);
                selectable[e] = true;
            }
            let elapsed = if running_count == 0 {
                0.0
            } else {
                elapsed_sum / running_count as f64
            };
            let runtime = QueryRuntime {
                status,
                params: first_running.and_then(|q| state.queries[q.0].params),
                elapsed,
                avg_exec_time: cache.avg_sums[e],
            };
            let row = &mut feat_data[e * STATE_FEATURE_DIM..(e + 1) * STATE_FEATURE_DIM];
            write_state_features(row, &runtime);
        }
        let encoded = EncodedObservation {
            plan_embs: cache.entity_embs.clone(),
            features: Tensor::from_vec(n, STATE_FEATURE_DIM, feat_data),
            running,
            pending,
        };
        let mask = self.mask.logit_mask(&cache.member_lists, &selectable);
        BqObs { encoded, mask }
    }

    /// Evaluate the policy on an observation and pick an action (sampling
    /// when exploring, argmax otherwise).
    ///
    /// Runs the body of [`ActorCritic::evaluate`] eagerly — bitwise the
    /// probabilities of the recorded pass the trainers use, without building
    /// a graph per decision — with the input projection and the first
    /// attention block carried over from the last decision, and dropped
    /// whenever the parameter-store version moved (a training update, or
    /// any other mutable access to the store).
    fn decide(&mut self, obs: &BqObs) -> Decision {
        let (model, store, cache) = (&self.model, &self.store, &mut self.decision_cache);
        let x = cache.project(store, model.input_proj(), &obs.encoded);
        let (logits, global) = model.policy(&mut cache.evaluator(), store, obs, &Cow::Owned(x));
        // Greedy mode never reads the value estimate, so only exploration
        // runs the value head.
        let value = if self.explore {
            model
                .value_head
                .forward(&mut Eager::default(), store, &global)
                .item()
        } else {
            0.0
        };
        self.act(logits.softmax_rows(), value)
    }

    /// Pick an action from the policy's probabilities `[1, n·K]`.
    fn act(&mut self, probs: Tensor, value: f32) -> Decision {
        let p = probs.data();
        let action = if self.explore {
            sample_index(p, self.rng.gen())
        } else {
            probs.argmax()
        };
        let log_prob = p[action].max(1e-12).ln();
        (action, log_prob, value, p.to_vec())
    }

    /// [`SchedulerPolicy::select`] with the policy evaluation `decide`.
    fn select_with(
        &mut self,
        state: &SchedulingState<'_>,
        decide: fn(&mut Self, &BqObs) -> Decision,
    ) -> Action {
        // Drain the intra-cluster commit queue first.
        while let Some((q, params)) = self.commit_queue.pop_front() {
            if state.queries[q.0].status == QueryStatus::Pending {
                return Action { query: q, params };
            }
        }
        let obs = self.build_obs(state);
        let (action, log_prob, value, probs) = decide(self, &obs);
        let k = self.model.num_configs();
        let entity = action / k;
        let config_idx = action % k;
        if self.explore {
            self.decisions.push(PendingDecision {
                obs: obs.clone(),
                action,
                log_prob,
                value,
                probs,
                time: state.now,
            });
        }
        self.expand_action(state, entity, config_idx);
        if let Some((q, params)) = self.commit_queue.pop_front() {
            return Action { query: q, params };
        }
        // Fallback: the policy selected an entity with no pending members
        // (only possible under a pathological mask); submit any pending query.
        let q = state
            .first_pending()
            .expect("select() called with no pending queries");
        Action {
            query: q,
            params: RunParams::default_config(),
        }
    }

    /// Expand an entity/config action into the concrete per-query submissions
    /// of that cluster, ordered by descending historical cost (MCF inside the
    /// cluster), respecting per-query masks.
    fn expand_action(&mut self, state: &SchedulingState<'_>, entity: usize, config_idx: usize) {
        let cluster_params = self.space.get(config_idx);
        let mut members: Vec<QueryId> = self
            .clustering
            .members(entity)
            .into_iter()
            .filter(|q| state.queries[q.0].status == QueryStatus::Pending)
            .collect();
        members.sort_by(|a, b| {
            self.avg_times[b.0]
                .partial_cmp(&self.avg_times[a.0])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for q in members {
            let allowed = self.mask.allowed(q);
            let params = if allowed[config_idx] {
                cluster_params
            } else {
                // Resolve mask conflicts by the closest allowed configuration.
                match self.space.closest_allowed(cluster_params, allowed) {
                    Some(k) => self.space.get(k),
                    None => RunParams::default_config(),
                }
            };
            self.commit_queue.push_back((q, params));
        }
    }
}

/// Inverse-CDF draw from `p` at `r ∈ [0, 1)`: the first index whose running
/// sum reaches `r`. Only entries with `p > 0` are candidates, so neither
/// `r = 0` nor an f32 sum of `p` that stays below `r` can land on an action
/// the policy gave probability 0; the latter falls through to the last
/// positive entry instead.
fn sample_index(p: &[f32], r: f32) -> usize {
    let mut cum = 0.0;
    let mut chosen = 0;
    for (i, &pi) in p.iter().enumerate() {
        if pi > 0.0 {
            cum += pi;
            chosen = i;
            if r <= cum {
                break;
            }
        }
    }
    chosen
}

impl SchedulerPolicy for BqSchedAgent {
    fn name(&self) -> &str {
        match (self.config.algorithm, self.config.use_masking) {
            (Algorithm::Ppo, false) => "LSched",
            _ => "BQSched",
        }
    }

    fn begin_episode(&mut self, _workload: &Workload) {
        self.commit_queue.clear();
        self.decisions.clear();
    }

    fn select(&mut self, state: &SchedulingState<'_>) -> Action {
        self.select_with(state, Self::decide)
    }

    fn end_episode(&mut self, log: &EpisodeLog) {
        if !self.explore || self.decisions.is_empty() {
            self.decisions.clear();
            return;
        }
        let makespan = log.makespan();
        let mut rollout = RolloutBuffer::new();
        let times: Vec<f64> = self.decisions.iter().map(|d| d.time).collect();
        let mut episode_return = 0.0;
        for (i, d) in self.decisions.drain(..).enumerate() {
            let next_time = times.get(i + 1).copied().unwrap_or(makespan);
            let reward = (-(next_time - d.time) / TIME_SCALE) as f32;
            episode_return += reward as f64;
            // Auxiliary target: among the queries running at decision time,
            // which finishes first and when (from the real log — the
            // individual-query completion signal IQ-PPO exploits).
            let aux = log
                .records
                .iter()
                .filter(|r| r.started_at <= d.time + 1e-9 && r.finished_at > d.time + 1e-9)
                .min_by(|a, b| a.finished_at.total_cmp(&b.finished_at))
                .and_then(|earliest| {
                    let entity = self.clustering.cluster_of(earliest.query);
                    let position = entity;
                    if position < d.obs.encoded.len() {
                        Some(AuxTarget {
                            earliest_index: position,
                            finish_time: ((earliest.finished_at - d.time) / TIME_SCALE) as f32,
                        })
                    } else {
                        None
                    }
                });
            rollout.push(Transition {
                obs: d.obs,
                action: d.action,
                log_prob: d.log_prob,
                value: d.value,
                reward,
                done: i + 1 == times.len(),
                action_probs: d.probs,
                aux,
            });
        }
        self.last_episode_return = episode_return;
        self.finished_rollout = rollout;
    }
}

/// One point of a training curve (Figure 7 of the paper).
#[derive(Debug, Clone, Copy)]
pub struct TrainingPoint {
    /// Number of scheduling decisions taken so far.
    pub step: usize,
    /// Mean episode return of the most recent collection phase: the
    /// exploring rounds of the iteration's last PPO phase.
    pub episode_reward: f64,
    /// Greedy-policy makespan measured at this point.
    pub eval_makespan: f64,
}

/// The full training trajectory plus cost accounting (Figures 6 and 7).
#[derive(Debug, Clone)]
pub struct TrainingCurve {
    /// Curve points in chronological order.
    pub points: Vec<TrainingPoint>,
    /// Total scheduling rounds executed during training.
    pub total_episodes: usize,
    /// Wall-clock seconds spent (training cost, Figure 6).
    pub wall_seconds: f64,
}

impl TrainingCurve {
    /// Final greedy makespan.
    pub fn final_makespan(&self) -> f64 {
        self.points
            .last()
            .map_or(f64::INFINITY, |p| p.eval_makespan)
    }
}

/// Knobs of the training loop.
#[derive(Debug, Clone, Copy)]
pub struct TrainingConfig {
    /// Outer iterations (each ends with an auxiliary phase for IQ-PPO/PPG).
    pub iterations: usize,
    /// PPO iterations per outer iteration (`N_ppo`).
    pub ppo_iters: usize,
    /// Scheduling rounds collected per PPO iteration.
    pub rounds_per_iter: usize,
    /// Greedy evaluation rounds per curve point.
    pub eval_rounds: u64,
    /// Base seed for engine noise during training.
    pub seed: u64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self {
            iterations: 2,
            ppo_iters: 2,
            rounds_per_iter: 2,
            eval_rounds: 1,
            seed: 1000,
        }
    }
}

/// Train `agent` by interacting with executors produced by `make_executor`
/// (a fresh executor per scheduling round — either the simulated DBMS or the
/// learned incremental simulator). Every round is driven through a
/// [`ScheduleSession`] labelled with `dbms`, so the training loop is
/// identical for every backend, and one [`IqPpoTrainer`] of
/// `agent.config.algorithm` trains every algorithm.
///
/// [`TrainingCurve::wall_seconds`] reports real training cost (the paper's
/// Figure 6 axis) from a [`SystemClock`]. The loop reads it once, at the
/// end; the measurement never feeds back into a decision, and everything
/// the schedule observes runs on virtual time.
pub fn train_agent_with<E, F>(
    agent: &mut BqSchedAgent,
    workload: &Workload,
    history: Option<&ExecutionHistory>,
    dbms: DbmsKind,
    tc: &TrainingConfig,
    mut make_executor: F,
) -> TrainingCurve
where
    E: ExecutorBackend,
    F: FnMut(u64) -> E,
{
    let clock = SystemClock::new();
    let mut trainer = IqPpoTrainer::for_algorithm(agent.config.algorithm, agent.config.rl);
    let mut points = Vec::new();
    let mut total_episodes = 0usize;
    let mut steps = 0usize;
    let mut round_seed = tc.seed;
    for _ in 0..tc.iterations {
        let mut iteration_log: RolloutBuffer<BqObs> = RolloutBuffer::new();
        // Sum of the returns of the current PPO phase's exploring rounds.
        let mut phase_return = 0.0;
        for _ in 0..tc.ppo_iters {
            let mut buffer: RolloutBuffer<BqObs> = RolloutBuffer::new();
            phase_return = 0.0;
            for _ in 0..tc.rounds_per_iter {
                agent.explore = true;
                let mut executor = make_executor(round_seed);
                round_seed += 1;
                ScheduleSession::builder(workload)
                    .maybe_history(history)
                    .dbms(dbms)
                    .round(round_seed)
                    .build(&mut executor)
                    .run(agent);
                total_episodes += 1;
                phase_return += agent.last_episode_return;
                let rollout = agent.take_rollout();
                steps += rollout.len();
                buffer.extend(rollout);
            }
            // The PPO phase updates the parameters in `agent.store` while the
            // model's layer definitions stay immutable.
            trainer.ppo_phase(&agent.model, &mut agent.store, &buffer);
            iteration_log.extend(buffer);
        }
        // Auxiliary phase on the accumulated log (Algorithm 1 line 7).
        trainer.aux_phase(&agent.model, &mut agent.store, &iteration_log);
        // Greedy evaluation for the curve.
        agent.explore = false;
        let mut makespans = Vec::new();
        for r in 0..tc.eval_rounds {
            let mut executor = make_executor(10_000 + r);
            let log = ScheduleSession::builder(workload)
                .maybe_history(history)
                .dbms(dbms)
                .round(r)
                .build(&mut executor)
                .run(agent);
            makespans.push(log.makespan());
        }
        agent.explore = true;
        let eval = makespans.iter().sum::<f64>() / makespans.len().max(1) as f64;
        points.push(TrainingPoint {
            step: steps,
            episode_reward: phase_return / tc.rounds_per_iter.max(1) as f64,
            eval_makespan: eval,
        });
    }
    TrainingCurve {
        points,
        total_episodes,
        wall_seconds: clock.now_seconds(),
    }
}

/// Train the agent directly against the simulated DBMS (`profile`).
pub fn train_on_dbms(
    agent: &mut BqSchedAgent,
    workload: &Workload,
    profile: &DbmsProfile,
    history: Option<&ExecutionHistory>,
    tc: &TrainingConfig,
) -> TrainingCurve {
    train_agent_with(agent, workload, history, profile.kind, tc, |seed| {
        ExecutionEngine::new(profile.clone(), workload, seed)
    })
}

/// Pre-train the agent against the learned incremental simulator (the first
/// phase of the paper's two-phase training paradigm). The simulator reads
/// the agent's own plan embeddings, so both models describe queries in the
/// same space, and models `profile`'s connections.
pub fn pretrain_on_simulator(
    agent: &mut BqSchedAgent,
    workload: &Workload,
    simulator: &SimulatorModel,
    history: &ExecutionHistory,
    profile: &DbmsProfile,
    tc: &TrainingConfig,
) -> TrainingCurve {
    let plan_embs = agent.plan_embeddings().clone();
    let avg: Vec<f64> = (0..workload.len())
        .map(|i| history.avg_exec_time(QueryId(i)).unwrap_or(1.0))
        .collect();
    train_agent_with(agent, workload, Some(history), profile.kind, tc, |_seed| {
        LearnedSimulator::new(
            simulator,
            workload,
            &plan_embs,
            avg.clone(),
            profile.connections,
        )
    })
}

/// Plan embeddings of the agent (shared with the simulator during
/// pre-training so both models describe queries in the same space).
impl BqSchedAgent {
    /// Per-query plan embeddings `[n, plan_dim]`.
    pub fn plan_embeddings(&self) -> &Tensor {
        &self.plan_embs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::masking::MASK_VALUE;
    use bq_core::{collect_history, evaluate_strategy, FifoScheduler};
    use bq_plan::{generate, Benchmark, WorkloadSpec};

    fn run_once(
        policy: &mut dyn SchedulerPolicy,
        w: &Workload,
        profile: &DbmsProfile,
        history: Option<&ExecutionHistory>,
        seed: u64,
    ) -> EpisodeLog {
        ScheduleSession::builder(w)
            .maybe_history(history)
            .run_on_profile(profile, seed, policy)
    }

    fn tiny_workload() -> Workload {
        generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1))
    }

    fn fast_config() -> BqSchedConfig {
        BqSchedConfig {
            plan_encoder: PlanEncoderConfig {
                dim: 16,
                heads: 2,
                blocks: 1,
            },
            state_encoder: StateEncoderConfig {
                dim: 16,
                heads: 2,
                blocks: 1,
            },
            plan_pretrain_epochs: 0,
            ..BqSchedConfig::default()
        }
    }

    /// [`fast_config`] with two attention blocks in the state encoder.
    fn two_block_config() -> BqSchedConfig {
        BqSchedConfig {
            state_encoder: StateEncoderConfig {
                blocks: 2,
                ..fast_config().state_encoder
            },
            ..fast_config()
        }
    }

    #[test]
    fn agent_completes_episodes_greedily() {
        let w = tiny_workload();
        let profile = DbmsProfile::dbms_x();
        let mut agent = BqSchedAgent::new(&w, &profile, None, fast_config());
        agent.explore = false;
        let eval = evaluate_strategy(&mut agent, &w, &profile, None, 1, 0);
        assert!(eval.mean_makespan > 0.0);
    }

    #[test]
    fn exploration_records_one_transition_per_decision() {
        let w = tiny_workload();
        let profile = DbmsProfile::dbms_x();
        let mut agent = BqSchedAgent::new(&w, &profile, None, fast_config());
        agent.explore = true;
        run_once(&mut agent, &w, &profile, None, 0);
        let rollout = agent.take_rollout();
        assert_eq!(
            rollout.len(),
            w.len(),
            "query-level scheduling: one decision per query"
        );
        // Rewards sum to roughly -makespan / TIME_SCALE.
        let total: f32 = rollout.transitions().iter().map(|t| t.reward).sum();
        assert!(total < 0.0);
        // Aux targets exist for states with running queries.
        assert!(
            rollout
                .transitions()
                .iter()
                .filter(|t| t.aux.is_some())
                .count()
                > 0
        );
    }

    #[test]
    fn masked_actions_are_never_selected() {
        let w = tiny_workload();
        let profile = DbmsProfile::dbms_x();
        let mut agent = BqSchedAgent::new(&w, &profile, None, fast_config());
        agent.explore = true;
        let log = run_once(&mut agent, &w, &profile, None, 0);
        // Every query that the mask restricts must have run with an allowed config.
        let space = ParamSpace::full();
        for r in &log.records {
            let allowed = agent.mask.allowed(r.query);
            let idx = space.index_of(r.params).unwrap();
            assert!(
                allowed[idx],
                "query {:?} ran with masked config {:?}",
                r.query, r.params
            );
        }
    }

    #[test]
    fn cluster_level_scheduling_reduces_decisions() {
        let w = tiny_workload();
        let profile = DbmsProfile::dbms_x();
        let history = collect_history(&mut FifoScheduler::new(), &w, &profile, 2, 0);
        let config = fast_config().with_clusters(6);
        let mut agent = BqSchedAgent::new(&w, &profile, Some(&history), config);
        assert_eq!(agent.num_entities(), 6);
        agent.explore = true;
        let log = run_once(&mut agent, &w, &profile, Some(&history), 0);
        assert_eq!(log.len(), w.len(), "all queries still execute");
        let rollout = agent.take_rollout();
        assert!(
            rollout.len() <= 6,
            "cluster-level scheduling should take at most one decision per cluster, got {}",
            rollout.len()
        );
    }

    #[test]
    fn lsched_config_disables_optimizations() {
        let c = BqSchedConfig::default().with_clusters(4).lsched();
        assert_eq!(c.algorithm, Algorithm::Ppo);
        assert!(!c.use_masking);
        assert!(c.cluster_count.is_none());
        let w = tiny_workload();
        let agent = BqSchedAgent::new(&w, &DbmsProfile::dbms_x(), None, c);
        assert_eq!(agent.name(), "LSched");
        let masks_some = |agent: &BqSchedAgent| {
            (0..w.len()).any(|i| agent.mask.allowed(QueryId(i)).contains(&false))
        };
        assert!(!masks_some(&agent), "LSched masks no configuration");
        let bq = BqSchedAgent::new(&w, &DbmsProfile::dbms_x(), None, fast_config());
        assert!(
            masks_some(&bq),
            "BQSched's adaptive mask prunes some configurations"
        );
    }

    #[test]
    fn short_training_runs_and_improves_or_matches() {
        let w = tiny_workload();
        let profile = DbmsProfile::dbms_x();
        let history = collect_history(&mut FifoScheduler::new(), &w, &profile, 2, 0);
        let mut agent = BqSchedAgent::new(&w, &profile, Some(&history), fast_config());
        let tc = TrainingConfig {
            iterations: 1,
            ppo_iters: 1,
            rounds_per_iter: 1,
            eval_rounds: 1,
            seed: 50,
        };
        let curve = train_on_dbms(&mut agent, &w, &profile, Some(&history), &tc);
        assert_eq!(curve.points.len(), 1);
        assert!(curve.total_episodes >= 1);
        assert!(curve.final_makespan().is_finite());
        assert!(curve.wall_seconds > 0.0);
    }

    #[test]
    fn episode_reward_is_the_mean_return_of_the_last_ppo_phase() {
        // The curve's reward is the mean return of the two exploring rounds,
        // which a fresh agent of the same configuration replays: the same
        // engine seeds and round labels as the training loop's.
        let w = tiny_workload();
        let profile = DbmsProfile::dbms_x();
        let history = collect_history(&mut FifoScheduler::new(), &w, &profile, 2, 0);
        let tc = TrainingConfig {
            iterations: 1,
            ppo_iters: 1,
            rounds_per_iter: 2,
            eval_rounds: 1,
            seed: 50,
        };
        let mut trained = BqSchedAgent::new(&w, &profile, Some(&history), fast_config());
        let curve = train_on_dbms(&mut trained, &w, &profile, Some(&history), &tc);
        let mut fresh = BqSchedAgent::new(&w, &profile, Some(&history), fast_config());
        let returns: Vec<f64> = (0..2)
            .map(|i| {
                ScheduleSession::builder(&w)
                    .history(&history)
                    .dbms(bq_dbms::DbmsKind::X)
                    .round(tc.seed + i + 1)
                    .run_on_profile(&profile, tc.seed + i, &mut fresh);
                fresh.last_episode_return
            })
            .collect();
        assert_ne!(returns[0], returns[1], "the rounds must tell apart");
        assert_eq!(
            curve.points[0].episode_reward,
            (returns[0] + returns[1]) / 2.0
        );
    }

    #[test]
    fn without_attention_agent_still_works() {
        let w = tiny_workload();
        let profile = DbmsProfile::dbms_x();
        let mut agent = BqSchedAgent::new(&w, &profile, None, fast_config().without_attention());
        agent.explore = false;
        let log = run_once(&mut agent, &w, &profile, None, 0);
        assert_eq!(log.len(), w.len());
    }

    /// Observations captured at a few hand-built execution states with varying
    /// finished/running/pending splits.
    fn sample_states(agent: &BqSchedAgent, w: &Workload) -> Vec<BqObs> {
        use bq_core::QueryRuntime;
        let mut out = Vec::new();
        for (n_finished, n_running) in [(0usize, 0usize), (0, 3), (5, 9)] {
            let mut queries: Vec<QueryRuntime> =
                (0..w.len()).map(|_| QueryRuntime::pending(1.0)).collect();
            for q in queries.iter_mut().take(n_finished) {
                q.status = QueryStatus::Finished;
            }
            for q in queries.iter_mut().skip(n_finished).take(n_running) {
                q.status = QueryStatus::Running;
                q.params = Some(RunParams::default_config());
                q.elapsed = 0.25 * n_running as f64;
            }
            let state = SchedulingState {
                workload: w,
                now: 0.5,
                queries: &queries,
            };
            out.push(agent.build_obs(&state));
        }
        out
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn eager_policy_matches_graph_evaluate_bitwise() {
        // Every logit and the value of the eager decision path, with one
        // decision cache carried across the states, are bit-identical to the
        // recorded pass the trainers replay, on both the attention and the
        // plain backend.
        let w = tiny_workload();
        let profile = DbmsProfile::dbms_x();
        for config in [fast_config(), fast_config().without_attention()] {
            let agent = BqSchedAgent::new(&w, &profile, None, config);
            let (model, store) = (&agent.model, &agent.store);
            let mut cache = InputRowCache::default();
            for obs in sample_states(&agent, &w) {
                let mut g = Graph::new();
                let (logits_g, value_g) = model.evaluate(&mut g, store, &obs);
                let x = Cow::Owned(cache.project(store, model.input_proj(), &obs.encoded));
                let (logits_e, global) = model.policy(&mut cache.evaluator(), store, &obs, &x);
                let value_e = model
                    .value_head
                    .forward(&mut Eager::default(), store, &global);
                assert_eq!(g.value(logits_g).shape(), logits_e.shape());
                assert!(
                    bits(g.value(logits_g).data()) == bits(logits_e.data()),
                    "logit drifted"
                );
                assert_eq!(
                    g.value(value_g).item().to_bits(),
                    value_e.item().to_bits(),
                    "value drifted"
                );
            }
        }
    }

    #[test]
    fn input_row_cache_is_rebuilt_when_the_version_moves() {
        // A parameter update bumps the store version, so the agent's next
        // decision projects every input row again: its probabilities are
        // those of the recorded pass under the new values.
        let w = tiny_workload();
        let profile = DbmsProfile::dbms_x();
        let mut agent = BqSchedAgent::new(&w, &profile, None, fast_config());
        agent.explore = false;
        let obs = sample_states(&agent, &w).remove(1);
        let (_, _, _, before) = agent.decide(&obs);
        let v = agent.store.version();
        // The first parameter is the input projection's first weight.
        let id = agent.store.iter().next().unwrap().0;
        let val = agent.store.get_mut(id).value.get(0, 0);
        agent.store.get_mut(id).value.set(0, 0, val + 0.5);
        assert!(
            agent.store.version() > v,
            "mutable access must bump version"
        );
        let (_, _, _, after) = agent.decide(&obs);
        assert_ne!(bits(&before), bits(&after), "the update must show");
        let mut g = Graph::new();
        let (logits, _) = agent.model.evaluate(&mut g, &agent.store, &obs);
        let recorded = g.value(logits).softmax_rows();
        assert!(
            bits(&after) == bits(recorded.data()),
            "a stale row was read"
        );
    }

    /// Reference decision: the recorded graph pass, as the trainers replay
    /// it, instead of the eager one.
    fn graph_decide(agent: &mut BqSchedAgent, obs: &BqObs) -> Decision {
        let mut g = Graph::new();
        let (logits, value) = agent.model.evaluate(&mut g, &agent.store, obs);
        let value = if agent.explore {
            g.value(value).item()
        } else {
            0.0
        };
        agent.act(g.value(logits).softmax_rows(), value)
    }

    /// The agent, deciding through [`graph_decide`].
    struct GraphReference(BqSchedAgent);

    impl SchedulerPolicy for GraphReference {
        fn name(&self) -> &str {
            self.0.name()
        }

        fn begin_episode(&mut self, workload: &Workload) {
            self.0.begin_episode(workload);
        }

        fn select(&mut self, state: &SchedulingState<'_>) -> Action {
            self.0.select_with(state, graph_decide)
        }

        fn end_episode(&mut self, log: &EpisodeLog) {
            self.0.end_episode(log);
        }
    }

    #[test]
    fn a_swapped_store_never_validates_a_stale_decision_cache() {
        // Two agents of one layout from different seeds. Once `a` has
        // decided, it takes `b`'s store; its next decision must not read a
        // row projected or attended under the old values.
        let w = tiny_workload();
        let profile = DbmsProfile::dbms_x();
        let config = |seed| BqSchedConfig {
            seed,
            ..fast_config()
        };
        let mut a = BqSchedAgent::new(&w, &profile, None, config(1));
        let b = BqSchedAgent::new(&w, &profile, None, config(2));
        a.explore = false;
        let obs = sample_states(&a, &w).remove(1);
        let (_, _, _, before) = a.decide(&obs);
        a.store = b.store.clone();
        let (_, _, _, after) = a.decide(&obs);
        assert_ne!(bits(&before), bits(&after), "the swap must show");
        let mut g = Graph::new();
        let (logits, _) = a.model.evaluate(&mut g, &a.store, &obs);
        let recorded = g.value(logits).softmax_rows();
        assert!(
            bits(&after) == bits(recorded.data()),
            "a stale row was read"
        );
    }

    /// Scale every parameter value of `store` by `by`.
    fn nudge(store: &mut ParamStore, by: f32) {
        for (_, p) in store.iter_mut() {
            p.value.data_mut().iter_mut().for_each(|v| *v *= by);
        }
    }

    #[test]
    fn episodes_match_a_graph_evaluate_reference_policy() {
        // Greedy and exploring episodes of the eager decision path are
        // byte-identical to the same agent deciding through the recorded
        // pass, and so are the rollouts' stored action probabilities. Four
        // consecutive rounds per agent carry the decision cache across round
        // boundaries, and a parameter update after the second rebuilds it
        // mid-stream.
        let w = tiny_workload();
        let profile = DbmsProfile::dbms_x();
        let history = collect_history(&mut FifoScheduler::new(), &w, &profile, 2, 0);
        let configs = [
            fast_config(),
            two_block_config(),
            fast_config().without_attention(),
            fast_config().with_clusters(6),
        ];
        for config in configs {
            for explore in [false, true] {
                let mut fast = BqSchedAgent::new(&w, &profile, Some(&history), config.clone());
                let mut reference = GraphReference(BqSchedAgent::new(
                    &w,
                    &profile,
                    Some(&history),
                    config.clone(),
                ));
                fast.explore = explore;
                reference.0.explore = explore;
                for seed in [7, 8, 9, 10] {
                    if seed == 9 {
                        nudge(&mut fast.store, 0.97);
                        nudge(&mut reference.0.store, 0.97);
                    }
                    let log_fast = run_once(&mut fast, &w, &profile, Some(&history), seed);
                    let log_ref = run_once(&mut reference, &w, &profile, Some(&history), seed);
                    assert_eq!(
                        log_fast.to_json(),
                        log_ref.to_json(),
                        "decision path changed the schedule (explore={explore})"
                    );
                    let rollout_fast = fast.take_rollout();
                    let rollout_ref = reference.0.take_rollout();
                    assert_eq!(rollout_fast.len(), rollout_ref.len());
                    for (a, b) in rollout_fast
                        .transitions()
                        .iter()
                        .zip(rollout_ref.transitions())
                    {
                        assert_eq!(a.action, b.action);
                        assert_eq!(a.log_prob.to_bits(), b.log_prob.to_bits());
                        assert_eq!(a.value.to_bits(), b.value.to_bits());
                        let bits = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&a.action_probs), bits(&b.action_probs));
                    }
                }
            }
        }
    }

    /// The all-rows reference for the recorded passes: encode every entity,
    /// run the heads on every row, and select the rows the loss reads
    /// afterwards — the shape `evaluate` and `aux_prediction` had before
    /// they narrowed to those rows.
    struct AllRows<'a>(&'a BqSchedModel);

    impl ActorCritic for AllRows<'_> {
        type Obs = BqObs;

        fn evaluate(&self, g: &mut Graph, store: &ParamStore, obs: &BqObs) -> (NodeId, NodeId) {
            let model = self.0;
            let n = obs.encoded.len();
            let all: Vec<usize> = (0..n).collect();
            let x = obs.encoded.project(g, store, model.input_proj());
            let (per_query, global) = model.representations(g, store, &obs.encoded, &x, &all);
            let per_entity_logits = model.policy_head.forward(g, store, &per_query);
            let flat = g.reshape(per_entity_logits, 1, n * model.num_configs);
            let mask = Tensor::from_vec(1, obs.mask.len(), obs.mask.clone());
            let logits = g.add_const(flat, &mask);
            let value = model.value_head.forward(g, store, &global);
            (logits, value)
        }

        fn aux_prediction(
            &self,
            g: &mut Graph,
            store: &ParamStore,
            obs: &BqObs,
            index: usize,
        ) -> NodeId {
            let model = self.0;
            let all: Vec<usize> = (0..obs.encoded.len()).collect();
            let x = obs.encoded.project(g, store, model.input_proj());
            let (per_query, _) = model.representations(g, store, &obs.encoded, &x, &all);
            let row = g.select_rows(per_query, &[index]);
            model.aux_head.forward(g, store, &row)
        }
    }

    /// Train `model` from `store` on `buffer` with a PPO, then an IQ-PPO,
    /// then a PPG trainer, each running its PPO and auxiliary phase; the
    /// bits of every statistic, and of every parameter and Adam moment after
    /// each trainer.
    fn trained_bits<M: ActorCritic<Obs = BqObs>>(
        model: &M,
        store: &ParamStore,
        rl: IqPpoConfig,
        buffer: &RolloutBuffer<BqObs>,
    ) -> Vec<u32> {
        let mut store = store.clone();
        let mut out = Vec::new();
        let mut record = |store: &ParamStore, optimizers: &[&bq_nn::Adam], stats: &[f32]| {
            let moments = optimizers.iter().flat_map(|adam| {
                let (m, v) = adam.moments();
                m.iter().chain(v)
            });
            let values = store.iter().map(|(_, p)| &p.value);
            let state = values.chain(moments).flat_map(|t| t.data());
            out.extend(state.chain(stats).map(|x| x.to_bits()));
        };
        for algorithm in [Algorithm::Ppo, Algorithm::IqPpo, Algorithm::Ppg] {
            let mut trainer = IqPpoTrainer::for_algorithm(algorithm, rl);
            let s = trainer.ppo_phase(model, &mut store, buffer);
            let a = trainer.aux_phase(model, &mut store, buffer);
            let stats = [s.policy_loss, s.value_loss, s.entropy, a.aux_loss, a.kl];
            record(&store, &trainer.optimizers(), &stats);
        }
        out
    }

    #[test]
    fn narrowed_training_matches_an_all_rows_reference_bitwise() {
        // The recorded passes compute only the rows each loss reads; every
        // trainer still produces the parameter, Adam-moment and statistic
        // bits of the pass over every row.
        let w = tiny_workload();
        let profile = DbmsProfile::dbms_x();
        let history = collect_history(&mut FifoScheduler::new(), &w, &profile, 2, 0);
        let configs = [
            fast_config(),
            two_block_config(),
            fast_config().with_clusters(6),
            fast_config().without_attention(),
            fast_config().without_masking(),
        ];
        for config in configs {
            let mut agent = BqSchedAgent::new(&w, &profile, Some(&history), config);
            let mut buffer = RolloutBuffer::new();
            for seed in [3, 4] {
                run_once(&mut agent, &w, &profile, Some(&history), seed);
                buffer.extend(agent.take_rollout());
            }
            assert!(buffer.transitions().iter().any(|t| t.aux.is_some()));
            let rl = agent.config.rl;
            let narrowed = trained_bits(&agent.model, &agent.store, rl, &buffer);
            let reference = trained_bits(&AllRows(&agent.model), &agent.store, rl, &buffer);
            assert!(
                narrowed == reference,
                "{:?} trained different bits than the all-rows reference",
                agent.config
            );
        }
    }

    #[test]
    fn training_is_bitwise_independent_of_the_thread_count() {
        // The trainers evaluate transitions on every core and merge them in
        // transition order, so a short TPC-H rollout trains to the same
        // parameter, Adam-moment and statistic bits on any thread count.
        let w = tiny_workload();
        let profile = DbmsProfile::dbms_x();
        let history = collect_history(&mut FifoScheduler::new(), &w, &profile, 2, 0);
        let trained_bits = |threads: usize| {
            let mut agent = BqSchedAgent::new(&w, &profile, Some(&history), fast_config());
            agent.explore = true;
            let mut buffer = RolloutBuffer::new();
            for seed in [3, 4] {
                run_once(&mut agent, &w, &profile, Some(&history), seed);
                buffer.extend(agent.take_rollout());
            }
            let mut trainer = IqPpoTrainer::new(agent.config.rl).with_threads(threads);
            let ppo = trainer.ppo_phase(&agent.model, &mut agent.store, &buffer);
            let aux = trainer.aux_phase(&agent.model, &mut agent.store, &buffer);
            let stats = [
                ppo.policy_loss,
                ppo.value_loss,
                ppo.entropy,
                aux.aux_loss,
                aux.kl,
            ];
            let moments = trainer.optimizers().into_iter().flat_map(|adam| {
                let (m, v) = adam.moments();
                m.iter().chain(v)
            });
            let values = agent.store.iter().map(|(_, p)| &p.value);
            values
                .chain(moments)
                .flat_map(|t| t.data())
                .chain(&stats)
                .map(|x| x.to_bits())
                .collect::<Vec<u32>>()
        };
        let one = trained_bits(1);
        for threads in [2, 3] {
            assert!(
                trained_bits(threads) == one,
                "{threads} threads trained different bits than 1 thread"
            );
        }
    }

    /// Reference draw that, unlike [`sample_index`], also stops at entries
    /// of probability 0.
    fn sample_index_counting_zeros(p: &[f32], r: f32) -> usize {
        let mut cum = 0.0;
        let mut chosen = 0;
        for (i, &pi) in p.iter().enumerate() {
            cum += pi;
            chosen = i;
            if r <= cum {
                break;
            }
        }
        chosen
    }

    /// The largest value `gen::<f32>()` returns: `1 - 2^-24`.
    const LARGEST_DRAW: f32 = 1.0 - f32::EPSILON / 2.0;

    #[test]
    fn a_zero_draw_skips_a_leading_zero_probability() {
        let p = [0.0, 0.25, 0.75];
        assert_eq!(sample_index_counting_zeros(&p, 0.0), 0);
        assert_eq!(sample_index(&p, 0.0), 1);
    }

    #[test]
    fn a_draw_past_the_f32_sum_lands_on_the_last_positive_probability() {
        let p = [0.5, 0.4999999, 0.0];
        assert!(p.iter().sum::<f32>() < LARGEST_DRAW);
        assert_eq!(sample_index_counting_zeros(&p, LARGEST_DRAW), 2);
        assert_eq!(sample_index(&p, LARGEST_DRAW), 1);
    }

    #[test]
    fn sampling_moves_only_draws_that_landed_on_a_zero_probability() {
        // Masked softmaxes as the policy produces them: masked logits get
        // `MASK_VALUE` and so an exact 0. Every draw the old sampler sent to
        // a positive entry must land on the same index; the rest must move
        // to a positive one.
        let mut rng = StdRng::seed_from_u64(11);
        let (mut kept, mut moved) = (0, 0);
        for _ in 0..2000 {
            let n = rng.gen_range(1..12);
            let open = rng.gen_range(0..n);
            let logits: Vec<f32> = (0..n)
                .map(|i| {
                    let v = rng.gen_range(-3.0f32..3.0);
                    if i != open && rng.gen_bool(0.4) {
                        v + MASK_VALUE
                    } else {
                        v
                    }
                })
                .collect();
            let probs = Tensor::row(&logits).softmax_rows();
            let p = probs.data();
            for r in [0.0, rng.gen(), rng.gen(), LARGEST_DRAW] {
                let before = sample_index_counting_zeros(p, r);
                let after = sample_index(p, r);
                assert!(
                    p[after] > 0.0,
                    "drew a zero-probability action from {p:?} at {r}"
                );
                if p[before] > 0.0 {
                    assert_eq!(after, before, "moved a positive draw from {p:?} at {r}");
                    kept += 1;
                } else {
                    moved += 1;
                }
            }
        }
        assert!(
            kept > 0 && moved > 0,
            "the sweep must hit both kinds of draw"
        );
    }
}
