//! Attention-based state representation (§III-A of the paper).
//!
//! Each batch query is represented by its plan embedding concatenated with
//! its running-state features and projected by an MLP; a learnable *super
//! query* token is appended and the whole set flows through multi-head
//! attention blocks so that every query's representation reflects the mutual
//! influences of the others. The super query's final representation (enriched
//! with a pooled summary of all running-state features) is the global state
//! `x''_s`; each query's final representation (enriched with the global state
//! and a pooled summary of the *running* queries' features) is `x''_i`.
//!
//! The same representation is shared by the policy, value and auxiliary
//! networks of IQ-PPO and by the learned incremental simulator.

use crate::features::{mean_features, state_feature_matrix, STATE_FEATURE_DIM};
use bq_core::{QueryStatus, SchedulingState};
use bq_nn::{
    Activation, AttentionBlock, Eager, IncrementalAttention, Mlp, NodeId, Ops, ParamId, ParamStore,
    Tensor,
};
use rand::rngs::StdRng;
use std::borrow::Cow;

/// Hyper-parameters of the state encoder.
#[derive(Debug, Clone, Copy)]
pub struct StateEncoderConfig {
    /// Width of the internal query representations.
    pub dim: usize,
    /// Attention heads per block.
    pub heads: usize,
    /// Number of attention blocks (`×N` in Figure 2 of the paper).
    pub blocks: usize,
}

impl Default for StateEncoderConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            heads: 4,
            blocks: 1,
        }
    }
}

/// A replayable observation: everything needed to re-encode a scheduling
/// state under the *current* network parameters (PPO-style algorithms
/// re-evaluate stored states at update time).
#[derive(Debug, Clone)]
pub struct EncodedObservation {
    /// Per-entity plan embeddings `[n, plan_dim]` (queries, or clusters after
    /// sum-pooling at cluster-level scheduling).
    pub plan_embs: Tensor,
    /// Per-entity running-state features `[n, STATE_FEATURE_DIM]`.
    pub features: Tensor,
    /// Indices of entities currently running.
    pub running: Vec<usize>,
    /// Indices of entities still pending.
    pub pending: Vec<usize>,
}

impl EncodedObservation {
    /// Build an observation from a scheduling state and pre-computed plan
    /// embeddings (one row per query).
    pub fn from_state(state: &SchedulingState<'_>, plan_embs: &Tensor) -> Self {
        assert_eq!(
            plan_embs.rows(),
            state.queries.len(),
            "one plan embedding per query required"
        );
        let features = state_feature_matrix(state);
        let running = state
            .queries
            .iter()
            .enumerate()
            .filter(|(_, q)| q.status == QueryStatus::Running)
            .map(|(i, _)| i)
            .collect();
        let pending = state
            .queries
            .iter()
            .enumerate()
            .filter(|(_, q)| q.status == QueryStatus::Pending)
            .map(|(i, _)| i)
            .collect();
        Self {
            plan_embs: plan_embs.clone(),
            features,
            running,
            pending,
        }
    }

    /// Number of entities (queries or clusters) in the observation.
    pub fn len(&self) -> usize {
        self.features.rows()
    }

    /// Whether the observation contains no entities.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `mlp(e_i ∥ f_i)` for every entity: the state encoder's input
    /// projection, and the whole per-entity encoding of the "w/o attention"
    /// ablation.
    pub fn project<'s, O: Ops<'s>>(&self, g: &mut O, store: &'s ParamStore, mlp: &Mlp) -> O::Value {
        let plan = g.input(self.plan_embs.clone());
        let feats = g.input(self.features.clone());
        let x_in = g.concat_cols(&plan, &feats);
        mlp.forward(g, store, &x_in)
    }
}

/// Output of the state encoder: the per-entity and global representations,
/// as tape nodes by default.
#[derive(Debug, Clone, Copy)]
pub struct StateRepr<V = NodeId> {
    /// `x''_i` for the requested entity rows, `[rows.len(), dim]`.
    pub per_query: V,
    /// `x''_s`, `[1, dim]`.
    pub global: V,
}

/// The decision loop's per-round state: the projected input rows and the
/// state encoder's first attention block carried from one decision to the
/// next, valid for the [`ParamStore`] at one [`ParamStore::version`].
/// [`Self::project`] drops both when the version moves (a training update,
/// or any other mutable access to the store), so no stale row is ever read.
///
/// One slot per entity row holds the bit pattern of the input row
/// `e_i ∥ f_i` and its projection `x_i`. The projection is row-wise, so a
/// row whose input bits are unchanged reuses `x_i` exactly. Pending and
/// finished entities keep their features between decisions, so only
/// running entities are projected again, and only their rows are marked
/// changed for the carried attention, which redoes just the work they
/// touch (see [`IncrementalAttention`]).
#[derive(Debug, Clone, Default)]
pub struct InputRowCache {
    rows: Vec<InputRow>,
    attention: IncrementalAttention,
}

#[derive(Debug, Clone, Default)]
struct InputRow {
    key: Vec<u32>,
    value: Vec<f32>,
}

impl InputRowCache {
    /// The value of [`EncodedObservation::project`] evaluated eagerly,
    /// running `mlp` only on the rows whose input bits differ from the
    /// cached slot.
    pub fn project(&mut self, store: &ParamStore, mlp: &Mlp, obs: &EncodedObservation) -> Tensor {
        if self.attention.renew(store) {
            self.rows.clear();
        }
        let n = obs.len();
        let in_dim = obs.plan_embs.cols() + obs.features.cols();
        self.rows.resize_with(n, InputRow::default);
        let input_row = |i: usize| {
            obs.plan_embs
                .row_slice(i)
                .iter()
                .chain(obs.features.row_slice(i))
        };
        let mut stale = Vec::new();
        let mut stale_in = Vec::new();
        for (i, slot) in self.rows.iter().enumerate() {
            let fresh = slot.key.len() == in_dim
                && slot
                    .key
                    .iter()
                    .zip(input_row(i))
                    .all(|(k, v)| *k == v.to_bits());
            if !fresh {
                stale.push(i);
                stale_in.extend(input_row(i));
                self.attention.input_changed(i);
            }
        }
        if !stale.is_empty() {
            let x_in = Cow::Owned(Tensor::from_vec(stale.len(), in_dim, stale_in));
            let projected = mlp.forward(&mut Eager::default(), store, &x_in);
            for (j, &i) in stale.iter().enumerate() {
                let slot = &mut self.rows[i];
                slot.key.clear();
                slot.key.extend(input_row(i).map(|v| v.to_bits()));
                slot.value.clear();
                slot.value.extend_from_slice(projected.row_slice(j));
            }
        }
        let dim = mlp.out_dim();
        let mut data = Vec::with_capacity(n * dim);
        for slot in &self.rows {
            data.extend_from_slice(&slot.value);
        }
        Tensor::from_vec(n, dim, data)
    }

    /// An [`Eager`] evaluation over the rows [`Self::project`] last
    /// returned that carries [`StateEncoder::attend`]'s first attention block
    /// over from the last pass.
    pub fn evaluator(&mut self) -> Eager<'_> {
        Eager::carrying(&mut self.attention)
    }
}

/// The attention-based state encoder.
#[derive(Debug, Clone)]
pub struct StateEncoder {
    config: StateEncoderConfig,
    plan_dim: usize,
    input_proj: Mlp,
    super_query: ParamId,
    blocks: Vec<AttentionBlock>,
    global_head: Mlp,
    query_head: Mlp,
}

impl StateEncoder {
    /// Create a new state encoder over plan embeddings of width `plan_dim`,
    /// registering parameters in `store`.
    pub fn new(
        store: &mut ParamStore,
        plan_dim: usize,
        config: StateEncoderConfig,
        rng: &mut StdRng,
    ) -> Self {
        let input_dim = plan_dim + STATE_FEATURE_DIM;
        let input_proj = Mlp::new(
            store,
            "state.input_proj",
            &[input_dim, config.dim, config.dim],
            Activation::Tanh,
            Activation::Tanh,
            rng,
        );
        let super_query = store.add_xavier("state.super_query", 1, config.dim, rng);
        let blocks = (0..config.blocks)
            .map(|i| {
                AttentionBlock::new(
                    store,
                    &format!("state.block{i}"),
                    config.dim,
                    config.heads,
                    config.dim * 2,
                    rng,
                )
            })
            .collect();
        let global_head = Mlp::new(
            store,
            "state.global_head",
            &[config.dim + STATE_FEATURE_DIM, config.dim, config.dim],
            Activation::Tanh,
            Activation::Tanh,
            rng,
        );
        let query_head = Mlp::new(
            store,
            "state.query_head",
            &[config.dim * 2 + STATE_FEATURE_DIM, config.dim, config.dim],
            Activation::Tanh,
            Activation::Tanh,
            rng,
        );
        Self {
            config,
            plan_dim,
            input_proj,
            super_query,
            blocks,
            global_head,
            query_head,
        }
    }

    /// Encoder configuration.
    pub fn config(&self) -> StateEncoderConfig {
        self.config
    }

    /// Output representation width.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// The input projection `x_i = MLP(e_i ∥ f_i)`.
    pub fn input_proj(&self) -> &Mlp {
        &self.input_proj
    }

    /// The encoding of `obs` on `g` for the entity rows `rows`.
    ///
    /// Only the last attention block and the query head narrow to `rows`;
    /// the last block also keeps the super query, which feeds the global
    /// head. Keys and values, and every earlier block, still cover all
    /// entities. `per_query` has shape `[rows.len(), dim]`; pass `0..n` for
    /// every row. With `rows` ascending, a loss that reads only these rows
    /// trains bitwise the parameter gradients of the all-rows pass (see
    /// [`bq_nn::MultiHeadAttention::forward`]).
    pub fn forward<'s, O: Ops<'s>>(
        &self,
        g: &mut O,
        store: &'s ParamStore,
        obs: &EncodedObservation,
        rows: &[usize],
    ) -> StateRepr<O::Value> {
        let x = obs.project(g, store, &self.input_proj);
        self.attend(g, store, obs, &x, rows)
    }

    /// [`Self::forward`] from the input projection `x` (`[n, dim]`, the
    /// value of `obs.project(g, store, self.input_proj())`).
    pub fn attend<'s, O: Ops<'s>>(
        &self,
        g: &mut O,
        store: &'s ParamStore,
        obs: &EncodedObservation,
        x: &O::Value,
        rows: &[usize],
    ) -> StateRepr<O::Value> {
        let n = obs.len();
        assert!(n > 0, "cannot encode an empty observation");
        assert_eq!(
            obs.plan_embs.cols(),
            self.plan_dim,
            "plan embedding width mismatch"
        );

        // Append the super query and run the attention blocks; the last one
        // computes only the requested rows and the super query.
        let super_q = g.param(store, self.super_query);
        let mut h = g.concat_rows(x, &super_q);
        let (all, kept) = block_rows(n, rows);
        for (i, block) in self.blocks.iter().enumerate() {
            let out_rows = if i + 1 == self.blocks.len() {
                &kept
            } else {
                &all
            };
            h = block.forward(g, store, &h, out_rows, None);
        }
        if self.blocks.is_empty() {
            h = g.select_rows(&h, &kept);
        }
        let m = rows.len();
        let x_q = g.slice_rows(&h, 0, m);
        let x_s = g.slice_rows(&h, m, 1);

        // Global representation x''_s = MLP(x'_s ∥ pooled features of all queries).
        let pooled_all = g.input(mean_features(&obs.features, &all[..n]));
        let global_in = g.concat_cols(&x_s, &pooled_all);
        let global = self.global_head.forward(g, store, &global_in);

        // Per-query representation x''_i = MLP(x'_i ∥ x'_s ∥ pooled features of
        // the concurrently running queries).
        let ones = g.input(Tensor::full(m, 1, 1.0));
        let x_s_bcast = g.matmul(&ones, &x_s);
        let pooled_running_row = mean_features(&obs.features, &obs.running);
        let ones2 = g.input(Tensor::full(m, 1, 1.0));
        let pooled_running_in = g.input(pooled_running_row);
        let pooled_running = g.matmul(&ones2, &pooled_running_in);
        let per_query_in = g.concat_cols(&x_q, &x_s_bcast);
        let per_query_in = g.concat_cols(&per_query_in, &pooled_running);
        let per_query = self.query_head.forward(g, store, &per_query_in);

        StateRepr { per_query, global }
    }
}

/// The output rows of the attention blocks over `n` entities and the super
/// query: every row for the earlier blocks, `rows` and the super query for
/// the last.
fn block_rows(n: usize, rows: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let all = (0..=n).collect();
    let kept = rows.iter().copied().chain([n]).collect();
    (all, kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan_encoder::seeded_rng;
    use bq_core::QueryRuntime;
    use bq_nn::Graph;
    use bq_plan::{generate, Benchmark, WorkloadSpec};

    fn obs_for(n_running: usize) -> (bq_plan::Workload, EncodedObservation) {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let mut queries: Vec<QueryRuntime> =
            (0..w.len()).map(|_| QueryRuntime::pending(1.0)).collect();
        for q in queries.iter_mut().take(n_running) {
            q.status = QueryStatus::Running;
            q.params = Some(bq_dbms::RunParams::default_config());
            q.elapsed = 1.0;
        }
        let state = SchedulingState {
            workload: &w,
            now: 1.0,
            queries: &queries,
        };
        let plan_embs = Tensor::from_rows(
            &(0..w.len())
                .map(|i| (0..32).map(|j| ((i * 7 + j) % 11) as f32 * 0.05).collect())
                .collect::<Vec<_>>(),
        );
        let obs = EncodedObservation::from_state(&state, &plan_embs);
        (w, obs)
    }

    #[test]
    fn observation_splits_running_and_pending() {
        let (w, obs) = obs_for(3);
        assert_eq!(obs.len(), w.len());
        assert_eq!(obs.running.len(), 3);
        assert_eq!(obs.pending.len(), w.len() - 3);
    }

    #[test]
    fn forward_produces_correct_shapes() {
        let (_, obs) = obs_for(4);
        let mut store = ParamStore::new();
        let mut rng = seeded_rng(1);
        let enc = StateEncoder::new(&mut store, 32, StateEncoderConfig::default(), &mut rng);
        let mut g = Graph::new();
        let all: Vec<usize> = (0..obs.len()).collect();
        let repr = enc.forward(&mut g, &store, &obs, &all);
        assert_eq!(g.value(repr.per_query).shape(), (obs.len(), enc.dim()));
        assert_eq!(g.value(repr.global).shape(), (1, enc.dim()));
        assert!(g.value(repr.per_query).all_finite());
        assert!(g.value(repr.global).all_finite());
    }

    #[test]
    fn representation_depends_on_running_status() {
        // Changing which queries are running must change the representations —
        // otherwise the policy cannot react to the execution state.
        let (_, obs_a) = obs_for(2);
        let (_, obs_b) = obs_for(8);
        let mut store = ParamStore::new();
        let mut rng = seeded_rng(2);
        let enc = StateEncoder::new(&mut store, 32, StateEncoderConfig::default(), &mut rng);
        let mut ga = Graph::new();
        let ra = enc.forward(&mut ga, &store, &obs_a, &obs_a.pending);
        let mut gb = Graph::new();
        let rb = enc.forward(&mut gb, &store, &obs_b, &obs_b.pending);
        let diff = ga.value(ra.global).sub(gb.value(rb.global)).norm();
        assert!(
            diff > 1e-5,
            "global state must reflect running queries, diff {diff}"
        );
    }

    #[test]
    fn variable_length_batches_are_supported() {
        // The attention mechanism supports a different number of queries
        // without any architectural change (paper: generalization ability).
        let (w, obs_full) = obs_for(1);
        let small = w.subset(&(0..5).collect::<Vec<_>>());
        let mut queries: Vec<QueryRuntime> = (0..small.len())
            .map(|_| QueryRuntime::pending(1.0))
            .collect();
        queries[0].status = QueryStatus::Running;
        let state = SchedulingState {
            workload: &small,
            now: 0.0,
            queries: &queries,
        };
        let plan_embs = obs_full.plan_embs.slice_rows(0, 5);
        let obs_small = EncodedObservation::from_state(&state, &plan_embs);

        let mut store = ParamStore::new();
        let mut rng = seeded_rng(3);
        let enc = StateEncoder::new(&mut store, 32, StateEncoderConfig::default(), &mut rng);
        let mut g1 = Graph::new();
        let all_full: Vec<usize> = (0..obs_full.len()).collect();
        let r1 = enc.forward(&mut g1, &store, &obs_full, &all_full);
        let mut g2 = Graph::new();
        let r2 = enc.forward(&mut g2, &store, &obs_small, &[0, 1, 2, 3, 4]);
        assert_eq!(g1.value(r1.per_query).rows(), obs_full.len());
        assert_eq!(g2.value(r2.per_query).rows(), 5);
    }

    /// The decision loop's encoding of `obs` for `rows`: eager, with the
    /// input projection and the first attention block served from `cache`.
    /// Returns `(per_query, global)`.
    fn eager_encode(
        enc: &StateEncoder,
        store: &ParamStore,
        obs: &EncodedObservation,
        rows: &[usize],
        cache: &mut InputRowCache,
    ) -> (Tensor, Tensor) {
        let x = Cow::Owned(cache.project(store, enc.input_proj(), obs));
        let repr = enc.attend(&mut cache.evaluator(), store, obs, &x, rows);
        (repr.per_query.into_owned(), repr.global.into_owned())
    }

    #[test]
    fn eager_matches_forward_bitwise() {
        for (seed, n_running) in [(11_u64, 0_usize), (12, 3), (13, 8)] {
            let (_, obs) = obs_for(n_running);
            let mut store = ParamStore::new();
            let mut rng = seeded_rng(seed);
            let enc = StateEncoder::new(&mut store, 32, StateEncoderConfig::default(), &mut rng);
            let mut g = Graph::new();
            let all: Vec<usize> = (0..obs.len()).collect();
            let repr = enc.forward(&mut g, &store, &obs, &all);
            let mut cache = InputRowCache::default();
            let (per_query, global) = eager_encode(&enc, &store, &obs, &all, &mut cache);
            assert_eq!(g.value(repr.per_query).shape(), per_query.shape());
            for (a, b) in g.value(repr.per_query).data().iter().zip(per_query.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "per-query repr drifted");
            }
            for (a, b) in g.value(repr.global).data().iter().zip(global.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "global repr drifted");
            }
        }
    }

    fn assert_rows_bitwise(expected: &Tensor, rows: &[usize], actual: &Tensor, what: &str) {
        assert_eq!(
            actual.shape(),
            (rows.len(), expected.cols()),
            "{what} shape"
        );
        for (a, b) in expected.select_rows(rows).data().iter().zip(actual.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what} drifted");
        }
    }

    #[test]
    fn pending_rows_match_all_rows_bitwise() {
        // The decision path and the policy loss ask only for the pending
        // rows; with one block that narrows the only block, with two the
        // second one. Both the eager and the recorded narrowed pass give the
        // matching rows of the all-rows pass.
        for blocks in [1, 2] {
            for (seed, n_running) in [(21_u64, 0_usize), (22, 5)] {
                let (_, obs) = obs_for(n_running);
                let mut store = ParamStore::new();
                let mut rng = seeded_rng(seed);
                let config = StateEncoderConfig {
                    blocks,
                    ..StateEncoderConfig::default()
                };
                let enc = StateEncoder::new(&mut store, 32, config, &mut rng);
                let mut g = Graph::new();
                let all: Vec<usize> = (0..obs.len()).collect();
                let repr = enc.forward(&mut g, &store, &obs, &all);
                let narrowed = enc.forward(&mut g, &store, &obs, &obs.pending);
                let mut cache = InputRowCache::default();
                let (per_query, global) =
                    eager_encode(&enc, &store, &obs, &obs.pending, &mut cache);
                let what = format!("blocks={blocks} running={n_running}");
                for (q, s) in [
                    (&per_query, &global),
                    (g.value(narrowed.per_query), g.value(narrowed.global)),
                ] {
                    assert_rows_bitwise(g.value(repr.per_query), &obs.pending, q, &what);
                    assert_rows_bitwise(g.value(repr.global), &[0], s, &what);
                }
            }
        }
    }

    #[test]
    fn warm_input_row_cache_matches_a_cold_one() {
        // After one feature row changes, the cached projections of the other
        // rows are reused and the changed one is recomputed: the outputs are
        // bitwise those of a freshly built cache.
        let (_, obs) = obs_for(4);
        let mut store = ParamStore::new();
        let mut rng = seeded_rng(23);
        let enc = StateEncoder::new(&mut store, 32, StateEncoderConfig::default(), &mut rng);
        let all: Vec<usize> = (0..obs.len()).collect();
        let mut warm = InputRowCache::default();
        let _ = eager_encode(&enc, &store, &obs, &all, &mut warm);

        let mut changed = obs.clone();
        let elapsed_col = STATE_FEATURE_DIM - 2;
        let v = changed.features.get(2, elapsed_col);
        changed.features.set(2, elapsed_col, v + 0.5);
        let (warm_q, warm_s) = eager_encode(&enc, &store, &changed, &all, &mut warm);
        let (cold_q, cold_s) =
            eager_encode(&enc, &store, &changed, &all, &mut InputRowCache::default());
        assert_rows_bitwise(&cold_q, &all, &warm_q, "warm per-query repr");
        assert_rows_bitwise(&cold_s, &[0], &warm_s, "warm global repr");

        let (stale_q, _) = eager_encode(&enc, &store, &obs, &all, &mut InputRowCache::default());
        assert_ne!(
            stale_q.row_slice(2),
            warm_q.row_slice(2),
            "the changed row must be recomputed"
        );
    }

    #[test]
    #[should_panic(expected = "plan embedding per query")]
    fn mismatched_embedding_rows_rejected() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let queries: Vec<QueryRuntime> = (0..w.len()).map(|_| QueryRuntime::pending(1.0)).collect();
        let state = SchedulingState {
            workload: &w,
            now: 0.0,
            queries: &queries,
        };
        let plan_embs = Tensor::zeros(3, 32);
        let _ = EncodedObservation::from_state(&state, &plan_embs);
    }
}
