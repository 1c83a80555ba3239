//! QueryFormer-style plan encoder.
//!
//! The paper encodes each query's physical plan with QueryFormer [Zhao et al.,
//! VLDB 2022]: node features flow through a tree Transformer whose attention
//! is biased by tree distance, and a *super node* connected to every other
//! node summarises the whole plan. This module reimplements that design on
//! the `bq-nn` substrate: node featurisation from [`crate::features`],
//! attention blocks with the tree bias, and the super-node embedding as the
//! plan embedding.
//!
//! As in the original system, the encoder can be pre-trained on an auxiliary
//! cost-prediction task so that plan embeddings carry cost/structure
//! information before any scheduling feedback exists.

use crate::features::{plan_node_features, tree_bias, NODE_FEATURE_DIM};
use bq_nn::{
    fit, math, Activation, Adam, AttentionBlock, Graph, Linear, Mlp, NodeId, ParamStore, Tensor,
};
use bq_plan::{QueryPlan, Workload};
use rand::rngs::StdRng;

/// Hyper-parameters of the plan encoder.
#[derive(Debug, Clone, Copy)]
pub struct PlanEncoderConfig {
    /// Width of node and plan embeddings.
    pub dim: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// Number of stacked attention blocks.
    pub blocks: usize,
}

impl Default for PlanEncoderConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            heads: 4,
            blocks: 2,
        }
    }
}

/// The tree-Transformer plan encoder.
#[derive(Debug, Clone)]
pub struct PlanEncoder {
    config: PlanEncoderConfig,
    node_proj: Linear,
    super_node: bq_nn::ParamId,
    blocks: Vec<AttentionBlock>,
    cost_head: Mlp,
}

impl PlanEncoder {
    /// Create a new encoder, registering its parameters in `store`.
    pub fn new(store: &mut ParamStore, config: PlanEncoderConfig, rng: &mut StdRng) -> Self {
        let node_proj = Linear::new(
            store,
            "plan.node_proj",
            NODE_FEATURE_DIM,
            config.dim,
            Activation::Tanh,
            rng,
        );
        let super_node = store.add_xavier("plan.super_node", 1, config.dim, rng);
        let blocks = (0..config.blocks)
            .map(|i| {
                AttentionBlock::new(
                    store,
                    &format!("plan.block{i}"),
                    config.dim,
                    config.heads,
                    config.dim * 2,
                    rng,
                )
            })
            .collect();
        let cost_head = Mlp::new(
            store,
            "plan.cost_head",
            &[config.dim, config.dim, 1],
            Activation::Tanh,
            Activation::None,
            rng,
        );
        Self {
            config,
            node_proj,
            super_node,
            blocks,
            cost_head,
        }
    }

    /// Encoder configuration.
    pub fn config(&self) -> PlanEncoderConfig {
        self.config
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// Record the encoding of `plan` on `g`, returning the `[1, dim]` plan
    /// embedding node (the super node's final representation).
    pub fn encode(&self, g: &mut Graph, store: &ParamStore, plan: &QueryPlan) -> NodeId {
        let feats = plan_node_features(plan);
        let n = feats.rows();
        let x = g.input(feats);
        let projected = self.node_proj.forward(g, store, &x);
        let super_node = g.param(store, self.super_node);
        let mut h = g.concat_rows(projected, super_node);
        let bias = tree_bias(plan);
        let all: Vec<usize> = (0..=n).collect();
        for block in &self.blocks {
            h = block.forward(g, store, &h, &all, Some(&bias));
        }
        // The super node is the last row.
        g.slice_rows(h, n, 1)
    }

    /// Compute the plan embedding as a plain tensor (forward only, no
    /// gradients retained). Used to pre-compute per-query embeddings that the
    /// state encoder treats as constants during scheduling.
    pub fn embed(&self, store: &ParamStore, plan: &QueryPlan) -> Tensor {
        let mut g = Graph::new();
        let node = self.encode(&mut g, store, plan);
        g.value(node).clone()
    }

    /// Embeddings for every query of a workload, stacked as `[n, dim]`.
    pub fn embed_workload(&self, store: &ParamStore, workload: &Workload) -> Tensor {
        let rows: Vec<Vec<f32>> = workload
            .queries
            .iter()
            .map(|q| self.embed(store, &q.plan).data().to_vec())
            .collect();
        Tensor::from_rows(&rows)
    }

    /// Record the cost-prediction head on top of a plan embedding node
    /// (predicts normalised log total cost).
    pub fn predict_cost(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        plan_embedding: NodeId,
    ) -> NodeId {
        self.cost_head.forward(g, store, &plan_embedding)
    }
}

/// Result of plan-encoder pre-training.
#[derive(Debug, Clone)]
pub struct PretrainReport {
    /// Mean-squared error on the cost-prediction task over the first epoch.
    pub initial_loss: f64,
    /// Mean over the last epoch of each query's loss before its own step.
    pub final_loss: f64,
    /// Number of epochs run.
    pub epochs: usize,
}

/// Adam learning rate of [`pretrain_on_cost`].
const PRETRAIN_LR: f32 = 5e-3;

/// Pre-train the plan encoder on cost prediction over the workload's plans
/// (QueryFormer's standard self-supervised warm-up), one step per query.
/// Returns the loss curve end points so callers can assert learning
/// progress.
pub fn pretrain_on_cost(
    encoder: &PlanEncoder,
    store: &mut ParamStore,
    workload: &Workload,
    epochs: usize,
) -> PretrainReport {
    let mut adam = Adam::new(PRETRAIN_LR);
    // Normalised log-cost targets.
    let log_costs: Vec<f32> = workload
        .queries
        .iter()
        .map(|q| math::ln((q.plan.total_cost() + 1.0) as f32))
        .collect();
    let max_log = log_costs.iter().copied().fold(1.0, f32::max);
    let items: Vec<(&QueryPlan, f32)> = workload
        .queries
        .iter()
        .zip(&log_costs)
        .map(|(q, &c)| (&q.plan, c / max_log))
        .collect();
    let loss = |g: &mut Graph, store: &ParamStore, &(plan, target): &(&QueryPlan, f32)| {
        let emb = encoder.encode(g, store, plan);
        let pred = encoder.predict_cost(g, store, emb);
        let loss = g.mse_loss(pred, &Tensor::scalar(target));
        (loss, f64::from(g.value(loss).item()))
    };
    let mut initial = 0.0;
    let mut last = 0.0;
    for epoch in 0..epochs {
        let mut epoch_loss = 0.0;
        for item in items.chunks(1) {
            epoch_loss += fit(store, &mut adam, item, None, 1, 5.0, loss);
        }
        epoch_loss /= workload.len() as f64;
        if epoch == 0 {
            initial = epoch_loss;
        }
        last = epoch_loss;
    }
    PretrainReport {
        initial_loss: initial,
        final_loss: last,
        epochs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bq_plan::{generate, Benchmark, WorkloadSpec};
    use rand::SeedableRng;

    fn small_workload() -> Workload {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        w.subset(&(0..8).collect::<Vec<_>>())
    }

    #[test]
    fn embedding_has_configured_dimension() {
        let w = small_workload();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let enc = PlanEncoder::new(&mut store, PlanEncoderConfig::default(), &mut rng);
        let emb = enc.embed(&store, &w.queries[0].plan);
        assert_eq!(emb.shape(), (1, enc.dim()));
        assert!(emb.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn different_plans_get_different_embeddings() {
        let w = small_workload();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let enc = PlanEncoder::new(&mut store, PlanEncoderConfig::default(), &mut rng);
        let a = enc.embed(&store, &w.queries[0].plan);
        let b = enc.embed(&store, &w.queries[1].plan);
        let diff = a.sub(&b);
        assert!(
            diff.data().iter().map(|x| x * x).sum::<f32>().sqrt() > 1e-4,
            "distinct plans should embed differently"
        );
    }

    #[test]
    fn embedding_is_deterministic() {
        let w = small_workload();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let enc = PlanEncoder::new(&mut store, PlanEncoderConfig::default(), &mut rng);
        let a = enc.embed(&store, &w.queries[0].plan);
        let b = enc.embed(&store, &w.queries[0].plan);
        assert_eq!(a, b);
    }

    #[test]
    fn embed_workload_stacks_all_queries() {
        let w = small_workload();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let enc = PlanEncoder::new(&mut store, PlanEncoderConfig::default(), &mut rng);
        let all = enc.embed_workload(&store, &w);
        assert_eq!(all.shape(), (w.len(), enc.dim()));
    }

    #[test]
    fn cost_pretraining_reduces_loss() {
        let w = small_workload();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let config = PlanEncoderConfig {
            dim: 16,
            heads: 2,
            blocks: 1,
        };
        let enc = PlanEncoder::new(&mut store, config, &mut rng);
        let report = pretrain_on_cost(&enc, &mut store, &w, 8);
        assert!(
            report.final_loss < report.initial_loss,
            "pre-training should reduce the cost loss: {} -> {}",
            report.initial_loss,
            report.final_loss
        );
    }
}
