//! Feature extraction for plan nodes and query running states.
//!
//! Two feature families feed the learned components:
//!
//! * **Plan node features** (operator, table, predicate selectivity,
//!   cardinality and cost statistics, tree position) — the input of the
//!   QueryFormer-style plan encoder;
//! * **Running-state features** `f_i = s_i ∥ R_i ∥ t_i ∥ t̄_i|R_i` (§III-A) —
//!   status, running parameters, elapsed time and historical average time —
//!   concatenated with the plan embedding to form each query's representation.

use bq_core::QueryRuntime;
use bq_dbms::{MemoryGrant, WORKER_OPTIONS};
use bq_nn::{math, Tensor};
use bq_plan::{FlatNode, QueryPlan, OPERATOR_COUNT};

/// Number of hash buckets used to encode table identity.
pub const TABLE_BUCKETS: usize = 16;

/// Dimensionality of a single plan-node feature vector.
pub const NODE_FEATURE_DIM: usize = OPERATOR_COUNT + TABLE_BUCKETS + 6;

/// Dimensionality of a query's running-state feature vector:
/// status one-hot (3) + workers one-hot (3) + memory one-hot (2)
/// + elapsed time (1) + historical average time (1).
pub const STATE_FEATURE_DIM: usize = 3 + WORKER_OPTIONS.len() + 2 + 1 + 1;

/// Typical execution time in seconds. Times are divided by it wherever a
/// network sees or predicts one: the elapsed and historical-time features,
/// the agent's rewards and auxiliary targets, and the simulator's targets
/// and clock. Costs use a log transform instead.
pub const TIME_SCALE: f64 = 10.0;

fn log1p(v: f64) -> f32 {
    math::ln((v.max(0.0) + 1.0) as f32)
}

/// Feature vector of one flattened plan node.
pub fn node_features(node: &FlatNode, max_depth: usize) -> Vec<f32> {
    let mut f = vec![0.0f32; NODE_FEATURE_DIM];
    f[node.op.index()] = 1.0;
    if let Some(table) = node.table {
        f[OPERATOR_COUNT + table.0 % TABLE_BUCKETS] = 1.0;
    }
    let base = OPERATOR_COUNT + TABLE_BUCKETS;
    f[base] = node.selectivity as f32;
    f[base + 1] = log1p(node.est_rows) / 20.0;
    f[base + 2] = log1p(node.cpu_cost) / 20.0;
    f[base + 3] = log1p(node.io_cost) / 20.0;
    f[base + 4] = node.depth as f32 / (max_depth.max(1) as f32);
    f[base + 5] = node.height as f32 / (max_depth.max(1) as f32);
    f
}

/// Feature matrix `[num_nodes, NODE_FEATURE_DIM]` for a whole plan, in
/// pre-order node order (matching [`QueryPlan::flatten`]).
pub fn plan_node_features(plan: &QueryPlan) -> Tensor {
    let flat = plan.flatten();
    let max_depth = flat.iter().map(|n| n.depth).max().unwrap_or(0);
    let rows: Vec<Vec<f32>> = flat.iter().map(|n| node_features(n, max_depth)).collect();
    Tensor::from_rows(&rows)
}

/// Attention bias subtracted per hop of tree distance between two plan
/// nodes.
const TREE_BIAS_PER_HOP: f32 = 0.5;

/// Tree-bias attention matrix for a plan: entry `(i, j)` is
/// `-TREE_BIAS_PER_HOP * tree_distance(i, j)`, and the super node (appended
/// as the last row/column by the encoder) attends to everything with zero
/// bias. This reproduces QueryFormer's structural attention bias.
pub fn tree_bias(plan: &QueryPlan) -> Tensor {
    let flat = plan.flatten();
    let n = flat.len();
    // Parent pointers -> ancestor chains for tree distance.
    let parents: Vec<Option<usize>> = flat.iter().map(|f| f.parent).collect();
    let depth: Vec<usize> = flat.iter().map(|f| f.depth).collect();
    let dist = |mut a: usize, mut b: usize| -> usize {
        let mut steps = 0;
        while a != b {
            if depth[a] >= depth[b] {
                a = parents[a].unwrap_or(a);
            } else {
                b = parents[b].unwrap_or(b);
            }
            steps += 1;
            if steps > 2 * n {
                break;
            }
        }
        steps
    };
    // One extra row/column for the super node.
    let mut bias = Tensor::zeros(n + 1, n + 1);
    for i in 0..n {
        for j in 0..n {
            bias.set(i, j, -TREE_BIAS_PER_HOP * dist(i, j) as f32);
        }
    }
    bias
}

/// Write the running-state features `f_i` of `runtime` into `row`, a
/// `STATE_FEATURE_DIM` slice of zeros: the status one-hot, the worker and
/// memory one-hots of its parameters, then its elapsed and historical
/// average times over [`TIME_SCALE`].
pub fn write_state_features(row: &mut [f32], runtime: &QueryRuntime) {
    row[runtime.status.index()] = 1.0;
    if let Some(params) = runtime.params {
        if let Some(widx) = WORKER_OPTIONS.iter().position(|&w| w == params.workers) {
            row[3 + widx] = 1.0;
        }
        let midx = match params.memory {
            MemoryGrant::Low => 0,
            MemoryGrant::High => 1,
        };
        row[3 + WORKER_OPTIONS.len() + midx] = 1.0;
    }
    row[STATE_FEATURE_DIM - 2] = (runtime.elapsed / TIME_SCALE) as f32;
    row[STATE_FEATURE_DIM - 1] = (runtime.avg_exec_time / TIME_SCALE) as f32;
}

/// Row-mean of the running-state features of an arbitrary query subset,
/// returning a zero vector when the subset is empty. Used to summarise the
/// features of all queries (for `x''_s`) and of the concurrently running
/// queries (for `x''_i`) in a length-independent way.
pub fn mean_features(features: &Tensor, subset: &[usize]) -> Tensor {
    let d = features.cols();
    let mut out = Tensor::zeros(1, d);
    if subset.is_empty() {
        return out;
    }
    for &i in subset {
        for c in 0..d {
            out.set(
                0,
                c,
                out.get(0, c) + features.get(i, c) / subset.len() as f32,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EncodedObservation;
    use bq_core::{QueryStatus, SchedulingState};
    use bq_dbms::RunParams;
    use bq_plan::{generate, Benchmark, WorkloadSpec};
    use std::sync::Arc;

    fn workload() -> bq_plan::Workload {
        generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1))
    }

    #[test]
    fn node_feature_dimensions() {
        let w = workload();
        let feats = plan_node_features(&w.queries[0].plan);
        assert_eq!(feats.cols(), NODE_FEATURE_DIM);
        assert_eq!(feats.rows(), w.queries[0].plan.node_count());
        assert!(feats.data().iter().all(|x| x.is_finite()));
        // Exactly one operator bit set per node.
        for r in 0..feats.rows() {
            let op_bits: f32 = feats.row_slice(r)[..OPERATOR_COUNT].iter().sum();
            assert_eq!(op_bits, 1.0);
        }
    }

    #[test]
    fn tree_bias_shape_and_symmetry() {
        let w = workload();
        let plan = &w.queries[0].plan;
        let bias = tree_bias(plan);
        let n = plan.node_count();
        assert_eq!(bias.shape(), (n + 1, n + 1));
        for i in 0..n {
            assert_eq!(bias.get(i, i), 0.0);
            for j in 0..n {
                assert!(
                    (bias.get(i, j) - bias.get(j, i)).abs() < 1e-6,
                    "tree distance is symmetric"
                );
                assert!(bias.get(i, j) <= 0.0);
            }
            // Super node row/column has zero bias.
            assert_eq!(bias.get(n, i), 0.0);
            assert_eq!(bias.get(i, n), 0.0);
        }
    }

    #[test]
    fn state_features_encode_status_params_and_times() {
        let w = workload();
        let mut queries: Vec<QueryRuntime> =
            (0..w.len()).map(|_| QueryRuntime::pending(5.0)).collect();
        queries[2].status = QueryStatus::Running;
        queries[2].params = Some(RunParams {
            workers: 4,
            memory: MemoryGrant::High,
        });
        queries[2].elapsed = 2.5;
        let state = SchedulingState {
            workload: &w,
            now: 2.5,
            queries: &queries,
        };
        let m =
            EncodedObservation::from_state(&state, &Arc::new(Tensor::zeros(w.len(), 1))).features;
        assert_eq!(m.shape(), (w.len(), STATE_FEATURE_DIM));
        // Pending query: status bit 0 set, no params.
        assert_eq!(m.get(0, QueryStatus::Pending.index()), 1.0);
        assert_eq!(m.row_slice(0)[3..8].iter().sum::<f32>(), 0.0);
        // Running query: status bit 1, 4 workers (index 2), high memory.
        assert_eq!(m.get(2, QueryStatus::Running.index()), 1.0);
        assert_eq!(m.get(2, 3 + 2), 1.0);
        assert_eq!(m.get(2, 3 + 3 + 1), 1.0);
        assert!((m.get(2, STATE_FEATURE_DIM - 2) - 0.25).abs() < 1e-6);
        assert!((m.get(2, STATE_FEATURE_DIM - 1) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn mean_features_handles_empty_and_subset() {
        let t = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let empty = mean_features(&t, &[]);
        assert_eq!(empty.data(), &[0.0, 0.0]);
        let m = mean_features(&t, &[0, 2]);
        assert_eq!(m.data(), &[3.0, 4.0]);
    }
}
