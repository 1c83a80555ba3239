//! Scheduling-gain-based query clustering (§IV-B of the paper).
//!
//! For large query sets the action space grows factorially, so BQSched groups
//! queries that benefit from running together and schedules at cluster
//! granularity. The *scheduling gain* between two queries is extracted from
//! historical logs: each concurrent execution contributes the overlap-weighted
//! acceleration of both queries, weighted by the square root of their average
//! execution times. An MLP over plan-embedding pairs generalises the gain to
//! pairs never observed together, and average-linkage agglomerative clustering
//! over the gain matrix produces the final `n_c` clusters.

use bq_core::ExecutionHistory;
use bq_nn::{fit, Activation, Adam, Graph, Mlp, NodeId, ParamStore, Tensor};
use bq_plan::QueryId;
use rand::rngs::StdRng;

/// Symmetric scheduling-gain matrix with observation counts.
#[derive(Debug, Clone)]
pub struct GainMatrix {
    n: usize,
    /// Mean gain per pair (`0` where nothing was observed).
    gains: Vec<f64>,
    /// Number of concurrent executions observed per pair.
    counts: Vec<u32>,
}

impl GainMatrix {
    fn idx(&self, i: usize, j: usize) -> usize {
        i * self.n + j
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Gain between two queries (symmetric).
    pub fn gain(&self, i: QueryId, j: QueryId) -> f64 {
        self.gains[self.idx(i.0, j.0)]
    }

    /// Whether a pair was ever observed running concurrently.
    pub fn observed(&self, i: QueryId, j: QueryId) -> bool {
        self.counts[self.idx(i.0, j.0)] > 0
    }

    /// Fraction of distinct pairs with at least one observation.
    pub fn coverage(&self) -> f64 {
        if self.n < 2 {
            return 1.0;
        }
        let mut observed = 0usize;
        let mut total = 0usize;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                total += 1;
                if self.counts[self.idx(i, j)] > 0 {
                    observed += 1;
                }
            }
        }
        observed as f64 / total as f64
    }

    /// Overwrite the gain of an unobserved pair (used to fill the matrix with
    /// MLP predictions).
    pub fn fill_unobserved(&mut self, i: QueryId, j: QueryId, gain: f64) {
        if !self.observed(i, j) {
            let a = self.idx(i.0, j.0);
            let b = self.idx(j.0, i.0);
            self.gains[a] = gain;
            self.gains[b] = gain;
        }
    }
}

/// Compute the scheduling-gain matrix from historical execution logs,
/// following the formula in §IV-B: for every concurrent execution of `q_i`
/// and `q_j`, the acceleration `a_ij = 1 - t_i^j / t̄_i` is weighted by the
/// overlap fraction `o_ij = ov_ij / t_i^j` and by `sqrt(t̄)`.
pub fn gains_from_history(history: &ExecutionHistory, num_queries: usize) -> GainMatrix {
    let mut sums = vec![0.0f64; num_queries * num_queries];
    let mut counts = vec![0u32; num_queries * num_queries];
    // Average execution times per query.
    let avg: Vec<f64> = (0..num_queries)
        .map(|i| history.avg_exec_time(QueryId(i)).unwrap_or(0.0))
        .collect();
    for (a, b) in history.concurrent_pairs() {
        let (i, j) = (a.query.0, b.query.0);
        if i >= num_queries || j >= num_queries || avg[i] <= 0.0 || avg[j] <= 0.0 {
            continue;
        }
        let overlap = a.overlap_with(b);
        let t_ij = a.duration().max(1e-9); // t_i^j: q_i's time under q_j's influence
        let t_ji = b.duration().max(1e-9);
        let a_ij = 1.0 - t_ij / avg[i];
        let a_ji = 1.0 - t_ji / avg[j];
        let o_ij = (overlap / t_ij).clamp(0.0, 1.0);
        let o_ji = (overlap / t_ji).clamp(0.0, 1.0);
        let wi = avg[i].sqrt();
        let wj = avg[j].sqrt();
        let gain = (o_ij * a_ij * wi + o_ji * a_ji * wj) / (wi + wj);
        for (x, y) in [(i, j), (j, i)] {
            sums[x * num_queries + y] += gain;
            counts[x * num_queries + y] += 1;
        }
    }
    let gains = sums
        .iter()
        .zip(counts.iter())
        .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
        .collect();
    GainMatrix {
        n: num_queries,
        gains,
        counts,
    }
}

/// Adam learning rate of [`GainPredictor::train`].
const TRAIN_LR: f32 = 0.01;

/// MLP that predicts the scheduling gain of a query pair from the two plan
/// embeddings; symmetry is enforced by summing both input orders.
#[derive(Debug, Clone)]
pub struct GainPredictor {
    mlp: Mlp,
    plan_dim: usize,
}

impl GainPredictor {
    /// Create a predictor for plan embeddings of width `plan_dim`.
    pub fn new(store: &mut ParamStore, plan_dim: usize, rng: &mut StdRng) -> Self {
        let mlp = Mlp::new(
            store,
            "gain.mlp",
            &[plan_dim * 2, plan_dim, 1],
            Activation::Tanh,
            Activation::None,
            rng,
        );
        Self { mlp, plan_dim }
    }

    /// Record the symmetric gain of pair `(i, j)`: the MLP over both orders
    /// of the two plan embeddings, summed.
    fn pair_gain(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        embeddings: &Tensor,
        i: usize,
        j: usize,
    ) -> NodeId {
        let [ab, ba] = [(i, j), (j, i)].map(|(a, b)| {
            let pair = embeddings
                .slice_rows(a, 1)
                .concat_cols(&embeddings.slice_rows(b, 1));
            let x = g.input(pair);
            self.mlp.forward(g, store, &x)
        });
        g.add(ab, ba)
    }

    /// Predicted symmetric gain for pair `(i, j)`.
    pub fn predict(&self, store: &ParamStore, embeddings: &Tensor, i: QueryId, j: QueryId) -> f64 {
        let mut g = Graph::new();
        let gain = self.pair_gain(&mut g, store, embeddings, i.0, j.0);
        g.value(gain).item() as f64
    }

    /// Train on the observed pairs of `matrix` and return the last epoch's
    /// mean squared error, taken before that epoch's Adam step.
    pub fn train(
        &self,
        store: &mut ParamStore,
        embeddings: &Tensor,
        matrix: &GainMatrix,
        epochs: usize,
    ) -> f64 {
        assert_eq!(embeddings.cols(), self.plan_dim, "embedding width mismatch");
        let mut pairs = Vec::new();
        for i in 0..matrix.len() {
            for j in (i + 1)..matrix.len() {
                if matrix.observed(QueryId(i), QueryId(j)) {
                    pairs.push((i, j, matrix.gain(QueryId(i), QueryId(j)) as f32));
                }
            }
        }
        let n = pairs.len() as f32;
        let loss = |g: &mut Graph, store: &ParamStore, &(i, j, target): &(usize, usize, f32)| {
            let gain = self.pair_gain(g, store, embeddings, i, j);
            let loss = g.mse_loss(gain, &Tensor::scalar(target));
            (g.scale(loss, 1.0 / n), f64::from(g.value(loss).item()))
        };
        let mut adam = Adam::new(TRAIN_LR);
        fit(store, &mut adam, &pairs, None, epochs, 5.0, loss)
    }

    /// Fill every unobserved pair of `matrix` with predictions.
    pub fn complete(&self, store: &ParamStore, embeddings: &Tensor, matrix: &mut GainMatrix) {
        for i in 0..matrix.len() {
            for j in (i + 1)..matrix.len() {
                if !matrix.observed(QueryId(i), QueryId(j)) {
                    let p = self.predict(store, embeddings, QueryId(i), QueryId(j));
                    matrix.fill_unobserved(QueryId(i), QueryId(j), p);
                }
            }
        }
    }
}

/// A partition of the batch queries into clusters.
#[derive(Debug, Clone)]
pub struct QueryClustering {
    /// Cluster id of each query.
    assignment: Vec<usize>,
    /// Number of clusters.
    num_clusters: usize,
}

impl QueryClustering {
    /// Trivial clustering: every query is its own cluster (query-level
    /// scheduling).
    pub fn singleton(num_queries: usize) -> Self {
        Self {
            assignment: (0..num_queries).collect(),
            num_clusters: num_queries,
        }
    }

    /// Build a clustering from an explicit assignment vector (cluster id per
    /// query). Cluster ids must be dense, starting at 0.
    pub fn from_assignment(assignment: Vec<usize>) -> Self {
        let num_clusters = assignment.iter().copied().max().map_or(0, |m| m + 1);
        Self {
            assignment,
            num_clusters,
        }
    }

    /// Average-linkage agglomerative clustering on the gain matrix, greedily
    /// merging the pair of clusters with the highest average inter-cluster
    /// gain until `num_clusters` remain.
    pub fn agglomerative(gains: &GainMatrix, num_clusters: usize) -> Self {
        let n = gains.len();
        let target = num_clusters.clamp(1, n.max(1));
        let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        while clusters.len() > target {
            // Find the pair with the highest average gain.
            let mut best = (0usize, 1usize, f64::NEG_INFINITY);
            for a in 0..clusters.len() {
                for b in (a + 1)..clusters.len() {
                    let mut sum = 0.0;
                    let mut count = 0usize;
                    for &i in &clusters[a] {
                        for &j in &clusters[b] {
                            sum += gains.gain(QueryId(i), QueryId(j));
                            count += 1;
                        }
                    }
                    let avg = if count > 0 {
                        sum / count as f64
                    } else {
                        f64::NEG_INFINITY
                    };
                    if avg > best.2 {
                        best = (a, b, avg);
                    }
                }
            }
            let (a, b, _) = best;
            let merged = clusters.remove(b);
            clusters[a].extend(merged);
        }
        let mut assignment = vec![0usize; n];
        for (c, members) in clusters.iter().enumerate() {
            for &q in members {
                assignment[q] = c;
            }
        }
        Self {
            assignment,
            num_clusters: clusters.len(),
        }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// Cluster id of a query.
    pub fn cluster_of(&self, query: QueryId) -> usize {
        self.assignment[query.0]
    }

    /// Queries belonging to a cluster.
    pub fn members(&self, cluster: usize) -> Vec<QueryId> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == cluster)
            .map(|(i, _)| QueryId(i))
            .collect()
    }

    /// All clusters with their members.
    pub fn clusters(&self) -> Vec<Vec<QueryId>> {
        (0..self.num_clusters).map(|c| self.members(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bq_core::{EpisodeLog, QueryRecord};
    use bq_dbms::{DbmsKind, RunParams};
    use rand::SeedableRng;

    fn record(query: usize, start: f64, end: f64) -> QueryRecord {
        QueryRecord {
            query: QueryId(query),
            template: query,
            name: format!("q{query}"),
            params: RunParams::default_config(),
            connection: query % 4,
            started_at: start,
            finished_at: end,
        }
    }

    fn history_with_pairs() -> ExecutionHistory {
        let mut h = ExecutionHistory::new();
        // Round 1: q0 and q1 overlap and both run *faster* than their average
        // (positive gain); q2 runs alone.
        let mut e1 = EpisodeLog::new(DbmsKind::X, "t", 0);
        e1.records = vec![
            record(0, 0.0, 8.0),
            record(1, 0.0, 8.0),
            record(2, 10.0, 20.0),
        ];
        // Round 2: q0 and q1 run separately and are slower (so the concurrent
        // round shows acceleration); q2 overlaps with q0 but slows it down.
        let mut e2 = EpisodeLog::new(DbmsKind::X, "t", 1);
        e2.records = vec![
            record(0, 0.0, 12.0),
            record(1, 20.0, 32.0),
            record(2, 0.0, 10.0),
        ];
        h.push(e1);
        h.push(e2);
        h
    }

    #[test]
    fn gains_are_symmetric_and_positive_for_accelerating_pairs() {
        let h = history_with_pairs();
        let m = gains_from_history(&h, 3);
        assert_eq!(m.len(), 3);
        assert!((m.gain(QueryId(0), QueryId(1)) - m.gain(QueryId(1), QueryId(0))).abs() < 1e-12);
        assert!(
            m.gain(QueryId(0), QueryId(1)) > 0.0,
            "mutually accelerating pair should have positive gain: {}",
            m.gain(QueryId(0), QueryId(1))
        );
        assert!(m.observed(QueryId(0), QueryId(1)));
        assert!(!m.observed(QueryId(1), QueryId(2)));
        assert!(m.coverage() > 0.0 && m.coverage() < 1.0);
    }

    #[test]
    fn predictor_learns_observed_gains_and_fills_missing_pairs() {
        let h = history_with_pairs();
        let mut m = gains_from_history(&h, 3);
        let embeddings = Tensor::from_rows(&[
            vec![0.1, 0.9, -0.2, 0.4],
            vec![0.2, 0.8, -0.1, 0.5],
            vec![-0.7, 0.1, 0.6, -0.3],
        ]);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let predictor = GainPredictor::new(&mut store, 4, &mut rng);
        let final_mse = predictor.train(&mut store, &embeddings, &m, 200);
        assert!(
            final_mse < 0.05,
            "gain predictor should fit observed pairs, mse {final_mse}"
        );
        // Prediction is symmetric by construction.
        let ab = predictor.predict(&store, &embeddings, QueryId(1), QueryId(2));
        let ba = predictor.predict(&store, &embeddings, QueryId(2), QueryId(1));
        assert!((ab - ba).abs() < 1e-6);
        predictor.complete(&store, &embeddings, &mut m);
        assert_ne!(m.gain(QueryId(1), QueryId(2)), 0.0);
    }

    #[test]
    fn agglomerative_clustering_groups_high_gain_pairs() {
        // 4 queries: (0,1) high gain, (2,3) high gain, cross pairs negative.
        let mut m = GainMatrix {
            n: 4,
            gains: vec![0.0; 16],
            counts: vec![1; 16],
        };
        let set = |m: &mut GainMatrix, i: usize, j: usize, v: f64| {
            let n = m.n;
            m.gains[i * n + j] = v;
            m.gains[j * n + i] = v;
        };
        set(&mut m, 0, 1, 0.5);
        set(&mut m, 2, 3, 0.4);
        set(&mut m, 0, 2, -0.3);
        set(&mut m, 0, 3, -0.3);
        set(&mut m, 1, 2, -0.3);
        set(&mut m, 1, 3, -0.3);
        let clustering = QueryClustering::agglomerative(&m, 2);
        assert_eq!(clustering.num_clusters(), 2);
        assert_eq!(
            clustering.cluster_of(QueryId(0)),
            clustering.cluster_of(QueryId(1))
        );
        assert_eq!(
            clustering.cluster_of(QueryId(2)),
            clustering.cluster_of(QueryId(3))
        );
        assert_ne!(
            clustering.cluster_of(QueryId(0)),
            clustering.cluster_of(QueryId(2))
        );
    }

    #[test]
    fn clustering_is_a_partition() {
        let h = history_with_pairs();
        let m = gains_from_history(&h, 3);
        let clustering = QueryClustering::agglomerative(&m, 2);
        let mut seen = [false; 3];
        for c in 0..clustering.num_clusters() {
            for q in clustering.members(c) {
                assert!(!seen[q.0], "query {q:?} in two clusters");
                seen[q.0] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn singleton_clustering_has_one_query_per_cluster() {
        let c = QueryClustering::singleton(5);
        assert_eq!(c.num_clusters(), 5);
        for i in 0..5 {
            assert_eq!(c.members(i).len(), 1);
        }
    }

    #[test]
    fn cluster_count_is_clamped() {
        let m = GainMatrix {
            n: 3,
            gains: vec![0.0; 9],
            counts: vec![0; 9],
        };
        let c = QueryClustering::agglomerative(&m, 10);
        assert_eq!(c.num_clusters(), 3);
        let c1 = QueryClustering::agglomerative(&m, 0);
        assert_eq!(c1.num_clusters(), 1);
    }
}
