//! Adaptive masking for the action space (§IV-A of the paper).
//!
//! The action space is `query × parameter configuration`. Since different
//! queries have different resource preferences, many configurations are
//! wasteful — e.g. granting more CPU workers to an I/O-intensive query — and
//! exploring them slows RL convergence. BQSched collects the per-query
//! performance under different configurations as external knowledge and masks
//! the configurations whose absolute and relative improvements fall below a
//! threshold; the masked logits are replaced with a large negative number so
//! their post-softmax probability is ≈ 0.

use bq_core::ExecutionHistory;
use bq_dbms::{MemoryGrant, ParamSpace, RunParams};
use bq_plan::{QueryId, Workload};

/// The additive logit value used for masked actions.
pub const MASK_VALUE: f32 = -1e8;

/// Per-query allowed/forbidden parameter configurations.
#[derive(Debug, Clone)]
pub struct AdaptiveMask {
    /// `allowed[q][k]` — whether configuration `k` is allowed for query `q`.
    allowed: Vec<Vec<bool>>,
    /// Index of the default (always-allowed) configuration.
    default_config: usize,
}

impl AdaptiveMask {
    /// A mask that allows every configuration for every query (the
    /// "w/o adaptive masking" ablation).
    pub fn all_allowed(num_queries: usize, space: &ParamSpace) -> Self {
        Self {
            allowed: vec![vec![true; space.len()]; num_queries],
            default_config: space.index_of(RunParams::default_config()).unwrap_or(0),
        }
    }

    /// Build the mask from plan-derived external knowledge: I/O-intensive
    /// queries do not benefit from extra CPU workers, and queries whose
    /// memory demand already fits the low grant do not benefit from the high
    /// grant. The default configuration is never masked.
    pub fn from_workload(workload: &Workload, space: &ParamSpace, low_grant_pages: f64) -> Self {
        let default_config = space.index_of(RunParams::default_config()).unwrap_or(0);
        let allowed = workload
            .queries
            .iter()
            .map(|q| {
                space
                    .configs()
                    .iter()
                    .enumerate()
                    .map(|(k, cfg)| {
                        if k == default_config {
                            return true;
                        }
                        // Extra workers only help queries with substantial CPU work.
                        if cfg.workers > 1 && q.profile.is_io_intensive() {
                            return false;
                        }
                        // The high memory grant only helps queries that would spill.
                        if cfg.memory == MemoryGrant::High
                            && q.profile.memory_pages <= low_grant_pages
                        {
                            return false;
                        }
                        true
                    })
                    .collect()
            })
            .collect();
        Self {
            allowed,
            default_config,
        }
    }

    /// Refine a mask with per-configuration execution statistics from logs:
    /// a non-default configuration stays allowed only if it improved the
    /// query's average execution time by at least `min_improvement`
    /// (relative) over the default configuration. Configurations never
    /// observed in the logs keep their prior (plan-derived) decision.
    pub fn refine_with_history(
        mut self,
        history: &ExecutionHistory,
        space: &ParamSpace,
        min_improvement: f64,
    ) -> Self {
        for (qi, allowed) in self.allowed.iter_mut().enumerate() {
            let q = QueryId(qi);
            let Some(base) = history.avg_exec_time_with_params(q, space.get(self.default_config))
            else {
                continue;
            };
            for (k, cfg) in space.configs().iter().enumerate() {
                if k == self.default_config {
                    continue;
                }
                if let Some(t) = history.avg_exec_time_with_params(q, *cfg) {
                    let improvement = (base - t) / base.max(1e-9);
                    allowed[k] = improvement >= min_improvement;
                }
            }
        }
        self
    }

    /// Allowed configurations of one query.
    pub fn allowed(&self, query: QueryId) -> &[bool] {
        &self.allowed[query.0]
    }

    /// Number of configurations per query.
    pub fn num_configs(&self) -> usize {
        self.allowed.first().map_or(0, Vec::len)
    }

    /// Index of the always-allowed default configuration.
    pub fn default_config(&self) -> usize {
        self.default_config
    }

    /// Additive logit mask of shape `[entities, num_configs]`, row-major:
    /// entity `i` maps to entries `i*K .. (i+1)*K`. `entity_queries[i]`
    /// lists the queries represented by entity `i` (a single query, or the
    /// members of a cluster); an entity/config pair is masked if the
    /// configuration is masked for *all* of its queries. Every entity is
    /// treated as selectable; a decision masks the entities it cannot
    /// select on top of this.
    pub fn logit_mask(&self, entity_queries: &[Vec<QueryId>]) -> Vec<f32> {
        let k = self.num_configs();
        let mut mask = vec![0.0f32; entity_queries.len() * k];
        for (e, members) in entity_queries.iter().enumerate() {
            for cfg in 0..k {
                if !members.iter().any(|q| self.allowed[q.0][cfg]) {
                    mask[e * k + cfg] = MASK_VALUE;
                }
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bq_dbms::DbmsProfile;
    use bq_plan::{generate, Benchmark, WorkloadSpec};

    fn setup() -> (Workload, ParamSpace, f64) {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcDs, 1.0, 1));
        (
            w,
            ParamSpace::full(),
            DbmsProfile::dbms_x().low_mem_grant_pages,
        )
    }

    #[test]
    fn all_allowed_masks_nothing() {
        let (w, space, _) = setup();
        let m = AdaptiveMask::all_allowed(w.len(), &space);
        assert!(m.allowed.iter().flatten().all(|&a| a));
        assert_eq!(m.allowed.len(), w.len());
        assert_eq!(m.num_configs(), 6);
    }

    #[test]
    fn workload_mask_prunes_but_keeps_default() {
        let (w, space, low) = setup();
        let m = AdaptiveMask::from_workload(&w, &space, low);
        let total: usize = m.allowed.iter().map(Vec::len).sum();
        let masked = m.allowed.iter().flatten().filter(|&&a| !a).count();
        let fraction = masked as f64 / total as f64;
        assert!(
            fraction > 0.1,
            "expected substantial pruning, got {fraction}"
        );
        assert!(fraction < 1.0);
        for i in 0..w.len() {
            assert!(
                m.allowed(QueryId(i))[m.default_config()],
                "default config masked for query {i}"
            );
        }
    }

    #[test]
    fn io_intensive_queries_lose_multi_worker_configs() {
        let (w, space, low) = setup();
        let m = AdaptiveMask::from_workload(&w, &space, low);
        let io_query = w
            .iter()
            .find(|(_, q)| q.profile.is_io_intensive())
            .map(|(id, _)| id)
            .expect("workload should contain an IO-intensive query");
        for (k, cfg) in space.configs().iter().enumerate() {
            if cfg.workers > 1 && k != m.default_config() {
                assert!(
                    !m.allowed(io_query)[k],
                    "IO-intensive query should not get {cfg:?}"
                );
            }
        }
    }

    #[test]
    fn logit_mask_blocks_configs_no_member_allows() {
        // A singleton entity's row copies its query's mask; a cluster masks
        // a configuration only when every member masks it.
        let (w, space, low) = setup();
        let m = AdaptiveMask::from_workload(&w, &space, low);
        let io_query = w
            .iter()
            .find(|(_, q)| q.profile.is_io_intensive())
            .map(|(id, _)| id)
            .expect("workload should contain an IO-intensive query");
        let open_query = (0..w.len())
            .map(QueryId)
            .find(|&q| {
                m.allowed(io_query)
                    .iter()
                    .zip(m.allowed(q))
                    .any(|(a, b)| !a && *b)
            })
            .expect("a query that allows a config the IO-intensive one masks");
        let entities = vec![vec![io_query], vec![io_query, open_query]];
        let mask = m.logit_mask(&entities);
        let k = space.len();
        assert_eq!(mask.len(), 2 * k);
        for cfg in 0..k {
            let single = if m.allowed(io_query)[cfg] {
                0.0
            } else {
                MASK_VALUE
            };
            assert_eq!(mask[cfg], single, "singleton config {cfg}");
            let either = m.allowed(io_query)[cfg] || m.allowed(open_query)[cfg];
            let pair = if either { 0.0 } else { MASK_VALUE };
            assert_eq!(mask[k + cfg], pair, "cluster config {cfg}");
        }
        assert!(
            mask[..k].contains(&MASK_VALUE),
            "the singleton masks some config"
        );
        assert_eq!(mask[m.default_config()], 0.0, "the default is never masked");
    }

    #[test]
    fn history_refinement_unmasks_profitable_configs() {
        use bq_core::{EpisodeLog, QueryRecord};
        let (w, space, low) = setup();
        let base_mask = AdaptiveMask::from_workload(&w, &space, low);
        // Fabricate a history where query 0 runs 2x faster with 4 workers.
        let mut history = ExecutionHistory::new();
        let mut log = EpisodeLog::new(bq_dbms::DbmsKind::X, "probe", 0);
        let default = RunParams::default_config();
        let fast = RunParams {
            workers: 4,
            memory: MemoryGrant::Low,
        };
        log.records.push(QueryRecord {
            query: QueryId(0),
            template: w.queries[0].plan.template,
            name: w.queries[0].plan.name.clone(),
            params: default,
            connection: 0,
            started_at: 0.0,
            finished_at: 10.0,
        });
        log.records.push(QueryRecord {
            query: QueryId(0),
            template: w.queries[0].plan.template,
            name: w.queries[0].plan.name.clone(),
            params: fast,
            connection: 1,
            started_at: 20.0,
            finished_at: 25.0,
        });
        history.push(log);
        let refined = base_mask.refine_with_history(&history, &space, 0.1);
        let fast_idx = space.index_of(fast).unwrap();
        assert!(
            refined.allowed(QueryId(0))[fast_idx],
            "a 2x-faster config must stay allowed"
        );
    }
}
