//! Synthetic workload generators for TPC-DS, TPC-H and JOB.
//!
//! The paper runs the official benchmark kits; a non-intrusive scheduler,
//! however, only ever sees each query's physical plan and coarse statistics.
//! These generators therefore produce *plan-level* workloads that reproduce
//! the structural properties the evaluation depends on:
//!
//! * heterogeneous costs with a long tail (a handful of queries dominate the
//!   makespan, e.g. TPC-DS 4/14/23/39),
//! * a mix of I/O-intensive scans and CPU-intensive aggregations
//!   (Poess et al., "Why you should run TPC-DS"),
//! * shared fact/dimension tables across queries (buffer-sharing potential),
//! * template replication for the 2x/5x/10x query-scale experiments.
//!
//! Generation is fully deterministic given the [`WorkloadSpec`] (including
//! its seed), so every scheduler sees exactly the same batch.

use crate::catalog::{Benchmark, Catalog, TableId};
use crate::plan::{Operator, PlanNode, QueryId, QueryPlan};
use crate::profile::ResourceProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a generated workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Benchmark schema and template set.
    pub benchmark: Benchmark,
    /// Data scale factor (TPC-style SF; 1.0, 2.0, ... 200.0, and fractional
    /// values for the ±10/20 % adaptability experiments).
    pub data_scale: f64,
    /// Query scale: how many replicas of each template form the batch
    /// (1 → 99 TPC-DS queries, 10 → 990).
    pub query_scale: usize,
    /// Seed for the deterministic generator.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Convenience constructor with seed 42.
    pub fn new(benchmark: Benchmark, data_scale: f64, query_scale: usize) -> Self {
        Self {
            benchmark,
            data_scale,
            query_scale,
            seed: 42,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One query of the batch: its plan plus the derived resource profile.
#[derive(Debug, Clone)]
pub struct BatchQuery {
    /// Physical plan.
    pub plan: QueryPlan,
    /// Resource demands derived from the plan.
    pub profile: ResourceProfile,
}

/// A batch query set ready for scheduling.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Generation parameters.
    pub spec: WorkloadSpec,
    /// Catalog the queries run against.
    pub catalog: Catalog,
    /// The batch queries, indexed by `QueryId(i) == queries[i]`.
    pub queries: Vec<BatchQuery>,
}

impl Workload {
    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Access a query by id.
    pub fn query(&self, id: QueryId) -> &BatchQuery {
        &self.queries[id.0]
    }

    /// Iterate over `(QueryId, &BatchQuery)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (QueryId, &BatchQuery)> {
        self.queries
            .iter()
            .enumerate()
            .map(|(i, q)| (QueryId(i), q))
    }

    /// Sum of the abstract costs of all queries (an upper bound on serial
    /// execution time on a single connection).
    pub fn total_cost(&self) -> f64 {
        self.queries.iter().map(|q| q.plan.total_cost()).sum()
    }

    /// Build a new workload containing only the queries at `indices`
    /// (renumbered from 0). Used by the query-set perturbation experiments.
    pub fn subset(&self, indices: &[usize]) -> Workload {
        let queries = indices
            .iter()
            .enumerate()
            .map(|(new_id, &i)| {
                let mut q = self.queries[i].clone();
                q.plan.id = QueryId(new_id);
                q
            })
            .collect();
        Workload {
            spec: self.spec.clone(),
            catalog: self.catalog.clone(),
            queries,
        }
    }
}

/// Coarse query archetypes controlling the shape and cost of generated plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Archetype {
    /// Multi-fact join with deep aggregation — the long-tail queries.
    HeavyFactJoin,
    /// CPU-bound aggregation / window queries.
    CpuAggregation,
    /// Large sequential scans, I/O bound.
    IoScan,
    /// Highly selective index-driven lookups (JOB style).
    Selective,
    /// Everything else.
    Moderate,
}

/// TPC-DS templates the paper and common practice identify as dominating the
/// makespan (1-based template numbers).
const TPCDS_HEAVY: &[usize] = &[4, 11, 14, 23, 39, 64, 74, 78, 95];
/// TPC-H long-tail templates.
const TPCH_HEAVY: &[usize] = &[1, 9, 18, 21];
/// JOB templates with the largest join graphs.
const JOB_HEAVY: &[usize] = &[17, 25, 29, 31];

fn archetype_for(benchmark: Benchmark, template: usize) -> Archetype {
    let heavy = match benchmark {
        Benchmark::TpcDs => TPCDS_HEAVY,
        Benchmark::TpcH => TPCH_HEAVY,
        Benchmark::Job => JOB_HEAVY,
    };
    if heavy.contains(&template) {
        return Archetype::HeavyFactJoin;
    }
    match benchmark {
        Benchmark::TpcDs => match template % 4 {
            0 => Archetype::CpuAggregation,
            1 => Archetype::IoScan,
            2 => Archetype::Moderate,
            _ => Archetype::Selective,
        },
        Benchmark::TpcH => match template % 3 {
            0 => Archetype::CpuAggregation,
            1 => Archetype::IoScan,
            _ => Archetype::Moderate,
        },
        Benchmark::Job => {
            // JOB is dominated by selective multi-way joins over IMDb.
            if template.is_multiple_of(5) {
                Archetype::Moderate
            } else {
                Archetype::Selective
            }
        }
    }
}

/// Generate the batch query set described by `spec`.
pub fn generate(spec: &WorkloadSpec) -> Workload {
    assert!(spec.query_scale >= 1, "query scale must be at least 1");
    let catalog = Catalog::new(spec.benchmark, spec.data_scale);
    let templates = spec.benchmark.template_count();
    let mut queries = Vec::with_capacity(templates * spec.query_scale);
    for replica in 0..spec.query_scale {
        for template in 1..=templates {
            let id = QueryId(queries.len());
            let plan = generate_template_plan(spec, &catalog, template, replica, id);
            let profile = ResourceProfile::from_plan(&plan, &catalog);
            queries.push(BatchQuery { plan, profile });
        }
    }
    Workload {
        spec: spec.clone(),
        catalog,
        queries,
    }
}

fn template_rng(spec: &WorkloadSpec, template: usize, replica: usize) -> StdRng {
    // Stable per-template stream: the same template always produces the same
    // plan structure; replicas only jitter predicates.
    let mix = spec
        .seed
        // bq-lint: allow(unseeded-rng): golden-ratio seed spacing, not a generator — bq-plan sits below bq-core in the dependency order and cannot import bq_core::rng
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((template as u64) << 16)
        .wrapping_add((replica as u64) << 40)
        .wrapping_add(match spec.benchmark {
            Benchmark::TpcDs => 1,
            Benchmark::TpcH => 2,
            Benchmark::Job => 3,
        });
    StdRng::seed_from_u64(mix)
}

fn pick_distinct(rng: &mut StdRng, pool: &[TableId], count: usize) -> Vec<TableId> {
    let count = count.min(pool.len());
    let mut chosen: Vec<TableId> = Vec::with_capacity(count);
    while chosen.len() < count {
        let t = pool[rng.gen_range(0..pool.len())];
        if !chosen.contains(&t) {
            chosen.push(t);
        }
    }
    chosen
}

fn scan_node(
    rng: &mut StdRng,
    catalog: &Catalog,
    table: TableId,
    op: Operator,
    selectivity_range: (f64, f64),
) -> PlanNode {
    let selectivity = rng.gen_range(selectivity_range.0..selectivity_range.1);
    let rows = catalog.rows(table) as f64;
    let full_pages = catalog.pages(table) as f64;
    // An index scan touches only the selected fraction of pages (plus a small
    // constant for index traversal); a sequential scan reads everything.
    let pages = match op {
        Operator::IndexScan => (full_pages * selectivity).max(1.0) + 2.0,
        _ => full_pages,
    };
    PlanNode::scan(op, table, selectivity, rows, pages)
}

fn generate_template_plan(
    spec: &WorkloadSpec,
    catalog: &Catalog,
    template: usize,
    replica: usize,
    id: QueryId,
) -> QueryPlan {
    let mut rng = template_rng(spec, template, replica);
    let archetype = archetype_for(spec.benchmark, template);
    let facts = catalog.fact_tables();
    let dims = catalog.dimension_tables();

    let (n_facts, n_dims, scan_sel, join_sel, deep_agg): (
        usize,
        usize,
        (f64, f64),
        (f64, f64),
        bool,
    ) = match archetype {
        Archetype::HeavyFactJoin => (
            rng.gen_range(2..=3),
            rng.gen_range(3..=5),
            (0.5, 0.95),
            (0.4, 0.8),
            true,
        ),
        Archetype::CpuAggregation => (1, rng.gen_range(2..=4), (0.3, 0.7), (0.3, 0.6), true),
        Archetype::IoScan => (
            rng.gen_range(1..=2),
            rng.gen_range(1..=2),
            (0.7, 1.0),
            (0.5, 0.9),
            false,
        ),
        Archetype::Selective => (1, rng.gen_range(2..=5), (0.001, 0.05), (0.05, 0.3), false),
        Archetype::Moderate => (1, rng.gen_range(2..=3), (0.1, 0.5), (0.2, 0.5), false),
    };

    // Heavy templates are heavy because they join the *largest* fact tables
    // (store_sales, catalog_sales, ... on real TPC-DS); everything else picks
    // its facts at random. Keeping this structural guarantees the long tail
    // regardless of the RNG stream.
    let fact_tables = if archetype == Archetype::HeavyFactJoin {
        let mut by_size = facts.clone();
        by_size.sort_by_key(|&t| core::cmp::Reverse(catalog.pages(t)));
        by_size.truncate(n_facts.min(by_size.len()));
        by_size
    } else {
        pick_distinct(&mut rng, &facts, n_facts)
    };
    let dim_tables = pick_distinct(&mut rng, &dims, n_dims);

    // Fact scans: sequential unless the archetype is selective.
    let fact_op = if archetype == Archetype::Selective {
        Operator::IndexScan
    } else {
        Operator::SeqScan
    };
    let mut scans: Vec<PlanNode> = fact_tables
        .iter()
        .map(|&t| scan_node(&mut rng, catalog, t, fact_op, scan_sel))
        .collect();
    // Dimension scans: index scans for selective archetypes, small seq scans otherwise.
    for &t in &dim_tables {
        let op = if archetype == Archetype::Selective || rng.gen_bool(0.5) {
            Operator::IndexScan
        } else {
            Operator::SeqScan
        };
        scans.push(scan_node(&mut rng, catalog, t, op, (0.05, 0.8)));
    }

    // Left-deep join tree (facts first so join inputs stay large for heavy queries).
    let mut node = scans.remove(0);
    for scan in scans {
        let join_op = match archetype {
            Archetype::Selective => {
                if rng.gen_bool(0.6) {
                    Operator::NestedLoopJoin
                } else {
                    Operator::HashJoin
                }
            }
            _ => {
                if rng.gen_bool(0.8) {
                    Operator::HashJoin
                } else {
                    Operator::MergeJoin
                }
            }
        };
        let sel = rng.gen_range(join_sel.0..join_sel.1);
        node = PlanNode::internal(join_op, sel, vec![node, scan]);
    }

    // Optional filter stage.
    if rng.gen_bool(0.6) {
        node = PlanNode::internal(Operator::Filter, rng.gen_range(0.3..0.9), vec![node]);
    }
    // Aggregation pipeline.
    node = PlanNode::internal(
        Operator::HashAggregate,
        rng.gen_range(0.01..0.2),
        vec![node],
    );
    if deep_agg {
        node = PlanNode::internal(Operator::Sort, 1.0, vec![node]);
        if rng.gen_bool(0.7) {
            node = PlanNode::internal(Operator::WindowAgg, 1.0, vec![node]);
        }
        if archetype == Archetype::HeavyFactJoin {
            // Materialised sub-result re-aggregated: the hallmark of the most
            // expensive TPC-DS queries (q4, q14, ...).
            node = PlanNode::internal(Operator::Materialize, 1.0, vec![node]);
            node = PlanNode::internal(
                Operator::HashAggregate,
                rng.gen_range(0.05..0.3),
                vec![node],
            );
        }
    } else if rng.gen_bool(0.5) {
        node = PlanNode::internal(Operator::Sort, 1.0, vec![node]);
    }
    if rng.gen_bool(0.3) {
        node = PlanNode::internal(Operator::Limit, 0.01, vec![node]);
    }

    let suffix = if spec.query_scale > 1 {
        format!("_r{replica}")
    } else {
        String::new()
    };
    QueryPlan {
        id,
        template,
        name: format!("{}_q{}{}", spec.benchmark.name(), template, suffix),
        root: node,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tpcds_batch_has_99_queries() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcDs, 1.0, 1));
        assert_eq!(w.len(), 99);
        // Ids are dense and match positions.
        for (i, (id, q)) in w.iter().enumerate() {
            assert_eq!(id.0, i);
            assert_eq!(q.plan.id.0, i);
        }
    }

    #[test]
    fn query_scale_replicates_templates() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 5));
        assert_eq!(w.len(), 110);
        // Each template appears exactly 5 times.
        let count_q1 = w.queries.iter().filter(|q| q.plan.template == 1).count();
        assert_eq!(count_q1, 5);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::new(Benchmark::TpcDs, 1.0, 1);
        let a = generate(&spec);
        let b = generate(&spec);
        for (qa, qb) in a.queries.iter().zip(b.queries.iter()) {
            assert_eq!(qa.plan.name, qb.plan.name);
            assert!((qa.plan.total_cost() - qb.plan.total_cost()).abs() < 1e-9);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&WorkloadSpec::new(Benchmark::TpcDs, 1.0, 1));
        let b = generate(&WorkloadSpec::new(Benchmark::TpcDs, 1.0, 1).with_seed(7));
        let diff = a
            .queries
            .iter()
            .zip(b.queries.iter())
            .filter(|(x, y)| (x.plan.total_cost() - y.plan.total_cost()).abs() > 1e-9)
            .count();
        assert!(
            diff > 10,
            "seeds should change most query costs, changed {diff}"
        );
    }

    #[test]
    fn costs_have_long_tail() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcDs, 1.0, 1));
        let mut costs: Vec<f64> = w.queries.iter().map(|q| q.plan.total_cost()).collect();
        costs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = costs[costs.len() / 2];
        let max = *costs.last().unwrap();
        assert!(
            max > 5.0 * median,
            "expected a long tail: max {max} vs median {median}"
        );
        // Heavy templates are indeed among the most expensive.
        let heavy_cost = w
            .queries
            .iter()
            .filter(|q| TPCDS_HEAVY.contains(&q.plan.template))
            .map(|q| q.plan.total_cost())
            .fold(f64::INFINITY, f64::min);
        assert!(
            heavy_cost > median,
            "heavy templates should exceed the median cost"
        );
    }

    #[test]
    fn mix_of_io_and_cpu_intensive_queries() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcDs, 1.0, 1));
        let io = w
            .queries
            .iter()
            .filter(|q| q.profile.is_io_intensive())
            .count();
        let cpu = w.len() - io;
        assert!(
            io >= 10,
            "expected at least 10 IO-intensive queries, got {io}"
        );
        assert!(
            cpu >= 10,
            "expected at least 10 CPU-intensive queries, got {cpu}"
        );
    }

    #[test]
    fn queries_share_tables() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcDs, 1.0, 1));
        // At least one pair of distinct queries shares pages.
        let mut found = false;
        'outer: for i in 0..20 {
            for j in (i + 1)..20 {
                if w.queries[i].profile.shared_pages(&w.queries[j].profile) > 0.0 {
                    found = true;
                    break 'outer;
                }
            }
        }
        assert!(found, "no buffer-sharing opportunities generated");
    }

    #[test]
    fn data_scale_increases_costs() {
        let small = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let large = generate(&WorkloadSpec::new(Benchmark::TpcH, 10.0, 1));
        assert!(large.total_cost() > 3.0 * small.total_cost());
    }

    #[test]
    fn subset_renumbers_queries() {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let s = w.subset(&[5, 10, 20]);
        assert_eq!(s.len(), 3);
        for (i, q) in s.queries.iter().enumerate() {
            assert_eq!(q.plan.id.0, i);
        }
        assert_eq!(s.queries[0].plan.template, w.queries[5].plan.template);
    }

    #[test]
    fn job_queries_are_mostly_selective() {
        let w = generate(&WorkloadSpec::new(Benchmark::Job, 1.0, 1));
        assert_eq!(w.len(), 33);
        // JOB plans use index scans and nested-loop joins more than TPC-DS.
        let nlj_count = w
            .queries
            .iter()
            .flat_map(|q| q.plan.flatten())
            .filter(|n| n.op == Operator::NestedLoopJoin)
            .count();
        assert!(
            nlj_count > 5,
            "expected nested-loop joins in JOB, got {nlj_count}"
        );
    }
}
