//! Physical query plan trees.
//!
//! BQSched is non-intrusive: the only query-specific inputs it consumes are
//! the physical plan (as produced by `EXPLAIN` on the target DBMS) and
//! coarse statistics. This module models those plans as operator trees with
//! estimated cardinalities and CPU/I-O cost components, which feed both the
//! QueryFormer-style encoder (`bq-encoder`) and the execution engine
//! (`bq-dbms`).

use crate::catalog::TableId;

/// Identifier of a query within a batch (stable across scheduling rounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub usize);

/// Physical plan operators. The set covers what PostgreSQL-class optimizers
/// emit for the three benchmarks; each operator carries an intrinsic CPU/I-O
/// weight used when deriving node costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operator {
    /// Full sequential scan of a base table (I/O dominant).
    SeqScan,
    /// Index scan / index-only scan (cheap I/O, selective).
    IndexScan,
    /// Filter / projection on top of a child.
    Filter,
    /// Hash join (CPU + memory for the build side).
    HashJoin,
    /// Sort-merge join.
    MergeJoin,
    /// Nested-loop join (the paper disables it for some TPC-DS queries; kept
    /// for JOB-style selective joins).
    NestedLoopJoin,
    /// Hash aggregation / group-by.
    HashAggregate,
    /// Sort (order-by, merge-join input, window input).
    Sort,
    /// Window aggregate.
    WindowAgg,
    /// Limit / top-k.
    Limit,
    /// CTE materialisation or spool.
    Materialize,
}

/// Number of distinct [`Operator`] variants (used for one-hot encoding).
pub const OPERATOR_COUNT: usize = 11;

/// Cost of reading one page, in the same abstract units as CPU cost.
///
/// The engine's reference profile processes roughly one page of rows in half
/// the time it takes to fetch the page from storage, which matches the
/// I/O-bound behaviour of large TPC-DS fact scans on spinning or networked
/// storage. Combined costs (`total_cost`, `ResourceProfile::io_fraction`)
/// weight pages by this constant.
pub const IO_COST_PER_PAGE: f64 = 2.0;

impl Operator {
    /// Dense index of the operator, for one-hot feature encoding.
    pub fn index(&self) -> usize {
        match self {
            Operator::SeqScan => 0,
            Operator::IndexScan => 1,
            Operator::Filter => 2,
            Operator::HashJoin => 3,
            Operator::MergeJoin => 4,
            Operator::NestedLoopJoin => 5,
            Operator::HashAggregate => 6,
            Operator::Sort => 7,
            Operator::WindowAgg => 8,
            Operator::Limit => 9,
            Operator::Materialize => 10,
        }
    }

    /// CPU work per input row, in abstract cost units.
    pub fn cpu_weight(&self) -> f64 {
        match self {
            Operator::SeqScan => 0.01,
            Operator::IndexScan => 0.02,
            Operator::Filter => 0.005,
            Operator::HashJoin => 0.035,
            Operator::MergeJoin => 0.03,
            Operator::NestedLoopJoin => 0.06,
            Operator::HashAggregate => 0.045,
            Operator::Sort => 0.05,
            Operator::WindowAgg => 0.055,
            Operator::Limit => 0.001,
            Operator::Materialize => 0.01,
        }
    }

    /// Whether the operator reads base-table pages.
    pub fn is_scan(&self) -> bool {
        matches!(self, Operator::SeqScan | Operator::IndexScan)
    }

    /// Whether the operator is a join.
    pub fn is_join(&self) -> bool {
        matches!(
            self,
            Operator::HashJoin | Operator::MergeJoin | Operator::NestedLoopJoin
        )
    }

    /// Whether the operator may spill to disk under memory pressure.
    pub fn is_memory_intensive(&self) -> bool {
        matches!(
            self,
            Operator::HashJoin | Operator::HashAggregate | Operator::Sort | Operator::Materialize
        )
    }
}

/// A node in a physical plan tree.
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// Operator executed at this node.
    pub op: Operator,
    /// Base table scanned, for scan operators.
    pub table: Option<TableId>,
    /// Estimated selectivity of the node's predicate (fraction of input rows
    /// surviving), in `(0, 1]`.
    pub selectivity: f64,
    /// Estimated output rows.
    pub est_rows: f64,
    /// Estimated CPU cost of this node alone (abstract units).
    pub cpu_cost: f64,
    /// Estimated I/O cost of this node alone (pages read).
    pub io_cost: f64,
    /// Child nodes (0 for scans, 1 for unary operators, 2 for joins).
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    /// Create a leaf scan node.
    pub fn scan(op: Operator, table: TableId, selectivity: f64, rows: f64, pages: f64) -> Self {
        debug_assert!(op.is_scan());
        // A sequential scan must evaluate its predicate on every row, whereas
        // an index scan only touches the selected rows.
        let processed_rows = match op {
            Operator::IndexScan => rows * selectivity,
            _ => rows,
        };
        Self {
            op,
            table: Some(table),
            selectivity,
            est_rows: rows * selectivity,
            cpu_cost: processed_rows * op.cpu_weight(),
            io_cost: pages,
            children: Vec::new(),
        }
    }

    /// Create an internal node over children; cardinality and cost are derived
    /// from the children and the operator weights.
    pub fn internal(op: Operator, selectivity: f64, children: Vec<PlanNode>) -> Self {
        let input_rows: f64 = children.iter().map(|c| c.est_rows).sum();
        let est_rows = match op {
            Operator::HashAggregate => (input_rows * selectivity).max(1.0).min(input_rows),
            Operator::Limit => (input_rows * selectivity).clamp(1.0, 100.0),
            _ if op.is_join() => {
                // Join output modelled as the larger input scaled by selectivity.
                let max_in = children.iter().map(|c| c.est_rows).fold(1.0, f64::max);
                (max_in * selectivity).max(1.0)
            }
            _ => (input_rows * selectivity).max(1.0),
        };
        let cpu_cost = input_rows * op.cpu_weight()
            + if op == Operator::Sort {
                input_rows.max(2.0).ln() * input_rows * 0.002
            } else {
                0.0
            };
        Self {
            op,
            table: None,
            selectivity,
            est_rows,
            cpu_cost,
            io_cost: 0.0,
            children,
        }
    }

    /// Number of nodes in the subtree rooted here.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(PlanNode::size).sum::<usize>()
    }

    /// Height of the subtree (a leaf has height 0).
    pub fn height(&self) -> usize {
        self.children
            .iter()
            .map(PlanNode::height)
            .max()
            .map_or(0, |h| h + 1)
    }
}

/// A complete physical plan for one query of the batch.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Stable identifier of the query within its batch.
    pub id: QueryId,
    /// Benchmark template the query was generated from (e.g. TPC-DS query 14).
    pub template: usize,
    /// Human-readable name such as `"tpcds_q14"` or `"job_17a"`.
    pub name: String,
    /// Root of the operator tree.
    pub root: PlanNode,
}

/// A flattened view of one plan node produced by [`QueryPlan::flatten`].
#[derive(Debug, Clone)]
pub struct FlatNode {
    /// Index of the node in pre-order traversal.
    pub index: usize,
    /// Index of the parent node (`None` for the root).
    pub parent: Option<usize>,
    /// Depth from the root (root = 0).
    pub depth: usize,
    /// Height above the deepest leaf of its subtree.
    pub height: usize,
    /// Operator at the node.
    pub op: Operator,
    /// Scanned table, if any.
    pub table: Option<TableId>,
    /// Predicate selectivity.
    pub selectivity: f64,
    /// Estimated output rows.
    pub est_rows: f64,
    /// CPU cost of the node.
    pub cpu_cost: f64,
    /// I/O cost of the node.
    pub io_cost: f64,
}

impl QueryPlan {
    /// Total estimated CPU cost of the plan.
    pub fn total_cpu_cost(&self) -> f64 {
        fn walk(n: &PlanNode) -> f64 {
            n.cpu_cost + n.children.iter().map(walk).sum::<f64>()
        }
        walk(&self.root)
    }

    /// Total estimated I/O cost (pages read) of the plan.
    pub fn total_io_cost(&self) -> f64 {
        fn walk(n: &PlanNode) -> f64 {
            n.io_cost + n.children.iter().map(walk).sum::<f64>()
        }
        walk(&self.root)
    }

    /// Combined abstract cost used by cost-based heuristics such as MCF,
    /// weighting pages by [`IO_COST_PER_PAGE`].
    pub fn total_cost(&self) -> f64 {
        self.total_cpu_cost() + self.total_io_cost() * IO_COST_PER_PAGE
    }

    /// Number of operator nodes.
    pub fn node_count(&self) -> usize {
        self.root.size()
    }

    /// Tables accessed anywhere in the plan, with the pages each scan reads.
    pub fn scanned_tables(&self) -> Vec<(TableId, f64)> {
        let mut out: Vec<(TableId, f64)> = Vec::new();
        fn walk(n: &PlanNode, out: &mut Vec<(TableId, f64)>) {
            if let Some(t) = n.table {
                if let Some(entry) = out.iter_mut().find(|(id, _)| *id == t) {
                    entry.1 += n.io_cost;
                } else {
                    out.push((t, n.io_cost));
                }
            }
            for c in &n.children {
                walk(c, out);
            }
        }
        walk(&self.root, &mut out);
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// Pre-order flattening of the plan with structural metadata (parent,
    /// depth, height) — the input format of the QueryFormer-style encoder.
    pub fn flatten(&self) -> Vec<FlatNode> {
        let mut out = Vec::with_capacity(self.node_count());
        fn walk(
            n: &PlanNode,
            parent: Option<usize>,
            depth: usize,
            out: &mut Vec<FlatNode>,
        ) -> usize {
            let index = out.len();
            out.push(FlatNode {
                index,
                parent,
                depth,
                height: n.height(),
                op: n.op,
                table: n.table,
                selectivity: n.selectivity,
                est_rows: n.est_rows,
                cpu_cost: n.cpu_cost,
                io_cost: n.io_cost,
            });
            for c in &n.children {
                walk(c, Some(index), depth + 1, out);
            }
            index
        }
        walk(&self.root, None, 0, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> QueryPlan {
        let scan1 = PlanNode::scan(Operator::SeqScan, TableId(0), 0.2, 10_000.0, 500.0);
        let scan2 = PlanNode::scan(Operator::IndexScan, TableId(1), 0.01, 50_000.0, 20.0);
        let join = PlanNode::internal(Operator::HashJoin, 0.5, vec![scan1, scan2]);
        let agg = PlanNode::internal(Operator::HashAggregate, 0.1, vec![join]);
        let root = PlanNode::internal(Operator::Sort, 1.0, vec![agg]);
        QueryPlan {
            id: QueryId(0),
            template: 1,
            name: "test_q1".into(),
            root,
        }
    }

    #[test]
    fn operator_indices_are_dense_and_unique() {
        let ops = [
            Operator::SeqScan,
            Operator::IndexScan,
            Operator::Filter,
            Operator::HashJoin,
            Operator::MergeJoin,
            Operator::NestedLoopJoin,
            Operator::HashAggregate,
            Operator::Sort,
            Operator::WindowAgg,
            Operator::Limit,
            Operator::Materialize,
        ];
        let mut seen = [false; OPERATOR_COUNT];
        for op in ops {
            let i = op.index();
            assert!(i < OPERATOR_COUNT);
            assert!(!seen[i], "duplicate operator index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn plan_costs_are_positive_and_additive() {
        let p = sample_plan();
        assert!(p.total_cpu_cost() > 0.0);
        assert!(p.total_io_cost() >= 520.0 - 1e-9);
        assert!(p.total_cost() >= p.total_cpu_cost());
        assert_eq!(p.node_count(), 5);
    }

    #[test]
    fn scanned_tables_aggregates_io() {
        let p = sample_plan();
        let tables = p.scanned_tables();
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].0, TableId(0));
        assert!((tables[0].1 - 500.0).abs() < 1e-9);
        assert!((tables[1].1 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn flatten_preserves_structure() {
        let p = sample_plan();
        let flat = p.flatten();
        assert_eq!(flat.len(), 5);
        // Root first, with no parent and depth 0.
        assert!(flat[0].parent.is_none());
        assert_eq!(flat[0].depth, 0);
        assert_eq!(flat[0].op, Operator::Sort);
        // Every non-root node's parent precedes it in pre-order.
        for n in &flat[1..] {
            let parent = n.parent.unwrap();
            assert!(parent < n.index);
            assert_eq!(flat[parent].depth + 1, n.depth);
        }
        // Leaves have height 0, root has the max height.
        let max_height = flat.iter().map(|n| n.height).max().unwrap();
        assert_eq!(flat[0].height, max_height);
        assert!(flat
            .iter()
            .filter(|n| n.op.is_scan())
            .all(|n| n.height == 0));
    }

    #[test]
    fn join_cardinality_bounded_by_selectivity() {
        let scan1 = PlanNode::scan(Operator::SeqScan, TableId(0), 1.0, 1000.0, 10.0);
        let scan2 = PlanNode::scan(Operator::SeqScan, TableId(1), 1.0, 500.0, 5.0);
        let join = PlanNode::internal(Operator::HashJoin, 0.3, vec![scan1, scan2]);
        assert!(join.est_rows <= 1000.0);
        assert!(join.est_rows >= 1.0);
    }

    #[test]
    fn height_and_size_of_deep_plan() {
        let mut node = PlanNode::scan(Operator::SeqScan, TableId(0), 1.0, 100.0, 10.0);
        for _ in 0..6 {
            node = PlanNode::internal(Operator::Filter, 0.9, vec![node]);
        }
        assert_eq!(node.height(), 6);
        assert_eq!(node.size(), 7);
    }
}
