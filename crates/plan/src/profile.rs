//! Resource profiles derived from physical plans.
//!
//! The execution engine in `bq-dbms` does not interpret plans operator by
//! operator (a non-intrusive scheduler cannot see inside the DBMS either);
//! instead each query is summarised into the resource demands that drive
//! concurrent behaviour: how much CPU work it performs, how many pages it
//! reads from which tables, how parallelisable it is and how much working
//! memory it wants. These are exactly the levers behind the paper's three
//! scheduling opportunities: contention avoidance, buffer sharing and
//! long-tail mitigation.

use crate::catalog::{Catalog, TableId};
use crate::plan::{Operator, QueryPlan};

/// Resource demands of one query, derived from its physical plan.
#[derive(Debug, Clone)]
pub struct ResourceProfile {
    /// Total CPU work in abstract units (1 unit ≈ 1 ms on one core of the
    /// reference DBMS-X profile).
    pub cpu_work: f64,
    /// Total I/O volume in pages.
    pub io_pages: f64,
    /// Pages read per table (for buffer-sharing computations).
    pub table_pages: Vec<(TableId, f64)>,
    /// Fraction of the CPU work that can use additional parallel workers
    /// (Amdahl-style), in `[0, 1]`.
    pub parallel_fraction: f64,
    /// Working-memory demand in pages (hash tables, sorts). Exceeding the
    /// per-query memory grant causes spill I/O in the engine.
    pub memory_pages: f64,
}

impl ResourceProfile {
    /// Derive the profile of `plan` against `catalog`.
    pub fn from_plan(plan: &QueryPlan, catalog: &Catalog) -> Self {
        let mut cpu_work = 0.0;
        let mut parallel_cpu = 0.0;
        let mut memory_pages = 0.0;
        for node in plan.flatten() {
            cpu_work += node.cpu_cost;
            // Scans, joins and aggregations parallelise well; sorts and window
            // functions only partially; the rest are treated as serial.
            let par = match node.op {
                Operator::SeqScan | Operator::IndexScan => 0.95,
                Operator::HashJoin | Operator::MergeJoin | Operator::HashAggregate => 0.85,
                Operator::NestedLoopJoin => 0.7,
                Operator::Sort | Operator::WindowAgg => 0.5,
                _ => 0.2,
            };
            parallel_cpu += node.cpu_cost * par;
            if node.op.is_memory_intensive() {
                // Hash tables / sort buffers sized by input rows; ~64 bytes per row.
                memory_pages += node.est_rows * 64.0 / crate::catalog::PAGE_BYTES as f64;
            }
        }
        let table_pages = plan.scanned_tables();
        let io_pages: f64 = table_pages.iter().map(|(_, p)| *p).sum();
        let parallel_fraction = if cpu_work > 0.0 {
            (parallel_cpu / cpu_work).clamp(0.0, 1.0)
        } else {
            0.0
        };
        // Sanity: every scanned table must exist in the catalog.
        for (t, _) in &table_pages {
            debug_assert!(
                t.0 < catalog.len(),
                "profile references unknown table {t:?}"
            );
        }
        Self {
            cpu_work,
            io_pages,
            table_pages,
            parallel_fraction,
            memory_pages,
        }
    }

    /// Fraction of total work that is I/O (pages weighted by
    /// [`crate::plan::IO_COST_PER_PAGE`]).
    pub fn io_fraction(&self) -> f64 {
        let io_work = self.io_pages * crate::plan::IO_COST_PER_PAGE;
        let total = self.cpu_work + io_work;
        if total <= 0.0 {
            0.0
        } else {
            io_work / total
        }
    }

    /// Whether the query is I/O-intensive (the paper's criterion for masking
    /// configurations that would add CPU workers to it).
    pub fn is_io_intensive(&self) -> bool {
        self.io_fraction() > 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Benchmark;
    use crate::plan::{PlanNode, QueryId};

    fn plan_on(catalog: &Catalog, tables: &[&str], heavy: bool) -> QueryPlan {
        let mut scans: Vec<PlanNode> = tables
            .iter()
            .map(|name| {
                let t = (0..catalog.len())
                    .map(|i| catalog.table(TableId(i)))
                    .find(|t| t.name == *name)
                    .unwrap();
                PlanNode::scan(
                    Operator::SeqScan,
                    t.id,
                    0.3,
                    catalog.rows(t.id) as f64,
                    catalog.pages(t.id) as f64,
                )
            })
            .collect();
        let mut node = scans.remove(0);
        for s in scans {
            node = PlanNode::internal(Operator::HashJoin, 0.4, vec![node, s]);
        }
        if heavy {
            node = PlanNode::internal(Operator::Sort, 1.0, vec![node]);
        }
        let root = PlanNode::internal(Operator::HashAggregate, 0.1, vec![node]);
        QueryPlan {
            id: QueryId(0),
            template: 0,
            name: "p".into(),
            root,
        }
    }

    #[test]
    fn profile_totals_match_plan() {
        let catalog = Catalog::new(Benchmark::TpcH, 1.0);
        let plan = plan_on(&catalog, &["lineitem", "orders"], true);
        let prof = ResourceProfile::from_plan(&plan, &catalog);
        assert!((prof.cpu_work - plan.total_cpu_cost()).abs() < 1e-6);
        assert!((prof.io_pages - plan.total_io_cost()).abs() < 1e-6);
        assert_eq!(prof.table_pages.len(), 2);
        assert!(prof.parallel_fraction > 0.0 && prof.parallel_fraction <= 1.0);
        assert!(prof.memory_pages > 0.0);
    }

    #[test]
    fn scan_heavy_plan_is_io_intensive() {
        let catalog = Catalog::new(Benchmark::TpcH, 1.0);
        let plan = plan_on(&catalog, &["lineitem"], false);
        let prof = ResourceProfile::from_plan(&plan, &catalog);
        assert!(prof.is_io_intensive());
        assert!(prof.io_fraction() > 0.5);
    }
}
