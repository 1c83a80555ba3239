//! Table catalogs for the three benchmarks used in the BQSched evaluation.
//!
//! The scheduler never reads table data; what matters for scheduling is the
//! *size* of each table (how much I/O a scan performs, how much of the buffer
//! pool it occupies) and which queries touch the same tables (buffer-sharing
//! opportunities). The catalogs below model the TPC-DS, TPC-H and JOB (IMDb)
//! schemas at that granularity: realistic table names, base cardinalities at
//! scale factor 1, and a fact/dimension split that controls how cardinality
//! grows with the scale factor.

/// Identifier of a table within a [`Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub usize);

/// Which benchmark a catalog (and the workload generated on it) belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// TPC-DS: 99 query templates over a retail snowflake schema.
    TpcDs,
    /// TPC-H: 22 query templates over an order-processing schema.
    TpcH,
    /// JOB (Join Order Benchmark): 33 query templates over the IMDb schema.
    Job,
}

impl Benchmark {
    /// Number of query templates in the benchmark as used by the paper
    /// (JOB uses one query per template, 1a..33a).
    pub fn template_count(&self) -> usize {
        match self {
            Benchmark::TpcDs => 99,
            Benchmark::TpcH => 22,
            Benchmark::Job => 33,
        }
    }

    /// Short lowercase name used in logs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::TpcDs => "tpcds",
            Benchmark::TpcH => "tpch",
            Benchmark::Job => "job",
        }
    }
}

/// A table definition: name, base cardinality at scale factor 1 and how it
/// scales with data volume.
#[derive(Debug, Clone)]
pub struct TableDef {
    /// Table identifier.
    pub id: TableId,
    /// Table name from the benchmark schema.
    pub name: String,
    /// Row count at scale factor 1.
    pub base_rows: u64,
    /// Average row width in bytes.
    pub row_bytes: u32,
    /// Fact tables grow linearly with the scale factor; dimension tables grow
    /// sub-linearly (we use `sf^0.5`, matching the slow growth of e.g.
    /// `customer` relative to `store_sales` in TPC-DS kits).
    pub is_fact: bool,
}

/// Page size used to convert row volumes into I/O pages.
pub const PAGE_BYTES: u64 = 8192;

/// A catalog: the set of tables of one benchmark instantiated at a given
/// scale factor.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// The benchmark this catalog models.
    pub benchmark: Benchmark,
    /// Data scale factor (1.0 = SF1). Fractional factors model the ±10/20 %
    /// data perturbations of Table II in the paper.
    pub scale_factor: f64,
    tables: Vec<TableDef>,
}

impl Catalog {
    /// Build the catalog of `benchmark` at `scale_factor`.
    pub fn new(benchmark: Benchmark, scale_factor: f64) -> Self {
        assert!(scale_factor > 0.0, "scale factor must be positive");
        let raw: &[(&str, u64, u32, bool)] = match benchmark {
            Benchmark::TpcDs => TPCDS_TABLES,
            Benchmark::TpcH => TPCH_TABLES,
            Benchmark::Job => JOB_TABLES,
        };
        let tables = raw
            .iter()
            .enumerate()
            .map(|(i, &(name, base_rows, row_bytes, is_fact))| TableDef {
                id: TableId(i),
                name: name.to_string(),
                base_rows,
                row_bytes,
                is_fact,
            })
            .collect();
        Self {
            benchmark,
            scale_factor,
            tables,
        }
    }

    /// All tables in the catalog.
    pub fn tables(&self) -> &[TableDef] {
        &self.tables
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the catalog is empty (never true for the built-in benchmarks).
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Look up a table definition.
    pub fn table(&self, id: TableId) -> &TableDef {
        &self.tables[id.0]
    }

    /// Effective row count of a table at this catalog's scale factor.
    pub fn rows(&self, id: TableId) -> u64 {
        let t = self.table(id);
        let factor = if t.is_fact {
            self.scale_factor
        } else {
            self.scale_factor.sqrt().max(1.0)
        };
        ((t.base_rows as f64) * factor).round().max(1.0) as u64
    }

    /// Number of 8 KiB pages a full scan of the table reads at this scale.
    pub fn pages(&self, id: TableId) -> u64 {
        let t = self.table(id);
        let bytes = self.rows(id) * t.row_bytes as u64;
        (bytes / PAGE_BYTES).max(1)
    }

    /// Identifiers of all fact tables.
    pub fn fact_tables(&self) -> Vec<TableId> {
        self.tables
            .iter()
            .filter(|t| t.is_fact)
            .map(|t| t.id)
            .collect()
    }

    /// Identifiers of all dimension tables.
    pub fn dimension_tables(&self) -> Vec<TableId> {
        self.tables
            .iter()
            .filter(|t| !t.is_fact)
            .map(|t| t.id)
            .collect()
    }
}

/// TPC-DS schema: 7 fact tables + 17 dimension tables (24 of the 25 official
/// tables; `dbgen_version` is omitted as it never appears in query plans).
/// Cardinalities follow the SF1 specification.
const TPCDS_TABLES: &[(&str, u64, u32, bool)] = &[
    ("store_sales", 2_880_404, 164, true),
    ("store_returns", 287_514, 132, true),
    ("catalog_sales", 1_441_548, 226, true),
    ("catalog_returns", 144_067, 166, true),
    ("web_sales", 719_384, 226, true),
    ("web_returns", 71_763, 162, true),
    ("inventory", 11_745_000, 16, true),
    ("store", 12, 263, false),
    ("call_center", 6, 305, false),
    ("catalog_page", 11_718, 139, false),
    ("web_site", 30, 292, false),
    ("web_page", 60, 96, false),
    ("warehouse", 5, 117, false),
    ("customer", 100_000, 132, false),
    ("customer_address", 50_000, 110, false),
    ("customer_demographics", 1_920_800, 42, false),
    ("date_dim", 73_049, 141, false),
    ("household_demographics", 7_200, 21, false),
    ("item", 18_000, 281, false),
    ("income_band", 20, 16, false),
    ("promotion", 300, 124, false),
    ("reason", 35, 38, false),
    ("ship_mode", 20, 56, false),
    ("time_dim", 86_400, 59, false),
];

/// TPC-H schema: 8 tables, cardinalities at SF1.
const TPCH_TABLES: &[(&str, u64, u32, bool)] = &[
    ("lineitem", 6_001_215, 112, true),
    ("orders", 1_500_000, 104, true),
    ("partsupp", 800_000, 144, true),
    ("part", 200_000, 128, false),
    ("customer", 150_000, 160, false),
    ("supplier", 10_000, 144, false),
    ("nation", 25, 118, false),
    ("region", 5, 120, false),
];

/// JOB / IMDb schema: the 21 tables referenced by the 33 JOB templates.
/// The IMDb dataset has a fixed size, so "scale factor" rescales it uniformly
/// (the paper only runs JOB at its native size; we keep the knob for
/// completeness).
const JOB_TABLES: &[(&str, u64, u32, bool)] = &[
    ("title", 2_528_312, 94, true),
    ("cast_info", 36_244_344, 40, true),
    ("movie_info", 14_835_720, 74, true),
    ("movie_info_idx", 1_380_035, 38, true),
    ("movie_keyword", 4_523_930, 24, true),
    ("movie_companies", 2_609_129, 54, true),
    ("movie_link", 29_997, 26, true),
    ("person_info", 2_963_664, 84, true),
    ("name", 4_167_491, 76, false),
    ("aka_name", 901_343, 70, false),
    ("aka_title", 361_472, 92, false),
    ("char_name", 3_140_339, 66, false),
    ("comp_cast_type", 4, 22, false),
    ("company_name", 234_997, 64, false),
    ("company_type", 4, 24, false),
    ("complete_cast", 135_086, 20, false),
    ("info_type", 113, 22, false),
    ("keyword", 134_170, 36, false),
    ("kind_type", 7, 20, false),
    ("link_type", 18, 24, false),
    ("role_type", 12, 22, false),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogs_have_expected_table_counts() {
        assert_eq!(Catalog::new(Benchmark::TpcDs, 1.0).len(), 24);
        assert_eq!(Catalog::new(Benchmark::TpcH, 1.0).len(), 8);
        assert_eq!(Catalog::new(Benchmark::Job, 1.0).len(), 21);
    }

    #[test]
    fn template_counts_match_paper() {
        assert_eq!(Benchmark::TpcDs.template_count(), 99);
        assert_eq!(Benchmark::TpcH.template_count(), 22);
        assert_eq!(Benchmark::Job.template_count(), 33);
    }

    #[test]
    fn fact_tables_scale_linearly_dims_sublinearly() {
        let c1 = Catalog::new(Benchmark::TpcDs, 1.0);
        let c100 = Catalog::new(Benchmark::TpcDs, 100.0);
        let fact = c1
            .tables
            .iter()
            .find(|t| t.name == "store_sales")
            .unwrap()
            .id;
        let dim = c1.tables.iter().find(|t| t.name == "customer").unwrap().id;
        let fact_growth = c100.rows(fact) as f64 / c1.rows(fact) as f64;
        let dim_growth = c100.rows(dim) as f64 / c1.rows(dim) as f64;
        assert!(
            (fact_growth - 100.0).abs() < 1.0,
            "fact growth {fact_growth}"
        );
        assert!((dim_growth - 10.0).abs() < 0.5, "dim growth {dim_growth}");
    }

    #[test]
    fn pages_are_positive_and_monotone_in_scale() {
        let c1 = Catalog::new(Benchmark::TpcH, 1.0);
        let c2 = Catalog::new(Benchmark::TpcH, 2.0);
        for t in c1.tables() {
            assert!(c1.pages(t.id) >= 1);
            assert!(c2.pages(t.id) >= c1.pages(t.id));
        }
    }

    #[test]
    fn lineitem_is_largest_tpch_table() {
        let c = Catalog::new(Benchmark::TpcH, 1.0);
        let lineitem = c.tables.iter().find(|t| t.name == "lineitem").unwrap().id;
        let max_pages = c.tables().iter().map(|t| c.pages(t.id)).max().unwrap();
        assert_eq!(c.pages(lineitem), max_pages);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_factor_rejected() {
        let _ = Catalog::new(Benchmark::TpcDs, 0.0);
    }

    #[test]
    fn fact_and_dimension_partition() {
        let c = Catalog::new(Benchmark::TpcDs, 1.0);
        let facts = c.fact_tables();
        let dims = c.dimension_tables();
        assert_eq!(facts.len() + dims.len(), c.len());
        assert_eq!(facts.len(), 7);
    }
}
