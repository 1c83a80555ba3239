//! DBMS resource profiles.
//!
//! The paper evaluates against three systems it anonymises as DBMS-X
//! (a centralized open-source system, PostgreSQL-class), DBMS-Y (another
//! centralized server with a newer CPU generation) and DBMS-Z (a distributed
//! cloud system with three computing nodes and its own internal concurrency
//! management). We model each as a resource envelope: CPU cores, sequential
//! I/O bandwidth, buffer pool, number of client connections `|C|`, memory
//! grants, and the amount of execution-time noise.

/// Identifier of the simulated DBMS, mirroring the paper's anonymised names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DbmsKind {
    /// Centralized system with the largest scheduling potential.
    X,
    /// Centralized system with more CPU headroom.
    Y,
    /// Distributed three-node system with internal load management.
    Z,
}

impl DbmsKind {
    /// Short name used in reports ("DBMS-X", ...).
    pub fn name(&self) -> &'static str {
        match self {
            DbmsKind::X => "DBMS-X",
            DbmsKind::Y => "DBMS-Y",
            DbmsKind::Z => "DBMS-Z",
        }
    }
}

/// Resource envelope of a simulated DBMS deployment.
#[derive(Debug, Clone)]
pub struct DbmsProfile {
    /// Which system this profile models.
    pub kind: DbmsKind,
    /// Number of compute nodes (1 for centralized systems).
    pub nodes: usize,
    /// CPU cores per node.
    pub cores_per_node: u32,
    /// Sequential read bandwidth per node, in pages per (virtual) second.
    pub io_pages_per_sec: f64,
    /// Shared buffer pool per node, in pages.
    pub buffer_pages: f64,
    /// Number of client connections the scheduler keeps busy (`|C|`).
    pub connections: usize,
    /// CPU work units one core executes per virtual second
    /// (1 work unit ≈ 1 ms of single-core time on the reference machine).
    pub cpu_units_per_sec: f64,
    /// Per-query working-memory grant in pages for the low setting.
    pub low_mem_grant_pages: f64,
    /// Per-query working-memory grant in pages for the high setting.
    pub high_mem_grant_pages: f64,
    /// Relative standard deviation of per-execution noise (models run-to-run
    /// variance of concurrent execution, the source of σ_ov in the paper).
    pub noise_std: f64,
    /// How well the DBMS's own concurrency control mitigates contention when
    /// demand exceeds capacity (0 = fair-share only, 1 = contention fully
    /// hidden). DBMS-Z sets this high, which is why external scheduling has
    /// less room for improvement there (§V-B of the paper).
    pub contention_mitigation: f64,
}

impl DbmsProfile {
    /// Centralized DBMS-X: two 16-core sockets, modest I/O, default buffer.
    /// This is the profile with the largest scheduling potential.
    pub fn dbms_x() -> Self {
        Self {
            kind: DbmsKind::X,
            nodes: 1,
            cores_per_node: 32,
            io_pages_per_sec: 30_000.0,
            buffer_pages: 90_000.0,
            connections: 18,
            cpu_units_per_sec: 20_000.0,
            low_mem_grant_pages: 2_000.0,
            high_mem_grant_pages: 12_000.0,
            noise_std: 0.08,
            contention_mitigation: 0.1,
        }
    }

    /// Centralized DBMS-Y: newer CPUs (more cores, faster I/O), slightly
    /// smaller connection pool.
    pub fn dbms_y() -> Self {
        Self {
            kind: DbmsKind::Y,
            nodes: 1,
            cores_per_node: 48,
            io_pages_per_sec: 45_000.0,
            buffer_pages: 110_000.0,
            connections: 16,
            cpu_units_per_sec: 26_000.0,
            low_mem_grant_pages: 2_500.0,
            high_mem_grant_pages: 14_000.0,
            noise_std: 0.1,
            contention_mitigation: 0.15,
        }
    }

    /// Distributed DBMS-Z: three nodes with 16 vCPUs each, aggressive internal
    /// workload management, ample aggregate I/O.
    pub fn dbms_z() -> Self {
        Self {
            kind: DbmsKind::Z,
            nodes: 3,
            cores_per_node: 16,
            io_pages_per_sec: 55_000.0,
            buffer_pages: 70_000.0,
            connections: 24,
            cpu_units_per_sec: 22_000.0,
            low_mem_grant_pages: 3_000.0,
            high_mem_grant_pages: 16_000.0,
            noise_std: 0.06,
            contention_mitigation: 0.6,
        }
    }

    /// Look up a profile by kind.
    pub fn for_kind(kind: DbmsKind) -> Self {
        match kind {
            DbmsKind::X => Self::dbms_x(),
            DbmsKind::Y => Self::dbms_y(),
            DbmsKind::Z => Self::dbms_z(),
        }
    }

    /// All three evaluation profiles, in the paper's order.
    pub fn all() -> Vec<Self> {
        vec![Self::dbms_x(), Self::dbms_y(), Self::dbms_z()]
    }

    /// Total CPU cores across all nodes.
    pub fn total_cores(&self) -> u32 {
        self.cores_per_node * self.nodes as u32
    }

    /// The node a connection is pinned to (round-robin assignment).
    pub fn node_of_connection(&self, connection: usize) -> usize {
        connection % self.nodes
    }

    /// Working-memory grant in pages for a memory setting.
    pub fn memory_grant(&self, memory: crate::params::MemoryGrant) -> f64 {
        match memory {
            crate::params::MemoryGrant::Low => self.low_mem_grant_pages,
            crate::params::MemoryGrant::High => self.high_mem_grant_pages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MemoryGrant;

    #[test]
    fn profiles_are_distinct_and_well_formed() {
        for p in DbmsProfile::all() {
            assert!(p.nodes >= 1);
            assert!(p.cores_per_node > 0);
            assert!(p.io_pages_per_sec > 0.0);
            assert!(p.buffer_pages > 0.0);
            assert!(p.connections >= 4);
            assert!(p.high_mem_grant_pages > p.low_mem_grant_pages);
            assert!((0.0..=1.0).contains(&p.contention_mitigation));
            assert!(p.noise_std >= 0.0 && p.noise_std < 0.5);
        }
    }

    #[test]
    fn z_is_distributed_with_three_nodes() {
        let z = DbmsProfile::dbms_z();
        assert_eq!(z.nodes, 3);
        assert_eq!(z.total_cores(), 48);
        assert!(z.contention_mitigation > DbmsProfile::dbms_x().contention_mitigation);
    }

    #[test]
    fn connection_to_node_round_robin() {
        let z = DbmsProfile::dbms_z();
        assert_eq!(z.node_of_connection(0), 0);
        assert_eq!(z.node_of_connection(1), 1);
        assert_eq!(z.node_of_connection(2), 2);
        assert_eq!(z.node_of_connection(3), 0);
        let x = DbmsProfile::dbms_x();
        assert_eq!(x.node_of_connection(17), 0);
    }

    #[test]
    fn memory_grants_follow_setting() {
        let x = DbmsProfile::dbms_x();
        assert!(x.memory_grant(MemoryGrant::High) > x.memory_grant(MemoryGrant::Low));
    }

    #[test]
    fn for_kind_matches_constructor() {
        assert_eq!(DbmsProfile::for_kind(DbmsKind::Y).kind, DbmsKind::Y);
        assert_eq!(DbmsKind::X.name(), "DBMS-X");
    }
}
