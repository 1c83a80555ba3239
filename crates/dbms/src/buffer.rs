//! Shared buffer pool model.
//!
//! The second scheduling opportunity the paper identifies is that "all queries
//! share the same data buffer in one DBMS, indicating that one query may
//! reuse the data loaded by others". The engine models this with a
//! table-granular LRU buffer: when a query scans a table whose pages are
//! (partially) resident, the corresponding fraction of its I/O is served from
//! memory; afterwards the table's pages are the most recently used entries.

use bq_plan::TableId;

/// A table-granular LRU buffer pool.
#[derive(Debug, Clone)]
pub struct BufferPool {
    capacity_pages: f64,
    /// Entries ordered from least to most recently used.
    entries: Vec<(TableId, f64)>,
}

impl BufferPool {
    /// Create an empty (cold) buffer pool with the given capacity.
    pub fn new(capacity_pages: f64) -> Self {
        assert!(capacity_pages > 0.0, "buffer capacity must be positive");
        Self {
            capacity_pages,
            entries: Vec::new(),
        }
    }

    /// Pages currently cached across all tables.
    pub fn used(&self) -> f64 {
        self.entries.iter().map(|(_, p)| *p).sum()
    }

    /// Pages of `table` currently resident.
    pub fn cached_pages(&self, table: TableId) -> f64 {
        self.entries
            .iter()
            .find(|(t, _)| *t == table)
            .map(|(_, p)| *p)
            .unwrap_or(0.0)
    }

    /// Fraction of a read of `needed_pages` from `table` that would be served
    /// from the buffer right now.
    pub fn hit_fraction(&self, table: TableId, needed_pages: f64) -> f64 {
        if needed_pages <= 0.0 {
            return 1.0;
        }
        (self.cached_pages(table) / needed_pages).clamp(0.0, 1.0)
    }

    /// Record that `pages` of `table` have been read (and are therefore now
    /// resident), evicting least-recently-used tables if necessary. A single
    /// table larger than the whole pool only keeps `capacity` pages resident.
    pub fn touch(&mut self, table: TableId, pages: f64) {
        if pages <= 0.0 {
            return;
        }
        let resident = self.cached_pages(table);
        let new_resident = (resident.max(pages)).min(self.capacity_pages);
        // Move to most-recently-used position with the updated size.
        self.entries.retain(|(t, _)| *t != table);
        self.entries.push((table, new_resident));
        self.evict_to_fit();
    }

    fn evict_to_fit(&mut self) {
        let mut used = self.used();
        while used > self.capacity_pages && self.entries.len() > 1 {
            let (_, evicted) = self.entries.remove(0);
            used -= evicted;
        }
        // If a single entry still exceeds capacity, trim it.
        if used > self.capacity_pages {
            if let Some(first) = self.entries.first_mut() {
                first.1 = self.capacity_pages;
            }
        }
    }

    /// Drop everything (cold restart of the DBMS).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_pool_has_no_hits() {
        let pool = BufferPool::new(1000.0);
        assert_eq!(pool.hit_fraction(TableId(0), 100.0), 0.0);
        assert_eq!(pool.used(), 0.0);
    }

    #[test]
    fn touch_makes_pages_resident() {
        let mut pool = BufferPool::new(1000.0);
        pool.touch(TableId(0), 400.0);
        assert_eq!(pool.cached_pages(TableId(0)), 400.0);
        assert_eq!(pool.hit_fraction(TableId(0), 400.0), 1.0);
        assert_eq!(pool.hit_fraction(TableId(0), 800.0), 0.5);
    }

    #[test]
    fn lru_eviction_order() {
        let mut pool = BufferPool::new(1000.0);
        pool.touch(TableId(0), 500.0);
        pool.touch(TableId(1), 400.0);
        // Re-touch table 0 so table 1 becomes LRU.
        pool.touch(TableId(0), 500.0);
        pool.touch(TableId(2), 300.0);
        // Capacity 1000: table 1 (LRU) must have been evicted.
        assert_eq!(pool.cached_pages(TableId(1)), 0.0);
        assert!(pool.cached_pages(TableId(0)) > 0.0);
        assert!(pool.cached_pages(TableId(2)) > 0.0);
        assert!(pool.used() <= 1000.0 + 1e-9);
    }

    #[test]
    fn oversized_table_is_trimmed_to_capacity() {
        let mut pool = BufferPool::new(100.0);
        pool.touch(TableId(5), 1_000.0);
        assert_eq!(pool.cached_pages(TableId(5)), 100.0);
        assert!(pool.used() <= 100.0);
    }

    #[test]
    fn repeated_touch_does_not_shrink_residency() {
        let mut pool = BufferPool::new(1000.0);
        pool.touch(TableId(0), 500.0);
        pool.touch(TableId(0), 100.0);
        assert_eq!(pool.cached_pages(TableId(0)), 500.0);
    }

    #[test]
    fn clear_resets_pool() {
        let mut pool = BufferPool::new(1000.0);
        pool.touch(TableId(0), 500.0);
        pool.clear();
        assert_eq!(pool.used(), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = BufferPool::new(0.0);
    }
}
