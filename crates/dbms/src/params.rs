//! Query running parameters.
//!
//! Besides picking the next query, BQSched also chooses *running parameters*
//! for it — the paper's examples are the degree of parallelism and the memory
//! limit, which map to settings like `max_parallel_workers_per_gather` and
//! `work_mem` on PostgreSQL-class systems. The action space is the cross
//! product of query × parameter configuration, which adaptive masking later
//! prunes.

/// Memory grant level for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryGrant {
    /// Default working memory; large hash/sort states spill to disk.
    Low,
    /// Enlarged working memory; avoids most spills but occupies buffer space.
    High,
}

impl MemoryGrant {
    /// All grant levels, in index order.
    pub const ALL: [MemoryGrant; 2] = [MemoryGrant::Low, MemoryGrant::High];

    /// Dense index for encoding.
    pub fn index(&self) -> usize {
        match self {
            MemoryGrant::Low => 0,
            MemoryGrant::High => 1,
        }
    }
}

/// Degrees of parallelism offered to a single query.
pub const WORKER_OPTIONS: [u32; 3] = [1, 2, 4];

/// A concrete running-parameter configuration for one query submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunParams {
    /// Number of parallel workers granted to the query.
    pub workers: u32,
    /// Working-memory grant.
    pub memory: MemoryGrant,
}

impl RunParams {
    /// The conservative default configuration (1 worker, low memory).
    pub fn default_config() -> Self {
        Self {
            workers: 1,
            memory: MemoryGrant::Low,
        }
    }
}

impl Default for RunParams {
    fn default() -> Self {
        Self::default_config()
    }
}

/// The discrete space of parameter configurations (`workers × memory`),
/// indexed densely so that policy logits can address configurations by index.
#[derive(Debug, Clone)]
pub struct ParamSpace {
    configs: Vec<RunParams>,
}

impl ParamSpace {
    /// The full configuration space used in the paper-style experiments:
    /// 3 worker settings × 2 memory grants = 6 configurations per query.
    pub fn full() -> Self {
        let mut configs = Vec::new();
        for &workers in &WORKER_OPTIONS {
            for memory in MemoryGrant::ALL {
                configs.push(RunParams { workers, memory });
            }
        }
        Self { configs }
    }

    /// Number of configurations.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Whether the space is empty (never true for the built-in constructors).
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Configuration at `index`.
    pub fn get(&self, index: usize) -> RunParams {
        self.configs[index]
    }

    /// All configurations in index order.
    pub fn configs(&self) -> &[RunParams] {
        &self.configs
    }

    /// Index of a configuration.
    pub fn index_of(&self, params: RunParams) -> Option<usize> {
        self.configs.iter().position(|&c| c == params)
    }

    /// Index of the configuration closest to `target` among the allowed ones,
    /// measuring distance in (workers, memory) steps. Used when a cluster-level
    /// configuration conflicts with a query-level mask (§IV-B of the paper).
    pub fn closest_allowed(&self, target: RunParams, allowed: &[bool]) -> Option<usize> {
        assert_eq!(allowed.len(), self.configs.len());
        self.configs
            .iter()
            .enumerate()
            .filter(|(i, _)| allowed[*i])
            .min_by_key(|(_, c)| {
                let worker_dist = (c.workers as i64 - target.workers as i64).unsigned_abs();
                let mem_dist =
                    (c.memory.index() as i64 - target.memory.index() as i64).unsigned_abs();
                worker_dist * 2 + mem_dist
            })
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_space_has_six_configs() {
        let s = ParamSpace::full();
        assert_eq!(s.len(), 6);
        // All unique.
        for i in 0..s.len() {
            for j in (i + 1)..s.len() {
                assert_ne!(s.get(i), s.get(j));
            }
        }
    }

    #[test]
    fn index_of_roundtrip() {
        let s = ParamSpace::full();
        for i in 0..s.len() {
            assert_eq!(s.index_of(s.get(i)), Some(i));
        }
    }

    #[test]
    fn closest_allowed_prefers_same_config() {
        let s = ParamSpace::full();
        let target = s.get(3);
        let allowed = vec![true; s.len()];
        assert_eq!(s.closest_allowed(target, &allowed), Some(3));
    }

    #[test]
    fn closest_allowed_respects_mask() {
        let s = ParamSpace::full();
        let target = RunParams {
            workers: 4,
            memory: MemoryGrant::High,
        };
        let target_idx = s.index_of(target).unwrap();
        let mut allowed = vec![true; s.len()];
        allowed[target_idx] = false;
        let chosen = s.closest_allowed(target, &allowed).unwrap();
        assert_ne!(chosen, target_idx);
        // The substitute should still be a 4-worker or high-memory config.
        let c = s.get(chosen);
        assert!(c.workers == 4 || c.memory == MemoryGrant::High);
    }

    #[test]
    fn closest_allowed_none_when_everything_masked() {
        let s = ParamSpace::full();
        let allowed = vec![false; s.len()];
        assert_eq!(
            s.closest_allowed(RunParams::default_config(), &allowed),
            None
        );
    }
}
