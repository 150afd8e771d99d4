//! A single set-associative LRU cache.

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
}

/// A set-associative cache with true-LRU replacement.
///
/// # Example
///
/// ```
/// use cache_sim::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig { sets: 2, ways: 2, line_bytes: 64 });
/// assert!(!c.access(0));      // cold miss
/// assert!(c.access(0));       // hit
/// assert!(!c.access(128));    // same set, second way
/// assert!(!c.access(256));    // evicts line 0 (LRU)
/// assert!(!c.access(0));      // miss again
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `tags[set * ways + way]`; `u64::MAX` = empty.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics unless sets and line size are nonzero powers of two and
    /// `ways > 0`.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.ways > 0);
        Cache {
            config,
            tags: vec![u64::MAX; config.sets * config.ways],
            stamps: vec![0; config.sets * config.ways],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache's geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accesses `addr`; returns whether it hit. Misses install the line.
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let line = addr / self.config.line_bytes as u64;
        let set = (line % self.config.sets as u64) as usize;
        let tag = line / self.config.sets as u64;
        let base = set * self.config.ways;
        let ways = &mut self.tags[base..base + self.config.ways];
        if let Some(w) = ways.iter().position(|&t| t == tag) {
            self.stamps[base + w] = self.clock;
            self.hits += 1;
            return true;
        }
        // Miss: replace LRU (or an empty way).
        let victim = (0..self.config.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("ways > 0");
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.clock;
        self.misses += 1;
        false
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Empties the cache and counters.
    pub fn reset(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        self.clock = 0;
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig {
            sets: 4,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn hits_within_line() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(1), "same line");
        assert!(c.access(63), "same line");
        assert!(!c.access(64), "next line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 receives lines 0, 4, 8 (stride = sets * line).
        let stride = 4 * 64;
        c.access(0);
        c.access(stride);
        c.access(0); // refresh line 0
        c.access(2 * stride); // evicts `stride` (LRU), not 0
        assert!(c.access(0), "line 0 retained");
        assert!(!c.access(stride), "line `stride` evicted");
    }

    #[test]
    fn working_set_within_capacity_all_hits_after_warmup() {
        let mut c = Cache::new(CacheConfig {
            sets: 64,
            ways: 8,
            line_bytes: 64,
        });
        let lines = 64 * 8;
        for pass in 0..3 {
            for i in 0..lines as u64 {
                let hit = c.access(i * 64);
                if pass > 0 {
                    assert!(hit, "pass {pass}, line {i}");
                }
            }
        }
    }

    #[test]
    fn streaming_larger_than_capacity_always_misses() {
        let mut c = tiny(); // 512 B
        let lines = 100u64;
        for pass in 0..2 {
            for i in 0..lines {
                // Round-robin far apart: reuse distance exceeds capacity.
                assert!(!c.access(i * 64 * 8), "pass {pass} line {i}");
            }
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut c = tiny();
        c.access(0);
        c.reset();
        assert_eq!(c.hits() + c.misses(), 0);
        assert!(!c.access(0), "cold after reset");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            sets: 3,
            ways: 1,
            line_bytes: 64,
        });
    }
}
