//! A set-associative last-level cache (paper Table 2: 64 B lines, 16-way,
//! 512 KB private slice per core).
//!
//! The default simulation pipeline consumes post-LLC traces (Ramulator's
//! standalone format), so this model is the optional front half: it filters
//! a pre-LLC access stream down to the misses and dirty writebacks that
//! actually reach DRAM. Used by the `ablation_llc` repro binary and
//! available for building full pre-LLC pipelines.

use serde::{Deserialize, Serialize};

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was absent; it has been filled. If the victim way was dirty,
    /// its address must be written back to memory.
    Miss {
        /// Address of the dirty line evicted by the fill, if any.
        writeback: Option<u64>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Logical timestamp of last use (for LRU).
    used: u64,
}

/// A set-associative write-back, write-allocate cache with LRU replacement.
///
/// # Examples
///
/// ```
/// use parbor_memsim::{Cache, CacheOutcome};
///
/// let mut llc = Cache::new(512 * 1024, 16, 64).unwrap();
/// assert!(matches!(llc.access(0x1000, false), CacheOutcome::Miss { .. }));
/// assert_eq!(llc.access(0x1000, false), CacheOutcome::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    lines: Vec<Line>,
    clock: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl Cache {
    /// Creates a cache of `size_bytes` with the given associativity and
    /// line size.
    ///
    /// # Errors
    ///
    /// Returns a message when the geometry is not a power-of-two split.
    pub fn new(size_bytes: usize, ways: usize, line_bytes: usize) -> Result<Self, String> {
        if !line_bytes.is_power_of_two() || line_bytes == 0 {
            return Err(format!("line size {line_bytes} must be a power of two"));
        }
        if ways == 0 || size_bytes == 0 || !size_bytes.is_multiple_of(ways * line_bytes) {
            return Err(format!(
                "cache size {size_bytes} must be a multiple of ways {ways} x line {line_bytes}"
            ));
        }
        let sets = size_bytes / (ways * line_bytes);
        if !sets.is_power_of_two() {
            return Err(format!("set count {sets} must be a power of two"));
        }
        Ok(Cache {
            sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            lines: vec![
                Line {
                    tag: 0,
                    valid: false,
                    dirty: false,
                    used: 0,
                };
                sets * ways
            ],
            clock: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        })
    }

    /// Accesses `addr`; write accesses mark the line dirty.
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
        self.clock += 1;
        let line_addr = addr >> self.line_shift;
        let set = (line_addr as usize) & (self.sets - 1);
        let tag = line_addr >> self.sets.trailing_zeros();
        let base = set * self.ways;

        // Hit path.
        for way in 0..self.ways {
            let line = &mut self.lines[base + way];
            if line.valid && line.tag == tag {
                line.used = self.clock;
                line.dirty |= is_write;
                self.hits += 1;
                return CacheOutcome::Hit;
            }
        }

        // Miss: fill into the LRU way.
        self.misses += 1;
        let lru = (0..self.ways)
            .min_by_key(|&w| {
                let l = &self.lines[base + w];
                (l.valid, l.used)
            })
            .expect("ways is nonzero");
        let victim = self.lines[base + lru];
        let writeback = (victim.valid && victim.dirty).then(|| {
            self.writebacks += 1;
            let victim_line = (victim.tag << self.sets.trailing_zeros()) | set as u64;
            victim_line << self.line_shift
        });
        self.lines[base + lru] = Line {
            tag,
            valid: true,
            dirty: is_write,
            used: self.clock,
        };
        CacheOutcome::Miss { writeback }
    }

    /// (hits, misses, writebacks) so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.writebacks)
    }

    /// Hit rate over all accesses.
    #[cfg(test)]
    fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        Cache::new(512, 2, 64).unwrap()
    }

    #[test]
    fn geometry_validation() {
        assert!(Cache::new(512 * 1024, 16, 64).is_ok());
        assert!(Cache::new(0, 16, 64).is_err());
        assert!(Cache::new(1000, 3, 64).is_err());
        assert!(Cache::new(512, 2, 60).is_err());
    }

    #[test]
    fn second_access_hits() {
        let mut c = small();
        assert!(matches!(c.access(0x40, false), CacheOutcome::Miss { .. }));
        assert_eq!(c.access(0x40, false), CacheOutcome::Hit);
        assert_eq!(c.stats(), (1, 1, 0));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Three lines in the same set (set 0): 0x0, 0x100, 0x200.
        c.access(0x0, false);
        c.access(0x100, false);
        c.access(0x0, false); // refresh line 0
        c.access(0x200, false); // evicts 0x100
        assert_eq!(c.access(0x0, false), CacheOutcome::Hit);
        assert!(matches!(c.access(0x100, false), CacheOutcome::Miss { .. }));
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = small();
        c.access(0x0, true); // dirty
        c.access(0x100, false);
        let out = c.access(0x200, false); // evicts dirty 0x0
        assert_eq!(
            out,
            CacheOutcome::Miss {
                writeback: Some(0x0)
            }
        );
        assert_eq!(c.stats().2, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small();
        c.access(0x0, false);
        c.access(0x100, false);
        let out = c.access(0x200, false);
        assert_eq!(out, CacheOutcome::Miss { writeback: None });
    }

    #[test]
    fn writeback_address_reconstructs_set_and_tag() {
        let mut c = small();
        let addr = 0x1040u64; // set 1, some tag
        c.access(addr, true);
        c.access(0x2040, false); // same set
        let out = c.access(0x3040, false); // evicts 0x1040
        assert_eq!(
            out,
            CacheOutcome::Miss {
                writeback: Some(0x1040)
            }
        );
    }

    #[test]
    fn small_footprint_fits_large_footprint_thrashes() {
        let mut c = Cache::new(64 * 1024, 16, 64).unwrap();
        // 32 KB working set in a 64 KB cache: high hit rate.
        for round in 0..4 {
            for line in 0..512u64 {
                let _ = c.access(line * 64, false);
                let _ = round;
            }
        }
        assert!(c.hit_rate() > 0.7, "hit rate {}", c.hit_rate());
        // 1 MB streaming set: low hit rate.
        let mut c2 = Cache::new(64 * 1024, 16, 64).unwrap();
        for line in 0..(4 * 16384u64) {
            let _ = c2.access(line * 64, false);
        }
        assert!(c2.hit_rate() < 0.05, "hit rate {}", c2.hit_rate());
    }
}
