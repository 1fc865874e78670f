//! A reusable index-scratch pool.
//!
//! Coupling evaluation collects each row's failing coupling indices into a
//! `Vec<u32>`, and a `parbor-serve` worker answers every content check with
//! one. [`RoundArena`] pools those vectors: a consumer takes an empty one,
//! fills it, and hands it back, so a warm pool serves steady-state requests
//! without allocating. The simulator's chips share one arena per executor,
//! and each `parbor-serve` worker owns one.
//!
//! Row images are not pooled. A round plan builds each distinct image once
//! and shares it (`Arc<RowBits>`) between every unit and row it is written
//! to, so there is no per-write copy left to recycle.
//!
//! The arena is a cheaply cloneable handle (`Arc` inside) and a pure
//! performance device: a pooled vector comes back cleared, so results are
//! identical with or without one. Hit/miss/recycle counters measure reuse:
//! a hit is one avoided allocation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Cap on pooled buffers. Bounds arena memory while covering every
/// concurrent taker (a chip's row-evaluation threads, a worker's replies in
/// flight).
const MAX_POOLED: usize = 4096;

#[derive(Debug, Default)]
struct ArenaInner {
    /// Recycled index scratch (coupling-evaluation read sets).
    indices: Mutex<Vec<Vec<u32>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
}

/// A shared pool of index scratch buffers reused across rounds and
/// requests.
///
/// All methods take `&self`; the handle is `Clone + Send + Sync`, so one
/// arena can serve a multi-threaded backend and report its reuse to the
/// executor that attached it.
///
/// # Examples
///
/// ```
/// use parbor_hal::RoundArena;
///
/// let arena = RoundArena::new();
/// let mut scratch = arena.indices();     // pool empty: allocates (a miss)
/// scratch.extend([3, 5, 8]);
/// arena.recycle_indices(scratch);        // buffer goes back to the pool
/// let scratch = arena.indices();         // served from the pool (a hit)
/// assert!(scratch.is_empty());
/// assert_eq!((arena.hits(), arena.misses()), (1, 1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoundArena {
    inner: Arc<ArenaInner>,
}

impl RoundArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        RoundArena::default()
    }

    /// An empty `Vec<u32>` scratch buffer, pooled when one is available.
    pub fn indices(&self) -> Vec<u32> {
        let pooled = lock(&self.inner.indices).pop();
        match pooled {
            Some(mut v) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                v.clear();
                v
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        }
    }

    /// Returns an index scratch buffer to the pool.
    pub fn recycle_indices(&self, v: Vec<u32>) {
        if v.capacity() == 0 {
            return;
        }
        let mut pool = lock(&self.inner.indices);
        if pool.len() < MAX_POOLED {
            pool.push(v);
            drop(pool);
            self.inner.recycled.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Seeds the index pool with `count` empty buffers of `capacity`
    /// elements each, without touching the hit/miss/recycle counters.
    ///
    /// Long-running consumers (`parbor-serve` workers) prewarm their pool
    /// before taking traffic so the steady-state hit rate reflects reuse,
    /// not a cold-start transient. Capacity must be non-zero (capacity-0
    /// buffers are never pooled); requests beyond the internal pool cap
    /// are silently capped.
    pub fn prewarm_indices(&self, count: usize, capacity: usize) {
        assert!(capacity > 0, "prewarm capacity must be non-zero");
        let mut pool = lock(&self.inner.indices);
        while pool.len() < MAX_POOLED.min(count) {
            pool.push(Vec::with_capacity(capacity));
        }
    }

    /// Buffer requests served from the pool (allocations avoided).
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Buffer requests that allocated fresh (pool empty).
    pub fn misses(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Buffers returned to the pool.
    pub fn recycled(&self) -> u64 {
        self.inner.recycled.load(Ordering::Relaxed)
    }

    /// `(hits, misses, recycled)` in one call, for delta accounting.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits(), self.misses(), self.recycled())
    }
}

/// Locks a pool, recovering from poisoning: a panicked recycler leaves the
/// pool contents valid (worst case a buffer is lost), never corrupt.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_the_buffer_cycle() {
        let arena = RoundArena::new();
        let _misses = (arena.indices(), arena.indices());
        arena.recycle_indices(vec![0; 4]);
        arena.recycle_indices(vec![0; 4]);
        let _hit = arena.indices();
        assert_eq!(arena.counters(), (1, 2, 2));
    }

    #[test]
    fn index_scratch_comes_back_empty_with_capacity() {
        let arena = RoundArena::new();
        let mut v = arena.indices();
        v.extend([1u32, 2, 3]);
        let cap = v.capacity();
        arena.recycle_indices(v);
        let v = arena.indices();
        assert!(v.is_empty());
        assert!(v.capacity() >= cap);
    }

    #[test]
    fn clones_share_one_pool() {
        let arena = RoundArena::new();
        let backend_side = arena.clone();
        arena.recycle_indices(vec![7; 16]);
        let _scratch = backend_side.indices();
        assert_eq!(backend_side.hits(), 1);
        assert_eq!(arena.hits(), 1);
    }

    #[test]
    fn prewarm_seeds_the_index_pool_without_counting() {
        let arena = RoundArena::new();
        arena.prewarm_indices(3, 16);
        assert_eq!(arena.counters(), (0, 0, 0));
        let a = arena.indices();
        let b = arena.indices();
        let c = arena.indices();
        assert!(a.capacity() >= 16 && b.capacity() >= 16 && c.capacity() >= 16);
        assert_eq!((arena.hits(), arena.misses()), (3, 0));
        // Idempotent: prewarming a non-empty pool only tops it up.
        arena.recycle_indices(a);
        arena.prewarm_indices(2, 16);
        assert!(arena.indices().capacity() >= 16);
        assert!(arena.indices().capacity() >= 16);
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let arena = RoundArena::new();
        arena.recycle_indices(Vec::new());
        assert_eq!(arena.recycled(), 0);
    }
}
