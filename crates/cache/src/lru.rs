//! The LRU replacement engine — the paper's baseline policy.

use crate::policy::{ReplacementEngine, VictimCtx};

/// Least-recently-used replacement: evicts the valid way at LRU-stack
/// position 0.
///
/// In the paper's notation (§5.1, Eq. 1): `Victim_LRU = argmin_i { R(i) }`.
/// Note that LRU is the special case of the LIN policy with λ = 0; the
/// `mlpsim-core` test suite asserts that equivalence.
///
/// # Example
///
/// ```
/// use mlpsim_cache::addr::{Geometry, LineAddr};
/// use mlpsim_cache::lru::LruEngine;
/// use mlpsim_cache::model::CacheModel;
///
/// let mut c = CacheModel::new(Geometry::from_sets(1, 2, 64), Box::new(LruEngine::new()));
/// c.access(LineAddr(0), false, 0);
/// c.access(LineAddr(1), false, 1);
/// c.access(LineAddr(0), false, 2); // 0 is now MRU
/// let res = c.access(LineAddr(2), false, 3); // evicts 1, the LRU block
/// assert_eq!(res.evicted.unwrap().line, LineAddr(1));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct LruEngine;

impl LruEngine {
    /// Creates an LRU engine.
    pub fn new() -> Self {
        LruEngine
    }
}

impl ReplacementEngine for LruEngine {
    fn victim(&mut self, ctx: &VictimCtx<'_>) -> usize {
        ctx.set
            .lru_way()
            .expect("victim() is only invoked on full sets")
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Geometry, LineAddr};
    use crate::model::CacheModel;

    #[test]
    fn evicts_least_recently_used() {
        let g = Geometry::from_sets(1, 4, 64);
        let mut c = CacheModel::new(g, Box::new(LruEngine::new()));
        for i in 0..4 {
            c.access(LineAddr(i), false, i);
        }
        // Touch 0 and 2 so 1 is LRU.
        c.access(LineAddr(0), false, 4);
        c.access(LineAddr(2), false, 5);
        let res = c.access(LineAddr(10), false, 6);
        assert!(!res.hit);
        assert_eq!(res.evicted.unwrap().line, LineAddr(1));
    }

    #[test]
    fn hit_sequence_has_no_evictions() {
        let g = Geometry::from_sets(2, 2, 64);
        let mut c = CacheModel::new(g, Box::new(LruEngine::new()));
        c.access(LineAddr(0), false, 0);
        c.access(LineAddr(1), false, 1);
        for seq in 2..10 {
            let line = LineAddr(seq % 2);
            let res = c.access(line, false, seq);
            assert!(res.hit);
            assert!(res.evicted.is_none());
        }
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().hits, 8);
    }

    #[test]
    fn lru_over_full_set_cycles() {
        // Cyclic access to assoc+1 distinct lines in one set under LRU
        // misses every time (the classic LRU pathology the paper exploits).
        let g = Geometry::from_sets(1, 4, 64);
        let mut c = CacheModel::new(g, Box::new(LruEngine::new()));
        let mut seq = 0;
        for _ in 0..5 {
            for i in 0..5u64 {
                let res = c.access(LineAddr(i), false, seq);
                seq += 1;
                assert!(
                    !res.hit,
                    "cyclic working set of assoc+1 never hits under LRU"
                );
            }
        }
    }
}
