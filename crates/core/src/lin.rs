//! The Linear (LIN) replacement policy (paper §5.1, Eq. 2).

use crate::convert::idx_u64;
use mlpsim_cache::policy::{ReplacementEngine, VictimCtx};

/// The LIN policy: victim = `argmin_i { R(i) + λ · cost_q(i) }`, where
/// `R(i)` is the LRU-stack position (0 = LRU) and `cost_q(i)` the stored
/// 3-bit quantized MLP-based cost.
///
/// "In case of a tie for the minimum value of `{R + λ·cost_q}`, the
/// candidate with the smallest recency value is selected. Note that LRU is
/// a special case of the LIN policy with λ = 0." The paper's default is
/// λ = 4 ([`LinEngine::paper_default`]).
///
/// # Example
///
/// The policy retains recent *and* costly blocks: a block at the LRU
/// position with `cost_q = 7` (score 0 + 4·7 = 28) outlives every block
/// with `cost_q = 0` in a 16-way cache (max recency score 15).
///
/// ```
/// use mlpsim_core::lin::LinEngine;
/// let lin = LinEngine::new(4);
/// assert_eq!(lin.lambda(), 4);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinEngine {
    lambda: u32,
}

impl LinEngine {
    /// Creates a LIN engine with the given λ.
    pub fn new(lambda: u32) -> Self {
        LinEngine { lambda }
    }

    /// The paper's default configuration, λ = 4.
    pub fn paper_default() -> Self {
        LinEngine::new(4)
    }

    /// The cost weight λ.
    pub fn lambda(&self) -> u32 {
        self.lambda
    }

    /// The LIN score of a way: `R + λ · cost_q`. Lower scores are evicted
    /// first.
    #[inline]
    pub fn score(&self, recency_rank: u8, cost_q: u8) -> u32 {
        u32::from(recency_rank) + self.lambda * u32::from(cost_q)
    }
}

impl ReplacementEngine for LinEngine {
    fn victim(&mut self, ctx: &VictimCtx<'_>) -> usize {
        let ranks = ctx.set.recency_ranks();
        // One branch-free minimum over a packed key: the score, then the
        // recency rank (ties on the score break to the smallest rank, as
        // the paper specifies), then the way index, which the low byte
        // returns. Rank and way each fit a byte: Geometry caps sets at
        // 256 ways.
        let best = ctx
            .set
            .valid_ways()
            .map(|way| {
                let rank = ranks[way];
                let score = u64::from(self.score(rank, ctx.set.cost_q(way)));
                (score << 16) | (u64::from(rank) << 8) | idx_u64(way)
            })
            .min()
            .expect("victim() is only invoked on full sets");
        usize::try_from(best & 0xff).expect("the way index is the key's low byte")
    }

    fn name(&self) -> &'static str {
        "lin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpsim_cache::addr::{Geometry, LineAddr};
    use mlpsim_cache::lru::LruEngine;
    use mlpsim_cache::model::CacheModel;

    /// Fills a 4-way set with lines of given cost_q values in order (way i
    /// gets cost[i]; later fills are more recent).
    fn filled_cache(costs: &[u8]) -> CacheModel {
        let g = Geometry::from_sets(1, costs.len() as u16, 64);
        let mut c = CacheModel::new(g, Box::new(LinEngine::paper_default()));
        for (i, &q) in costs.iter().enumerate() {
            c.access(LineAddr(i as u64), false, i as u64);
            c.record_serviced_cost(LineAddr(i as u64), q);
        }
        c
    }

    #[test]
    fn high_cost_lru_block_survives_low_cost_recents() {
        // Way 0 (LRU, rank 0) has cost 7 → score 28.
        // Ways 1..3 have cost 0 → scores 1, 2, 3. Victim must be way 1.
        let mut c = filled_cache(&[7, 0, 0, 0]);
        let res = c.access(LineAddr(100), false, 10);
        assert_eq!(res.evicted.unwrap().line, LineAddr(1));
    }

    #[test]
    fn lambda_zero_degenerates_to_lru() {
        let g = Geometry::from_sets(1, 4, 64);
        let mut lin0 = CacheModel::new(g, Box::new(LinEngine::new(0)));
        let mut lru = CacheModel::new(g, Box::new(LruEngine::new()));
        // A pseudo-random access pattern with costs attached.
        let mut x = 12345u64;
        for seq in 0..2000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = LineAddr(x % 9);
            let q = (x >> 32) as u8 % 8;
            let a = lin0.access(line, false, seq);
            let b = lru.access(line, false, seq);
            lin0.record_serviced_cost(line, q);
            assert_eq!(a.hit, b.hit, "LIN(0) must be exactly LRU at seq {seq}");
            assert_eq!(a.evicted.map(|e| e.line), b.evicted.map(|e| e.line));
        }
    }

    #[test]
    fn tie_breaks_to_smallest_recency() {
        // λ=1: way0 rank0 cost2 → 2; way1 rank1 cost1 → 2; way2 rank2 cost0 → 2.
        // All tie at 2 → evict way with smallest recency = way 0.
        let g = Geometry::from_sets(1, 3, 64);
        let mut c = CacheModel::new(g, Box::new(LinEngine::new(1)));
        for (i, q) in [2u8, 1, 0].iter().enumerate() {
            c.access(LineAddr(i as u64), false, i as u64);
            c.record_serviced_cost(LineAddr(i as u64), *q);
        }
        let res = c.access(LineAddr(50), false, 5);
        assert_eq!(res.evicted.unwrap().line, LineAddr(0));
    }

    #[test]
    fn cost_weight_scales_with_lambda() {
        // Fill order 0..3 → way i has recency rank i; way0 carries cost 1.
        // λ=1: scores 1,1,2,3 → tie way0/way1 → way0 (smaller rank).
        // λ=4: scores 4,1,2,3 → way1.
        let build = |lambda| {
            let g = Geometry::from_sets(1, 4, 64);
            let mut c = CacheModel::new(g, Box::new(LinEngine::new(lambda)));
            for i in 0..4u64 {
                c.access(LineAddr(i), false, i);
            }
            c.record_serviced_cost(LineAddr(0), 1);
            c
        };
        let mut c1 = build(1);
        assert_eq!(
            c1.access(LineAddr(9), false, 9).evicted.unwrap().line,
            LineAddr(0)
        );
        let mut c4 = build(4);
        assert_eq!(
            c4.access(LineAddr(9), false, 9).evicted.unwrap().line,
            LineAddr(1)
        );
    }

    #[test]
    fn figure1_loop_under_lin_protects_isolated_blocks() {
        // The paper's Figure 1 access pattern on a 4-entry fully-associative
        // cache: P1..P4 are parallel-miss blocks (cost_q low), S1..S3 are
        // isolated-miss blocks (cost_q 7). After warm-up, LIN must never
        // evict an S block.
        let g = Geometry::from_sets(1, 4, 64);
        let mut c = CacheModel::new(g, Box::new(LinEngine::paper_default()));
        let p = [LineAddr(1), LineAddr(2), LineAddr(3), LineAddr(4)];
        let s = [LineAddr(11), LineAddr(12), LineAddr(13)];
        let mut seq = 0u64;
        let mut access = |c: &mut CacheModel, line: LineAddr, q: u8| {
            let r = c.access(line, false, seq);
            if !r.hit {
                c.record_serviced_cost(line, q);
            }
            seq += 1;
            r
        };
        // Warm one iteration.
        for &l in &p {
            access(&mut c, l, 1);
        }
        for &l in p.iter().rev() {
            access(&mut c, l, 1);
        }
        for &l in &s {
            access(&mut c, l, 7);
        }
        // Steady-state iterations: S blocks always hit.
        for _ in 0..10 {
            for &l in &p {
                access(&mut c, l, 1);
            }
            for &l in p.iter().rev() {
                access(&mut c, l, 1);
            }
            for &l in &s {
                let r = access(&mut c, l, 7);
                assert!(r.hit, "LIN must keep isolated-miss blocks resident");
            }
        }
    }
}
