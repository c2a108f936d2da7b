#![allow(clippy::unwrap_used)] // test/bench code: panics are failures, not bugs

//! Property-based tests for the cache substrate.

use mlpsim_cache::addr::{Geometry, LineAddr};
use mlpsim_cache::belady::BeladyEngine;
use mlpsim_cache::fifo::FifoEngine;
use mlpsim_cache::lru::LruEngine;
use mlpsim_cache::meta::WayMeta;
use mlpsim_cache::model::CacheModel;
use mlpsim_cache::random::RandomEngine;
use mlpsim_cache::set::OwnedSet;
use mlpsim_cache::tagstore::TagStore;
use proptest::prelude::*;

fn arb_lines(universe: u64, len: usize) -> impl Strategy<Value = Vec<LineAddr>> {
    prop::collection::vec((0..universe).prop_map(LineAddr), 1..len)
}

/// Reference recency model: one monotonic stamp per way, bumped on every
/// touch and fill, with `R(i)` recomputed by ranking the valid ways'
/// stamps in O(ways²) — the definition the kept ranks must match.
struct StampOracle {
    valid: Vec<bool>,
    stamp: Vec<u64>,
    next: u64,
}

impl StampOracle {
    fn new(lines: usize) -> Self {
        StampOracle {
            valid: vec![false; lines],
            stamp: vec![0; lines],
            next: 1,
        }
    }

    fn touch(&mut self, i: usize) {
        self.valid[i] = true;
        self.stamp[i] = self.next;
        self.next += 1;
    }

    fn ranks(&self, ways: std::ops::Range<usize>) -> Vec<u8> {
        ways.clone()
            .map(|i| {
                let below = ways
                    .clone()
                    .filter(|&j| self.valid[i] && self.valid[j] && self.stamp[j] < self.stamp[i])
                    .count();
                u8::try_from(below).unwrap()
            })
            .collect()
    }
}

/// Replays `ops` (line, op, way hint) on a `ways`-way tag store and the
/// stamp oracle, checking after every operation that the set's ranks, its
/// LRU way and an `OwnedSet` built from the oracle's stamps all agree.
fn check_against_stamp_oracle(ways: u16, ops: &[(u64, u8, u8)]) {
    let geom = Geometry::from_sets(2, ways, 64);
    let assoc = usize::from(ways);
    let mut tags = TagStore::new(geom);
    let mut oracle = StampOracle::new(geom.lines() as usize);
    for &(raw, op, hint) in ops {
        let line = LineAddr(raw % (3 * geom.lines()));
        let set = geom.set_index(line);
        let base = set as usize * assoc;
        match (op, tags.probe(line)) {
            (0, Some(way)) => {
                tags.touch(line, way);
                oracle.touch(base + way);
            }
            (1, Some(way)) => {
                tags.invalidate(line).unwrap();
                oracle.valid[base + way] = false;
            }
            (_, found) => {
                let way = found
                    .or_else(|| tags.view(set).first_invalid())
                    .unwrap_or(usize::from(hint) % assoc);
                tags.fill(line, way, false, 0);
                oracle.touch(base + way);
            }
        }
        let view = tags.view(set);
        let want = oracle.ranks(base..base + assoc);
        prop_assert_eq!(
            view.recency_ranks(),
            &want[..],
            "{}-way set {} ranks",
            ways,
            set
        );
        let oldest = (base..base + assoc)
            .filter(|&i| oracle.valid[i])
            .min_by_key(|&i| oracle.stamp[i])
            .map(|i| i - base);
        prop_assert_eq!(view.lru_way(), oldest, "{}-way LRU way", ways);
        let metas: Vec<WayMeta> = (base..base + assoc)
            .map(|i| WayMeta {
                valid: oracle.valid[i],
                lru_stamp: oracle.stamp[i],
                ..WayMeta::invalid()
            })
            .collect();
        let owned = OwnedSet::from_ways(&metas, set, geom);
        prop_assert_eq!(owned.view().recency_ranks(), &want[..], "OwnedSet ranks");
    }
}

proptest! {
    /// Recency ranks always form a permutation of 0..valid_count.
    #[test]
    fn recency_ranks_are_a_permutation(lines in arb_lines(64, 200)) {
        let geom = Geometry::from_sets(4, 4, 64);
        let mut tags = TagStore::new(geom);
        for (i, &line) in lines.iter().enumerate() {
            match tags.probe(line) {
                Some(way) => tags.touch(line, way),
                None => {
                    let set = geom.set_index(line);
                    let way = tags.view(set).first_invalid().unwrap_or(i % 4);
                    tags.fill(line, way, false, 0);
                }
            }
        }
        for set in 0..geom.sets() {
            let view = tags.view(set);
            let mut ranks: Vec<u8> = view
                .valid_ways()
                .map(|w| view.recency_ranks()[w])
                .collect();
            ranks.sort_unstable();
            let expect: Vec<u8> = (0..ranks.len() as u8).collect();
            prop_assert_eq!(ranks, expect);
        }
    }

    /// A cache never reports more resident lines than its capacity, and
    /// hits + misses always equals accesses.
    #[test]
    fn occupancy_and_counts(lines in arb_lines(512, 400)) {
        let geom = Geometry::from_sets(8, 2, 64);
        let mut c = CacheModel::new(geom, Box::new(LruEngine::new()));
        for (i, &line) in lines.iter().enumerate() {
            c.access(line, i % 3 == 0, i as u64);
            prop_assert!(c.tags().resident_count() as u64 <= geom.lines());
        }
        prop_assert_eq!(c.stats().accesses(), lines.len() as u64);
    }

    /// Belady's OPT is miss-optimal against every other engine we ship.
    #[test]
    fn belady_dominates(lines in arb_lines(96, 300)) {
        let geom = Geometry::from_sets(4, 2, 64);
        let run = |engine: Box<dyn mlpsim_cache::policy::ReplacementEngine>| {
            let mut c = CacheModel::new(geom, engine);
            for (i, &line) in lines.iter().enumerate() {
                c.access(line, false, i as u64);
            }
            c.stats().misses
        };
        let opt = run(Box::new(BeladyEngine::from_accesses(lines.iter().copied())));
        prop_assert!(opt <= run(Box::new(LruEngine::new())));
        prop_assert!(opt <= run(Box::new(FifoEngine::new())));
        prop_assert!(opt <= run(Box::new(RandomEngine::new(1))));
    }

    /// An immediate re-access always hits (temporal locality is honored).
    #[test]
    fn re_access_hits(lines in arb_lines(1024, 200)) {
        let geom = Geometry::from_sets(16, 4, 64);
        let mut c = CacheModel::new(geom, Box::new(LruEngine::new()));
        for (i, &line) in lines.iter().enumerate() {
            c.access(line, false, 2 * i as u64);
            let r = c.access(line, false, 2 * i as u64 + 1);
            prop_assert!(r.hit);
        }
    }

    /// The LRU recency stack stays a permutation of the valid ways under
    /// arbitrary interleavings of fills, touches, and cost updates, and a
    /// touch always moves its way to MRU (the highest rank; rank 0 is the
    /// LRU block Eq. 1's `R(i)` wants to victimize first). Run with
    /// `--features invariants` this also routes every operation through
    /// the tag store's internal structural checks (unique tags, ranks a
    /// permutation, 3-bit cost_q).
    #[test]
    fn lru_stack_survives_arbitrary_ops(
        ops in prop::collection::vec((0u64..48, 0u8..3, 0u8..8), 1..250)
    ) {
        let geom = Geometry::from_sets(4, 4, 64);
        let mut tags = TagStore::new(geom);
        for &(raw, op, cost) in &ops {
            let line = LineAddr(raw);
            let set = geom.set_index(line);
            match (op, tags.probe(line)) {
                (0, Some(way)) => {
                    tags.touch(line, way);
                    let view = tags.view(set);
                    let mru = view.valid_ways().count() as u8 - 1;
                    prop_assert_eq!(view.recency_ranks()[way], mru,
                        "a touched way must become MRU");
                }
                (1, Some(_)) => {
                    tags.set_cost_q(line, cost);
                }
                (_, found) => {
                    let way = match found {
                        Some(w) => w,
                        None => tags.view(set).first_invalid().unwrap_or((raw % 4) as usize),
                    };
                    tags.fill(line, way, false, cost);
                    let view = tags.view(set);
                    let mru = view.valid_ways().count() as u8 - 1;
                    prop_assert_eq!(view.recency_ranks()[way], mru,
                        "a filled way must become MRU");
                }
            }
            let view = tags.view(set);
            let mut ranks: Vec<u8> = view
                .valid_ways()
                .map(|w| view.recency_ranks()[w])
                .collect();
            ranks.sort_unstable();
            let expect: Vec<u8> = (0..ranks.len() as u8).collect();
            prop_assert_eq!(ranks, expect, "ranks must be a permutation of 0..valid");
        }
    }

    /// The kept ranks equal the stamp ranking of a reference model under
    /// random interleavings of touch, fill and invalidate, on 1-, 4- and
    /// 16-way sets.
    #[test]
    fn ranks_match_the_stamp_oracle(
        ops in prop::collection::vec((0u64..1 << 16, 0u8..3, 0u8..16), 1..300)
    ) {
        for ways in [1, 4, 16] {
            check_against_stamp_oracle(ways, &ops);
        }
    }

    /// Tag-store invariant: a filled line is resident exactly until it is
    /// evicted or invalidated, and cost updates stick.
    #[test]
    fn fill_probe_agree(ops in prop::collection::vec((0u64..64, 0u8..8), 1..300)) {
        let geom = Geometry::from_sets(4, 2, 64);
        let mut tags = TagStore::new(geom);
        for &(raw, cost) in &ops {
            let line = LineAddr(raw);
            let set = geom.set_index(line);
            if let Some(way) = tags.probe(line) {
                tags.touch(line, way);
                tags.set_cost_q(line, cost);
                prop_assert_eq!(tags.cost_q_of(line), Some(cost));
            } else {
                let way = tags.view(set).first_invalid().unwrap_or(0);
                tags.fill(line, way, false, cost);
                prop_assert!(tags.contains(line));
            }
        }
    }
}
