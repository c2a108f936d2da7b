//! The tag array: per-set, per-way metadata plus recency bookkeeping.

use crate::addr::{Geometry, LineAddr};
use crate::meta::CostQ;
use crate::set::SetView;

/// A tag store: the full per-way metadata array of a cache, with helpers to
/// probe, touch (hit), and fill (replace) blocks.
///
/// The tag store is shared by real caches ([`CacheModel`]) and the
/// data-less auxiliary tag directories ([`Atd`]) that the paper's hybrid
/// replacement mechanisms use ("data lines are not required to estimate the
/// performance of replacement policies", §6).
///
/// Metadata is laid out struct-of-arrays: one contiguous column per field
/// (`valid`, `tag`, `rank`, …), each indexed by `set * assoc + way`. The
/// hot operations — `probe`'s tag-match scan, the rank update behind every
/// touch and fill, and the scans behind victim selection — each read one
/// or two fields across a set's ways, so a columnar layout turns them into
/// short contiguous loads instead of strided walks over per-way records.
///
/// Recency is kept as the LRU-stack position itself: `rank[i]` is `R(i)`
/// of the paper (§5.1), 0 for the LRU way up to `valid_count - 1` for the
/// MRU way, and 0 for invalid ways. The valid ranks of a set are always a
/// permutation of `0..valid_count`. A touch, fill or invalidation updates
/// them in one pass over the set, so victim selection reads `R(i)`
/// directly instead of ranking timestamps.
///
/// [`CacheModel`]: crate::model::CacheModel
/// [`Atd`]: crate::atd::Atd
///
/// # Example
///
/// ```
/// use mlpsim_cache::addr::{Geometry, LineAddr};
/// use mlpsim_cache::tagstore::TagStore;
///
/// let mut tags = TagStore::new(Geometry::from_sets(4, 2, 64));
/// tags.fill(LineAddr(5), 0, false, 3);
/// assert_eq!(tags.probe(LineAddr(5)), Some(0));
/// assert_eq!(tags.cost_q_of(LineAddr(5)), Some(3));
/// ```
#[derive(Clone, Debug)]
pub struct TagStore {
    geometry: Geometry,
    valid: Vec<bool>,
    tag: Vec<u64>,
    rank: Vec<u8>,
    fill_stamp: Vec<u64>,
    cost_q: Vec<CostQ>,
    dirty: Vec<bool>,
    /// Monotonic stamp source for fill ordering (FIFO).
    next_stamp: u64,
}

impl TagStore {
    /// Creates an empty (all-invalid) tag store for the given geometry.
    pub fn new(geometry: Geometry) -> Self {
        let n = geometry.lines() as usize;
        TagStore {
            geometry,
            valid: vec![false; n],
            tag: vec![0; n],
            rank: vec![0; n],
            fill_stamp: vec![0; n],
            cost_q: vec![0; n],
            dirty: vec![false; n],
            next_stamp: 1,
        }
    }

    /// The cache geometry.
    #[inline]
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Column range covering set `set_index`.
    #[inline]
    fn range(&self, set_index: u32) -> std::ops::Range<usize> {
        let w = usize::from(self.geometry.ways());
        let b = set_index as usize * w;
        b..b + w
    }

    /// Read-only view of one set, suitable for handing to a replacement
    /// engine.
    pub fn view(&self, set_index: u32) -> SetView<'_> {
        let r = self.range(set_index);
        SetView::new(
            &self.valid[r.clone()],
            &self.tag[r.clone()],
            &self.rank[r.clone()],
            &self.fill_stamp[r.clone()],
            &self.cost_q[r],
            set_index,
            self.geometry,
        )
    }

    /// Looks up a line; returns the way it resides in, if present.
    pub fn probe(&self, line: LineAddr) -> Option<usize> {
        let set = self.geometry.set_index(line);
        let tag = self.geometry.tag(line);
        let r = self.range(set);
        self.valid[r.clone()]
            .iter()
            .zip(&self.tag[r])
            .position(|(&v, &t)| v && t == tag)
    }

    /// Whether the line is resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.probe(line).is_some()
    }

    /// Marks a resident way as most-recently-used (hit handling).
    pub fn touch(&mut self, line: LineAddr, way: usize) {
        let set = self.geometry.set_index(line);
        debug_assert!(
            self.valid[self.range(set).start + way],
            "touching an invalid way"
        );
        self.promote(set, way);
        self.check_set_invariants(set);
    }

    /// Fills `line` into `way` of its set, returning the evicted block (if
    /// the way held a valid one). The filled block becomes MRU.
    pub fn fill(
        &mut self,
        line: LineAddr,
        way: usize,
        dirty: bool,
        cost_q: CostQ,
    ) -> Option<Evicted> {
        let stamp = self.take_stamp();
        let set = self.geometry.set_index(line);
        let tag = self.geometry.tag(line);
        let i = self.range(set).start + way;
        let evicted = self.valid[i].then(|| Evicted {
            line: self.geometry.line_from_parts(self.tag[i], set),
            dirty: self.dirty[i],
            cost_q: self.cost_q[i],
        });
        self.promote(set, way);
        self.valid[i] = true;
        self.tag[i] = tag;
        self.fill_stamp[i] = stamp;
        self.cost_q[i] = cost_q;
        self.dirty[i] = dirty;
        self.check_set_invariants(set);
        evicted
    }

    /// Invalidates a resident line, returning its eviction record.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<Evicted> {
        let way = self.probe(line)?;
        let set = self.geometry.set_index(line);
        let i = self.range(set).start + way;
        let evicted = Evicted {
            line,
            dirty: self.dirty[i],
            cost_q: self.cost_q[i],
        };
        self.close_gap(set, way, self.rank[i]);
        self.valid[i] = false;
        self.tag[i] = 0;
        self.rank[i] = 0;
        self.fill_stamp[i] = 0;
        self.cost_q[i] = 0;
        self.dirty[i] = false;
        self.check_set_invariants(set);
        Some(evicted)
    }

    /// Moves `way` to the MRU position of set `set_index`: the valid ways
    /// ranked above its old position slide down one, and `way` takes the
    /// rank just above every other valid way. An invalid `way` vacates no
    /// position.
    #[inline]
    fn promote(&mut self, set_index: u32, way: usize) {
        let i = self.range(set_index).start + way;
        // No valid rank exceeds u8::MAX, so nothing slides.
        let vacated = if self.valid[i] { self.rank[i] } else { u8::MAX };
        self.rank[i] = self.close_gap(set_index, way, vacated);
    }

    /// One pass over set `set_index`: every valid way other than `way`
    /// ranked above `vacated` slides down one position. Returns the number
    /// of valid ways other than `way`.
    #[inline]
    fn close_gap(&mut self, set_index: u32, way: usize, vacated: u8) -> u8 {
        let r = self.range(set_index);
        let mut others = 0u8;
        for (j, (&v, rank)) in self.valid[r.clone()]
            .iter()
            .zip(&mut self.rank[r])
            .enumerate()
        {
            let other = v && j != way;
            // At most `MAX_WAYS - 1` = 255 others.
            others += u8::from(other);
            *rank -= u8::from(other && *rank > vacated);
        }
        others
    }

    /// Updates the stored `cost_q` of a resident line (done when the miss
    /// that fetched it is finally serviced and its MLP-based cost is known).
    /// Returns `false` if the line is no longer resident.
    pub fn set_cost_q(&mut self, line: LineAddr, cost_q: CostQ) -> bool {
        match self.probe(line) {
            Some(way) => {
                let set = self.geometry.set_index(line);
                let i = self.range(set).start + way;
                self.cost_q[i] = cost_q;
                self.check_set_invariants(set);
                true
            }
            None => false,
        }
    }

    /// The stored `cost_q` of a resident line, if present.
    pub fn cost_q_of(&self, line: LineAddr) -> Option<CostQ> {
        self.probe(line).map(|way| {
            let set = self.geometry.set_index(line);
            self.cost_q_at(set, way)
        })
    }

    /// The stored `cost_q` of `way` in set `set_index` (the way a
    /// [`probe`](Self::probe) returned; meaningless for an invalid way).
    #[inline]
    pub fn cost_q_at(&self, set_index: u32, way: usize) -> CostQ {
        self.cost_q[self.range(set_index).start + way]
    }

    /// Sets the dirty bit of `way` in set `set_index` (the way a
    /// [`probe`](Self::probe) returned).
    #[inline]
    pub fn mark_dirty_at(&mut self, set_index: u32, way: usize) {
        let i = self.range(set_index).start + way;
        debug_assert!(self.valid[i], "dirtying an invalid way");
        self.dirty[i] = true;
    }

    /// Number of valid blocks currently resident.
    pub fn resident_count(&self) -> usize {
        self.valid.iter().filter(|&&v| v).count()
    }

    /// Iterator over all resident line addresses.
    pub fn resident_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        let g = self.geometry;
        let ways = usize::from(g.ways());
        self.valid
            .iter()
            .enumerate()
            .filter(|(_, &v)| v)
            .map(move |(i, _)| {
                let set = (i / ways) as u32;
                g.line_from_parts(self.tag[i], set)
            })
    }

    #[inline]
    fn take_stamp(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
    }

    /// Model check (under the `invariants` feature) after any mutation of
    /// one set: the ranks of the valid ways are a permutation of
    /// `0..valid_count` (the recency stack orders every resident block
    /// exactly once, the property Eq. 1's `R(i)` and LIN's rank term rely
    /// on) and invalid ways hold rank 0; fill stamps come from the stamps
    /// already issued; no two valid ways hold the same tag; and every
    /// `cost_q` fits the 3-bit field of Fig. 3b.
    #[cfg(feature = "invariants")]
    fn check_set_invariants(&self, set_index: u32) {
        let r = self.range(set_index);
        let valid = self.valid[r.clone()].iter().filter(|&&v| v).count();
        let mut seen = vec![false; r.len()];
        for i in r.clone() {
            if !self.valid[i] {
                crate::invariant!(self.rank[i] == 0, "invalid ways hold rank 0");
                continue;
            }
            let rank = usize::from(self.rank[i]);
            crate::invariant!(
                rank < valid && !seen[rank],
                "recency ranks of valid ways must be distinct positions in 0..valid_count"
            );
            seen[rank] = true;
            crate::invariant!(
                self.fill_stamp[i] < self.next_stamp,
                "fill stamps must come from the monotonic source"
            );
            crate::invariant!(
                self.cost_q[i] <= crate::meta::COST_Q_MAX,
                "cost_q is a 3-bit field"
            );
            for j in i + 1..r.end {
                crate::invariant!(
                    !self.valid[j] || self.tag[j] != self.tag[i],
                    "a tag may be resident in at most one way of a set"
                );
            }
        }
    }

    #[cfg(not(feature = "invariants"))]
    #[inline]
    fn check_set_invariants(&self, _set_index: u32) {}
}

/// Record of a block evicted (or invalidated) from a tag store.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Evicted {
    /// The evicted line's address.
    pub line: LineAddr,
    /// Whether the block was dirty (needs a writeback).
    pub dirty: bool,
    /// The quantized cost that was stored with it.
    pub cost_q: CostQ,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TagStore {
        TagStore::new(Geometry::from_sets(4, 2, 64))
    }

    #[test]
    fn probe_miss_then_fill_then_hit() {
        let mut t = store();
        let line = LineAddr(5);
        assert_eq!(t.probe(line), None);
        assert_eq!(t.fill(line, 0, false, 3), None);
        assert_eq!(t.probe(line), Some(0));
        assert_eq!(t.cost_q_of(line), Some(3));
        assert_eq!(t.resident_count(), 1);
    }

    #[test]
    fn fill_evicts_previous_occupant() {
        let mut t = store();
        let a = LineAddr(1); // set 1
        let b = LineAddr(9); // set 1 as well (9 % 4 == 1)
        t.fill(a, 0, true, 2);
        let ev = t.fill(b, 0, false, 0).expect("must evict a");
        assert_eq!(ev.line, a);
        assert!(ev.dirty);
        assert_eq!(ev.cost_q, 2);
        assert!(t.contains(b));
        assert!(!t.contains(a));
    }

    #[test]
    fn touch_promotes_to_mru() {
        let mut t = store();
        let a = LineAddr(0);
        let b = LineAddr(4); // same set 0
        t.fill(a, 0, false, 0);
        t.fill(b, 1, false, 0);
        // b is MRU now; touching a should flip the order.
        t.touch(a, 0);
        let view = t.view(0);
        assert_eq!(view.lru_way(), Some(1));
        assert_eq!(view.recency_ranks(), [1, 0]);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut t = store();
        let a = LineAddr(2);
        t.fill(a, 1, true, 5);
        let ev = t.invalidate(a).unwrap();
        assert_eq!(ev.line, a);
        assert!(ev.dirty);
        assert!(!t.contains(a));
        assert_eq!(t.invalidate(a), None);
    }

    #[test]
    fn set_cost_q_updates_resident_only() {
        let mut t = store();
        let a = LineAddr(3);
        assert!(!t.set_cost_q(a, 7));
        t.fill(a, 0, false, 0);
        assert!(t.set_cost_q(a, 7));
        assert_eq!(t.cost_q_of(a), Some(7));
    }

    #[test]
    fn resident_lines_round_trip() {
        let mut t = store();
        let lines = [LineAddr(0), LineAddr(1), LineAddr(6), LineAddr(11)];
        for (i, &l) in lines.iter().enumerate() {
            let set = t.geometry().set_index(l);
            let way = t.view(set).first_invalid().unwrap();
            t.fill(l, way, false, i as u8);
        }
        let mut resident: Vec<_> = t.resident_lines().collect();
        resident.sort();
        let mut expect = lines.to_vec();
        expect.sort();
        assert_eq!(resident, expect);
    }

    #[test]
    fn mark_dirty_sets_bit() {
        let mut t = store();
        let a = LineAddr(7);
        t.fill(a, 0, false, 0);
        let way = t.probe(a).unwrap();
        t.mark_dirty_at(t.geometry().set_index(a), way);
        let ev = t.invalidate(a).unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn view_exposes_columns_consistently() {
        let mut t = store();
        t.fill(LineAddr(0), 0, false, 2);
        t.fill(LineAddr(4), 1, true, 6);
        let v = t.view(0);
        assert!(v.valid(0) && v.valid(1));
        assert_eq!(v.cost_q(0), 2);
        assert_eq!(v.cost_q(1), 6);
        assert_eq!(v.line_of(0), Some(LineAddr(0)));
        assert_eq!(v.line_of(1), Some(LineAddr(4)));
        assert_eq!(v.recency_ranks(), [0, 1], "fill order sets recency");
        assert!(
            v.fill_stamp(0) < v.fill_stamp(1),
            "fill order sets fill stamps"
        );
    }
}
