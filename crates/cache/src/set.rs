//! Read-only views of a cache set, handed to replacement engines.

use crate::addr::{Geometry, LineAddr};
use crate::meta::{CostQ, WayMeta};

/// A read-only view of one cache set at victim-selection time.
///
/// Engines use this to inspect the candidate ways: their validity, their
/// LRU-stack positions `R(i)`, `cost_q`, and the line addresses they hold.
/// The view also knows the cache [`Geometry`] so tags can be turned back
/// into [`LineAddr`]s (needed by Belady's OPT, which indexes its
/// future-knowledge table by line address).
///
/// The view borrows one column slice per metadata field (struct-of-arrays,
/// mirroring [`TagStore`](crate::tagstore::TagStore)'s layout) rather than
/// a slice of per-way structs: victim selection scans one field across all
/// ways at a time (all tags, then all ranks, …), so packing each field
/// contiguously keeps those scans within a cache line or two instead of
/// striding over per-way records. To build a view from standalone
/// [`WayMeta`] records (tests, benchmarks), go through [`OwnedSet`].
#[derive(Clone, Copy, Debug)]
pub struct SetView<'a> {
    valid: &'a [bool],
    tag: &'a [u64],
    rank: &'a [u8],
    fill_stamp: &'a [u64],
    cost_q: &'a [CostQ],
    set_index: u32,
    geometry: Geometry,
}

impl<'a> SetView<'a> {
    /// Creates a view over one set's metadata columns. `rank` holds each
    /// way's LRU-stack position (see [`SetView::recency_ranks`]).
    ///
    /// # Panics
    ///
    /// Panics if the columns' lengths disagree with each other or with the
    /// geometry's associativity.
    pub fn new(
        valid: &'a [bool],
        tag: &'a [u64],
        rank: &'a [u8],
        fill_stamp: &'a [u64],
        cost_q: &'a [CostQ],
        set_index: u32,
        geometry: Geometry,
    ) -> Self {
        let assoc = usize::from(geometry.ways());
        assert!(
            valid.len() == assoc
                && tag.len() == assoc
                && rank.len() == assoc
                && fill_stamp.len() == assoc
                && cost_q.len() == assoc,
            "set view must cover exactly one set"
        );
        SetView {
            valid,
            tag,
            rank,
            fill_stamp,
            cost_q,
            set_index,
            geometry,
        }
    }

    /// Whether `way` holds a valid block.
    #[inline]
    pub fn valid(&self, way: usize) -> bool {
        self.valid[way]
    }

    /// Tag of the block in `way` (meaningless when `!valid(way)`).
    #[inline]
    pub fn tag(&self, way: usize) -> u64 {
        self.tag[way]
    }

    /// Recency of `way` as a stamp: its LRU-stack position widened to
    /// `u64`, so higher = more recently used and the order of the valid
    /// ways is that of [`SetView::recency_ranks`]. Round-trips through
    /// [`WayMeta::lru_stamp`] and [`OwnedSet::from_ways`].
    #[inline]
    pub fn lru_stamp(&self, way: usize) -> u64 {
        u64::from(self.rank[way])
    }

    /// Fill stamp of `way` (when its block was brought in).
    #[inline]
    pub fn fill_stamp(&self, way: usize) -> u64 {
        self.fill_stamp[way]
    }

    /// Quantized MLP-based cost stored with `way`'s block.
    #[inline]
    pub fn cost_q(&self, way: usize) -> CostQ {
        self.cost_q[way]
    }

    /// Number of ways (associativity).
    #[inline]
    pub fn assoc(&self) -> usize {
        self.valid.len()
    }

    /// Index of this set within the cache.
    #[inline]
    pub fn set_index(&self) -> u32 {
        self.set_index
    }

    /// The cache geometry this set belongs to.
    #[inline]
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// The line address resident in `way`, or `None` if the way is invalid.
    #[inline]
    pub fn line_of(&self, way: usize) -> Option<LineAddr> {
        self.valid[way].then(|| self.geometry.line_from_parts(self.tag[way], self.set_index))
    }

    /// Iterator over the indices of valid ways, in way order.
    pub fn valid_ways(&self) -> impl Iterator<Item = usize> + 'a {
        self.valid
            .iter()
            .enumerate()
            .filter(|(_, &v)| v)
            .map(|(i, _)| i)
    }

    /// The first invalid way, if any.
    pub fn first_invalid(&self) -> Option<usize> {
        self.valid.iter().position(|&v| !v)
    }

    /// Number of valid ways.
    pub fn valid_count(&self) -> usize {
        self.valid.iter().filter(|&&v| v).count()
    }

    /// LRU-stack positions of every way: `ranks[i]` is `R(i)` as defined in
    /// the paper (§5.1) — 0 for the least-recently-used valid way up to
    /// `valid_count() - 1` for the MRU way. Invalid ways get rank 0.
    ///
    /// The tag store keeps these positions as they are and updates them on
    /// every touch, fill and invalidation, so this borrows the column: no
    /// allocation and no ranking work at victim-selection time.
    #[inline]
    pub fn recency_ranks(&self) -> &'a [u8] {
        self.rank
    }

    /// The valid way at LRU-stack position 0 (the LRU way), or `None` if
    /// the set is empty.
    pub fn lru_way(&self) -> Option<usize> {
        self.valid
            .iter()
            .zip(self.rank)
            .position(|(&v, &r)| v && r == 0)
    }

    /// The valid way with the smallest fill stamp (the FIFO victim), or
    /// `None` if the set is empty.
    pub fn oldest_fill_way(&self) -> Option<usize> {
        let stamps = self.fill_stamp;
        self.valid_ways().min_by_key(move |&w| stamps[w])
    }
}

/// One set's metadata in owned column form — the bridge from standalone
/// [`WayMeta`] records to a [`SetView`].
///
/// The tag store keeps its metadata as whole-cache columns and hands out
/// borrowed views directly; code that builds a set from scratch (unit
/// tests, property tests, benchmarks) assembles `WayMeta` values and goes
/// through this adapter instead.
#[derive(Clone, Debug)]
pub struct OwnedSet {
    valid: Vec<bool>,
    tag: Vec<u64>,
    rank: Vec<u8>,
    fill_stamp: Vec<u64>,
    cost_q: Vec<CostQ>,
    set_index: u32,
    geometry: Geometry,
}

impl OwnedSet {
    /// Transposes per-way records into columns, turning the recency stamps
    /// into LRU-stack positions once: a valid way's rank is the number of
    /// valid ways with a smaller `lru_stamp`, and invalid ways get rank 0.
    ///
    /// # Panics
    ///
    /// Panics if `ways` holds more than [`MAX_WAYS`](crate::addr::MAX_WAYS)
    /// records, and (via [`SetView::new`] at view time) if `ways.len()`
    /// does not match the geometry's associativity.
    pub fn from_ways(ways: &[WayMeta], set_index: u32, geometry: Geometry) -> Self {
        let rank = ways
            .iter()
            .map(|w| {
                let below = ways
                    .iter()
                    .filter(|o| w.valid && o.valid && o.lru_stamp < w.lru_stamp)
                    .count();
                u8::try_from(below).expect("a set holds at most MAX_WAYS ways")
            })
            .collect();
        OwnedSet {
            valid: ways.iter().map(|w| w.valid).collect(),
            tag: ways.iter().map(|w| w.tag).collect(),
            rank,
            fill_stamp: ways.iter().map(|w| w.fill_stamp).collect(),
            cost_q: ways.iter().map(|w| w.cost_q).collect(),
            set_index,
            geometry,
        }
    }

    /// A view borrowing this set's columns.
    pub fn view(&self) -> SetView<'_> {
        SetView::new(
            &self.valid,
            &self.tag,
            &self.rank,
            &self.fill_stamp,
            &self.cost_q,
            self.set_index,
            self.geometry,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Geometry;

    fn meta(valid: bool, tag: u64, lru: u64, fill: u64) -> WayMeta {
        WayMeta {
            valid,
            tag,
            lru_stamp: lru,
            fill_stamp: fill,
            cost_q: 0,
            dirty: false,
        }
    }

    #[test]
    fn ranks_follow_stamps() {
        let g = Geometry::from_sets(4, 4, 64);
        let ways = [
            meta(true, 1, 50, 0),
            meta(true, 2, 10, 1),
            meta(true, 3, 99, 2),
            meta(true, 4, 30, 3),
        ];
        let set = OwnedSet::from_ways(&ways, 0, g);
        let v = set.view();
        assert_eq!(v.recency_ranks(), [2, 0, 3, 1]);
        assert_eq!(v.lru_stamp(2), 3, "stamps read back as ranks");
        assert_eq!(v.lru_way(), Some(1));
    }

    #[test]
    fn invalid_ways_are_skipped() {
        let g = Geometry::from_sets(4, 4, 64);
        let ways = [
            meta(true, 1, 50, 7),
            meta(false, 0, 0, 0),
            meta(true, 3, 99, 5),
            meta(false, 0, 0, 0),
        ];
        let set = OwnedSet::from_ways(&ways, 2, g);
        let v = set.view();
        assert_eq!(v.valid_count(), 2);
        assert_eq!(v.first_invalid(), Some(1));
        assert_eq!(v.recency_ranks(), [0, 0, 1, 0]);
        assert_eq!(v.lru_way(), Some(0), "rank 0 of an invalid way is not LRU");
        assert_eq!(v.oldest_fill_way(), Some(2));
        assert_eq!(v.valid_ways().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn line_of_reconstructs_address() {
        let g = Geometry::from_sets(8, 2, 64);
        let ways = [meta(true, 5, 0, 0), meta(false, 0, 0, 0)];
        let set = OwnedSet::from_ways(&ways, 3, g);
        let v = set.view();
        assert_eq!(v.line_of(0), Some(LineAddr(5 * 8 + 3)));
        assert_eq!(v.line_of(1), None);
    }

    #[test]
    #[should_panic(expected = "exactly one set")]
    fn wrong_width_panics() {
        let g = Geometry::from_sets(4, 4, 64);
        let ways = [meta(true, 1, 0, 0)];
        let _ = OwnedSet::from_ways(&ways, 0, g).view();
    }
}
