//! Per-way tag-store metadata.

use serde::{Deserialize, Serialize};

/// The quantized MLP-based cost stored alongside each tag (paper Fig. 3b).
///
/// The paper quantizes `mlp-cost` into 3 bits (values 0–7); we store it in a
/// `u8` and let the quantizer in `mlpsim-core` guarantee the 0–7 range.
pub type CostQ = u8;

/// Maximum representable quantized cost: the paper's quantizer produces a
/// 3-bit value, so 7.
pub const COST_Q_MAX: CostQ = 7;

/// Metadata for one way of one cache set.
///
/// Replacement engines see these through a [`SetView`](crate::set::SetView)
/// and must base their victim choice only on this architectural state — the
/// tag, the recency (the LRU-stack position `R(i)`), the fill order, and
/// the stored quantized cost `cost_q(i)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct WayMeta {
    /// Whether this way holds a valid block.
    pub valid: bool,
    /// Tag of the resident block (meaningless when `!valid`).
    pub tag: u64,
    /// Recency stamp; higher = more recently used. Only the order of the
    /// valid ways' stamps matters: [`OwnedSet::from_ways`] turns it into the
    /// LRU-stack position `R(i)` (0 = LRU … valid_count-1 = MRU), and
    /// [`SetView::lru_stamp`] reads that position back.
    ///
    /// [`OwnedSet::from_ways`]: crate::set::OwnedSet::from_ways
    /// [`SetView::lru_stamp`]: crate::set::SetView::lru_stamp
    pub lru_stamp: u64,
    /// Monotonic stamp of when the block was filled (for FIFO and lifetime
    /// statistics).
    pub fill_stamp: u64,
    /// Quantized MLP-based cost of the miss that most recently brought this
    /// block into the cache (paper §5: "When a miss gets serviced, the
    /// mlp-cost of the miss is stored in the tag-store entry").
    pub cost_q: CostQ,
    /// Dirty bit: the block must be written back on eviction.
    pub dirty: bool,
}

impl WayMeta {
    /// An empty (invalid) way.
    pub fn invalid() -> Self {
        WayMeta::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_way_is_not_valid() {
        let w = WayMeta::invalid();
        assert!(!w.valid);
        assert!(!w.dirty);
        assert_eq!(w.cost_q, 0);
    }

    #[test]
    fn cost_q_max_is_three_bits() {
        assert_eq!(COST_Q_MAX, 0b111);
    }
}
