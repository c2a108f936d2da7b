//! Auxiliary tag directories (ATDs).
//!
//! The paper's hybrid mechanisms (CBS, SBAR — §6) estimate how an
//! *alternative* replacement policy would have performed by running a
//! tag-only shadow directory on the same access stream: "note that data
//! lines are not required to estimate the performance of replacement
//! policies". An [`Atd`] is exactly that: a [`TagStore`] plus an engine,
//! with no data array and no dirty-bit semantics.

use crate::addr::{Geometry, LineAddr};
use crate::meta::CostQ;
use crate::policy::{ReplacementEngine, VictimCtx};
use crate::tagstore::TagStore;

/// Outcome of an ATD access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AtdOutcome {
    /// Whether the shadow directory hit.
    pub hit: bool,
}

/// A data-less shadow tag directory running its own replacement policy.
///
/// For sampling-based schemes (SBAR), callers simply refrain from accessing
/// sets that are not leader sets; the hardware-overhead model in
/// `mlpsim-core` accounts for only the leader sets' storage.
///
/// # Example
///
/// ```
/// use mlpsim_cache::addr::{Geometry, LineAddr};
/// use mlpsim_cache::atd::Atd;
/// use mlpsim_cache::lru::LruEngine;
///
/// let mut atd = Atd::new(Geometry::from_sets(4, 2, 64), Box::new(LruEngine::new()));
/// assert!(!atd.access(LineAddr(0), 0, 0).hit);
/// assert!(atd.access(LineAddr(0), 1, 0).hit);
/// ```
pub struct Atd {
    tags: TagStore,
    engine: Box<dyn ReplacementEngine>,
    hits: u64,
    misses: u64,
}

impl Atd {
    /// Creates an ATD with the given geometry and policy.
    pub fn new(geometry: Geometry, engine: Box<dyn ReplacementEngine>) -> Self {
        Atd {
            tags: TagStore::new(geometry),
            engine,
            hits: 0,
            misses: 0,
        }
    }

    /// The shadow directory's policy name.
    pub fn policy_name(&self) -> &'static str {
        self.engine.name()
    }

    /// ATD hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// ATD misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Whether `line` is resident in the shadow directory.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.tags.contains(line)
    }

    /// Replays one access into the shadow directory.
    ///
    /// `fill_cost_q` is the quantized cost to store with the block if this
    /// access misses and fills (hybrid engines pass the MTD's stored cost
    /// per the paper's footnote 6, or patch it later via
    /// [`Atd::set_cost_q`] when the real service cost arrives).
    pub fn access(&mut self, line: LineAddr, seq: u64, fill_cost_q: CostQ) -> AtdOutcome {
        let set_index = self.tags.geometry().set_index(line);
        match self.tags.probe(line) {
            Some(way) => {
                let cost = self.tags.cost_q_at(set_index, way);
                self.engine.on_access(line, seq, true, Some(cost));
                self.tags.touch(line, way);
                self.hits += 1;
                AtdOutcome { hit: true }
            }
            None => {
                self.engine.on_access(line, seq, false, None);
                self.misses += 1;
                let way = match self.tags.view(set_index).first_invalid() {
                    Some(way) => way,
                    None => {
                        let ctx = VictimCtx {
                            set: self.tags.view(set_index),
                            incoming: line,
                            seq,
                        };
                        self.engine.victim(&ctx)
                    }
                };
                self.tags.fill(line, way, false, fill_cost_q);
                AtdOutcome { hit: false }
            }
        }
    }

    /// Updates the stored cost of a resident shadow block (used when the
    /// real MLP-based cost of a serviced miss becomes known).
    pub fn set_cost_q(&mut self, line: LineAddr, cost_q: CostQ) -> bool {
        self.engine.on_serviced(line, cost_q);
        self.tags.set_cost_q(line, cost_q)
    }
}

impl std::fmt::Debug for Atd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Atd")
            .field("geometry", &self.tags.geometry())
            .field("policy", &self.engine.name())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::LruEngine;

    #[test]
    fn shadow_directory_tracks_stream() {
        let g = Geometry::from_sets(2, 2, 64);
        let mut atd = Atd::new(g, Box::new(LruEngine::new()));
        assert!(!atd.access(LineAddr(0), 0, 0).hit);
        assert!(atd.access(LineAddr(0), 1, 0).hit);
        assert_eq!(atd.hits(), 1);
        assert_eq!(atd.misses(), 1);
    }

    #[test]
    fn atd_diverges_from_differently_policied_twin() {
        // FIFO vs LRU diverge on: fill 0,1 — touch 0 — fill 2.
        use crate::fifo::FifoEngine;
        let g = Geometry::from_sets(1, 2, 64);
        let mut lru = Atd::new(g, Box::new(LruEngine::new()));
        let mut fifo = Atd::new(g, Box::new(FifoEngine::new()));
        let stream = [0u64, 1, 0, 2, 0];
        for (i, &l) in stream.iter().enumerate() {
            lru.access(LineAddr(l), i as u64, 0);
            fifo.access(LineAddr(l), i as u64, 0);
        }
        // After fill 2: LRU evicted 1 (keeps 0); FIFO evicted 0.
        // Final access to 0 hits in LRU, misses in FIFO.
        assert_eq!(lru.misses(), 3);
        assert_eq!(fifo.misses(), 4);
    }

    #[test]
    fn cost_q_patching_updates_resident_block() {
        let g = Geometry::from_sets(2, 2, 64);
        let mut atd = Atd::new(g, Box::new(LruEngine::new()));
        atd.access(LineAddr(5), 0, 0);
        assert!(atd.set_cost_q(LineAddr(5), 4));
        assert!(!atd.set_cost_q(LineAddr(6), 4));
    }
}
