//! The coherence directory.
//!
//! One entry per cache line of the memory image records which CPUs hold the
//! line (a sharer bitmask), whether one of them holds it exclusively, and the
//! line's UFO bits — the UFO bits are directory/memory state precisely so
//! that they "travel with the data" and stay coherent, as the paper's
//! Appendix A prescribes. Protocol *actions* (who gets invalidated, which
//! speculative transactions die) are orchestrated by
//! [`Machine`](crate::Machine); this module only maintains the state and its
//! invariants.

use crate::bits::{cpu_bit, BitIter};
use crate::ufo::UfoBits;
use crate::LineAddr;

/// Directory state for one line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct LineState {
    /// Bitmask of CPUs with the line in their L1.
    pub sharers: u64,
    /// CPU holding the line exclusively, if any.
    pub owner: Option<u8>,
    /// The line's UFO protection bits.
    pub ufo: UfoBits,
}

/// The full directory: dense per-line state.
#[derive(Clone, Debug)]
pub(crate) struct Directory {
    lines: Vec<LineState>,
}

impl Directory {
    pub fn new(lines: u64) -> Self {
        Directory {
            lines: vec![
                LineState::default();
                usize::try_from(lines).expect("line count fits usize")
            ],
        }
    }

    fn idx(&self, line: LineAddr) -> usize {
        let i = line.index();
        assert!(
            (i as usize) < self.lines.len(),
            "line {line:?} outside directory ({} lines)",
            self.lines.len()
        );
        i as usize
    }

    pub fn state(&self, line: LineAddr) -> LineState {
        self.lines[self.idx(line)]
    }

    /// CPUs (other than `except`) currently holding the line. Walks only
    /// the set bits of the sharer mask, so the cost tracks the actual
    /// holder count rather than a fixed 0..64 scan.
    #[allow(dead_code)] // the hot paths copy the mask via holders_mask_except
    pub fn holders_except(&self, line: LineAddr, except: usize) -> BitIter {
        BitIter::new(self.holders_mask_except(line, except))
    }

    /// The sharer mask with `except` removed. The mask is `Copy`, so
    /// callers that need to mutate the machine per holder can grab it
    /// first and iterate `BitIter::new(mask)` without borrowing `self`.
    pub fn holders_mask_except(&self, line: LineAddr, except: usize) -> u64 {
        self.state(line).sharers & !cpu_bit(except)
    }

    /// Whether `cpu` holds the line (in any state).
    pub fn is_sharer(&self, line: LineAddr, cpu: usize) -> bool {
        self.state(line).sharers & cpu_bit(cpu) != 0
    }

    /// Number of CPUs holding the line (the chaos engine scales injected
    /// nack delays by how many caches would have had to respond).
    pub fn sharer_count(&self, line: LineAddr) -> u32 {
        self.state(line).sharers.count_ones()
    }

    /// Records `cpu` as a (non-exclusive) sharer; demotes any owner flag if
    /// the owner keeps a shared copy.
    pub fn add_sharer(&mut self, line: LineAddr, cpu: usize) {
        let i = self.idx(line);
        self.lines[i].sharers |= cpu_bit(cpu);
        self.lines[i].owner = None;
        self.check(line);
    }

    /// Records `cpu` as the sole, exclusive holder.
    pub fn set_exclusive(&mut self, line: LineAddr, cpu: usize) {
        let i = self.idx(line);
        self.lines[i].sharers = cpu_bit(cpu);
        self.lines[i].owner = Some(cpu as u8);
        self.check(line);
    }

    /// Removes `cpu` from the sharer set (eviction or invalidation).
    pub fn remove_sharer(&mut self, line: LineAddr, cpu: usize) {
        let i = self.idx(line);
        self.lines[i].sharers &= !cpu_bit(cpu);
        if self.lines[i].owner == Some(cpu as u8) {
            self.lines[i].owner = None;
        }
        self.check(line);
    }

    pub fn ufo(&self, line: LineAddr) -> UfoBits {
        self.state(line).ufo
    }

    pub fn set_ufo(&mut self, line: LineAddr, bits: UfoBits) {
        let i = self.idx(line);
        self.lines[i].ufo = bits;
    }

    pub fn or_ufo(&mut self, line: LineAddr, bits: UfoBits) {
        let i = self.idx(line);
        self.lines[i].ufo |= bits;
    }

    /// Debug invariant: an exclusive owner is the only sharer.
    fn check(&self, line: LineAddr) {
        let s = self.state(line);
        if let Some(o) = s.owner {
            debug_assert_eq!(
                s.sharers,
                cpu_bit(o as usize),
                "owner {o} of {line:?} must be sole sharer"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharer_bookkeeping() {
        let mut d = Directory::new(8);
        let l = LineAddr(2);
        d.add_sharer(l, 0);
        d.add_sharer(l, 3);
        assert!(d.is_sharer(l, 0) && d.is_sharer(l, 3) && !d.is_sharer(l, 1));
        assert_eq!(d.holders_except(l, 0).collect::<Vec<_>>(), vec![3]);
        d.remove_sharer(l, 0);
        assert!(!d.is_sharer(l, 0));
    }

    #[test]
    fn exclusive_ownership_replaces_sharers() {
        let mut d = Directory::new(8);
        let l = LineAddr(1);
        d.add_sharer(l, 0);
        d.add_sharer(l, 1);
        d.set_exclusive(l, 2);
        assert_eq!(d.state(l).owner, Some(2));
        assert!(d.is_sharer(l, 2) && !d.is_sharer(l, 0));
        d.remove_sharer(l, 2);
        assert_eq!(d.state(l).owner, None);
    }

    #[test]
    fn ufo_bits_are_per_line() {
        let mut d = Directory::new(4);
        d.set_ufo(LineAddr(0), UfoBits::FAULT_ON_WRITE);
        d.or_ufo(LineAddr(0), UfoBits::FAULT_ON_READ);
        assert_eq!(d.ufo(LineAddr(0)), UfoBits::FAULT_ON_BOTH);
        assert_eq!(d.ufo(LineAddr(1)), UfoBits::NONE);
        d.set_ufo(LineAddr(0), UfoBits::NONE);
        assert!(d.ufo(LineAddr(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "outside directory")]
    fn out_of_range_line_panics() {
        Directory::new(2).ufo(LineAddr(2));
    }
}
