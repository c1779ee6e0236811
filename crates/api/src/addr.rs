//! Address newtypes and geometry constants.
//!
//! Both substrates share one address space: the simulated machine's
//! physical memory and the native backend's word-indexed host heap. It is
//! word-addressed at an 8-byte granularity but all
//! protection and coherence state is kept per 64-byte cache line, and paging
//! operates on 4 KiB pages — the same granularities the paper assumes.

use std::fmt;

/// Bytes per machine word (all data accesses are one aligned word).
pub const WORD_BYTES: u64 = 8;
/// Bytes per cache line (fixed at 64, as in the paper's simulated system).
pub const LINE_BYTES: u64 = 64;
/// Words per cache line.
pub const LINE_WORDS: u64 = LINE_BYTES / WORD_BYTES;
/// Bytes per page.
pub const PAGE_BYTES: u64 = 4096;
/// Cache lines per page.
pub const PAGE_LINES: u64 = PAGE_BYTES / LINE_BYTES;

/// A byte address in simulated physical memory.
///
/// Data accesses must be word-aligned; [`Addr::word_index`] panics otherwise
/// (misalignment is a bug in the caller, not a simulated fault).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Creates an address from a word index (i.e. `index * 8` bytes).
    #[must_use]
    #[inline]
    pub const fn from_word_index(index: u64) -> Self {
        Addr(index * WORD_BYTES)
    }

    /// The word index of this (word-aligned) address.
    ///
    /// # Panics
    ///
    /// Panics if the address is not word-aligned.
    #[must_use]
    #[inline]
    pub fn word_index(self) -> u64 {
        assert!(
            self.0.is_multiple_of(WORD_BYTES),
            "misaligned word access at {self:?}"
        );
        self.0 / WORD_BYTES
    }

    /// The cache line containing this address.
    #[must_use]
    #[inline]
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_BYTES)
    }

    /// The page containing this address.
    #[must_use]
    #[inline]
    pub const fn page(self) -> PageAddr {
        PageAddr(self.0 / PAGE_BYTES)
    }

    /// The address `count` words after this one.
    #[must_use]
    #[inline]
    pub const fn add_words(self, count: u64) -> Self {
        Addr(self.0 + count * WORD_BYTES)
    }

    /// Raw byte value.
    #[must_use]
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> u64 {
        a.0
    }
}

/// A cache-line number (byte address divided by [`LINE_BYTES`]).
///
/// This is the granularity at which UFO bits, coherence state, and BTM
/// speculative read/write sets are tracked.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// The first (lowest) byte address in this line.
    #[must_use]
    #[inline]
    pub const fn base_addr(self) -> Addr {
        Addr(self.0 * LINE_BYTES)
    }

    /// The index of this line within the memory image (identical to the raw
    /// line number; provided for symmetry with [`Addr::word_index`]).
    #[must_use]
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }

    /// The page containing this line.
    #[must_use]
    #[inline]
    pub const fn page(self) -> PageAddr {
        PageAddr(self.0 / PAGE_LINES)
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Line({:#x})", self.0)
    }
}

/// A page number (byte address divided by [`PAGE_BYTES`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageAddr(pub u64);

impl PageAddr {
    /// The first cache line in this page.
    #[must_use]
    #[inline]
    pub const fn first_line(self) -> LineAddr {
        LineAddr(self.0 * PAGE_LINES)
    }
}

impl fmt::Debug for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Page({:#x})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_index_round_trips() {
        for i in [0u64, 1, 7, 8, 1023] {
            assert_eq!(Addr::from_word_index(i).word_index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_word_index_panics() {
        let _ = Addr(3).word_index();
    }

    #[test]
    fn line_and_page_mapping() {
        let a = Addr(64 * 5 + 8);
        assert_eq!(a.line(), LineAddr(5));
        assert_eq!(a.line().base_addr(), Addr(64 * 5));
        assert_eq!(Addr(4096 * 3).page(), PageAddr(3));
        assert_eq!(PageAddr(2).first_line(), LineAddr(2 * PAGE_LINES));
        assert_eq!(LineAddr(2 * PAGE_LINES).page(), PageAddr(2));
    }

    #[test]
    fn add_words_advances_bytes() {
        assert_eq!(Addr(0).add_words(9), Addr(72));
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Addr(255).to_string(), "0xff");
    }
}
