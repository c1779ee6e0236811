//! A first-fit free-list allocator for simulated memory.
//!
//! Workloads (the `ufotm-stamp` crate) allocate their data structures —
//! tree nodes, list cells, record rows — from a [`SimAlloc`] region so that
//! their addresses exercise the simulated cache hierarchy realistically.
//! The allocator's own metadata is "operating system" state: it lives on the
//! host and charges no cycles itself (callers charge allocation cost, and
//! the hybrid TM treats pool refills as system calls per the paper's §6
//! `malloc` discussion).

use std::collections::BTreeMap;
use std::fmt;

use crate::{Addr, LINE_WORDS};

/// Errors returned by [`SimAlloc`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// No free region large enough.
    OutOfMemory {
        /// The request that failed, in words.
        requested_words: u64,
    },
    /// `free` was called with an address that is not an allocation start.
    InvalidFree {
        /// The offending address.
        addr: Addr,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory { requested_words } => {
                write!(
                    f,
                    "out of simulated memory (requested {requested_words} words)"
                )
            }
            AllocError::InvalidFree { addr } => write!(f, "invalid free of {addr}"),
        }
    }
}

impl std::error::Error for AllocError {}

/// A first-fit, coalescing free-list allocator over a word range of
/// simulated memory.
///
/// ```
/// use ufotm_machine::{Addr, SimAlloc};
///
/// let mut a = SimAlloc::new(Addr::from_word_index(0), 64);
/// let x = a.alloc(8)?;
/// let y = a.alloc(8)?;
/// assert_ne!(x, y);
/// a.free(x)?;
/// a.free(y)?;
/// assert_eq!(a.free_words(), 64);
/// # Ok::<(), ufotm_machine::AllocError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SimAlloc {
    /// Free regions as (start_word, len_words), sorted by start, coalesced.
    free: Vec<(u64, u64)>,
    /// Live allocation sizes by start word (ordered: the allocator lives in
    /// deterministic, cycle-charged code, so no hasher-seeded state).
    sizes: BTreeMap<u64, u64>,
    base_word: u64,
    total_words: u64,
}

impl SimAlloc {
    /// Creates an allocator managing `words` words starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero.
    #[must_use]
    pub fn new(base: Addr, words: u64) -> Self {
        assert!(words > 0, "empty allocator region");
        let base_word = base.word_index();
        SimAlloc {
            free: vec![(base_word, words)],
            sizes: BTreeMap::new(),
            base_word,
            total_words: words,
        }
    }

    /// Allocates `words` words (first fit).
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] if no region fits.
    pub fn alloc(&mut self, words: u64) -> Result<Addr, AllocError> {
        self.alloc_aligned(words, 1)
    }

    /// Allocates `words` words aligned to a cache-line boundary — used for
    /// data whose false sharing should be controlled.
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] if no region fits.
    pub fn alloc_line_aligned(&mut self, words: u64) -> Result<Addr, AllocError> {
        self.alloc_aligned(words, LINE_WORDS)
    }

    /// Allocates `words` words at a multiple of `align_words`.
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] if no region fits.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero or `align_words` is not a power of two.
    pub fn alloc_aligned(&mut self, words: u64, align_words: u64) -> Result<Addr, AllocError> {
        assert!(words > 0, "zero-size allocation");
        assert!(
            align_words.is_power_of_two(),
            "alignment must be a power of two"
        );
        for i in 0..self.free.len() {
            let (start, len) = self.free[i];
            let aligned = start.next_multiple_of(align_words);
            let pad = aligned - start;
            if len < pad + words {
                continue;
            }
            // Carve [aligned, aligned+words) out of the region.
            self.free.remove(i);
            let mut insert_at = i;
            if pad > 0 {
                self.free.insert(insert_at, (start, pad));
                insert_at += 1;
            }
            let tail = len - pad - words;
            if tail > 0 {
                self.free.insert(insert_at, (aligned + words, tail));
            }
            self.sizes.insert(aligned, words);
            return Ok(Addr::from_word_index(aligned));
        }
        Err(AllocError::OutOfMemory {
            requested_words: words,
        })
    }

    /// Frees a previous allocation, coalescing with neighbours.
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidFree`] if `addr` is not a live allocation start.
    pub fn free(&mut self, addr: Addr) -> Result<(), AllocError> {
        let start = addr.word_index();
        let words = self
            .sizes
            .remove(&start)
            .ok_or(AllocError::InvalidFree { addr })?;
        let pos = self.free.partition_point(|&(s, _)| s < start);
        self.free.insert(pos, (start, words));
        // Coalesce with the successor, then the predecessor.
        if pos + 1 < self.free.len() && self.free[pos].0 + self.free[pos].1 == self.free[pos + 1].0
        {
            self.free[pos].1 += self.free[pos + 1].1;
            self.free.remove(pos + 1);
        }
        if pos > 0 && self.free[pos - 1].0 + self.free[pos - 1].1 == self.free[pos].0 {
            self.free[pos - 1].1 += self.free[pos].1;
            self.free.remove(pos);
        }
        Ok(())
    }

    /// The size in words of the live allocation at `addr`, if any.
    #[must_use]
    pub fn size_of(&self, addr: Addr) -> Option<u64> {
        self.sizes.get(&addr.word_index()).copied()
    }

    /// Total free words.
    #[must_use]
    pub fn free_words(&self) -> u64 {
        self.free.iter().map(|&(_, l)| l).sum()
    }

    /// Total words under management.
    #[must_use]
    pub fn total_words(&self) -> u64 {
        self.total_words
    }

    /// Number of live allocations.
    #[must_use]
    pub fn live_allocations(&self) -> usize {
        self.sizes.len()
    }

    /// The first word managed by this allocator.
    #[must_use]
    pub fn base(&self) -> Addr {
        Addr::from_word_index(self.base_word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_round_trip_restores_capacity() {
        let mut a = SimAlloc::new(Addr::from_word_index(16), 100);
        let xs: Vec<_> = (0..10).map(|_| a.alloc(10).unwrap()).collect();
        assert!(a.alloc(1).is_err());
        assert_eq!(a.live_allocations(), 10);
        for x in xs {
            a.free(x).unwrap();
        }
        assert_eq!(a.free_words(), 100);
        assert_eq!(a.free.len(), 1, "fully coalesced");
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut a = SimAlloc::new(Addr::from_word_index(0), 64);
        let x = a.alloc(10).unwrap();
        let y = a.alloc(10).unwrap();
        let (xs, ys) = (x.word_index(), y.word_index());
        assert!(xs + 10 <= ys || ys + 10 <= xs);
    }

    #[test]
    fn line_aligned_allocs() {
        let mut a = SimAlloc::new(Addr::from_word_index(3), 64);
        let x = a.alloc_line_aligned(8).unwrap();
        assert_eq!(x.word_index() % LINE_WORDS, 0);
        let y = a.alloc_line_aligned(8).unwrap();
        assert_eq!(y.word_index() % LINE_WORDS, 0);
        assert_ne!(x.line(), y.line());
    }

    #[test]
    fn double_free_rejected() {
        let mut a = SimAlloc::new(Addr::from_word_index(0), 16);
        let x = a.alloc(4).unwrap();
        a.free(x).unwrap();
        assert_eq!(a.free(x), Err(AllocError::InvalidFree { addr: x }));
    }

    #[test]
    fn coalescing_reunifies_middle_hole() {
        let mut a = SimAlloc::new(Addr::from_word_index(0), 30);
        let x = a.alloc(10).unwrap();
        let y = a.alloc(10).unwrap();
        let z = a.alloc(10).unwrap();
        a.free(x).unwrap();
        a.free(z).unwrap();
        a.free(y).unwrap();
        assert_eq!(a.free.len(), 1);
        // A full-size allocation now succeeds.
        assert!(a.alloc(30).is_ok());
    }

    #[test]
    fn size_of_reports_live_allocation() {
        let mut a = SimAlloc::new(Addr::from_word_index(0), 16);
        let x = a.alloc(5).unwrap();
        assert_eq!(a.size_of(x), Some(5));
        a.free(x).unwrap();
        assert_eq!(a.size_of(x), None);
    }

    #[test]
    fn reuse_after_free() {
        let mut a = SimAlloc::new(Addr::from_word_index(0), 8);
        let x = a.alloc(8).unwrap();
        a.free(x).unwrap();
        let y = a.alloc(8).unwrap();
        assert_eq!(x, y);
    }
}
