//! Host-atomics TL2: the fast path of the native hybrid. "TL2-only" is
//! not a second driver: it is [`crate::NativeHybrid`] with failover off
//! (`NativeHybridPolicy::failover_after == None`).
//!
//! The same version-lock + global-clock protocol as the simulated
//! `ufotm-tl2` crate — striped version-locks keyed by cache
//! line, a global version clock, read-set validation, lock-ordered
//! write-back — but executed with `AtomicU64` operations on real host
//! memory, with **zero simulator involvement**.
//!
//! ## Protocol (mirrors `ufotm_tl2::Tl2Txn` phase for phase)
//!
//! * **begin** — sample the global clock into `rv`.
//! * **read** — pre-sample the stripe lock, load the word, post-sample;
//!   valid iff both samples are unlocked, equal, and `version <= rv`.
//! * **write** — buffer in a `BTreeMap` (lazy versioning).
//! * **commit** — acquire write-stripe locks in sorted stripe order
//!   (single-shot CAS, [`Tl2Abort::LockBusy`] on contention), bump the
//!   clock to get `wv`, validate the read set
//!   ([`Tl2Abort::CommitValidation`] on failure), publish the write set
//!   with `Release` stores, release each lock stamped `wv`.
//!
//! A stripe lock word is `version << 1` when free and
//! `(((epoch << 8) | owner_tid) << 1) | 1` when held, so readers
//! distinguish locked-by-me during commit validation exactly like the
//! simulated `LockWord { version, holder }` — and, new in the chaos
//! layer, so a waiter that observes a lock stamped by a **dead** owner
//! (the [`crate::chaos::Liveness`] registry, marked precisely by the
//! runner when a worker's body unwinds) can steal-and-invalidate the
//! stripe instead of spinning forever. The epoch guards tid reuse: a
//! revived worker advances its epoch, so its fresh locks can never be
//! confused with its previous incarnation's orphans. Steals are sound
//! because injected TL2 panics only fire *before* write-back begins
//! (see [`crate::chaos::FailSite::panic_safe`]); the orphaned stripe
//! still holds pre-transaction data, and restamping it with a fresh
//! clock version merely invalidates concurrent readers.
//!
//! The stripes are also the hybrid's stand-in for the paper's UFO bits
//! (see [`crate::hybrid`]): each carries a count of the USTM ownership
//! records on its lines (`owners`), and a commit that has locked a
//! stripe whose count is set rolls back as [`Tl2Abort::LockBusy`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use ufotm_api::{Addr, Stop, Tl2Abort, TxScope};

use crate::chaos::{FailSite, Liveness, NativeChaos, MAX_WORKERS};
use crate::guard::GuardStats;
use crate::heap::{CommitWindow, WordHeap};

/// Same stripe hash as the simulated TL2 (`Tl2Shared::lock_index`), so a
/// given address contends on the "same" stripe in both worlds.
const STRIPE_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Cache-line granularity of the stripes, matching the simulated
/// machine's 64-byte lines.
const LINE_BYTES: u64 = 64;

/// A lock word no reclaimer steals (epoch 0: [`Liveness::revive`] starts
/// at 1); a sealed USTM write-back holds its stripes with it.
pub(crate) fn pinned_word(tid: usize) -> u64 {
    (tid as u64) << 1 | 1
}

/// The lock word a plain store holds its stripe with (no pinned word).
const PLAIN_WORD: u64 = u64::MAX;

/// Burns roughly `cycles` iterations of a pause-hinted busy loop — the
/// native stand-in for the simulator's cycle-charged `work`.
pub fn spin_work(cycles: u64) {
    for _ in 0..cycles {
        std::hint::spin_loop();
    }
}

/// Shared native TL2 state: the word heap, the stripe lock table, the
/// global version clock, and a bump allocator. All atomics — shareable
/// by reference across OS threads. Also the *heap host* for the native
/// USTM and hybrid, which operate on the same words.
#[derive(Debug)]
pub struct NativeTl2 {
    heap: WordHeap,
    heap_words: u64,
    locks: Box<[AtomicU64]>,
    /// Per-stripe count of USTM ownership records (read or write).
    owners: Box<[AtomicU64]>,
    clock: AtomicU64,
    next_free: AtomicU64,
    mask: u64,
    chaos: NativeChaos,
    liveness: Liveness,
    orphan_steals: AtomicU64,
}

impl NativeTl2 {
    /// Creates a heap of `heap_words` words (all zero), a lock table of
    /// `lock_entries` stripes, and a bump allocator starting at word
    /// index `alloc_base_word` (everything below it is workload static
    /// data, addressed with the same [`Addr`] arithmetic as the
    /// simulator).
    ///
    /// When the mprotect guard is available the heap is dual-mapped so
    /// USTM commit windows can page-protect it (see
    /// [`crate::guard`]); otherwise plain boxed atomics.
    ///
    /// # Panics
    ///
    /// Panics if `lock_entries` is not a power of two or
    /// `alloc_base_word` exceeds the heap.
    #[must_use]
    pub fn new(heap_words: u64, lock_entries: u64, alloc_base_word: u64) -> Self {
        assert!(
            lock_entries.is_power_of_two(),
            "lock entries must be a power of two"
        );
        assert!(
            alloc_base_word <= heap_words,
            "alloc base past the end of the heap"
        );
        NativeTl2 {
            heap: WordHeap::new(heap_words),
            heap_words,
            locks: (0..lock_entries).map(|_| AtomicU64::new(0)).collect(),
            owners: (0..lock_entries).map(|_| AtomicU64::new(0)).collect(),
            clock: AtomicU64::new(0),
            next_free: AtomicU64::new(alloc_base_word),
            mask: lock_entries - 1,
            chaos: NativeChaos::new(),
            liveness: Liveness::new(),
            orphan_steals: AtomicU64::new(0),
        }
    }

    /// The failpoint engine shared by every layer stacked on this heap
    /// (USTM, guard, hybrid). Disarmed by default; arm it with a
    /// [`crate::ChaosPlan`] to inject faults.
    #[must_use]
    pub fn chaos(&self) -> &NativeChaos {
        &self.chaos
    }

    /// The worker-liveness registry for this world.
    #[must_use]
    pub fn liveness(&self) -> &Liveness {
        &self.liveness
    }

    /// Orphaned stripe locks stolen from dead owners so far.
    #[must_use]
    pub fn orphan_steals(&self) -> u64 {
        self.orphan_steals.load(Ordering::Relaxed)
    }

    /// Attempts to steal stripe `s`, whose lock word was observed as
    /// `observed` (held). Succeeds only when the stamped owner is marked
    /// dead **and** the stamped epoch matches the owner's current epoch
    /// (so a revived tid's live locks are never stolen, nor a
    /// [`pinned_word`]). The stripe is
    /// restamped with a freshly bumped clock version, invalidating any
    /// reader that sampled the orphaned word.
    fn try_reclaim(&self, s: usize, observed: u64) -> bool {
        if observed & 1 == 0 {
            return false;
        }
        let tid = ((observed >> 1) & 0xFF) as usize;
        let epoch = observed >> 9;
        if !self.liveness.is_dead(tid) || self.liveness.epoch(tid) != epoch {
            return false;
        }
        let wv = self.clock.fetch_add(1, Ordering::AcqRel) + 1;
        let stolen = self.locks[s]
            .compare_exchange(observed, wv << 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok();
        if stolen {
            self.orphan_steals.fetch_add(1, Ordering::Relaxed);
        }
        stolen
    }

    /// Walks the whole stripe table, stealing every lock orphaned by a
    /// dead owner. Runners call this after any worker death so stripes
    /// no live waiter happens to touch are still released. Returns the
    /// number of steals.
    pub fn sweep_orphans(&self) -> u64 {
        let mut stolen = 0;
        for s in 0..self.locks.len() {
            let w = self.locks[s].load(Ordering::Acquire);
            if w & 1 == 1 && self.try_reclaim(s, w) {
                stolen += 1;
            }
        }
        stolen
    }

    pub(crate) fn heap(&self) -> &WordHeap {
        &self.heap
    }

    pub(crate) fn word_index(&self, addr: Addr) -> usize {
        debug_assert_eq!(addr.0 % 8, 0, "unaligned word address {addr:?}");
        let w = (addr.0 / 8) as usize;
        assert!(
            (w as u64) < self.heap_words,
            "address {addr:?} past the native heap"
        );
        w
    }

    pub(crate) fn stripe_of(&self, addr: Addr) -> usize {
        self.line_stripe(addr.0 / LINE_BYTES)
    }

    pub(crate) fn line_stripe(&self, line: u64) -> usize {
        ((line.wrapping_mul(STRIPE_MULT) >> 33) & self.mask) as usize
    }

    /// Counts a USTM ownership record on `line`'s stripe.
    pub(crate) fn own_line(&self, line: u64) {
        self.owners[self.line_stripe(line)].fetch_add(1, Ordering::SeqCst);
    }

    /// Uncounts `n` USTM ownership records on `line`'s stripe.
    pub(crate) fn disown_line(&self, line: u64, n: u64) {
        self.owners[self.line_stripe(line)].fetch_sub(n, Ordering::SeqCst);
    }

    /// Waits until stripe `s` is free and returns its word. A lock
    /// orphaned by a dead TL2 owner is stolen; each round the stripe
    /// stays held by a [`pinned_word`], `blocked` is told its tid (a
    /// sealed write-back whose committer may have died).
    pub(crate) fn wait_stripe(&self, s: usize, mut blocked: impl FnMut(usize)) -> u64 {
        loop {
            let w = self.locks[s].load(Ordering::SeqCst);
            if w & 1 == 0 {
                return w;
            }
            if !self.try_reclaim(s, w) {
                if w >> 9 == 0 {
                    blocked(((w >> 1) & 0xFF) as usize);
                }
                std::thread::yield_now();
            }
        }
    }

    /// Takes stripe `s` as `word` once free; returns the word it displaced.
    pub(crate) fn hold_stripe(&self, s: usize, word: u64, mut blocked: impl FnMut(usize)) -> u64 {
        loop {
            let cur = self.wait_stripe(s, &mut blocked);
            if self.locks[s]
                .compare_exchange(cur, word, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                return cur;
            }
        }
    }

    /// Stripe `s`'s current lock word.
    pub(crate) fn stripe_word(&self, s: usize) -> u64 {
        self.locks[s].load(Ordering::SeqCst)
    }

    /// Releases held stripes stamped with a freshly bumped clock
    /// version, as a commit does.
    pub(crate) fn release_bumped(&self, stripes: &[usize]) {
        let wv = self.clock.fetch_add(1, Ordering::AcqRel) + 1;
        for &s in stripes {
            self.locks[s].store(wv << 1, Ordering::Release);
        }
    }

    /// Raw plain (non-transactional) load, for setup and verification
    /// phases while no transaction runs; only a guard window over the
    /// page defers it. [`crate::NativeHybrid::peek`] is the isolated one
    /// that transaction bodies' plain accesses use.
    #[must_use]
    pub fn peek(&self, addr: Addr) -> u64 {
        self.heap.load(self.word_index(addr))
    }

    /// Raw plain (non-transactional) store; see [`NativeTl2::peek`].
    pub fn poke(&self, addr: Addr, value: u64) {
        self.heap.store(self.word_index(addr), value);
    }

    /// Plain load as a seqlock read of the word's stripe: it waits while
    /// a commit holds the stripe and retries if the stripe word changed
    /// across the load, so it never sees a commit half-applied.
    pub(crate) fn load_isolated(&self, addr: Addr) -> u64 {
        let (w, s) = (self.word_index(addr), self.stripe_of(addr));
        loop {
            let pre = self.wait_stripe(s, |_| ());
            let value = self.heap.load(w);
            if self.locks[s].load(Ordering::Acquire) == pre {
                return value;
            }
        }
    }

    /// Plain store that holds the word's stripe while no USTM ownership
    /// is counted on it, then releases it with the displaced version (no
    /// clock bump: against fast transactions it stays weakly atomic).
    pub(crate) fn store_isolated(&self, addr: Addr, value: u64) {
        let (w, s) = (self.word_index(addr), self.stripe_of(addr));
        loop {
            let displaced = self.hold_stripe(s, PLAIN_WORD, |_| ());
            if self.owners[s].load(Ordering::SeqCst) == 0 {
                self.heap.store(w, value);
                self.locks[s].store(displaced, Ordering::Release);
                return;
            }
            self.locks[s].store(displaced, Ordering::Release);
            while self.owners[s].load(Ordering::SeqCst) != 0 {
                std::thread::yield_now();
            }
        }
    }

    /// Quiescence audit of the stripe table: no stripe held and no USTM
    /// ownership recorded.
    ///
    /// # Errors
    ///
    /// A description of the first held stripe or nonzero owner count.
    pub fn audit_stripes(&self) -> Result<(), String> {
        for (s, (lock, owners)) in self.locks.iter().zip(self.owners.iter()).enumerate() {
            let (w, n) = (lock.load(Ordering::SeqCst), owners.load(Ordering::SeqCst));
            if w & 1 == 1 || n != 0 {
                return Err(format!("stripe {s}: lock {w:#x}, owners {n}"));
            }
        }
        Ok(())
    }

    /// The global version clock's current value.
    #[must_use]
    pub fn clock_now(&self) -> u64 {
        self.clock.load(Ordering::Acquire)
    }

    /// Host-side (non-transactional) allocation from the same bump
    /// allocator transactions use — for setup phases that build linked
    /// structures before threads start.
    ///
    /// # Panics
    ///
    /// Panics on heap exhaustion.
    #[must_use]
    pub fn host_alloc(&self, words: u64) -> Addr {
        self.alloc_words(words)
    }

    /// Guard observability counters for this heap (zero/unguarded when
    /// the mprotect guard is unavailable or disabled).
    #[must_use]
    pub fn guard_stats(&self) -> GuardStats {
        self.heap.guard_stats()
    }

    /// Test scaffolding: forcibly holds `addr`'s stripe lock as
    /// `owner`, returning the displaced lock word for
    /// [`NativeTl2::debug_restore_stripe`]. Deterministically provokes
    /// [`Tl2Abort::LockBusy`] in single-threaded protocol tests — never
    /// use it with live worker threads.
    #[doc(hidden)]
    pub fn debug_lock_stripe(&self, addr: Addr, owner: usize) -> u64 {
        let s = self.stripe_of(addr);
        self.locks[s].swap(pinned_word(owner), Ordering::AcqRel)
    }

    /// Test scaffolding: undoes [`NativeTl2::debug_lock_stripe`].
    #[doc(hidden)]
    pub fn debug_restore_stripe(&self, addr: Addr, raw: u64) {
        let s = self.stripe_of(addr);
        self.locks[s].store(raw, Ordering::Release);
    }

    /// Test scaffolding: opens a strong-atomicity commit window over the
    /// pages holding `addrs`, exactly as a USTM commit does. The window
    /// closes when the returned handle drops. Guard tests use this to
    /// pin the window open while a racing thread pokes into it.
    #[doc(hidden)]
    pub fn debug_open_window(&self, addrs: &[Addr]) -> DebugWindow<'_> {
        DebugWindow {
            _win: self
                .heap
                .open_window(addrs.iter().map(|&a| self.word_index(a)), None),
        }
    }

    /// Test scaffolding: reads through the *shadow* view (never
    /// page-protected), so a guard test can observe heap state while a
    /// window is open without faulting itself.
    #[doc(hidden)]
    #[must_use]
    pub fn debug_shadow_peek(&self, addr: Addr) -> u64 {
        self.heap
            .shadow_word(self.word_index(addr))
            .load(Ordering::Acquire)
    }

    /// Test scaffolding: byte offset into the heap of the most recent
    /// classified guard fault, if any.
    #[doc(hidden)]
    #[must_use]
    pub fn debug_last_fault_offset(&self) -> Option<usize> {
        self.heap.last_fault_offset()
    }

    pub(crate) fn alloc_words(&self, words: u64) -> Addr {
        let w = self.next_free.fetch_add(words, Ordering::Relaxed);
        assert!(
            w + words <= self.heap_words,
            "native heap exhausted ({} words)",
            self.heap_words
        );
        Addr(w * 8)
    }
}

/// An open debug commit window (see [`NativeTl2::debug_open_window`]).
#[derive(Debug)]
pub struct DebugWindow<'a> {
    _win: CommitWindow<'a>,
}

/// Per-handle event counters, one [`Tl2Abort`] bucket each (the native
/// analogue of `Tl2Stats`, with aborts split by class).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NativeStats {
    /// Transactions begun.
    pub begins: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Aborts from read-time validation.
    pub read_validation_aborts: u64,
    /// Aborts from a busy write lock at commit.
    pub lock_busy_aborts: u64,
    /// Aborts from commit-time read-set validation.
    pub commit_validation_aborts: u64,
}

impl NativeStats {
    /// Total aborts across classes.
    #[must_use]
    pub fn total_aborts(&self) -> u64 {
        self.read_validation_aborts + self.lock_busy_aborts + self.commit_validation_aborts
    }

    /// Folds another handle's counters into this one. Exhaustive
    /// destructuring: adding a field without summing it here is a
    /// compile error.
    pub fn merge(&mut self, other: &NativeStats) {
        let NativeStats {
            begins,
            commits,
            read_validation_aborts,
            lock_busy_aborts,
            commit_validation_aborts,
        } = *other;
        self.begins += begins;
        self.commits += commits;
        self.read_validation_aborts += read_validation_aborts;
        self.lock_busy_aborts += lock_busy_aborts;
        self.commit_validation_aborts += commit_validation_aborts;
    }

    fn count_abort(&mut self, abort: Tl2Abort) {
        match abort {
            Tl2Abort::ReadValidation => self.read_validation_aborts += 1,
            Tl2Abort::LockBusy => self.lock_busy_aborts += 1,
            Tl2Abort::CommitValidation => self.commit_validation_aborts += 1,
        }
    }
}

/// A per-thread transaction handle over a shared [`NativeTl2`] — the
/// native mirror of `ufotm_tl2::Tl2Txn`, usable step by step
/// (begin/read/write/commit) by the cross-validation scripts or as the
/// fast path of a [`crate::HybridThread`], which owns the retry loop.
#[derive(Debug)]
pub struct NativeTxn<'a> {
    pub(crate) shared: &'a NativeTl2,
    pub(crate) tid: usize,
    rv: u64,
    reads: Vec<usize>,
    writes: BTreeMap<u64, u64>,
    active: bool,
    /// The stripe whose USTM owners made the last commit back off.
    owned_conflict: Option<usize>,
    /// Event counters for this handle.
    pub stats: NativeStats,
}

impl<'a> NativeTxn<'a> {
    /// Creates a handle for thread `tid`. Revives `tid` in the shared
    /// liveness registry, advancing its ownership epoch so any lock
    /// words orphaned by a previous incarnation of this tid become
    /// stealable.
    ///
    /// # Panics
    ///
    /// Panics if `tid` exceeds [`MAX_WORKERS`].
    #[must_use]
    pub fn new(shared: &'a NativeTl2, tid: usize) -> Self {
        assert!(tid < MAX_WORKERS, "tid {tid} exceeds the liveness registry");
        shared.liveness.revive(tid);
        NativeTxn {
            shared,
            tid,
            rv: 0,
            reads: Vec::new(),
            writes: BTreeMap::new(),
            active: false,
            owned_conflict: None,
            stats: NativeStats::default(),
        }
    }

    /// After a commit that backed off from a USTM owner, waits until the
    /// owners have released that stripe rather than retrying against them.
    pub(crate) fn wait_for_owners(&mut self) {
        if let Some(s) = self.owned_conflict.take() {
            while self.shared.owners[s].load(Ordering::SeqCst) != 0 {
                std::thread::yield_now();
            }
        }
    }

    fn my_lock_word(&self) -> u64 {
        let epoch = self.shared.liveness.epoch(self.tid);
        ((epoch << 8) | self.tid as u64) << 1 | 1
    }

    /// Whether a transaction is active on this handle.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Begins a transaction: samples the global version clock.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already active.
    pub fn begin(&mut self) {
        assert!(!self.active, "nested native transactions are not supported");
        self.rv = self.shared.clock.load(Ordering::Acquire);
        self.reads.clear();
        self.writes.clear();
        self.active = true;
        self.stats.begins += 1;
    }

    fn fail(&mut self, abort: Tl2Abort) {
        self.reads.clear();
        self.writes.clear();
        self.active = false;
        self.stats.count_abort(abort);
    }

    /// Abandons the current attempt (buffers dropped, abort counted).
    pub fn drop_attempt(&mut self) {
        debug_assert!(self.active);
        self.fail(Tl2Abort::ReadValidation);
    }

    /// Transactional read with pre/post lock sampling.
    ///
    /// # Errors
    ///
    /// [`Tl2Abort::ReadValidation`] — the attempt is already rolled
    /// back; retry the transaction.
    pub fn read(&mut self, addr: Addr) -> Result<u64, Tl2Abort> {
        debug_assert!(self.active);
        if self.shared.chaos.strike(self.tid, FailSite::Tl2Read) {
            self.fail(Tl2Abort::ReadValidation);
            return Err(Tl2Abort::ReadValidation);
        }
        if let Some(&v) = self.writes.get(&addr.0) {
            return Ok(v);
        }
        let w = self.shared.word_index(addr);
        let s = self.shared.stripe_of(addr);
        let pre = self.shared.locks[s].load(Ordering::Acquire);
        let value = self.shared.heap.word(w).load(Ordering::Acquire);
        let post = self.shared.locks[s].load(Ordering::Acquire);
        let unlocked = pre & 1 == 0 && post & 1 == 0;
        if unlocked && pre == post && post >> 1 <= self.rv {
            self.reads.push(s);
            Ok(value)
        } else {
            // A lock stamped by a dead owner would make this stripe
            // unreadable forever; steal it so the retry can proceed.
            if post & 1 == 1 {
                self.shared.try_reclaim(s, post);
            }
            self.fail(Tl2Abort::ReadValidation);
            Err(Tl2Abort::ReadValidation)
        }
    }

    /// Transactional (buffered) write.
    ///
    /// # Errors
    ///
    /// Infallible today; `Result` for symmetry with the simulated API.
    pub fn write(&mut self, addr: Addr, value: u64) -> Result<(), Tl2Abort> {
        debug_assert!(self.active);
        let _ = self.shared.word_index(addr); // bounds-check now, not at publish
        self.writes.insert(addr.0, value);
        Ok(())
    }

    /// Transactionally allocates `words` fresh words (bump allocator).
    /// An aborted attempt leaks its allocation — acceptable for
    /// benchmark-lifetime heaps, and verification only walks reachable
    /// cells.
    ///
    /// # Errors
    ///
    /// Infallible today; `Result` for symmetry.
    pub fn alloc(&mut self, words: u64) -> Result<Addr, Tl2Abort> {
        debug_assert!(self.active);
        Ok(self.shared.alloc_words(words))
    }

    /// Commits: lock write stripes → bump clock → validate read set →
    /// publish → release stamped with the new version.
    ///
    /// # Errors
    ///
    /// [`Tl2Abort::LockBusy`] (a write stripe held, or owned by USTM) or
    /// [`Tl2Abort::CommitValidation`]; the attempt is already rolled back
    /// (locks released, buffers dropped).
    pub fn commit(&mut self) -> Result<(), Tl2Abort> {
        debug_assert!(self.active);
        if self.writes.is_empty() {
            // Read-only fast path: every read already validated against rv.
            self.active = false;
            self.stats.commits += 1;
            return Ok(());
        }
        if self.shared.chaos.strike(self.tid, FailSite::Tl2Commit) {
            self.fail(Tl2Abort::CommitValidation);
            return Err(Tl2Abort::CommitValidation);
        }
        // Phase 1: acquire write locks in canonical (sorted) stripe order.
        let mut stripes: Vec<usize> = self
            .writes
            .keys()
            .map(|&a| self.shared.stripe_of(Addr(a)))
            .collect();
        stripes.sort_unstable();
        stripes.dedup();
        let mine = self.my_lock_word();
        let mut held: Vec<(usize, u64)> = Vec::with_capacity(stripes.len());
        for &s in &stripes {
            let mut cur = self.shared.locks[s].load(Ordering::Relaxed);
            if cur & 1 == 1 && self.shared.try_reclaim(s, cur) {
                cur = self.shared.locks[s].load(Ordering::Relaxed);
            }
            let acquired = cur & 1 == 0
                && self.shared.locks[s]
                    .compare_exchange(cur, mine, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
            if acquired {
                held.push((s, cur));
            }
            // A USTM owner of a written stripe wins (`SeqCst` after the
            // lock CAS: USTM raises the count, then waits out our lock).
            if !acquired || self.shared.owners[s].load(Ordering::SeqCst) != 0 {
                self.owned_conflict = acquired.then_some(s);
                self.rollback_locks(&held);
                self.fail(Tl2Abort::LockBusy);
                return Err(Tl2Abort::LockBusy);
            }
        }
        // Locks held, nothing published yet: a panic injected here
        // orphans the stripes, and a steal is still sound.
        if self.shared.chaos.strike(self.tid, FailSite::Tl2LockHeld) {
            self.rollback_locks(&held);
            self.fail(Tl2Abort::LockBusy);
            return Err(Tl2Abort::LockBusy);
        }
        // Phase 2: increment the global clock.
        let wv = self.shared.clock.fetch_add(1, Ordering::AcqRel) + 1;
        // Phase 3: validate the read set (like the simulated TL2, no
        // rv+1 == wv shortcut — identical classification on both sides).
        // A stripe this commit itself write-locked must be validated
        // against the version it *displaced* in phase 1: acquisition
        // overwrote the packed version word, but the simulated TL2's
        // struct lock keeps `version` visible while held, and a
        // concurrent commit may have bumped it past rv mid-body.
        for &s in &self.reads {
            let l = self.shared.locks[s].load(Ordering::Acquire);
            let bad = if l == mine {
                let displaced = held
                    .iter()
                    .find(|&&(hs, _)| hs == s)
                    .expect("self-held stripe missing from held set")
                    .1;
                displaced >> 1 > self.rv
            } else if l & 1 == 1 {
                // Still abort this attempt, but free a dead owner's
                // stripe so the retry does not hit the same wall.
                self.shared.try_reclaim(s, l);
                true
            } else {
                l >> 1 > self.rv
            };
            if bad {
                self.rollback_locks(&held);
                self.fail(Tl2Abort::CommitValidation);
                return Err(Tl2Abort::CommitValidation);
            }
        }
        // Phase 4: publish the write set. Delay-only failpoint: a panic
        // mid-publication would tear the heap with no redo record to
        // recover from ([`FailSite::Tl2WriteBack`] is not panic-safe).
        let _ = self.shared.chaos.strike(self.tid, FailSite::Tl2WriteBack);
        for (&a, &v) in &self.writes {
            self.shared
                .heap
                .word((a / 8) as usize)
                .store(v, Ordering::Release);
        }
        // Phase 5: release locks stamped with the new version.
        for &(s, _) in &held {
            self.shared.locks[s].store(wv << 1, Ordering::Release);
        }
        self.writes.clear();
        self.reads.clear();
        self.active = false;
        self.stats.commits += 1;
        Ok(())
    }

    fn rollback_locks(&self, held: &[(usize, u64)]) {
        for &(s, old) in held {
            self.shared.locks[s].store(old, Ordering::Release);
        }
    }
}

impl TxScope for NativeTxn<'_> {
    fn read(&mut self, addr: Addr) -> Result<u64, Stop> {
        NativeTxn::read(self, addr).map_err(|_| Stop)
    }

    fn write(&mut self, addr: Addr, value: u64) -> Result<(), Stop> {
        NativeTxn::write(self, addr, value).map_err(|_| Stop)
    }

    fn alloc(&mut self, words: u64) -> Result<Addr, Stop> {
        NativeTxn::alloc(self, words).map_err(|_| Stop)
    }

    fn work(&mut self, cycles: u64) -> Result<(), Stop> {
        spin_work(cycles);
        Ok(())
    }
}
