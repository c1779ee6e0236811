//! Host-atomics TL2: the fast path of the native hybrid (and a backend
//! in its own right).
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

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use ufotm_api::{
    AbortClass, Addr, Decision, RetryCore, RetryPolicy, Stop, Tally, Tl2Abort, TmBackend, TxScope,
};

use crate::chaos::{self, FailSite, Liveness, NativeChaos, MAX_WORKERS};
use crate::guard::GuardStats;
use crate::heap::{CommitWindow, WordHeap};

/// Same stripe hash as the simulated TL2 (`Tl2Shared::lock_index`), so a
/// given address contends on the "same" stripe in both worlds.
const STRIPE_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Cache-line granularity of the stripes, matching the simulated
/// machine's 64-byte lines.
const LINE_BYTES: u64 = 64;

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
    /// (so a revived tid's live locks are never stolen). The stripe is
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

    fn stripe_of(&self, addr: Addr) -> usize {
        let line = addr.0 / LINE_BYTES;
        ((line.wrapping_mul(STRIPE_MULT) >> 33) & self.mask) as usize
    }

    /// Plain (non-transactional) load, for setup and verification phases.
    ///
    /// Goes through the *public* heap view: if a USTM commit window is
    /// open over the page, this access faults into the guard handler and
    /// completes after the window — the native rendition of the paper's
    /// strong atomicity for plain reads.
    #[must_use]
    pub fn peek(&self, addr: Addr) -> u64 {
        self.heap.load(self.word_index(addr))
    }

    /// Plain (non-transactional) store. Racing a live *fast-path*
    /// transaction with `poke` has the usual weakly-atomic TL2
    /// semantics; against the USTM slow path it is guarded (faults
    /// during commit windows and lands after, never torn into the redo
    /// write-back).
    pub fn poke(&self, addr: Addr, value: u64) {
        self.heap.store(self.word_index(addr), value);
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
        self.locks[s].swap((owner as u64) << 1 | 1, Ordering::AcqRel)
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
/// (begin/read/write/commit) by the cross-validation scripts or through
/// the retry loop in [`NativeThread`].
#[derive(Debug)]
pub struct NativeTxn<'a> {
    pub(crate) shared: &'a NativeTl2,
    pub(crate) tid: usize,
    rv: u64,
    reads: Vec<usize>,
    writes: BTreeMap<u64, u64>,
    active: bool,
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
            stats: NativeStats::default(),
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
        self.shared.liveness.beat(self.tid);
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
    /// [`Tl2Abort::LockBusy`] or [`Tl2Abort::CommitValidation`]; the
    /// attempt is already rolled back (locks released, buffers dropped).
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
                    .compare_exchange(cur, mine, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok();
            if !acquired {
                self.rollback_locks(&held);
                self.fail(Tl2Abort::LockBusy);
                return Err(Tl2Abort::LockBusy);
            }
            held.push((s, cur));
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

    /// Runs `body` as a transaction, retrying with exponential backoff
    /// until commit, and returns its result.
    pub fn run<R>(&mut self, mut body: impl FnMut(&mut NativeTxn<'a>) -> Result<R, Tl2Abort>) -> R {
        let mut core = TL2_RETRY;
        let mut tally = Tally::default();
        loop {
            self.begin();
            if let Ok(r) = body(self) {
                if self.commit().is_ok() {
                    return r;
                }
            } else if self.active {
                // A body may surface its own error while the attempt is
                // still live (e.g. a fabricated abort): drop it cleanly.
                self.drop_attempt();
            }
            let decision = core.on_abort(&mut tally, AbortClass::Contention, None, || false, |_| 0);
            let Decision::Retry { backoff } = decision else {
                unreachable!("TL2 has no failover target, got {decision:?}")
            };
            spin_work(backoff);
        }
    }
}

/// TL2's retry schedule: pause backoff of `16 << min(n, 6)` spin units
/// after the `n`-th consecutive abort (the simulated TL2's capped
/// schedule), no jitter, and no failover — TL2 retries forever.
const TL2_RETRY: RetryCore = RetryCore::new(RetryPolicy::exponential(16, 6));

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

/// One OS thread's backend handle: a [`NativeTxn`] plus the shared phase
/// barrier, implementing [`TmBackend`] so backend-generic workloads run
/// on real threads unchanged.
#[derive(Debug)]
pub struct NativeThread<'a> {
    txn: NativeTxn<'a>,
    barrier: &'a Barrier,
    threads: usize,
}

impl<'a> NativeThread<'a> {
    /// Creates the handle for thread `tid` of `threads`.
    #[must_use]
    pub fn new(shared: &'a NativeTl2, barrier: &'a Barrier, tid: usize, threads: usize) -> Self {
        NativeThread {
            txn: NativeTxn::new(shared, tid),
            barrier,
            threads,
        }
    }

    /// This handle's event counters.
    #[must_use]
    pub fn stats(&self) -> NativeStats {
        self.txn.stats
    }
}

impl TmBackend for NativeThread<'_> {
    fn transaction<R>(&mut self, mut body: impl FnMut(&mut dyn TxScope) -> Result<R, Stop>) -> R {
        // The abort value is only a retry signal to `run`.
        self.txn
            .run(|t| body(t).map_err(|Stop| Tl2Abort::ReadValidation))
    }

    fn plain_load(&mut self, addr: Addr) -> u64 {
        self.txn.shared.peek(addr)
    }

    fn plain_store(&mut self, addr: Addr, value: u64) {
        self.txn.shared.poke(addr, value);
    }

    fn compute(&mut self, cycles: u64) {
        spin_work(cycles);
    }

    fn barrier(&mut self) {
        self.barrier.wait();
    }

    fn tid(&self) -> usize {
        self.txn.tid
    }

    fn threads(&self) -> usize {
        self.threads
    }
}

/// One worker's join outcome from [`run_threads_collect`]: its per-thread
/// counters survive even when the body panicked, so torture tests can
/// assert that the *surviving* threads still committed.
#[derive(Clone, Debug)]
pub struct NativeOutcome<R> {
    /// Worker tid (outcomes are returned in tid order).
    pub tid: usize,
    /// The worker's event counters at join time.
    pub stats: NativeStats,
    /// The body's result, or the rendered panic payload.
    pub result: Result<R, String>,
}

/// Runs `body` on `threads` real OS threads over `shared`, each with its
/// own [`NativeThread`] handle and a common phase barrier, and collects
/// **every** worker's outcome — a panicked worker is marked dead in the
/// liveness registry (in-thread, before it exits, so survivors start
/// reclaiming its locks while still running), its panic payload is
/// rendered into the outcome, and its counters survive.
///
/// After all workers join, if any died, the stripe table is swept for
/// remaining orphans.
///
/// Bodies that may be killed by panic injection must not use the phase
/// barrier: a dead worker never arrives and the survivors would wait
/// forever.
pub fn run_threads_collect<R: Send>(
    shared: &NativeTl2,
    threads: usize,
    body: impl Fn(&mut NativeThread<'_>) -> R + Sync,
) -> Vec<NativeOutcome<R>> {
    assert!(threads >= 1, "at least one thread");
    let barrier = Barrier::new(threads);
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let barrier = &barrier;
                let body = &body;
                scope.spawn(move || {
                    let mut th = NativeThread::new(shared, barrier, tid, threads);
                    let r = catch_unwind(AssertUnwindSafe(|| body(&mut th)));
                    let stats = th.stats();
                    let result = r.map_err(|payload| {
                        shared.liveness.mark_dead(tid);
                        chaos::panic_message(payload.as_ref())
                    });
                    NativeOutcome { tid, stats, result }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("native worker wrapper itself panicked"))
            .collect::<Vec<_>>()
    });
    if outcomes.iter().any(|o| o.result.is_err()) {
        shared.sweep_orphans();
    }
    outcomes
}

/// Runs `body` on `threads` real OS threads over `shared`, each with its
/// own [`NativeThread`] handle and a common phase barrier. Returns the
/// merged stats and each thread's result (in tid order).
///
/// # Panics
///
/// Panics if any worker panicked, naming every dead tid with its payload
/// and per-thread counters. Use [`run_threads_collect`] to observe the
/// survivors instead.
pub fn run_threads<R: Send>(
    shared: &NativeTl2,
    threads: usize,
    body: impl Fn(&mut NativeThread<'_>) -> R + Sync,
) -> (NativeStats, Vec<R>) {
    let outcomes = run_threads_collect(shared, threads, body);
    let mut stats = NativeStats::default();
    let mut results = Vec::with_capacity(threads);
    let mut deaths = Vec::new();
    for o in outcomes {
        stats.merge(&o.stats);
        match o.result {
            Ok(r) => results.push(r),
            Err(msg) => deaths.push(format!("tid {}: {msg} (stats {:?})", o.tid, o.stats)),
        }
    }
    assert!(
        deaths.is_empty(),
        "native worker thread(s) panicked: {}",
        deaths.join("; ")
    );
    (stats, results)
}
