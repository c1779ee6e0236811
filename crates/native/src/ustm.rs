//! The native USTM slow path: a redo-log STM with a sharded ownership
//! table and age-ordered conflict resolution, on real OS threads.
//!
//! This is the host-atomics rendition of the simulated
//! `ufotm-ustm` crate, reshaped for real hardware:
//!
//! * **Ownership table** — the same chained-hash shape as the simulated
//!   `Otable` (Fibonacci hash of the 64-byte line
//!   number, power-of-two bins, one record per owned line with a writer
//!   slot and a reader list), but sharded: each bin is a host `Mutex`
//!   over its entry chain, and the protocol never holds more than one
//!   bin lock at a time (lock → decide → unlock → wait with
//!   `yield_now`), so bin lock order cannot deadlock.
//! * **Versioning** — *lazy redo* instead of the simulator's eager undo:
//!   writes buffer in a `BTreeMap` and publish at commit, because on
//!   real hardware in-place speculative stores would be visible to
//!   uninstrumented plain code with no UFO bit to hide them. Read
//!   ownership is still eager (acquired at first read of a line), which
//!   keeps conflict detection eager like the paper's USTM.
//! * **Conflict resolution** — age-ordered, like the simulator: each
//!   transaction draws a monotonically increasing timestamp at begin
//!   (the hybrid's slow path keeps it across retries); an
//!   older transaction **kills** a younger conflictor (and waits for it
//!   to unwind and release ownership), a younger transaction **stalls**
//!   behind an older one. Stalling only ever waits on strictly older
//!   transactions, so waits are acyclic and the oldest transaction in
//!   the system always makes progress. Kills are delivered through a
//!   per-thread packed `AtomicU64` status slot
//!   (`[ts:40 | killer+1:16 | phase:8]`); a victim observes its doom at
//!   its next read / `work` / stall iteration / commit seal, unwinds,
//!   and returns [`UstmAbort::Killed`] with the killer recorded — the
//!   same classification (and `Display` text) as the simulated USTM.
//! * **Commit** — acquire write ownership of the redo log's lines in
//!   sorted line order (kill younger owners, stall behind older ones),
//!   *seal* the status slot (`ACTIVE → COMMITTING`; a sealed transaction
//!   can no longer be killed, mirroring the simulator's committing
//!   transactions stalling their attackers), then `write_back`:
//!   hold the TL2 stripes of the write set, open the strong-atomicity
//!   guard window ([`crate::guard`]), write the redo log back through
//!   the shadow view with `Release` stores, close the window, release
//!   the stripes with a fresh clock version; finally release ownership
//!   (and the owner counts it raised on the stripes, see [`NativeTl2`])
//!   and retire the slot.
//!
//! USTM's own heap reads go through the **shadow** view: a reader holds
//! read ownership of every line it has read, so no committer can be
//! writing those lines back concurrently, and the shadow view never
//! faults inside the reader's (or its own) guard window.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use ufotm_api::{Addr, Stop, TxScope, UstmAbort};

use crate::chaos::{lock_recover, FailSite, NativeChaos};
use crate::tl2::{pinned_word, spin_work, NativeTl2};

/// Same Fibonacci hash as the simulated otable (`Otable::index_of`), so
/// a given line chains into the "same" bin in both worlds.
const BIN_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

const LINE_BYTES: u64 = 64;

// Status-slot phases (low 8 bits of the packed word).
const PHASE_INACTIVE: u64 = 0;
const PHASE_ACTIVE: u64 = 1;
const PHASE_COMMITTING: u64 = 2;
/// A helper won the race to reclaim a dead owner's slot and is completing
/// (or discarding) its work; everyone else waits for the slot to retire.
const PHASE_REAPING: u64 = 3;

/// The serial tier's timestamp, older than every drawn one (from 1).
const SERIAL_TS: u64 = 0;

/// Packs a status slot: `[ts:40 | killer+1:16 | phase:8]`. `killer+1`
/// so that 0 means "not killed" and thread id 0 can still kill.
fn pack(ts: u64, killer_plus1: u64, phase: u64) -> u64 {
    debug_assert!(ts < 1 << 40, "USTM timestamp overflow");
    debug_assert!(killer_plus1 < 1 << 16);
    ts << 24 | killer_plus1 << 8 | phase
}

fn slot_phase(word: u64) -> u64 {
    word & 0xFF
}

fn slot_killer(word: u64) -> Option<usize> {
    let k = (word >> 8) & 0xFFFF;
    (k != 0).then(|| (k - 1) as usize)
}

/// One ownership record: a line, its (at most one) writer, and its
/// readers — the native mirror of the simulated `OtableEntry`'s
/// `{line, perm, owners}` with the owner set split by permission.
#[derive(Debug)]
struct OtEntry {
    line: u64,
    /// The committing transaction holding write ownership, `(tid, ts)`.
    writer: Option<(usize, u64)>,
    /// Transactions holding read ownership, `(tid, ts)` each.
    readers: Vec<(usize, u64)>,
}

/// A published redo record: `(word addr, value)` pairs in commit order.
type RedoRecord = Vec<(u64, u64)>;

/// Shared native USTM state: the sharded ownership table, the per-thread
/// status slots, and the timestamp source. Operates over the word heap
/// of a [`NativeTl2`] (the two paths of the hybrid share one heap).
#[derive(Debug)]
pub struct NativeUstm {
    bins: Box<[Mutex<Vec<OtEntry>>]>,
    slots: Box<[AtomicU64]>,
    next_ts: AtomicU64,
    mask: u64,
    /// Per-thread published redo records `(word addr, value)`, written
    /// *before* the seal CAS so that a committer that dies sealed leaves
    /// everything a helper needs to finish its write-back. Only the
    /// owner writes its slot while alive; helpers read it only after
    /// winning the `PHASE_REAPING` CAS on a dead owner, so the two never
    /// race.
    records: Box<[Mutex<RedoRecord>]>,
    poison_recovered: AtomicU64,
    helper_completions: AtomicU64,
    orphan_releases: AtomicU64,
}

impl NativeUstm {
    /// Creates a table with `otable_bins` bins and status slots for
    /// `threads` transaction handles.
    ///
    /// # Panics
    ///
    /// Panics if `otable_bins` is not a power of two or `threads`
    /// exceeds the 16-bit killer-id encoding.
    #[must_use]
    pub fn new(threads: usize, otable_bins: u64) -> Self {
        assert!(
            otable_bins.is_power_of_two(),
            "otable bins must be a power of two"
        );
        assert!(threads < (1 << 16) - 1, "too many USTM threads to encode");
        NativeUstm {
            bins: (0..otable_bins).map(|_| Mutex::new(Vec::new())).collect(),
            slots: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            next_ts: AtomicU64::new(0),
            mask: otable_bins - 1,
            records: (0..threads).map(|_| Mutex::new(Vec::new())).collect(),
            poison_recovered: AtomicU64::new(0),
            helper_completions: AtomicU64::new(0),
            orphan_releases: AtomicU64::new(0),
        }
    }

    fn bin_index(&self, line: u64) -> usize {
        (line.wrapping_mul(BIN_MULT) >> 32 & self.mask) as usize
    }

    /// Locks a bin or a redo record, recovering from poison instead of
    /// cascading the panic to every later user. Only a worker that
    /// panicked *while holding it* poisons it (at an injected failpoint
    /// or a bug outside the protocol's panic-free critical sections); a
    /// bin chain is still sound ([`Self::audit`]), so the event is just
    /// counted.
    fn lock_counted<'m, T>(&self, m: &'m Mutex<T>) -> MutexGuard<'m, T> {
        let (g, recovered) = lock_recover(m);
        if recovered {
            self.poison_recovered.fetch_add(1, Ordering::Relaxed);
        }
        g
    }

    fn lock_bin_idx(&self, idx: usize) -> MutexGuard<'_, Vec<OtEntry>> {
        self.lock_counted(&self.bins[idx])
    }

    fn lock_bin(&self, line: u64) -> MutexGuard<'_, Vec<OtEntry>> {
        self.lock_bin_idx(self.bin_index(line))
    }

    /// Status slots, one per thread handle.
    pub(crate) fn threads(&self) -> usize {
        self.slots.len()
    }

    /// Entries currently in the table (all bins) — test observability.
    #[must_use]
    pub fn owned_lines(&self) -> usize {
        (0..self.bins.len())
            .map(|i| self.lock_bin_idx(i).len())
            .sum()
    }

    /// Otable-bin poison recoveries so far.
    #[must_use]
    pub fn poison_recovered(&self) -> u64 {
        self.poison_recovered.load(Ordering::Relaxed)
    }

    /// Sealed redo records of dead committers finished by helpers.
    #[must_use]
    pub fn helper_completions(&self) -> u64 {
        self.helper_completions.load(Ordering::Relaxed)
    }

    /// Unsealed dead transactions whose ownerships were swept.
    #[must_use]
    pub fn orphan_releases(&self) -> u64 {
        self.orphan_releases.load(Ordering::Relaxed)
    }

    /// Structural consistency audit of the ownership table, run after
    /// poison recovery (and by torture tests at quiescence). Checks that
    /// every entry's line hashes to the bin it chains in, that no bin
    /// holds two entries for one line, and that no entry lists the same
    /// reader twice.
    ///
    /// # Errors
    ///
    /// A description of the first violation found.
    pub fn audit(&self) -> Result<(), String> {
        for i in 0..self.bins.len() {
            let bin = self.lock_bin_idx(i);
            for (pos, e) in bin.iter().enumerate() {
                if self.bin_index(e.line) != i {
                    return Err(format!("line {} chained into wrong bin {i}", e.line));
                }
                if bin[..pos].iter().any(|prev| prev.line == e.line) {
                    return Err(format!("duplicate entries for line {} in bin {i}", e.line));
                }
                for (rpos, &(t, _)) in e.readers.iter().enumerate() {
                    if e.readers[..rpos].iter().any(|&(t2, _)| t2 == t) {
                        return Err(format!("line {}: reader {t} listed twice", e.line));
                    }
                }
            }
        }
        Ok(())
    }

    /// Removes every ownership record held by `victim` across all bins,
    /// dropping their stripe owner counts and garbage-collecting emptied
    /// entries.
    fn sweep_owner(&self, heap: &NativeTl2, victim: usize) {
        for i in 0..self.bins.len() {
            let mut bin = self.lock_bin_idx(i);
            for e in bin.iter_mut() {
                let readers = e.readers.len();
                e.readers.retain(|&(t, _)| t != victim);
                let mut dropped = (readers - e.readers.len()) as u64;
                if matches!(e.writer, Some((t, _)) if t == victim) {
                    e.writer = None;
                    dropped += 1;
                }
                heap.disown_line(e.line, dropped);
            }
            bin.retain(|e| e.writer.is_some() || !e.readers.is_empty());
        }
    }

    /// Publishes `tid`'s sealed redo `record`: holds its stripes (sorted,
    /// so write-backs cannot deadlock), stores it through the shadow view
    /// in a guard window, and releases the stripes with a fresh clock
    /// version, so TL2 readers validate against it as against a fast
    /// commit. A helper completing a dead committer adopts the stripes
    /// the corpse holds. `chaos` is the live committer's failpoint handle.
    fn write_back(
        &self,
        heap: &NativeTl2,
        tid: usize,
        record: impl Iterator<Item = (u64, u64)> + Clone,
        chaos: Option<(&NativeChaos, usize)>,
    ) {
        let pinned = pinned_word(tid);
        let mut stripes: Vec<usize> = record
            .clone()
            .map(|(a, _)| heap.stripe_of(Addr(a)))
            .collect();
        stripes.sort_unstable();
        stripes.dedup();
        for &s in &stripes {
            if heap.stripe_word(s) != pinned {
                heap.hold_stripe(s, pinned, |holder| self.reclaim_if_dead(heap, holder));
            }
        }
        {
            let _win = heap
                .heap()
                .open_window(record.clone().map(|(a, _)| (a / 8) as usize), chaos);
            // Sealed, stripes held, window up, nothing written: a delay
            // stalls the committer here (the race the plain-access tests
            // drive); a panic leaves a sealed record for helper-completion
            // and the window guard restores protection on the way out.
            if let Some((c, t)) = chaos {
                let _ = c.strike(t, FailSite::UstmSealed);
            }
            for (a, v) in record {
                heap.heap()
                    .shadow_word((a / 8) as usize)
                    .store(v, Ordering::Release);
            }
        }
        heap.release_bumped(&stripes);
    }

    /// Reclaims `tid`'s leavings if it is dead, so a waiter blocked
    /// behind it makes progress instead of spinning on a ghost.
    fn reclaim_if_dead(&self, heap: &NativeTl2, tid: usize) {
        if heap.liveness().is_dead(tid) {
            self.reclaim_dead(heap, tid);
        }
    }

    /// Reclaims everything a **dead** worker left behind: a sealed
    /// (`COMMITTING`) transaction is *helper-completed* — its published
    /// redo record is replayed by the committer's own write-back (idempotent:
    /// the full record is replayed even if the dead committer had
    /// already stored some of it, and the stripes it died holding are
    /// released) — while an unsealed (`ACTIVE`) one is
    /// simply discarded; in both cases its ownership records are swept
    /// and its status slot retired.
    ///
    /// Racing helpers serialize on a `COMMITTING/ACTIVE → REAPING` CAS:
    /// the winner does the work, losers wait for the slot to retire.
    /// Callers must only name a victim that the liveness registry has
    /// marked dead (i.e. its body has actually unwound).
    pub fn reclaim_dead(&self, heap: &NativeTl2, victim: usize) {
        debug_assert!(
            heap.liveness().is_dead(victim),
            "reclaiming a live worker's ownerships"
        );
        loop {
            let cur = self.slots[victim].load(Ordering::SeqCst);
            let ts = cur >> 24;
            match slot_phase(cur) {
                PHASE_COMMITTING => {
                    if self.slots[victim]
                        .compare_exchange(
                            cur,
                            pack(ts, 0, PHASE_REAPING),
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_err()
                    {
                        continue;
                    }
                    let record = self.lock_counted(&self.records[victim]).clone();
                    self.write_back(heap, victim, record.into_iter(), None);
                    self.sweep_owner(heap, victim);
                    self.slots[victim].store(0, Ordering::SeqCst);
                    self.helper_completions.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                PHASE_ACTIVE => {
                    if self.slots[victim]
                        .compare_exchange(
                            cur,
                            pack(ts, 0, PHASE_REAPING),
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_err()
                    {
                        continue;
                    }
                    self.sweep_owner(heap, victim);
                    self.slots[victim].store(0, Ordering::SeqCst);
                    self.orphan_releases.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                PHASE_REAPING => {
                    // Another helper won; wait for it to retire the slot.
                    while slot_phase(self.slots[victim].load(Ordering::SeqCst)) == PHASE_REAPING {
                        std::thread::yield_now();
                    }
                    return;
                }
                _ => {
                    // INACTIVE: the victim died between transactions.
                    // Sweep anyway — idempotent, and it catches any
                    // leftovers from exotic unwind paths.
                    self.sweep_owner(heap, victim);
                    return;
                }
            }
        }
    }

    /// Test scaffolding: deliberately poisons the bin that `line` chains
    /// into, reproducing the cascade the poison-tolerant bins defend
    /// against.
    #[doc(hidden)]
    pub fn debug_poison_bin(&self, line: u64) {
        let idx = self.bin_index(line);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = self.bins[idx].lock();
            panic!("deliberate bin poison (test scaffolding)");
        }));
    }
}

/// Per-handle USTM event counters (native analogue of `UstmStats`, with
/// aborts split by [`UstmAbort`] class).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NativeUstmStats {
    /// Transactions begun.
    pub begins: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Aborts because an older transaction killed this one.
    pub aborts_killed: u64,
    /// Explicit aborts requested by the body.
    pub aborts_explicit: u64,
    /// Kill requests this handle delivered to younger conflictors.
    pub kills_issued: u64,
    /// Stall iterations spent waiting for a conflicting owner to
    /// release (each is one bin-unlock/yield/retry round).
    pub stalls: u64,
}

impl NativeUstmStats {
    /// Total aborts across classes.
    #[must_use]
    pub fn total_aborts(&self) -> u64 {
        self.aborts_killed + self.aborts_explicit
    }

    /// Folds another handle's counters into this one. Exhaustive
    /// destructuring: adding a field without summing it here is a
    /// compile error.
    pub fn merge(&mut self, other: &NativeUstmStats) {
        let NativeUstmStats {
            begins,
            commits,
            aborts_killed,
            aborts_explicit,
            kills_issued,
            stalls,
        } = *other;
        self.begins += begins;
        self.commits += commits;
        self.aborts_killed += aborts_killed;
        self.aborts_explicit += aborts_explicit;
        self.kills_issued += kills_issued;
        self.stalls += stalls;
    }
}

/// A per-thread USTM transaction handle — the native mirror of
/// `ufotm_ustm::UstmTxn`, usable step by step
/// (begin/read/write/commit) by protocol tests and the cross-validation
/// scripts, or through the retry loop in [`NativeUstmTxn::run`] /
/// the hybrid's slow path.
#[derive(Debug)]
pub struct NativeUstmTxn<'a> {
    heap: &'a NativeTl2,
    ustm: &'a NativeUstm,
    tid: usize,
    ts: u64,
    /// Lines this transaction holds read ownership of.
    reads: Vec<u64>,
    /// The redo log: word address → value, published at commit.
    writes: BTreeMap<u64, u64>,
    /// Lines write-acquired so far during commit.
    write_owned: Vec<u64>,
    active: bool,
    last_killer: Option<usize>,
    /// Event counters for this handle.
    pub stats: NativeUstmStats,
}

impl<'a> NativeUstmTxn<'a> {
    /// Creates a handle for thread `tid` over `heap`'s words and
    /// `ustm`'s ownership table.
    ///
    /// # Panics
    ///
    /// Panics if `tid` has no status slot in `ustm`.
    #[must_use]
    pub fn new(heap: &'a NativeTl2, ustm: &'a NativeUstm, tid: usize) -> Self {
        assert!(tid < ustm.slots.len(), "tid {tid} has no USTM status slot");
        assert!(
            tid < crate::chaos::MAX_WORKERS,
            "tid {tid} exceeds the liveness registry"
        );
        heap.liveness().revive(tid);
        NativeUstmTxn {
            heap,
            ustm,
            tid,
            ts: 0,
            reads: Vec::new(),
            writes: BTreeMap::new(),
            write_owned: Vec::new(),
            active: false,
            last_killer: None,
            stats: NativeUstmStats::default(),
        }
    }

    /// Whether a transaction is active on this handle.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active
    }

    fn my_slot(&self) -> &AtomicU64 {
        &self.ustm.slots[self.tid]
    }

    /// Begins a transaction: draws a fresh (nonzero) timestamp and goes
    /// `ACTIVE`.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already active.
    pub fn begin(&mut self) {
        self.begin_at(self.ustm.next_ts.fetch_add(1, Ordering::SeqCst) + 1);
    }

    /// Begins the next attempt of the transaction the last
    /// [`NativeUstmTxn::begin`] started, keeping its timestamp: a
    /// transaction killed by older ones ages instead of restarting as
    /// the youngest, so it soon wins its conflicts instead of starving.
    pub(crate) fn begin_again(&mut self) {
        self.begin_at(self.ts);
    }

    /// Begins the serial tier's attempt at the reserved oldest timestamp,
    /// taking no chaos strikes. Callers run one serial attempt at a time.
    pub(crate) fn begin_serial(&mut self) {
        self.begin_at(SERIAL_TS);
    }

    fn begin_at(&mut self, ts: u64) {
        assert!(!self.active, "nested native transactions are not supported");
        self.ts = ts;
        self.my_slot()
            .store(pack(self.ts, 0, PHASE_ACTIVE), Ordering::SeqCst);
        self.reads.clear();
        self.writes.clear();
        self.write_owned.clear();
        self.last_killer = None;
        self.active = true;
        self.stats.begins += 1;
    }

    /// Hits failpoint `site`, except on the serial tier.
    fn strike(&self, site: FailSite) -> bool {
        self.ts != SERIAL_TS && self.heap.chaos().strike(self.tid, site)
    }

    /// If an older transaction has killed this one, who.
    fn doomed(&self) -> Option<usize> {
        slot_killer(self.my_slot().load(Ordering::SeqCst))
    }

    /// Releases every ownership record this transaction holds (one bin
    /// lock at a time) with its stripe owner count, garbage-collecting
    /// empty entries.
    fn release_ownership(&mut self) {
        for &line in &self.reads {
            let mut bin = self.ustm.lock_bin(line);
            if let Some(pos) = bin.iter().position(|e| e.line == line) {
                let readers = bin[pos].readers.len();
                bin[pos].readers.retain(|&(t, _)| t != self.tid);
                self.heap
                    .disown_line(line, (readers - bin[pos].readers.len()) as u64);
                if bin[pos].readers.is_empty() && bin[pos].writer.is_none() {
                    bin.swap_remove(pos);
                }
            }
        }
        for &line in &self.write_owned {
            let mut bin = self.ustm.lock_bin(line);
            if let Some(pos) = bin.iter().position(|e| e.line == line) {
                if matches!(bin[pos].writer, Some((t, _)) if t == self.tid) {
                    bin[pos].writer = None;
                    self.heap.disown_line(line, 1);
                }
                if bin[pos].readers.is_empty() && bin[pos].writer.is_none() {
                    bin.swap_remove(pos);
                }
            }
        }
        self.reads.clear();
        self.write_owned.clear();
    }

    /// Unwinds a killed transaction: release ownership, drop the redo
    /// log, retire the slot, record the killer for
    /// [`NativeUstmTxn::wait_for_killer`].
    fn unwind_killed(&mut self, by: usize) -> UstmAbort {
        self.release_ownership();
        self.writes.clear();
        self.my_slot().store(0, Ordering::SeqCst);
        self.active = false;
        self.last_killer = Some(by);
        self.stats.aborts_killed += 1;
        UstmAbort::Killed { by }
    }

    /// Explicitly aborts and rolls back the transaction, returning the
    /// [`UstmAbort::Explicit`] classification (mirrors the simulated
    /// `UstmTxn::abort_explicit`).
    pub fn abort_explicit(&mut self) -> UstmAbort {
        debug_assert!(self.active);
        self.release_ownership();
        self.writes.clear();
        self.my_slot().store(0, Ordering::SeqCst);
        self.active = false;
        self.stats.aborts_explicit += 1;
        UstmAbort::Explicit
    }

    /// Requests a kill of `(victim, victim_ts)` if it is still `ACTIVE`
    /// and unkilled. A sealed (`COMMITTING`) victim cannot be killed —
    /// the caller stalls behind it instead, exactly like the simulator's
    /// attacker stalling on a committing transaction.
    fn issue_kill(&mut self, victim: usize, victim_ts: u64) {
        debug_assert!(victim_ts > self.ts, "only younger transactions are killed");
        let slot = &self.ustm.slots[victim];
        let cur = slot.load(Ordering::SeqCst);
        if cur == pack(victim_ts, 0, PHASE_ACTIVE)
            && slot
                .compare_exchange(
                    cur,
                    pack(victim_ts, self.tid as u64 + 1, PHASE_ACTIVE),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
        {
            self.stats.kills_issued += 1;
        }
        // CAS failure means the victim is already killed, sealed, or
        // gone — in every case the caller just waits for the ownership
        // record to clear.
    }

    /// One stall round: drop everything, yield, and let the caller's
    /// loop re-examine the bin.
    fn stall(&mut self) {
        self.stats.stalls += 1;
        std::thread::yield_now();
    }

    /// Acquires read ownership of `line`, raising its stripe's owner
    /// count with the record. Never holds the bin lock while waiting.
    fn acquire_read(&mut self, line: u64) -> Result<(), UstmAbort> {
        loop {
            if let Some(by) = self.doomed() {
                return Err(self.unwind_killed(by));
            }
            let blocker;
            {
                let mut bin = self.ustm.lock_bin(line);
                match bin.iter_mut().find(|e| e.line == line) {
                    Some(e) => {
                        if let Some((wtid, wts)) = e.writer {
                            debug_assert_ne!(wtid, self.tid, "read under own write ownership");
                            if wts > self.ts {
                                self.issue_kill(wtid, wts);
                            }
                            // Fall through to stall (younger writer: until
                            // it unwinds; older/sealed: until it retires).
                            blocker = wtid;
                        } else {
                            if !e.readers.iter().any(|&(t, _)| t == self.tid) {
                                e.readers.push((self.tid, self.ts));
                                self.heap.own_line(line);
                            }
                            return Ok(());
                        }
                    }
                    None => {
                        bin.push(OtEntry {
                            line,
                            writer: None,
                            readers: vec![(self.tid, self.ts)],
                        });
                        self.heap.own_line(line);
                        return Ok(());
                    }
                }
            }
            self.ustm.reclaim_if_dead(self.heap, blocker);
            self.stall();
        }
    }

    /// Acquires write ownership of `line` (commit path), raising its
    /// stripe's owner count. Kills younger conflicting owners, stalls
    /// behind older ones.
    fn acquire_write(&mut self, line: u64) -> Result<(), UstmAbort> {
        loop {
            if let Some(by) = self.doomed() {
                return Err(self.unwind_killed(by));
            }
            let blocker;
            {
                let mut bin = self.ustm.lock_bin(line);
                let e = match bin.iter_mut().find(|e| e.line == line) {
                    Some(e) => e,
                    None => {
                        bin.push(OtEntry {
                            line,
                            writer: None,
                            readers: Vec::new(),
                        });
                        bin.last_mut().expect("just pushed")
                    }
                };
                if let Some((wtid, wts)) = e.writer {
                    debug_assert_ne!(wtid, self.tid, "double write acquisition");
                    if wts > self.ts {
                        self.issue_kill(wtid, wts);
                    }
                    blocker = wtid;
                } else if let Some(&(rtid, rts)) = e.readers.iter().find(|&&(t, _)| t != self.tid) {
                    if rts > self.ts {
                        self.issue_kill(rtid, rts);
                    }
                    blocker = rtid;
                } else {
                    e.writer = Some((self.tid, self.ts));
                    self.heap.own_line(line);
                    self.write_owned.push(line);
                    return Ok(());
                }
            }
            self.ustm.reclaim_if_dead(self.heap, blocker);
            self.stall();
        }
    }

    /// Transactional read: redo log first, then eager read-ownership
    /// acquisition and a shadow-view load, after waiting out any holder
    /// of the line's stripe on its first read.
    ///
    /// # Errors
    ///
    /// [`UstmAbort::Killed`] if an older transaction killed this one —
    /// the transaction has already been rolled back.
    pub fn read(&mut self, addr: Addr) -> Result<u64, UstmAbort> {
        debug_assert!(self.active);
        if self.strike(FailSite::UstmRead) {
            return Err(self.abort_explicit());
        }
        if let Some(by) = self.doomed() {
            return Err(self.unwind_killed(by));
        }
        if let Some(&v) = self.writes.get(&addr.0) {
            return Ok(v);
        }
        let w = self.heap.word_index(addr);
        let line = addr.0 / LINE_BYTES;
        if !self.reads.contains(&line) {
            self.acquire_read(line)?;
            self.reads.push(line);
            let (heap, ustm) = (self.heap, self.ustm);
            heap.wait_stripe(heap.line_stripe(line), |h| ustm.reclaim_if_dead(heap, h));
        }
        Ok(self.heap.heap().shadow_word(w).load(Ordering::Acquire))
    }

    /// Transactional write: buffers into the redo log (lazy versioning;
    /// ownership is taken at commit).
    ///
    /// # Errors
    ///
    /// [`UstmAbort::Killed`] if a kill has landed (checked so a doomed
    /// writer-loop cannot starve its killer).
    pub fn write(&mut self, addr: Addr, value: u64) -> Result<(), UstmAbort> {
        debug_assert!(self.active);
        if let Some(by) = self.doomed() {
            return Err(self.unwind_killed(by));
        }
        let _ = self.heap.word_index(addr); // bounds-check now, not at publish
        self.writes.insert(addr.0, value);
        Ok(())
    }

    /// Transactionally allocates `words` fresh words from the shared
    /// bump allocator (aborted attempts leak, as on the TL2 path).
    ///
    /// # Errors
    ///
    /// [`UstmAbort::Killed`] if a kill has landed.
    pub fn alloc(&mut self, words: u64) -> Result<Addr, UstmAbort> {
        debug_assert!(self.active);
        if let Some(by) = self.doomed() {
            return Err(self.unwind_killed(by));
        }
        Ok(self.heap.alloc_words(words))
    }

    /// In-transaction compute: spins, then checks for an asynchronous
    /// kill (the native analogue of the simulator delivering a kill
    /// during cycle-charged work).
    ///
    /// # Errors
    ///
    /// [`UstmAbort::Killed`] if a kill landed while computing.
    pub fn work(&mut self, cycles: u64) -> Result<(), UstmAbort> {
        debug_assert!(self.active);
        spin_work(cycles);
        if let Some(by) = self.doomed() {
            return Err(self.unwind_killed(by));
        }
        Ok(())
    }

    /// Commits: sorted-order write acquisition → seal → write-back
    /// (stripes held, guard window, shadow stores) → release → retire.
    ///
    /// # Errors
    ///
    /// [`UstmAbort::Killed`] if an older transaction killed this one
    /// before the seal; the transaction has been rolled back.
    pub fn commit(&mut self) -> Result<(), UstmAbort> {
        debug_assert!(self.active);
        // Phase 1: acquire write ownership in canonical (sorted) line
        // order. Acquisition happens while still ACTIVE (killable), so
        // an older committer can always break a would-be deadlock by
        // killing us out of our acquisition loop.
        let mut lines: Vec<u64> = self.writes.keys().map(|&a| a / LINE_BYTES).collect();
        lines.sort_unstable();
        lines.dedup();
        for line in lines {
            self.acquire_write(line)?;
        }
        // Ownerships held, not yet sealed: a forced abort (or injected
        // panic) here still unwinds as a plain ACTIVE rollback.
        if self.strike(FailSite::UstmCommit) {
            return Err(self.abort_explicit());
        }
        if !self.writes.is_empty() {
            // Publish the redo record *before* sealing: once sealed, this
            // transaction is unkillable and everyone stalls behind it, so
            // if it dies a helper must be able to finish the write-back
            // from this record alone.
            {
                let mut rec = self.ustm.lock_counted(&self.ustm.records[self.tid]);
                rec.clear();
                rec.extend(self.writes.iter().map(|(&a, &v)| (a, v)));
            }
            // Phase 2: seal. After this CAS no kill can land (killers
            // observe COMMITTING and stall until we retire).
            if self
                .my_slot()
                .compare_exchange(
                    pack(self.ts, 0, PHASE_ACTIVE),
                    pack(self.ts, 0, PHASE_COMMITTING),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_err()
            {
                let by = self
                    .doomed()
                    .expect("seal failed without a recorded killer");
                return Err(self.unwind_killed(by));
            }
            // Phase 3: the write-back. USTM readers are excluded by
            // ownership; TL2 readers and plain loads by the held stripes.
            let chaos = (self.ts != SERIAL_TS).then(|| (self.heap.chaos(), self.tid));
            self.ustm.write_back(
                self.heap,
                self.tid,
                self.writes.iter().map(|(&a, &v)| (a, v)),
                chaos,
            );
        }
        // A read-only transaction skips seal and write-back: its reads
        // were protected by read ownership the whole time, so even a
        // kill flag that lands at this instant cannot invalidate them —
        // the commit serializes before the killer's write.
        self.release_ownership();
        self.my_slot().store(0, Ordering::SeqCst);
        self.writes.clear();
        self.active = false;
        self.stats.commits += 1;
        Ok(())
    }

    /// After an `Err(Killed)`, waits until the killer transaction has
    /// advanced (retired or changed state) before the caller retries —
    /// the native mirror of the simulated `UstmTxn::wait_for_killer`,
    /// which stops a freshly-killed victim from immediately re-attacking
    /// the older transaction that killed it.
    pub fn wait_for_killer(&mut self) {
        let Some(k) = self.last_killer.take() else {
            return;
        };
        let slot = &self.ustm.slots[k];
        let s0 = slot.load(Ordering::SeqCst);
        if slot_phase(s0) == PHASE_INACTIVE {
            return;
        }
        while slot.load(Ordering::SeqCst) == s0 {
            // A killer that died before retiring would otherwise park
            // this victim forever; reclaiming it advances the slot.
            if self.heap.liveness().is_dead(k) {
                self.ustm.reclaim_dead(self.heap, k);
                return;
            }
            std::thread::yield_now();
        }
    }

    /// Runs `body` as a transaction, retrying (with killer-waits) until
    /// commit, and returns its result. Explicit aborts re-issue, like
    /// the simulated `UstmTxn::run`.
    pub fn run<R>(
        &mut self,
        mut body: impl FnMut(&mut NativeUstmTxn<'a>) -> Result<R, UstmAbort>,
    ) -> R {
        loop {
            self.begin();
            match body(self) {
                Ok(r) => match self.commit() {
                    Ok(()) => return r,
                    Err(UstmAbort::Killed { .. }) => self.wait_for_killer(),
                    Err(_) => {}
                },
                Err(UstmAbort::Killed { .. }) => self.wait_for_killer(),
                Err(UstmAbort::Explicit | UstmAbort::RetryWoken) => {
                    if self.active {
                        // The body surfaced its own abort without going
                        // through `abort_explicit`: roll back for it.
                        let _ = self.abort_explicit();
                    }
                }
            }
        }
    }
}

impl TxScope for NativeUstmTxn<'_> {
    fn read(&mut self, addr: Addr) -> Result<u64, Stop> {
        NativeUstmTxn::read(self, addr).map_err(|_| Stop)
    }

    fn write(&mut self, addr: Addr, value: u64) -> Result<(), Stop> {
        NativeUstmTxn::write(self, addr, value).map_err(|_| Stop)
    }

    fn alloc(&mut self, words: u64) -> Result<Addr, Stop> {
        NativeUstmTxn::alloc(self, words).map_err(|_| Stop)
    }

    fn work(&mut self, cycles: u64) -> Result<(), Stop> {
        NativeUstmTxn::work(self, cycles).map_err(|_| Stop)
    }
}
