//! The native hybrid: TL2 fast path, USTM slow path, PhTM-style mode
//! gate, and abort-count failover — the real-thread rendition of the
//! simulated `HybridTm` driver.
//!
//! Each [`HybridThread`] runs transactions on the TL2 fast path
//! ([`NativeTxn`]) until `failover_after` consecutive aborts, with
//! jittered exponential backoff between attempts, then executes **one**
//! transaction on the USTM slow path ([`NativeUstmTxn`]) and returns to
//! the fast path; after `serial_after` failed slow attempts it escalates
//! to a serial-irrevocable tier. Backoff, failover and escalation are
//! decided by [`RetryCore`], the same Algorithm-3 core the simulated
//! driver uses.
//!
//! ## The mode gate
//!
//! TL2 never consults the USTM ownership table, so a fast-path
//! transaction racing a slow-path commit would be invisible to USTM's
//! conflict detection. The hybrid therefore phase-gates the two paths
//! (PhTM-style — fast transactions subscribe to a slow-mode stop word,
//! like the simulated hardware path subscribing to the serial gate):
//!
//! * A fast transaction registers in `fast_inflight`, then checks
//!   `slow_mode`; if a slow transaction is pending it deregisters and
//!   spin-yields until the mode clears.
//! * A slow transaction raises `slow_mode`, then waits for
//!   `fast_inflight` to drain before running. Multiple slow
//!   transactions run concurrently — USTM's ownership table is the
//!   concurrency control within the slow mode.
//!
//! Plain accesses ([`NativeHybrid::peek`]/[`NativeHybrid::poke`], and
//! the backend's `plain_load`/`plain_store` which route through them)
//! register in the same inflight count as fast transactions, so the
//! gate also closes the plain-access hole the `mprotect` guard cannot
//! cover on unguarded (boxed/TSan/non-x86_64) heaps: with the gate
//! drained, the only code touching USTM-written lines during a slow
//! commit is USTM itself.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use ufotm_api::{
    AbortClass, Addr, Decision, RetryCore, RetryPolicy, Stop, Tally, TmBackend, TxScope, UstmAbort,
};

use crate::chaos::{self, lock_recover, FailSite};
use crate::guard::GuardStats;
use crate::tl2::{spin_work, NativeStats, NativeTl2, NativeTxn};
use crate::ustm::{NativeUstm, NativeUstmStats, NativeUstmTxn};

/// Failover/backoff policy for the native hybrid — the same knobs, with
/// the same meaning, as the simulated `HybridPolicy`'s retry knobs, with
/// jitter on by default (real threads, unlike sim CPUs, gain nothing
/// from deterministic lockstep backoff).
#[derive(Clone, Copy, Debug)]
pub struct NativeHybridPolicy {
    /// Consecutive fast-path aborts before one slow-path execution; the
    /// `failover_after`-th abort fails over without backing off.
    pub failover_after: u32,
    /// Base spin units for fast-path retry backoff.
    pub backoff_base: u64,
    /// The backoff after the `n`-th consecutive abort is
    /// `backoff_base << min(n, backoff_cap_exp)` spin units.
    pub backoff_cap_exp: u32,
    /// Random jitter: each backoff `b` becomes `b + uniform[0, b·pct/100)`,
    /// the same meaning as `HybridPolicy::backoff_jitter_pct`.
    pub backoff_jitter_pct: u32,
    /// Failed slow-path attempts before escalating to the
    /// serial-irrevocable tier (the native mirror of the simulator's
    /// third watchdog tier).
    pub serial_after: u32,
}

impl Default for NativeHybridPolicy {
    fn default() -> Self {
        NativeHybridPolicy {
            failover_after: 4,
            backoff_base: 50,
            backoff_cap_exp: 7,
            backoff_jitter_pct: 25,
            serial_after: 8,
        }
    }
}

/// Shared native hybrid state: the TL2 world (which owns the word
/// heap), the USTM ownership table, and the mode gate.
#[derive(Debug)]
pub struct NativeHybrid {
    tl2: NativeTl2,
    ustm: NativeUstm,
    /// Count of slow-path transactions pending or running.
    slow_mode: AtomicU64,
    /// Count of fast-path transactions currently executing.
    fast_inflight: AtomicU64,
    /// Nonzero while a serial-irrevocable transaction runs; both paths
    /// subscribe to it (fast via the gate, slow via attempt parking).
    serial_mode: AtomicU64,
    /// Serializes serial-tier transactions.
    serial_gate: Mutex<()>,
    /// Per-tid flag: this tid currently holds a `fast_inflight`
    /// registration. Lets [`NativeHybrid::reap_dead`] repair the gate
    /// when a worker dies between register and deregister.
    fast_held: Box<[AtomicU64]>,
    /// Per-tid flag: this tid currently holds a `slow_mode`
    /// registration.
    slow_held: Box<[AtomicU64]>,
    policy: NativeHybridPolicy,
}

impl NativeHybrid {
    /// Creates hybrid state: a TL2 world of `heap_words` /
    /// `lock_entries` / `alloc_base_word` (see [`NativeTl2::new`]) plus
    /// a USTM ownership table of `otable_bins` bins with status slots
    /// for `threads`.
    #[must_use]
    pub fn new(
        heap_words: u64,
        lock_entries: u64,
        alloc_base_word: u64,
        threads: usize,
        otable_bins: u64,
        policy: NativeHybridPolicy,
    ) -> Self {
        NativeHybrid {
            tl2: NativeTl2::new(heap_words, lock_entries, alloc_base_word),
            ustm: NativeUstm::new(threads, otable_bins),
            slow_mode: AtomicU64::new(0),
            fast_inflight: AtomicU64::new(0),
            serial_mode: AtomicU64::new(0),
            serial_gate: Mutex::new(()),
            fast_held: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            slow_held: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            policy,
        }
    }

    /// Repairs everything a **dead** worker left behind in the hybrid:
    /// its USTM leavings (helper-completing a sealed commit — done
    /// first, while any gate registration the corpse leaked still holds
    /// the fast path off unguarded heaps), its orphaned TL2 stripe
    /// locks, and finally any `fast_inflight`/`slow_mode` registration
    /// it died holding (which would otherwise wedge the gate forever).
    /// Idempotent and safe to call from multiple survivors — the held
    /// flags are consumed by CAS.
    pub fn reap_dead(&self, tid: usize) {
        self.ustm.reclaim_dead(&self.tl2, tid);
        self.tl2.sweep_orphans();
        if self.fast_held[tid]
            .compare_exchange(1, 0, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            self.fast_inflight.fetch_sub(1, Ordering::SeqCst);
        }
        if self.slow_held[tid]
            .compare_exchange(1, 0, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            self.slow_mode.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Reaps every tid the liveness registry has marked dead.
    pub fn reap_all_dead(&self) {
        for tid in 0..self.slow_held.len() {
            if self.tl2.liveness().is_dead(tid) {
                self.reap_dead(tid);
            }
        }
    }

    /// The underlying TL2 world (heap host) — for setup/verify peeks
    /// and pokes and the debug guard scaffolding.
    #[must_use]
    pub fn tl2(&self) -> &NativeTl2 {
        &self.tl2
    }

    /// The USTM ownership table — test observability.
    #[must_use]
    pub fn ustm(&self) -> &NativeUstm {
        &self.ustm
    }

    /// Registers a fast-path transaction *or* a plain accessor in
    /// `fast_inflight`, quiescing while any slow-path transaction is
    /// pending (the PhTM-style stop-word subscription). Routing plain
    /// accesses through the same gate closes the hole the `mprotect`
    /// guard cannot cover on unguarded (boxed/TSan/non-x86_64) heaps:
    /// a pending slow commit drains plain accessors exactly like fast
    /// transactions before touching the heap.
    fn gate_enter(&self) {
        // Delay-only failpoint (anonymous stream): widens the window in
        // which a plain accessor sits between registering and checking.
        let _ = self.tl2.chaos().strike_anon(FailSite::HybridGate);
        loop {
            self.fast_inflight.fetch_add(1, Ordering::SeqCst);
            if self.slow_mode.load(Ordering::SeqCst) == 0
                && self.serial_mode.load(Ordering::SeqCst) == 0
            {
                return;
            }
            self.fast_inflight.fetch_sub(1, Ordering::SeqCst);
            while self.slow_mode.load(Ordering::SeqCst) != 0
                || self.serial_mode.load(Ordering::SeqCst) != 0
            {
                std::thread::yield_now();
            }
        }
    }

    fn gate_exit(&self) {
        self.fast_inflight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Plain (non-transactional) load, gated against slow-path commit
    /// windows; see [`NativeTl2::peek`].
    #[must_use]
    pub fn peek(&self, addr: Addr) -> u64 {
        self.gate_enter();
        let v = self.tl2.peek(addr);
        self.gate_exit();
        v
    }

    /// Plain (non-transactional) store, gated against slow-path commit
    /// windows; see [`NativeTl2::poke`].
    pub fn poke(&self, addr: Addr, value: u64) {
        self.gate_enter();
        self.tl2.poke(addr, value);
        self.gate_exit();
    }

    /// Host-side allocation from the shared bump allocator.
    #[must_use]
    pub fn host_alloc(&self, words: u64) -> Addr {
        self.tl2.host_alloc(words)
    }

    /// Guard counters for the shared heap.
    #[must_use]
    pub fn guard_stats(&self) -> GuardStats {
        self.tl2.guard_stats()
    }
}

/// Merged per-thread hybrid counters: fast-path TL2 stats, slow-path
/// USTM stats, and failover accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HybridStats {
    /// TL2 fast-path counters.
    pub fast: NativeStats,
    /// USTM slow-path counters.
    pub slow: NativeUstmStats,
    /// Transactions that failed over to the slow path after
    /// `failover_after` consecutive fast aborts.
    pub failovers: u64,
    /// Failovers injected by [`HybridThread::force_failover_next`]
    /// (test/cross-validation scaffolding).
    pub forced_failovers: u64,
    /// Transactions completed on the serial-irrevocable tier.
    pub serial_commits: u64,
    /// Escalations from the slow path to the serial tier (after
    /// `serial_after` failed slow attempts).
    pub serial_escalations: u64,
}

impl HybridStats {
    /// Transactions committed on any tier.
    #[must_use]
    pub fn total_commits(&self) -> u64 {
        self.fast.commits + self.slow.commits + self.serial_commits
    }

    /// Total aborts on either retrying path (the serial tier never
    /// aborts).
    #[must_use]
    pub fn total_aborts(&self) -> u64 {
        self.fast.total_aborts() + self.slow.total_aborts()
    }

    /// Folds another thread's counters into this one. Exhaustive
    /// destructuring: adding a field without summing it here is a
    /// compile error.
    pub fn merge(&mut self, other: &HybridStats) {
        let HybridStats {
            fast,
            slow,
            failovers,
            forced_failovers,
            serial_commits,
            serial_escalations,
        } = *other;
        self.fast.merge(&fast);
        self.slow.merge(&slow);
        self.failovers += failovers;
        self.forced_failovers += forced_failovers;
        self.serial_commits += serial_commits;
        self.serial_escalations += serial_escalations;
    }
}

/// One OS thread's hybrid backend handle: a fast-path and a slow-path
/// transaction handle over the shared state, implementing
/// [`TmBackend`] so backend-generic workloads run on the hybrid
/// unchanged.
#[derive(Debug)]
pub struct HybridThread<'a> {
    shared: &'a NativeHybrid,
    fast: NativeTxn<'a>,
    slow: NativeUstmTxn<'a>,
    barrier: Option<&'a Barrier>,
    tid: usize,
    threads: usize,
    force_slow: bool,
    failovers: u64,
    forced_failovers: u64,
    serial_commits: u64,
    serial_escalations: u64,
    retry: RetryCore,
    /// xorshift64 state for backoff jitter (per-thread seed; no fairness
    /// claims).
    rng: u64,
}

impl<'a> HybridThread<'a> {
    /// Creates the handle for thread `tid` of `threads`. `barrier` is
    /// the shared phase barrier; pass `None` for single-threaded
    /// protocol scripts that never call [`TmBackend::barrier`].
    #[must_use]
    pub fn new(
        shared: &'a NativeHybrid,
        barrier: Option<&'a Barrier>,
        tid: usize,
        threads: usize,
    ) -> Self {
        let p = shared.policy;
        HybridThread {
            shared,
            fast: NativeTxn::new(&shared.tl2, tid),
            slow: NativeUstmTxn::new(&shared.tl2, &shared.ustm, tid),
            barrier,
            tid,
            threads,
            force_slow: false,
            failovers: 0,
            forced_failovers: 0,
            serial_commits: 0,
            serial_escalations: 0,
            // No hardware watchdog and no stagnation detector natively.
            retry: RetryCore::new(RetryPolicy {
                backoff_base: p.backoff_base,
                backoff_cap_exp: p.backoff_cap_exp,
                backoff_jitter_pct: p.backoff_jitter_pct,
                failover_after: Some(p.failover_after),
                watchdog_after: None,
                serial_after: Some(p.serial_after),
                stagnation_after: None,
            }),
            rng: 0x9E37_79B9_7F4A_7C15 ^ ((tid as u64 + 1) << 17),
        }
    }

    /// Makes the next [`TmBackend::transaction`] on this handle run on
    /// the USTM slow path regardless of abort counts — deterministic
    /// failover for tests and cross-validation scripts (the native
    /// mirror of the simulated driver's forced failover hook).
    pub fn force_failover_next(&mut self) {
        self.force_slow = true;
    }

    /// This handle's merged counters.
    #[must_use]
    pub fn stats(&self) -> HybridStats {
        HybridStats {
            fast: self.fast.stats,
            slow: self.slow.stats,
            failovers: self.failovers,
            forced_failovers: self.forced_failovers,
            serial_commits: self.serial_commits,
            serial_escalations: self.serial_escalations,
        }
    }

    /// One decision-core step after an abort of `class` on the path
    /// `tally` counts. The native substrate has no stagnation detector
    /// and may always escalate.
    fn decide(&mut self, tally: &mut Tally, class: AbortClass) -> Decision {
        let rng = &mut self.rng;
        self.retry.on_abort(
            tally,
            class,
            None,
            || true,
            |span| {
                *rng ^= *rng << 13;
                *rng ^= *rng >> 7;
                *rng ^= *rng << 17;
                *rng % span
            },
        )
    }

    /// Registers a fast-path transaction, quiescing while any slow-path
    /// transaction is pending; see [`NativeHybrid::gate_enter`].
    fn enter_fast(&self) {
        self.shared.gate_enter();
    }

    fn exit_fast(&self) {
        self.shared.gate_exit();
    }

    /// One fast-path attempt; `Some(r)` on commit.
    fn try_fast<R>(
        &mut self,
        body: &mut impl FnMut(&mut dyn TxScope) -> Result<R, Stop>,
    ) -> Option<R> {
        // Held-flag first, then the body: if this worker dies at an
        // injected failpoint inside the attempt, `reap_dead` can see the
        // flag and give its gate registration back.
        self.enter_fast();
        self.shared.fast_held[self.tid].store(1, Ordering::SeqCst);
        self.fast.begin();
        let committed = match body(&mut self.fast) {
            Ok(r) => self.fast.commit().is_ok().then_some(r),
            Err(Stop) => {
                if self.fast.is_active() {
                    self.fast.drop_attempt();
                }
                None
            }
        };
        self.shared.fast_held[self.tid].store(0, Ordering::SeqCst);
        self.exit_fast();
        committed
    }

    /// Runs one transaction to commit on the USTM slow path: raise the
    /// mode, drain the fast path, retry the body under USTM until it
    /// commits, release the mode. Once the decision core says so (after
    /// `serial_after` failed attempts), escalates to the
    /// serial-irrevocable tier — the third watchdog tier, mirroring the
    /// simulator's. Between attempts the slow path
    /// parks (deregistering from the mode) while a serial transaction
    /// runs, so the serial tier's drain always terminates.
    fn run_slow<R>(&mut self, body: &mut impl FnMut(&mut dyn TxScope) -> Result<R, Stop>) -> R {
        let shared = self.shared;
        shared.slow_held[self.tid].store(1, Ordering::SeqCst);
        shared.slow_mode.fetch_add(1, Ordering::SeqCst);
        while shared.fast_inflight.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
        let mut tally = Tally::default();
        let committed = loop {
            if shared.serial_mode.load(Ordering::SeqCst) != 0 {
                // Park: hand the mode back so the serial tier can drain,
                // re-register once it completes.
                shared.slow_mode.fetch_sub(1, Ordering::SeqCst);
                shared.slow_held[self.tid].store(0, Ordering::SeqCst);
                while shared.serial_mode.load(Ordering::SeqCst) != 0 {
                    std::thread::yield_now();
                }
                shared.slow_held[self.tid].store(1, Ordering::SeqCst);
                shared.slow_mode.fetch_add(1, Ordering::SeqCst);
                while shared.fast_inflight.load(Ordering::SeqCst) != 0 {
                    std::thread::yield_now();
                }
            }
            self.slow.begin();
            match body(&mut self.slow) {
                Ok(r) => match self.slow.commit() {
                    Ok(()) => break Some(r),
                    Err(UstmAbort::Killed { .. }) => self.slow.wait_for_killer(),
                    Err(_) => {}
                },
                Err(Stop) => {
                    if self.slow.is_active() {
                        // The body surfaced a hand-made Stop with the
                        // attempt still live: roll it back and retry.
                        let _ = self.slow.abort_explicit();
                    } else {
                        // Protocol abort (killed): pause behind the
                        // killer before retrying.
                        self.slow.wait_for_killer();
                    }
                }
            }
            // Every failed attempt counts, hand-made stops included.
            if self.decide(&mut tally, AbortClass::SlowFailed) == Decision::Escalate {
                break None;
            }
        };
        shared.slow_mode.fetch_sub(1, Ordering::SeqCst);
        shared.slow_held[self.tid].store(0, Ordering::SeqCst);
        match committed {
            Some(r) => r,
            None => {
                self.serial_escalations += 1;
                self.run_serial(body)
            }
        }
    }

    /// The serial-irrevocable tier: take the serial gate, raise
    /// `serial_mode` (fast transactions and plain accessors park at the
    /// gate; slow transactions park between attempts), reap every dead
    /// worker, drain both paths, then execute the body **directly** on
    /// the heap — no locks, no ownership, no aborts, and no chaos
    /// strikes, so completion is unconditional. The native livelock of
    /// mutual kills that wedges a two-tier hybrid completes here.
    fn run_serial<R>(&mut self, body: &mut impl FnMut(&mut dyn TxScope) -> Result<R, Stop>) -> R {
        let shared = self.shared;
        let (gate, _recovered) = lock_recover(&shared.serial_gate);
        shared.serial_mode.store(1, Ordering::SeqCst);
        loop {
            // Dead workers can never deregister; give their
            // registrations back before judging the drain.
            shared.reap_all_dead();
            if shared.fast_inflight.load(Ordering::SeqCst) == 0
                && shared.slow_mode.load(Ordering::SeqCst) == 0
            {
                break;
            }
            std::thread::yield_now();
        }
        let mut scope = SerialScope { shared };
        let r = match body(&mut scope) {
            Ok(r) => r,
            Err(Stop) => {
                // Irrevocable: direct stores are already public, so a
                // hand-made Stop cannot roll back. Bodies that fabricate
                // aborts are scaffolding-only and never reach the serial
                // tier; a real workload body only fails via its scope.
                panic!("transaction body surfaced a hand-made Stop on the serial tier")
            }
        };
        self.serial_commits += 1;
        shared.serial_mode.store(0, Ordering::SeqCst);
        drop(gate);
        r
    }
}

/// The serial tier's [`TxScope`]: direct, uninstrumented heap access.
/// Sound because `run_serial` holds every other path parked for the
/// whole body, and no new fast/slow transaction starts until
/// `serial_mode` drops.
struct SerialScope<'a> {
    shared: &'a NativeHybrid,
}

impl TxScope for SerialScope<'_> {
    fn read(&mut self, addr: Addr) -> Result<u64, Stop> {
        Ok(self.shared.tl2.peek(addr))
    }

    fn write(&mut self, addr: Addr, value: u64) -> Result<(), Stop> {
        self.shared.tl2.poke(addr, value);
        Ok(())
    }

    fn alloc(&mut self, words: u64) -> Result<Addr, Stop> {
        Ok(self.shared.tl2.host_alloc(words))
    }

    fn work(&mut self, cycles: u64) -> Result<(), Stop> {
        spin_work(cycles);
        Ok(())
    }
}

impl TmBackend for HybridThread<'_> {
    fn transaction<R>(&mut self, mut body: impl FnMut(&mut dyn TxScope) -> Result<R, Stop>) -> R {
        let forced = std::mem::take(&mut self.force_slow);
        if !forced {
            let mut tally = Tally::default();
            loop {
                if let Some(r) = self.try_fast(&mut body) {
                    return r;
                }
                match self.decide(&mut tally, AbortClass::Contention) {
                    Decision::Retry { backoff } => {
                        spin_work(backoff);
                        std::thread::yield_now();
                    }
                    Decision::Failover { .. } => break,
                    Decision::Escalate => unreachable!("the fast path never escalates natively"),
                }
            }
        }
        let r = self.run_slow(&mut body);
        self.failovers += 1;
        if forced {
            self.forced_failovers += 1;
        }
        r
    }

    fn plain_load(&mut self, addr: Addr) -> u64 {
        self.shared.peek(addr)
    }

    fn plain_store(&mut self, addr: Addr, value: u64) {
        self.shared.poke(addr, value);
    }

    fn compute(&mut self, cycles: u64) {
        spin_work(cycles);
    }

    fn barrier(&mut self) {
        self.barrier
            .expect("this hybrid handle has no phase barrier")
            .wait();
    }

    fn tid(&self) -> usize {
        self.tid
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn force_failover_next(&mut self) {
        HybridThread::force_failover_next(self);
    }

    fn commit_counts(&mut self) -> (u64, u64) {
        // Serial commits count on the "slow" side, mirroring the
        // simulated backend's sw + lock + serial rollup.
        (
            self.fast.stats.commits,
            self.slow.stats.commits + self.serial_commits,
        )
    }

    fn failovers(&mut self) -> u64 {
        self.failovers
    }

    fn serial_commits(&mut self) -> u64 {
        self.serial_commits
    }
}

/// One worker's join outcome from [`run_hybrid_threads_collect`]; see
/// [`crate::tl2::NativeOutcome`].
#[derive(Clone, Debug)]
pub struct HybridOutcome<R> {
    /// Worker tid (outcomes are returned in tid order).
    pub tid: usize,
    /// The worker's merged counters at join time.
    pub stats: HybridStats,
    /// The body's result, or the rendered panic payload.
    pub result: Result<R, String>,
}

/// Runs `body` on `threads` real OS threads over `shared`, each with
/// its own [`HybridThread`] handle and a common phase barrier, and
/// collects **every** worker's outcome. A panicked worker is marked
/// dead and immediately reaped (in-thread, before it exits): its USTM
/// leavings are helper-completed or discarded, its TL2 stripe locks
/// swept, and any gate registration it died holding is repaired, so
/// survivors keep committing while the corpse is still warm.
///
/// Bodies that may be killed by panic injection must not use the phase
/// barrier (a dead worker never arrives).
pub fn run_hybrid_threads_collect<R: Send>(
    shared: &NativeHybrid,
    threads: usize,
    body: impl Fn(&mut HybridThread<'_>) -> R + Sync,
) -> Vec<HybridOutcome<R>> {
    assert!(threads >= 1, "at least one thread");
    let barrier = Barrier::new(threads);
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let barrier = &barrier;
                let body = &body;
                scope.spawn(move || {
                    let mut th = HybridThread::new(shared, Some(barrier), tid, threads);
                    let r = catch_unwind(AssertUnwindSafe(|| body(&mut th)));
                    let stats = th.stats();
                    let result = r.map_err(|payload| {
                        shared.tl2.liveness().mark_dead(tid);
                        shared.reap_dead(tid);
                        chaos::panic_message(payload.as_ref())
                    });
                    HybridOutcome { tid, stats, result }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("hybrid worker wrapper itself panicked"))
            .collect::<Vec<_>>()
    });
    if outcomes.iter().any(|o| o.result.is_err()) {
        shared.reap_all_dead();
    }
    outcomes
}

/// Runs `body` on `threads` real OS threads over `shared`, each with
/// its own [`HybridThread`] handle and a common phase barrier. Returns
/// the merged stats and each thread's result (in tid order).
///
/// # Panics
///
/// Panics if any worker panicked, naming every dead tid with its
/// payload and per-thread counters. Use [`run_hybrid_threads_collect`]
/// to observe the survivors instead.
pub fn run_hybrid_threads<R: Send>(
    shared: &NativeHybrid,
    threads: usize,
    body: impl Fn(&mut HybridThread<'_>) -> R + Sync,
) -> (HybridStats, Vec<R>) {
    let outcomes = run_hybrid_threads_collect(shared, threads, body);
    let mut stats = HybridStats::default();
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
        "hybrid worker thread(s) panicked: {}",
        deaths.join("; ")
    );
    (stats, results)
}
