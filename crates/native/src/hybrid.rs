//! The native hybrid: TL2 fast path, USTM slow path, and abort-count
//! failover — the real-thread rendition of the simulated `HybridTm`
//! driver.
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
//! This is the crate's only driver. With `failover_after: None` it never
//! leaves the fast path, which is how the native "TL2-only" system runs:
//! failover is the only difference between the two native systems.
//!
//! ## Isolation per stripe
//!
//! Fast and slow transactions run concurrently, as in the paper's UFO
//! hybrid, isolated per stripe by the TL2 stripe table instead of the
//! per-line UFO bits: USTM ownership records are counted on their
//! stripes, and a fast commit or [`NativeHybrid::poke`] into a counted
//! stripe backs off until the slow transaction releases; a slow
//! write-back holds its stripes and releases them with a fresh clock
//! version, so fast reads and [`NativeHybrid::peek`] see it whole or not
//! at all. The serial tier is one more USTM attempt at a reserved
//! timestamp older than all others: nothing can kill or stall it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Barrier, Mutex};

use ufotm_api::{
    AbortClass, Addr, Decision, RetryCore, RetryPolicy, Stop, Tally, TmBackend, TxScope, UstmAbort,
};

use crate::chaos::{lock_recover, panic_message};
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
    /// `failover_after`-th abort fails over without backing off. `None`
    /// never fails over: the fast path retries until it commits (TL2-only).
    pub failover_after: Option<u32>,
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
            failover_after: Some(4),
            backoff_base: 50,
            backoff_cap_exp: 7,
            backoff_jitter_pct: 25,
            serial_after: 8,
        }
    }
}

/// Shared native hybrid state: the TL2 world (which owns the word
/// heap and the stripe table) and the USTM ownership table.
#[derive(Debug)]
pub struct NativeHybrid {
    tl2: NativeTl2,
    ustm: NativeUstm,
    /// Serializes serial-tier transactions (they share one timestamp).
    serial_gate: Mutex<()>,
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
            serial_gate: Mutex::new(()),
            policy,
        }
    }

    /// Repairs everything a **dead** worker left behind in the hybrid:
    /// its USTM leavings (helper-completing a sealed commit, which also
    /// releases the stripes it died holding, or discarding an unsealed
    /// one) and its orphaned TL2 stripe locks. Idempotent and safe to
    /// call from multiple survivors.
    pub fn reap_dead(&self, tid: usize) {
        self.ustm.reclaim_dead(&self.tl2, tid);
        self.tl2.sweep_orphans();
    }

    /// Reaps every tid the liveness registry has marked dead.
    pub fn reap_all_dead(&self) {
        for tid in 0..self.ustm.threads() {
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

    /// Plain (non-transactional) load that never sees a fast or slow
    /// commit half-applied (a seqlock read of the word's stripe).
    #[must_use]
    pub fn peek(&self, addr: Addr) -> u64 {
        self.tl2.load_isolated(addr)
    }

    /// Plain (non-transactional) store that never lands inside a slow
    /// transaction's read or write set or inside a commit.
    pub fn poke(&self, addr: Addr, value: u64) {
        self.tl2.store_isolated(addr, value);
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
                failover_after: p.failover_after,
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

    /// One fast-path attempt; `Some(r)` on commit.
    fn try_fast<R>(
        &mut self,
        body: &mut impl FnMut(&mut dyn TxScope) -> Result<R, Stop>,
    ) -> Option<R> {
        self.fast.begin();
        match body(&mut self.fast) {
            Ok(r) => self.fast.commit().is_ok().then_some(r),
            Err(Stop) => {
                if self.fast.is_active() {
                    self.fast.drop_attempt();
                }
                None
            }
        }
    }

    /// Runs one transaction to commit on the USTM slow path, retrying
    /// the body under USTM until it commits; every retry keeps the first
    /// attempt's timestamp. Once the decision core says
    /// so (after `serial_after` failed attempts), escalates to the
    /// serial-irrevocable tier — the third watchdog tier, mirroring the
    /// simulator's.
    fn run_slow<R>(&mut self, body: &mut impl FnMut(&mut dyn TxScope) -> Result<R, Stop>) -> R {
        let mut tally = Tally::default();
        self.slow.begin();
        loop {
            match body(&mut self.slow) {
                Ok(r) => match self.slow.commit() {
                    Ok(()) => return r,
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
                self.serial_escalations += 1;
                return self.run_serial(body);
            }
            self.slow.begin_again();
        }
    }

    /// The serial-irrevocable tier: under the serial gate, one USTM
    /// attempt that nothing can kill, stall or strike, so the native
    /// livelock of mutual kills completes here. Counted in
    /// `serial_commits` alone; the slow path's counters stay as they were.
    fn run_serial<R>(&mut self, body: &mut impl FnMut(&mut dyn TxScope) -> Result<R, Stop>) -> R {
        let (_gate, _recovered) = lock_recover(&self.shared.serial_gate);
        let slow_stats = self.slow.stats;
        self.slow.begin_serial();
        let Ok(r) = body(&mut self.slow) else {
            // The attempt cannot be killed, so only a body that
            // fabricates aborts gets here — scaffolding that never
            // reaches the serial tier.
            panic!("transaction body surfaced a hand-made Stop on the serial tier")
        };
        self.slow
            .commit()
            .expect("the serial attempt can be neither killed nor struck");
        self.slow.stats = slow_stats;
        self.serial_commits += 1;
        r
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
                // The fast path yields to a slow transaction that owns a
                // stripe it writes.
                self.fast.wait_for_owners();
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

/// One worker's outcome from [`run_hybrid_threads_collect`]: its counters
/// survive even when the body panicked, so torture tests can assert that
/// the *surviving* threads still committed.
#[derive(Clone, Debug)]
pub struct HybridOutcome<R> {
    /// Worker tid (outcomes are returned in tid order).
    pub tid: usize,
    /// The worker's event counters at join time.
    pub stats: HybridStats,
    /// The body's result, or the rendered panic payload.
    pub result: Result<R, String>,
}

/// Runs `body` on `threads` real OS threads over `shared`, each with
/// its own [`HybridThread`] handle and a common phase barrier, and
/// collects **every** worker's outcome. A panicked worker is marked
/// dead and immediately reaped (in-thread, before it exits): its USTM
/// leavings are helper-completed or discarded and its TL2 stripe locks
/// swept, so survivors keep committing while the corpse is still warm.
///
/// Bodies that may be killed by panic injection must not use the phase
/// barrier (a dead worker never arrives).
///
/// # Panics
///
/// Panics if `threads` is 0.
pub fn run_hybrid_threads_collect<R: Send>(
    shared: &NativeHybrid,
    threads: usize,
    body: impl Fn(&mut HybridThread<'_>) -> R + Sync,
) -> Vec<HybridOutcome<R>> {
    assert!(threads >= 1, "at least one thread");
    let barrier = Barrier::new(threads);
    let outcomes: Vec<HybridOutcome<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let (barrier, body) = (&barrier, &body);
                scope.spawn(move || {
                    let mut th = HybridThread::new(shared, Some(barrier), tid, threads);
                    let r = catch_unwind(AssertUnwindSafe(|| body(&mut th)));
                    let stats = th.stats();
                    let result = r.map_err(|payload| {
                        shared.tl2.liveness().mark_dead(tid);
                        shared.reap_dead(tid);
                        panic_message(payload.as_ref())
                    });
                    HybridOutcome { tid, stats, result }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker wrapper itself panicked"))
            .collect()
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
    let mut stats = HybridStats::default();
    let mut results = Vec::with_capacity(threads);
    let mut deaths = Vec::new();
    for o in run_hybrid_threads_collect(shared, threads, body) {
        stats.merge(&o.stats);
        match o.result {
            Ok(r) => results.push(r),
            Err(msg) => deaths.push(format!("tid {}: {msg} (stats {:?})", o.tid, o.stats)),
        }
    }
    assert!(
        deaths.is_empty(),
        "worker thread(s) panicked: {}",
        deaths.join("; ")
    );
    (stats, results)
}
