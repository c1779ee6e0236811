//! Real-thread stress for the native hybrid and its USTM slow path —
//! counter invariants under genuine contention, and adversarial
//! schedules for the stripe-table isolation between the paths. These (with
//! `ustm_protocol.rs` and `concurrent.rs`) are the CI ThreadSanitizer
//! targets for the crate: TSan runs them with `UFOTM_SKIP_GUARD=1`, so
//! the heap uses plain boxed atomics and every USTM/hybrid
//! synchronization path is visible to the race detector.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ufotm_api::{Addr, TmBackend};
use ufotm_native::{run_hybrid_threads, HybridThread, NativeHybrid, NativeHybridPolicy};

const COUNTER: Addr = Addr(512);
const ACCT_A: Addr = Addr(1024);
const ACCT_B: Addr = Addr(8192); // different page and stripe

fn world(threads: usize) -> NativeHybrid {
    NativeHybrid::new(
        1 << 16,
        1 << 12,
        1 << 12,
        threads,
        1 << 8,
        NativeHybridPolicy::default(),
    )
}

#[test]
fn hybrid_counter_increments_are_exact() {
    const THREADS: usize = 4;
    const PER: u64 = 400;
    let h = world(THREADS);
    let (stats, _) = run_hybrid_threads(&h, THREADS, |th| {
        for _ in 0..PER {
            th.transaction(|tx| {
                let v = tx.read(COUNTER)?;
                tx.work(16)?;
                tx.write(COUNTER, v + 1)?;
                Ok(())
            });
        }
    });
    assert_eq!(h.peek(COUNTER), THREADS as u64 * PER, "increments lost");
    assert_eq!(
        stats.total_commits(),
        THREADS as u64 * PER,
        "exactly one commit per transaction across both paths"
    );
    assert_eq!(
        stats.fast.begins,
        stats.fast.commits + stats.fast.total_aborts(),
        "fast-path accounting must balance"
    );
    assert_eq!(
        stats.slow.begins,
        stats.slow.commits + stats.slow.total_aborts(),
        "slow-path accounting must balance"
    );
    assert_eq!(h.ustm().owned_lines(), 0, "ownership must drain");
}

/// An aggressive failover policy under heavy conflict: the slow path
/// must actually be taken, and still not lose an update.
#[test]
fn hybrid_fails_over_under_conflict_and_stays_exact() {
    const THREADS: usize = 4;
    const PER: u64 = 300;
    let h = NativeHybrid::new(
        1 << 16,
        1 << 12,
        1 << 12,
        THREADS,
        1 << 8,
        NativeHybridPolicy {
            failover_after: Some(1), // any abort fails over
            ..NativeHybridPolicy::default()
        },
    );
    let (stats, _) = run_hybrid_threads(&h, THREADS, |th| {
        for _ in 0..PER {
            th.transaction(|tx| {
                let v = tx.read(COUNTER)?;
                // Yield mid-body so another thread's commit lands between
                // this read and our commit even on a single-CPU host:
                // conflicts (and thus failovers) become near-certain
                // instead of depending on a lucky preemption.
                tx.work(16)?;
                std::thread::yield_now();
                tx.write(COUNTER, v + 1)?;
                Ok(())
            });
        }
    });
    assert_eq!(h.peek(COUNTER), THREADS as u64 * PER);
    assert_eq!(stats.total_commits(), THREADS as u64 * PER);
    assert!(
        stats.failovers > 0 && stats.slow.commits > 0,
        "contention at failover_after=1 must exercise the slow path \
         (failovers={}, slow commits={})",
        stats.failovers,
        stats.slow.commits
    );
}

/// Forced failover: the test hook sends exactly the next transaction to
/// the slow path, counted separately.
#[test]
fn forced_failover_runs_next_transaction_on_the_slow_path() {
    let h = world(1);
    let (stats, _) = run_hybrid_threads(&h, 1, |th| {
        th.transaction(|tx| tx.write(COUNTER, 1));
        th.force_failover_next();
        th.transaction(|tx| {
            let v = tx.read(COUNTER)?;
            tx.write(COUNTER, v + 10)?;
            Ok(())
        });
        th.transaction(|tx| {
            let v = tx.read(COUNTER)?;
            tx.write(COUNTER, v + 100)?;
            Ok(())
        });
    });
    assert_eq!(h.peek(COUNTER), 111);
    assert_eq!(stats.slow.commits, 1, "exactly the forced txn went slow");
    assert_eq!(stats.fast.commits, 2, "the others stayed on the fast path");
    assert_eq!(stats.forced_failovers, 1);
    assert_eq!(stats.failovers, 1);
}

/// Invariant preservation across both paths: transfers between two
/// accounts (on different pages/stripes) with interleaved read-only
/// audits. The total must be conserved at every audit and at the end.
#[test]
fn hybrid_transfers_conserve_the_total() {
    const THREADS: usize = 4;
    const PER: u64 = 250;
    const TOTAL: u64 = 1_000_000;
    let h = NativeHybrid::new(
        1 << 16,
        1 << 12,
        1 << 12,
        THREADS,
        1 << 8,
        NativeHybridPolicy {
            failover_after: Some(2),
            ..NativeHybridPolicy::default()
        },
    );
    h.poke(ACCT_A, TOTAL);
    h.poke(ACCT_B, 0);
    let audits = AtomicU64::new(0);

    let body = |th: &mut HybridThread<'_>| {
        let tid = th.tid() as u64;
        for i in 0..PER {
            if (i + tid).is_multiple_of(5) {
                // Read-only audit transaction.
                let sum = th.transaction(|tx| {
                    let a = tx.read(ACCT_A)?;
                    let b = tx.read(ACCT_B)?;
                    Ok(a + b)
                });
                assert_eq!(sum, TOTAL, "audit saw a torn transfer");
                audits.fetch_add(1, Ordering::Relaxed);
            } else {
                let amount = (tid * 131 + i) % 97 + 1;
                th.transaction(|tx| {
                    let a = tx.read(ACCT_A)?;
                    if a < amount {
                        return Ok(()); // insufficient funds: no-op
                    }
                    let b = tx.read(ACCT_B)?;
                    tx.work(32)?;
                    tx.write(ACCT_A, a - amount)?;
                    tx.write(ACCT_B, b + amount)?;
                    Ok(())
                });
            }
        }
    };
    let (stats, _) = run_hybrid_threads(&h, THREADS, body);

    assert_eq!(
        h.peek(ACCT_A) + h.peek(ACCT_B),
        TOTAL,
        "transfers must conserve the total"
    );
    assert!(audits.load(Ordering::Relaxed) > 0);
    assert_eq!(stats.total_commits(), THREADS as u64 * PER);
    assert_eq!(h.ustm().owned_lines(), 0);
}

/// Pure slow-path stress: every transaction forced onto USTM, maximal
/// kill/stall traffic through the ownership table.
#[test]
fn all_slow_path_counter_is_exact() {
    const THREADS: usize = 3;
    const PER: u64 = 200;
    let h = world(THREADS);
    let (stats, _) = run_hybrid_threads(&h, THREADS, |th| {
        for _ in 0..PER {
            th.force_failover_next();
            th.transaction(|tx| {
                let v = tx.read(COUNTER)?;
                tx.work(16)?;
                tx.write(COUNTER, v + 1)?;
                Ok(())
            });
        }
    });
    assert_eq!(h.peek(COUNTER), THREADS as u64 * PER);
    assert_eq!(stats.slow.commits, THREADS as u64 * PER);
    assert_eq!(stats.fast.begins, 0, "everything was forced slow");
    assert_eq!(stats.forced_failovers, THREADS as u64 * PER);
}

/// How long an adversarial test waits for the other thread before it
/// declares the overlap impossible.
const DEADLINE: Duration = Duration::from_secs(5);

/// Spins (yielding) until `cond` holds or [`DEADLINE`] passes; returns
/// whether it held.
fn wait_for(mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while !cond() {
        if start.elapsed() > DEADLINE {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

/// An address on a different stripe from `not`, found by holding
/// `not`'s stripe and probing candidates: a probe that observes the hold
/// shares the stripe.
fn distinct_stripe_addr(h: &NativeHybrid, base: Addr, not: Addr) -> Addr {
    let tl2 = h.tl2();
    let hold = tl2.debug_lock_stripe(not, 63);
    let found = (0..256u64).map(|i| Addr(base.0 + i * 64)).find(|&cand| {
        let raw = tl2.debug_lock_stripe(cand, 62);
        tl2.debug_restore_stripe(cand, raw);
        raw & 1 == 0
    });
    tl2.debug_restore_stripe(not, hold);
    found.expect("no address with a distinct stripe within 256 lines")
}

/// Fast and slow transactions overlap: while a forced-slow transaction
/// holds line A in its read set, another thread commits K fast
/// transactions on a line of a different stripe, without failing over.
/// A global mode gate would park the fast thread for the whole slow
/// transaction, so the slow body would wait out its deadline.
#[test]
fn fast_commits_on_other_stripes_overlap_a_slow_transaction() {
    const K: u64 = 32;
    let h = world(2);
    let line_b = distinct_stripe_addr(&h, Addr(1 << 14), ACCT_A);
    let slow_in = AtomicBool::new(false);
    let fast_done = AtomicU64::new(0);
    let (_, results) = run_hybrid_threads(&h, 2, |th| {
        if th.tid() == 0 {
            let mut seen = 0;
            th.force_failover_next();
            th.transaction(|tx| {
                let a = tx.read(ACCT_A)?;
                slow_in.store(true, Ordering::SeqCst);
                wait_for(|| fast_done.load(Ordering::SeqCst) >= K);
                seen = fast_done.load(Ordering::SeqCst);
                tx.write(ACCT_A, a + 1)
            });
            (seen, th.stats())
        } else {
            assert!(
                wait_for(|| slow_in.load(Ordering::SeqCst)),
                "slow txn never began"
            );
            for _ in 0..K {
                th.transaction(|tx| {
                    let v = tx.read(line_b)?;
                    tx.write(line_b, v + 1)
                });
                fast_done.fetch_add(1, Ordering::SeqCst);
            }
            (K, th.stats())
        }
    });
    let (seen, slow) = results[0];
    let fast = results[1].1;
    assert_eq!(
        seen, K,
        "fast commits seen by the slow transaction before its deadline"
    );
    assert_eq!(fast.fast.commits, K, "every overlapping txn committed fast");
    assert_eq!(fast.failovers, 0, "no overlapping txn failed over");
    assert_eq!(slow.slow.commits, 1);
    assert_eq!(h.peek(line_b), K);
    assert_eq!(h.peek(ACCT_A), 1);
    h.tl2().audit_stripes().expect("stripe table quiescent");
}

/// Fault-on-write, fast path: a fast transaction that writes a line a
/// slow transaction has read rolls back as `LockBusy` and waits for the
/// slow transaction to release; both increments land.
#[test]
fn fast_commit_into_a_slow_read_set_backs_off() {
    let h = world(2);
    let slow_in = AtomicBool::new(false);
    let fast_at_commit = AtomicBool::new(false);
    let (_, results) = run_hybrid_threads(&h, 2, |th| {
        if th.tid() == 0 {
            let mut held = false;
            th.force_failover_next();
            th.transaction(|tx| {
                let c = tx.read(COUNTER)?;
                slow_in.store(true, Ordering::SeqCst);
                // Hold C until the fast thread is about to commit, and
                // then long enough for that commit to meet the owner.
                held = wait_for(|| fast_at_commit.load(Ordering::SeqCst));
                std::thread::sleep(Duration::from_millis(50));
                tx.write(COUNTER, c + 1)
            });
            (held, th.stats())
        } else {
            assert!(
                wait_for(|| slow_in.load(Ordering::SeqCst)),
                "slow txn never began"
            );
            th.transaction(|tx| {
                let c = tx.read(COUNTER)?;
                tx.write(COUNTER, c + 1)?;
                fast_at_commit.store(true, Ordering::SeqCst);
                Ok(())
            });
            (true, th.stats())
        }
    });
    let (held, _) = results[0];
    let fast = results[1].1;
    assert!(held, "the fast thread never reached its commit");
    assert_eq!(h.peek(COUNTER), 2, "an increment was lost");
    assert!(
        fast.fast.lock_busy_aborts >= 1,
        "the fast commit must fault on the owned stripe: {fast:?}"
    );
    assert_eq!(
        (fast.fast.commits, fast.failovers),
        (1, 0),
        "the fast transaction waits out the slow one, then commits fast"
    );
    h.tl2().audit_stripes().expect("stripe table quiescent");
}

/// Fault-on-write, plain store: a `poke` into a slow transaction's read
/// set does not land until the slow transaction has released, so the
/// store serializes after the slow commit.
#[test]
fn plain_store_into_a_slow_read_set_waits_for_release() {
    let h = world(2);
    let slow_in = AtomicBool::new(false);
    let poking = AtomicBool::new(false);
    let poked = AtomicBool::new(false);
    let (_, results) = run_hybrid_threads(&h, 2, |th| {
        if th.tid() == 0 {
            let mut early = None;
            th.force_failover_next();
            th.transaction(|tx| {
                let c = tx.read(COUNTER)?;
                slow_in.store(true, Ordering::SeqCst);
                assert!(
                    wait_for(|| poking.load(Ordering::SeqCst)),
                    "poker never ran"
                );
                // Give the poke ample time to (wrongly) land.
                let start = Instant::now();
                while start.elapsed() < Duration::from_millis(50) {
                    if poked.load(Ordering::SeqCst) || h.tl2().debug_shadow_peek(COUNTER) != c {
                        early = Some(h.tl2().debug_shadow_peek(COUNTER));
                    }
                    std::thread::yield_now();
                }
                tx.write(COUNTER, c + 1)
            });
            early
        } else {
            assert!(
                wait_for(|| slow_in.load(Ordering::SeqCst)),
                "slow txn never began"
            );
            poking.store(true, Ordering::SeqCst);
            h.poke(COUNTER, 100);
            poked.store(true, Ordering::SeqCst);
            None
        }
    });
    assert_eq!(
        results[0], None,
        "the poke landed inside the slow transaction's read set"
    );
    assert_eq!(h.peek(COUNTER), 100, "the poke serializes after the commit");
    h.tl2().audit_stripes().expect("stripe table quiescent");
}
