//! Real-thread stress for the native hybrid and its USTM slow path —
//! counter invariants under genuine contention. These (with
//! `ustm_protocol.rs` and `concurrent.rs`) are the CI ThreadSanitizer
//! targets for the crate: TSan runs them with `UFOTM_SKIP_GUARD=1`, so
//! the heap uses plain boxed atomics and every USTM/hybrid
//! synchronization path is visible to the race detector.

use std::sync::atomic::{AtomicU64, Ordering};

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
            failover_after: 1, // any abort fails over
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
            failover_after: 2,
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
