//! Real-thread stress: the tests ThreadSanitizer is pointed at in CI.
//! Each one drives genuine cross-core contention through the full
//! lock-acquire / validate / write-back path and checks an exact
//! invariant at the end — under TSan, any ordering bug in the protocol
//! itself also surfaces as a data-race report.

use std::sync::atomic::{AtomicU64, Ordering};

use ufotm_api::{Addr, TmBackend};
use ufotm_native::{run_threads, NativeTl2};

const THREADS: usize = 4;
const COUNTER: Addr = Addr(4096);

fn heap() -> NativeTl2 {
    NativeTl2::new(1 << 16, 1 << 12, 1 << 12)
}

#[test]
fn contended_counter_counts_exactly() {
    let shared = heap();
    const PER_THREAD: u64 = 400;
    let (stats, _) = run_threads(&shared, THREADS, |th| {
        for _ in 0..PER_THREAD {
            th.transaction(|tx| {
                let v = tx.read(COUNTER)?;
                tx.work(8)?;
                tx.write(COUNTER, v + 1)?;
                Ok(())
            });
        }
    });
    assert_eq!(shared.peek(COUNTER), THREADS as u64 * PER_THREAD);
    assert_eq!(stats.commits, THREADS as u64 * PER_THREAD);
    assert_eq!(
        stats.begins,
        stats.commits + stats.total_aborts(),
        "every begin ends in exactly one commit or abort"
    );
}

#[test]
fn disjoint_counters_never_conflict() {
    let shared = heap();
    const PER_THREAD: u64 = 500;
    // One counter per thread, spread across distinct cache lines.
    let slot = |tid: usize| Addr(COUNTER.0 + (tid as u64) * 64);
    let (stats, _) = run_threads(&shared, THREADS, |th| {
        let mine = slot(th.tid());
        for _ in 0..PER_THREAD {
            th.transaction(|tx| {
                let v = tx.read(mine)?;
                tx.write(mine, v + 1)?;
                Ok(())
            });
        }
    });
    for tid in 0..THREADS {
        assert_eq!(shared.peek(slot(tid)), PER_THREAD);
    }
    // Distinct lines *may* still share a hash stripe; with a 4096-entry
    // table that's vanishingly rare, but the hard guarantee is progress
    // and exactness, so only assert the counts.
    assert_eq!(stats.commits, THREADS as u64 * PER_THREAD);
}

#[test]
fn concurrent_list_pushes_preserve_every_node() {
    // Each thread transactionally allocates nodes and prepends them to
    // one shared list head — alloc under contention plus multi-word
    // write sets.
    let shared = heap();
    const PER_THREAD: u64 = 150;
    let head = COUNTER;
    let (stats, _) = run_threads(&shared, THREADS, |th| {
        let tid = th.tid() as u64;
        for i in 0..PER_THREAD {
            let payload = tid * PER_THREAD + i + 1;
            th.transaction(|tx| {
                let node = tx.alloc(2)?; // [payload, next]
                let old = tx.read(head)?;
                tx.write(node, payload)?;
                tx.write(Addr(node.0 + 8), old)?;
                tx.write(head, node.0)?;
                Ok(())
            });
        }
    });
    // Walk the list: every payload exactly once.
    let mut seen = vec![false; (THREADS as u64 * PER_THREAD) as usize + 1];
    let mut cur = shared.peek(head);
    let mut len = 0u64;
    while cur != 0 {
        let payload = shared.peek(Addr(cur)) as usize;
        assert!(payload >= 1 && payload < seen.len(), "corrupt payload");
        assert!(!seen[payload], "payload {payload} linked twice");
        seen[payload] = true;
        cur = shared.peek(Addr(cur + 8));
        len += 1;
    }
    assert_eq!(len, THREADS as u64 * PER_THREAD);
    assert_eq!(stats.commits, THREADS as u64 * PER_THREAD);
}

#[test]
fn barrier_separates_phases() {
    // Phase 1: everyone increments. Barrier. Phase 2: everyone reads and
    // must observe the complete phase-1 total — a use-after-barrier read
    // of a stale value means the barrier or publication is broken.
    let shared = heap();
    let observed_short = AtomicU64::new(0);
    let (_, _) = run_threads(&shared, THREADS, |th| {
        th.transaction(|tx| {
            let v = tx.read(COUNTER)?;
            tx.write(COUNTER, v + 1)?;
            Ok(())
        });
        th.barrier();
        let total = th.plain_load(COUNTER);
        if total != THREADS as u64 {
            observed_short.fetch_add(1, Ordering::Relaxed);
        }
    });
    assert_eq!(observed_short.load(Ordering::Relaxed), 0);
}

#[test]
fn thread_handles_report_identity() {
    let shared = heap();
    let (_, tids) = run_threads(&shared, THREADS, |th| {
        assert_eq!(th.threads(), THREADS);
        th.tid()
    });
    assert_eq!(tids, (0..THREADS).collect::<Vec<_>>());
}
