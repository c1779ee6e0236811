//! Single-threaded protocol scripts: two manual [`NativeTxn`] handles
//! interleaved step by step, pinning the TL2 semantics (isolation,
//! publication, each abort class) deterministically — no real races
//! needed.

use ufotm_api::{Addr, Tl2Abort};
use ufotm_native::{NativeTl2, NativeTxn};

const X: Addr = Addr(512);

fn heap() -> NativeTl2 {
    NativeTl2::new(4096, 1024, 2048)
}

/// Finds an address at/after `base` whose lock stripe differs from
/// `not`'s, by holding `not`'s stripe and probing candidates: a probe
/// that observes the hold shares the stripe.
fn distinct_stripe_addr(shared: &NativeTl2, base: Addr, not: Addr) -> Addr {
    let hold = shared.debug_lock_stripe(not, 63);
    let mut found = None;
    for i in 0..256u64 {
        let cand = Addr(base.0 + i * 64);
        let raw = shared.debug_lock_stripe(cand, 62);
        shared.debug_restore_stripe(cand, raw);
        if raw & 1 == 0 {
            found = Some(cand);
            break;
        }
    }
    shared.debug_restore_stripe(not, hold);
    found.expect("no address with a distinct stripe within 256 lines")
}

#[test]
fn read_your_writes_and_isolation_until_commit() {
    let shared = heap();
    let mut a = NativeTxn::new(&shared, 0);
    a.begin();
    assert_eq!(a.read(X).unwrap(), 0);
    a.write(X, 7).unwrap();
    assert_eq!(a.read(X).unwrap(), 7, "buffered write must be visible");
    // Not published yet: plain memory and a second transaction see 0.
    assert_eq!(shared.peek(X), 0);
    let mut b = NativeTxn::new(&shared, 1);
    b.begin();
    assert_eq!(b.read(X).unwrap(), 0);
    assert!(b.commit().is_ok());
    a.commit().unwrap();
    assert_eq!(shared.peek(X), 7, "commit publishes");
}

#[test]
fn read_only_commit_is_a_fast_path() {
    let shared = heap();
    shared.poke(X, 3);
    let clock_before = shared.clock_now();
    let mut a = NativeTxn::new(&shared, 0);
    a.begin();
    assert_eq!(a.read(X).unwrap(), 3);
    a.commit().unwrap();
    assert_eq!(
        shared.clock_now(),
        clock_before,
        "read-only commits must not bump the global clock"
    );
    assert_eq!(a.stats.commits, 1);
    assert_eq!(a.stats.total_aborts(), 0);
}

#[test]
fn stale_read_aborts_with_read_validation() {
    let shared = heap();
    let mut a = NativeTxn::new(&shared, 0);
    let mut b = NativeTxn::new(&shared, 1);
    a.begin(); // rv sampled before B's commit
    b.begin();
    b.write(X, 42).unwrap();
    b.commit().unwrap();
    // X's stripe version is now > A's rv: the read must fail.
    assert_eq!(a.read(X), Err(Tl2Abort::ReadValidation));
    assert!(!a.is_active(), "failed read rolls the attempt back");
    assert_eq!(a.stats.read_validation_aborts, 1);
}

#[test]
fn concurrent_writer_forces_commit_validation() {
    let shared = heap();
    let y = distinct_stripe_addr(&shared, Addr(1024), X);
    let mut a = NativeTxn::new(&shared, 0);
    let mut b = NativeTxn::new(&shared, 1);
    a.begin();
    assert_eq!(a.read(X).unwrap(), 0); // X enters A's read set
    b.begin();
    b.write(X, 9).unwrap();
    b.commit().unwrap(); // X's version advances past A's rv
    a.write(y, 1).unwrap(); // write set non-empty: full validation path
    assert_eq!(a.commit(), Err(Tl2Abort::CommitValidation));
    assert_eq!(a.stats.commit_validation_aborts, 1);
    assert_eq!(shared.peek(X), 9);
    assert_eq!(shared.peek(y), 0, "aborted write set must not publish");
}

#[test]
fn busy_lock_aborts_with_lock_busy_and_restores_the_stripe() {
    let shared = heap();
    let raw = shared.debug_lock_stripe(X, 7);
    let mut a = NativeTxn::new(&shared, 0);
    a.begin();
    a.write(X, 5).unwrap();
    assert_eq!(a.commit(), Err(Tl2Abort::LockBusy));
    assert_eq!(a.stats.lock_busy_aborts, 1);
    shared.debug_restore_stripe(X, raw);
    // The stripe is usable again after the hold is released.
    a.begin();
    a.write(X, 5).unwrap();
    a.commit().unwrap();
    assert_eq!(shared.peek(X), 5);
}

#[test]
fn failed_lock_acquire_rolls_back_already_held_stripes() {
    let shared = heap();
    let other = distinct_stripe_addr(&shared, Addr(1024), X);
    let raw = shared.debug_lock_stripe(other, 9);
    let mut a = NativeTxn::new(&shared, 0);
    a.begin();
    a.write(X, 1).unwrap();
    a.write(other, 2).unwrap();
    assert_eq!(a.commit(), Err(Tl2Abort::LockBusy));
    shared.debug_restore_stripe(other, raw);
    // X's stripe was rolled back to unlocked: a fresh writer touching
    // both words succeeds without waiting on anything.
    let mut b = NativeTxn::new(&shared, 1);
    b.begin();
    b.write(X, 3).unwrap();
    b.write(other, 4).unwrap();
    b.commit().unwrap();
    assert_eq!(shared.peek(X), 3);
    assert_eq!(shared.peek(other), 4);
}

#[test]
fn run_retries_until_commit() {
    let shared = heap();
    let raw = shared.debug_lock_stripe(X, 7);
    let mut a = NativeTxn::new(&shared, 0);
    let mut attempts = 0;
    let r = a.run(|tx| {
        attempts += 1;
        if attempts == 2 {
            // First attempt hit LockBusy against the held stripe;
            // release it so this retry can commit.
            shared.debug_restore_stripe(X, raw);
        }
        tx.write(X, 11)?;
        Ok(attempts)
    });
    assert_eq!(r, 2, "run returns only after a successful commit");
    assert_eq!(a.stats.lock_busy_aborts, 1);
    assert_eq!(shared.peek(X), 11);
}

#[test]
fn alloc_hands_out_disjoint_fresh_words() {
    let shared = heap();
    let mut a = NativeTxn::new(&shared, 0);
    a.begin();
    let p = a.alloc(2).unwrap();
    let q = a.alloc(3).unwrap();
    assert_ne!(p, q);
    assert_eq!(q.0 - p.0, 16, "bump allocator is contiguous");
    a.write(p, 1).unwrap();
    a.write(q, 2).unwrap();
    a.commit().unwrap();
    assert_eq!(shared.peek(p), 1);
    assert_eq!(shared.peek(q), 2);
}

#[test]
fn write_skew_on_disjoint_stripes_matches_tl2_validation() {
    // TL2 validates the read set only. A and B each read the word the
    // other writes; A commits first, bumping X's stripe past B's rv, so
    // B's commit-time validation must fail — the native backend
    // classifies it CommitValidation exactly like the simulated TL2.
    let shared = heap();
    let y = distinct_stripe_addr(&shared, Addr(1024), X);
    let mut a = NativeTxn::new(&shared, 0);
    let mut b = NativeTxn::new(&shared, 1);
    a.begin();
    b.begin();
    assert_eq!(a.read(y).unwrap(), 0);
    assert_eq!(b.read(X).unwrap(), 0);
    a.write(X, 1).unwrap();
    b.write(y, 1).unwrap();
    a.commit().unwrap();
    assert_eq!(b.commit(), Err(Tl2Abort::CommitValidation));
    assert_eq!(shared.peek(X), 1);
    assert_eq!(shared.peek(y), 0);
}
