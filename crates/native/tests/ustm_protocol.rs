//! Protocol-level scripts for the native USTM slow path: redo-log
//! visibility, ownership lifecycle, age-ordered kill/stall resolution,
//! and abort classification (matching the simulated USTM's
//! `UstmAbort` variants and `Display` text).

use std::sync::atomic::{AtomicBool, Ordering};

use ufotm_api::{Addr, UstmAbort};
use ufotm_native::{NativeTl2, NativeUstm, NativeUstmTxn};

const X: Addr = Addr(512);
const Y: Addr = Addr(1024);

fn world() -> (NativeTl2, NativeUstm) {
    (
        NativeTl2::new(1 << 14, 1 << 8, 1 << 13),
        NativeUstm::new(4, 1 << 6),
    )
}

#[test]
fn redo_log_is_lazy_and_read_own_write_works() {
    let (heap, ustm) = world();
    heap.poke(X, 10);
    let mut t = NativeUstmTxn::new(&heap, &ustm, 0);
    t.begin();
    assert_eq!(t.read(X).unwrap(), 10);
    t.write(X, 20).unwrap();
    // Lazy redo: the write is buffered, not in memory (unlike the
    // eager-undo simulated USTM — this divergence is by design and why
    // cross-validation scripts never peek mid-transaction).
    assert_eq!(heap.peek(X), 10);
    // Read-own-write comes from the redo log.
    assert_eq!(t.read(X).unwrap(), 20);
    t.commit().unwrap();
    assert_eq!(heap.peek(X), 20);
    assert_eq!(t.stats.commits, 1);
}

#[test]
fn explicit_abort_discards_the_redo_log_and_classifies() {
    let (heap, ustm) = world();
    heap.poke(X, 1);
    let mut t = NativeUstmTxn::new(&heap, &ustm, 0);
    t.begin();
    t.write(X, 99).unwrap();
    let abort = t.abort_explicit();
    assert_eq!(abort, UstmAbort::Explicit);
    assert_eq!(format!("{abort}"), "explicit STM abort");
    assert_eq!(heap.peek(X), 1, "aborted redo log must not publish");
    assert_eq!(t.stats.aborts_explicit, 1);
    assert_eq!(ustm.owned_lines(), 0, "abort must release all ownership");
}

#[test]
fn commit_releases_all_ownership() {
    let (heap, ustm) = world();
    let mut t = NativeUstmTxn::new(&heap, &ustm, 0);
    t.begin();
    let _ = t.read(X).unwrap();
    let _ = t.read(Y).unwrap();
    t.write(Y, 5).unwrap();
    assert!(ustm.owned_lines() >= 2, "read ownership is eager");
    t.commit().unwrap();
    assert_eq!(ustm.owned_lines(), 0, "commit must release all ownership");
    assert_eq!(heap.peek(Y), 5);
}

/// Age-ordered conflict, older-kills-younger side: an older committer
/// finds a younger reader on its write line, kills it, and waits for
/// the unwind. The victim observes its doom at the next protocol step
/// and gets the exact `Killed { by }` classification (and `Display`
/// text) of the simulated USTM.
#[test]
fn older_committer_kills_younger_reader() {
    let (heap, ustm) = world();
    heap.poke(X, 7);

    // Sequential setup on one thread pins the age order AND the
    // conflict: the younger reader owns X's line before the older
    // committer starts acquiring it.
    let mut older = NativeUstmTxn::new(&heap, &ustm, 0);
    older.begin(); // ts = 1 (older)
    let mut younger = NativeUstmTxn::new(&heap, &ustm, 1);
    younger.begin(); // ts = 2 (younger)
    let _ = younger.read(X).unwrap();

    std::thread::scope(|scope| {
        let killer = scope.spawn(move || {
            // Acquires write ownership of X's line at commit: kills the
            // younger reader and waits for it to unwind.
            older.write(X, 8).unwrap();
            older.commit().unwrap();
            older
        });

        // Spin in `work` until the kill lands.
        let abort = loop {
            match younger.work(64) {
                Ok(()) => {}
                Err(a) => break a,
            }
        };
        assert_eq!(abort, UstmAbort::Killed { by: 0 });
        assert_eq!(format!("{abort}"), "killed by STM transaction on cpu 0");
        assert!(!younger.is_active(), "killed transaction must be unwound");
        assert_eq!(younger.stats.aborts_killed, 1);

        let older = killer.join().expect("killer thread panicked");
        assert_eq!(older.stats.kills_issued, 1);
        assert_eq!(older.stats.commits, 1);
    });

    assert_eq!(heap.peek(X), 8, "the killer's commit must have published");
    assert_eq!(ustm.owned_lines(), 0);
}

/// Age-ordered conflict, younger-stalls side: a younger committer
/// stalls behind an older reader and only publishes after the older
/// transaction retires. No kill is issued in either direction.
#[test]
fn younger_committer_stalls_behind_older_reader() {
    let (heap, ustm) = world();
    heap.poke(X, 1);

    let mut older = NativeUstmTxn::new(&heap, &ustm, 0);
    older.begin(); // ts = 1
    let _ = older.read(X).unwrap();
    let committing = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let stalled = scope.spawn(|| {
            let mut younger = NativeUstmTxn::new(&heap, &ustm, 1);
            younger.begin(); // ts = 2
            younger.write(X, 2).unwrap();
            committing.store(true, Ordering::SeqCst);
            younger.commit().unwrap(); // stalls behind the older reader
            younger
        });

        // While the older reader lives, the younger commit cannot
        // publish (it is stalling in write acquisition).
        while !committing.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        for _ in 0..50 {
            assert_eq!(heap.peek(X), 1, "younger published past an older reader");
            std::thread::yield_now();
        }
        older.commit().unwrap(); // read-only; releases ownership
        let younger = stalled.join().expect("stalled thread panicked");
        assert_eq!(younger.stats.commits, 1);
        assert_eq!(
            younger.stats.aborts_killed, 0,
            "younger must stall, not die"
        );
        assert_eq!(older.stats.kills_issued, 0);
    });

    assert_eq!(heap.peek(X), 2);
    assert_eq!(ustm.owned_lines(), 0);
}

/// `run` retries a killed transaction to commit (with a killer-wait in
/// between), so every increment lands exactly once.
#[test]
fn run_retries_killed_transactions_to_commit() {
    let (heap, ustm) = world();
    const PER: u64 = 300;
    std::thread::scope(|scope| {
        for tid in 0..2 {
            let heap = &heap;
            let ustm = &ustm;
            scope.spawn(move || {
                let mut t = NativeUstmTxn::new(heap, ustm, tid);
                for _ in 0..PER {
                    t.run(|tx| {
                        let v = tx.read(X)?;
                        tx.work(32)?;
                        tx.write(X, v + 1)?;
                        Ok(())
                    });
                }
                assert_eq!(t.stats.commits, PER);
                assert_eq!(
                    t.stats.begins,
                    t.stats.commits + t.stats.total_aborts(),
                    "begin/commit/abort accounting must balance"
                );
            });
        }
    });
    assert_eq!(heap.peek(X), 2 * PER, "increments lost under conflict");
    assert_eq!(ustm.owned_lines(), 0);
}
