//! Strong-atomicity acceptance tests for the mprotect guard (ISSUE 8):
//! a plain (non-transactional) access racing a USTM commit window must
//! be detected, classified, and deferred past the window — never lost,
//! never torn.
//!
//! All tests no-op (pass trivially) when the guard is unavailable: off
//! feature, non-Linux/x86_64, or `UFOTM_SKIP_GUARD=1` (the TSan CI job
//! sets it — the dual mapping's aliased views are invisible to TSan's
//! shadow memory, and these tests are about the MMU, not data races).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ufotm_api::Addr;
use ufotm_native::{guard, NativeHybrid, NativeHybridPolicy, NativeTl2};

const X: Addr = Addr(4096); // word 512: its own page, away from page 0
const DEADLINE: Duration = Duration::from_secs(20);

fn wait_until(mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < DEADLINE, "guard test deadline exceeded");
        std::thread::yield_now();
    }
}

/// The acceptance criterion, verbatim: a racing plain *write* into a
/// guarded page during the commit window is detected (faults into the
/// classifying handler), stalled, and lands after the window — the
/// write is serialized after the commit, not silently lost and not
/// interleaved into the write-back.
#[test]
fn racing_plain_write_is_classified_and_deferred() {
    if !guard::available() {
        return;
    }
    let heap = NativeTl2::new(1 << 14, 1 << 8, 1 << 13);
    heap.poke(X, 7);
    assert!(heap.guard_stats().guarded, "dual mapping should be active");

    std::thread::scope(|scope| {
        // Open the commit window exactly as a USTM commit does.
        let win = heap.debug_open_window(&[X]);
        let baseline = heap.guard_stats();

        let poker = scope.spawn(|| {
            // This plain store faults: the page is PROT_NONE. The
            // handler classifies it (in-window, inside the heap),
            // spins until the window closes, then the store
            // re-executes and lands.
            heap.poke(X, 99);
        });

        // The racing writer is stalled inside the fault handler: its
        // store has been *detected* but must not have reached memory.
        wait_until(|| heap.guard_stats().faults_in_window > baseline.faults_in_window);
        assert_eq!(
            heap.debug_shadow_peek(X),
            7,
            "plain write leaked into the commit window"
        );
        let off = heap
            .debug_last_fault_offset()
            .expect("fault should be classified with an address");
        assert_eq!(
            off as u64 / 4096,
            X.0 / 4096,
            "fault classified to the wrong page"
        );

        // Close the window: the deferred store must now land.
        drop(win);
        poker.join().expect("poker thread panicked");
        assert_eq!(heap.peek(X), 99, "deferred plain write was lost");
    });

    let stats = heap.guard_stats();
    assert!(stats.windows_opened >= 1);
    assert!(stats.faults_in_window >= 1);
}

/// Same for a racing plain *read*: it faults, stalls, and observes
/// post-window state — never a torn intermediate.
#[test]
fn racing_plain_read_defers_to_post_window_state() {
    if !guard::available() {
        return;
    }
    let heap = NativeTl2::new(1 << 14, 1 << 8, 1 << 13);
    heap.poke(X, 1);

    std::thread::scope(|scope| {
        let win = heap.debug_open_window(&[X]);
        let baseline = heap.guard_stats();
        let reader = scope.spawn(|| heap.peek(X));
        wait_until(|| heap.guard_stats().faults_in_window > baseline.faults_in_window);
        // The shadow view itself never faults, even mid-window.
        assert_eq!(heap.debug_shadow_peek(X), 1);
        drop(win);
        let seen = reader.join().expect("reader thread panicked");
        assert_eq!(seen, 1, "deferred read saw a torn value");
    });
}

/// Regression: registering a *second*, smaller guarded heap must not
/// disturb the first heap's registered length. The original slot-claim
/// loop wrote `REGION_LEN[slot]` for every probed slot before the CAS
/// on `REGION_BASE`, so a second registration shrank (or grew) the
/// recorded length of already-occupied slots — after which a perfectly
/// legitimate guarded access high in the first heap was misclassified
/// as "not ours" and crashed through the restored old disposition.
#[test]
fn second_heap_registration_preserves_first_heap_length() {
    if !guard::available() {
        return;
    }
    // 16 Ki words = 128 KiB guarded heap.
    let big = NativeTl2::new(1 << 14, 1 << 8, 1 << 13);
    // 512 words = 4 KiB: registering this while `big` is live probes
    // (and under the bug, clobbered) `big`'s occupied slot first.
    let small = NativeTl2::new(1 << 9, 1 << 8, 1 << 8);
    assert!(big.guard_stats().guarded && small.guard_stats().guarded);

    // The last line of `big` — far beyond `small`'s 4 KiB length, so a
    // clobbered slot length turns this fault into a crash.
    let high = Addr((1 << 14) * 8 - 64);
    big.poke(high, 5);

    std::thread::scope(|scope| {
        let win = big.debug_open_window(&[high]);
        let baseline = big.guard_stats();
        let poker = scope.spawn(|| big.poke(high, 6));
        wait_until(|| big.guard_stats().faults_in_window > baseline.faults_in_window);
        drop(win);
        poker.join().expect("poker thread panicked");
    });
    assert_eq!(big.peek(high), 6, "deferred high-address write was lost");
    drop(small);
}

/// End-to-end: plain pokes/peeks hammer a word that shares a page with
/// words a USTM transaction commits to. Every committed value must be
/// consistent — the plain traffic is serialized around the commit
/// windows by the guard, and the final state reflects both writers.
#[test]
fn ustm_commits_with_concurrent_plain_traffic() {
    if !guard::available() {
        return;
    }
    let h = NativeHybrid::new(
        1 << 14,
        1 << 8,
        1 << 13,
        2,
        1 << 6,
        NativeHybridPolicy::default(),
    );
    let a = Addr(4096); // same page as b: plain traffic to b false-shares
    let b = Addr(4096 + 256);
    const ROUNDS: u64 = 200;
    let stop = AtomicBool::new(false);
    let started = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let plain = scope.spawn(|| {
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                h.poke(b, n);
                assert_eq!(h.peek(b), n, "plain word torn by a commit window");
                n += 1;
                started.store(true, Ordering::Release);
            }
            n
        });
        // Start handshake: a freshly spawned thread can first run after
        // the whole USTM loop has finished, so the commits wait for one
        // completed poke/peek before they begin.
        wait_until(|| started.load(Ordering::Acquire));

        let mut txn = ufotm_native::NativeUstmTxn::new(h.tl2(), h.ustm(), 0);
        for i in 1..=ROUNDS {
            txn.run(|t| {
                let v = t.read(a)?;
                t.write(a, v + 1)?;
                Ok(i)
            });
        }
        stop.store(true, Ordering::Relaxed);
        let pokes = plain.join().expect("plain thread panicked");
        assert!(pokes > 0, "plain thread never ran");
    });

    assert_eq!(h.peek(a), ROUNDS, "USTM increments lost");
    let stats = h.guard_stats();
    assert_eq!(
        stats.windows_opened, ROUNDS,
        "every writing USTM commit should open one window"
    );
}
