//! Guard teardown robustness (ISSUE 9, satellite): a worker that
//! panics *inside* the commit window — after `mprotect(PROT_NONE)` has
//! been raised on the public view — must not leave the heap
//! unreadable. The window guard restores protection on the unwind, the
//! runner helper-completes the sealed record, and subsequent plain and
//! transactional traffic proceeds as if the death never happened.

use std::sync::Once;

use ufotm_api::{Addr, TmBackend};
use ufotm_native::{
    guard, run_hybrid_threads, run_hybrid_threads_collect, ChaosPlan, FailSite, InjectedPanic,
    NativeHybrid, NativeHybridPolicy,
};

const X: Addr = Addr(4096); // its own page, away from page 0
const Y: Addr = Addr(12288); // a different page: forces a multi-run window

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

fn world() -> NativeHybrid {
    NativeHybrid::new(
        1 << 14,
        1 << 8,
        1 << 12,
        1,
        1 << 6,
        NativeHybridPolicy::default(),
    )
}

/// The regression proper: die at the `GuardWindow` failpoint (fired
/// run-by-run as protection is raised), then prove the public view was
/// restored — a plain peek must *return*, not fault through a stale
/// `PROT_NONE` page — and the sealed commit was helper-completed.
#[test]
fn panic_inside_the_window_restores_protection_and_completes() {
    quiet_injected_panics();
    let h = world();
    if !h.guard_stats().guarded {
        // Unguarded (feature off, non-x86_64, UFOTM_SKIP_GUARD): the
        // window raises no protection, but the same unwind path runs —
        // covered by `native_torture`'s UstmSealed cells.
        return;
    }
    assert!(guard::available());
    // Two pages in the write set → two mprotect runs → the strike on
    // the *second* run dies with the first page already protected and
    // in `runs`, pinning the incremental-construction unwind.
    h.tl2()
        .chaos()
        .arm(&ChaosPlan::quiet(31).with_panic(FailSite::GuardWindow, Some(0), 2));
    let outcomes = run_hybrid_threads_collect(&h, 1, |th| {
        th.force_failover_next();
        th.transaction(|tx| {
            tx.write(X, 42)?;
            tx.write(Y, 77)?;
            Ok(())
        });
    });
    h.tl2().chaos().disarm();

    let msg = outcomes[0]
        .result
        .as_ref()
        .expect_err("worker must die in-window");
    assert!(msg.contains("guard-window"), "wrong death: {msg}");
    // If the unwind had leaked PROT_NONE, these peeks would fault with
    // no window open and crash the process instead of returning.
    assert_eq!(h.peek(X), 42, "sealed record must be helper-completed");
    assert_eq!(h.peek(Y), 77, "the whole record must be replayed");
    assert_eq!(h.ustm().helper_completions(), 1);
    assert_eq!(h.ustm().owned_lines(), 0);
    h.ustm()
        .audit()
        .expect("otable audit after in-window death");
    let stats = h.guard_stats();
    assert!(
        stats.windows_opened >= 2,
        "victim's window plus the helper's"
    );
}

/// After an in-window death, the guard machinery must still be fully
/// serviceable: fresh commit windows open, protect, and defer racing
/// plain accesses exactly as before the death.
#[test]
fn guard_windows_still_work_after_an_in_window_death() {
    quiet_injected_panics();
    let h = world();
    if !h.guard_stats().guarded {
        return;
    }
    h.tl2()
        .chaos()
        .arm(&ChaosPlan::quiet(32).with_panic(FailSite::GuardWindow, Some(0), 1));
    let outcomes = run_hybrid_threads_collect(&h, 1, |th| {
        th.force_failover_next();
        th.transaction(|tx| {
            tx.write(X, 1)?;
            Ok(())
        });
    });
    h.tl2().chaos().disarm();
    assert!(outcomes[0].result.is_err());

    // A full post-mortem commit cycle: slow path, real window, clean
    // commit — the gate mutex was poisoned by the in-window death and
    // must have been recovered, not cascaded.
    let before = h.guard_stats().windows_opened;
    let (stats, _) = run_hybrid_threads(&h, 1, |th| {
        th.force_failover_next();
        th.transaction(|tx| {
            let v = tx.read(X)?;
            tx.write(X, v + 1)?;
            Ok(())
        });
    });
    assert_eq!(stats.slow.commits, 1);
    assert_eq!(
        h.peek(X),
        2,
        "helper-completed 1, then the live commit's +1"
    );
    assert!(
        h.guard_stats().windows_opened > before,
        "no fresh window opened"
    );
}
