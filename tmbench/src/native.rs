//! Shared runner for the native-hybrid workloads: one slice runs the
//! workers on real threads through `run_hybrid_threads`, and the
//! counters the native layers publish are accumulated across slices.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use ufotm_native::chaos::panic_message;
use ufotm_native::{run_hybrid_threads, HybridStats, NativeHybrid};

use crate::probe::{probed, Probe, ProbeOut, Trace, Worker};

/// Counters the native layers publish, summed over a phase's slices.
#[derive(Clone, Debug, Default)]
pub struct NativeAcc {
    /// Merged `HybridStats` (TL2 fast path, USTM slow path, failovers).
    pub stats: HybridStats,
    /// `NativeTl2::clock_now()` advance during the timed runs.
    pub clock_bumps: u64,
    /// Whether the heap was guarded (the same for every slice).
    pub guarded: bool,
    /// Guard commit windows opened.
    pub windows: u64,
    /// Plain accesses that faulted inside a window.
    pub faults_in_window: u64,
    /// Largest USTM ownership-table occupancy left after a slice.
    pub owned_lines_end: u64,
}

/// Runs `w` on `threads` hybrid threads over `h` under `probe`, folding
/// the published counters into `acc`.
///
/// # Errors
///
/// The panic message when a worker panicked.
pub fn run_slice<W: Worker>(
    h: &NativeHybrid,
    threads: usize,
    probe: Probe,
    w: &W,
    acc: &mut NativeAcc,
) -> Result<Vec<(W::Out, ProbeOut)>, String> {
    let clock0 = h.tl2().clock_now();
    let (stats, outs) = catch_unwind(AssertUnwindSafe(|| {
        run_hybrid_threads(h, threads, |th| probed(th, probe, w))
    }))
    .map_err(|p| panic_message(p.as_ref()))?;
    acc.stats.merge(&stats);
    acc.clock_bumps += h.tl2().clock_now() - clock0;
    let guard = h.guard_stats();
    acc.guarded = guard.guarded;
    acc.windows += guard.windows_opened;
    acc.faults_in_window += guard.faults_in_window;
    acc.owned_lines_end = acc.owned_lines_end.max(h.ustm().owned_lines() as u64);
    Ok(outs)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per-layer metrics from the native layers' own counters over `txns`
/// committed transactions.
pub fn counter_layers(acc: &NativeAcc, txns: u64, out: &mut BTreeMap<&'static str, f64>) {
    let s = &acc.stats;
    let (txns, ktxn) = (txns as f64, txns as f64 / 1000.0);
    let f = &s.fast;
    out.extend([
        ("hybrid.failovers_per_ktxn", ratio(s.failovers as f64, ktxn)),
        (
            "hybrid.slow_commit_frac",
            ratio(s.slow.commits as f64, s.total_commits() as f64),
        ),
        ("hybrid.serial_commits", s.serial_commits as f64),
        ("tl2.commit_frac", ratio(f.commits as f64, f.begins as f64)),
        (
            "tl2.read_validation_aborts_per_ktxn",
            ratio(f.read_validation_aborts as f64, ktxn),
        ),
        (
            "tl2.lock_busy_aborts_per_ktxn",
            ratio(f.lock_busy_aborts as f64, ktxn),
        ),
        (
            "tl2.commit_validation_aborts_per_ktxn",
            ratio(f.commit_validation_aborts as f64, ktxn),
        ),
        (
            "tl2.clock_bumps_per_txn",
            ratio(acc.clock_bumps as f64, txns),
        ),
        (
            "ustm.commit_frac",
            ratio(s.slow.commits as f64, s.slow.begins as f64),
        ),
        (
            "ustm.kills_per_slow_txn",
            ratio(s.slow.kills_issued as f64, s.slow.commits as f64),
        ),
        (
            "ustm.stalls_per_slow_txn",
            ratio(s.slow.stalls as f64, s.slow.commits as f64),
        ),
        ("ustm.owned_lines_end", acc.owned_lines_end as f64),
        ("guard.guarded", f64::from(u8::from(acc.guarded))),
        ("guard.windows_per_ktxn", ratio(acc.windows as f64, ktxn)),
        ("guard.faults_in_window", acc.faults_in_window as f64),
    ]);
}

/// Per-layer metrics from a traced native run.
pub fn trace_layers(t: &Trace, out: &mut BTreeMap<&'static str, f64>) {
    let [fast, slow, serial] = &t.paths;
    out.extend([
        (
            "hybrid.attempts_per_txn",
            ratio(t.attempts as f64, t.txns as f64),
        ),
        (
            "hybrid.wasted_attempt_frac",
            ratio(t.wasted_ns as f64, t.attempt_ns as f64),
        ),
        ("hybrid.fast.self_ns_p50", fast.self_ns.quantile(0.5)),
        ("hybrid.slow.self_ns_p50", slow.self_ns.quantile(0.5)),
        ("hybrid.slow.self_ns_p99", slow.self_ns.quantile(0.99)),
        ("plain.load_ns_p50", t.plain_load_ns.quantile(0.5)),
        ("tl2.read_ns_p50", fast.read_ns.quantile(0.5)),
        (
            "tl2.reads_per_txn",
            ratio(fast.reads as f64, fast.txns as f64),
        ),
        ("tl2.write_ns_p50", fast.write_ns.quantile(0.5)),
        ("ustm.read_ns_p50", slow.read_ns.quantile(0.5)),
        ("hybrid.txn_ns_p50.fast", fast.txn_ns.quantile(0.5)),
        ("hybrid.txn_ns_p99.fast", fast.txn_ns.quantile(0.99)),
        ("hybrid.txn_ns_p50.slow", slow.txn_ns.quantile(0.5)),
        ("hybrid.txn_ns_p99.slow", slow.txn_ns.quantile(0.99)),
        ("hybrid.txn_ns_p50.serial", serial.txn_ns.quantile(0.5)),
        ("hybrid.txn_ns_p99.serial", serial.txn_ns.quantile(0.99)),
    ]);
}
