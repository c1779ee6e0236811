//! Wall-clock throughput of the native hybrid (TL2 fast path + USTM
//! slow path) against TL2-only, on real OS threads.
//!
//! The workload is a transactional counter sweep at two contention
//! levels: `low-contention` spreads increments over 64 cache lines,
//! `high-contention` funnels every thread onto one line. Each
//! transaction yields between its read and its write, so conflict
//! windows open even on small hosts where a microsecond transaction
//! would otherwise never overlap a timeslice — the yield stands in for
//! the paper's "transactions long enough to be preempted" regime.
//!
//! "TL2-only" is the same driver with failover off
//! (`NativeHybridPolicy { failover_after: None, .. }`): the same fast
//! path, retry schedule and isolated plain accesses, so failover is the
//! only difference between the two columns. Under high abort rates
//! TL2-only burns its time on optimistic re-execution and backoff,
//! while the hybrid fails over to the USTM slow path, whose blocking
//! age-ordered protocol serializes the hot line without wasted work. The headline cell (4 threads, one
//! line) takes the best of three repetitions per system, logs the
//! `hybrid/tl2` ratio (expected >= 1.0), and hard-fails only below a
//! 0.8 noise-tolerance band; the full sweep and the
//! hybrid's failover/abort counters land in `BENCH_native_hybrid.json`.
//! `docs/PERF.md` documents the methodology; numbers are host-dependent
//! and exempt from byte-determinism.

use ufotm_bench::{
    check_native_baseline, header, native_thread_counts, quick, ArtifactWriter, HostMetrics,
};
use ufotm_core::TmBackend;
use ufotm_machine::Addr;
use ufotm_native::{run_hybrid_threads, HybridStats, NativeHybrid, NativeHybridPolicy, NativeTl2};

/// First counter slot (byte address; slots are line-spaced).
const SLOT_BASE: u64 = 4096;
const HEAP_WORDS: u64 = 1 << 12;
const LOCK_ENTRIES: u64 = 1 << 12;
const ALLOC_BASE_WORD: u64 = 1 << 11;
const OTABLE_BINS: u64 = 1 << 10;

fn slot(i: u64) -> Addr {
    Addr(SLOT_BASE + i * 64)
}

/// One thread's share: `txns` read-modify-write increments spread over
/// `lines` line-spaced slots, yielding mid-transaction so concurrent
/// transactions interleave regardless of host core count.
fn counter_body<B: TmBackend>(b: &mut B, lines: u64, txns: u64) {
    let tid = b.tid() as u64;
    for i in 0..txns {
        let s = slot((tid + i) % lines);
        b.transaction(|tx| {
            let v = tx.read(s)?;
            tx.work(8)?;
            std::thread::yield_now();
            tx.write(s, v + 1)
        });
    }
}

fn check_sum(heap: &NativeTl2, lines: u64, expected: u64) {
    let sum: u64 = (0..lines).map(|i| heap.peek(slot(i))).sum();
    assert_eq!(sum, expected, "increments must not be lost");
}

struct Cell {
    ops_per_sec: f64,
    commits: u64,
    aborts: u64,
    hybrid: HybridStats,
}

fn run_tl2_only(threads: usize, lines: u64, txns: u64) -> Cell {
    let tl2_only = NativeHybridPolicy {
        failover_after: None,
        ..NativeHybridPolicy::default()
    };
    run_cell(threads, lines, txns, tl2_only)
}

fn run_hybrid(threads: usize, lines: u64, txns: u64) -> Cell {
    run_cell(threads, lines, txns, NativeHybridPolicy::default())
}

fn run_cell(threads: usize, lines: u64, txns: u64, policy: NativeHybridPolicy) -> Cell {
    let shared = NativeHybrid::new(
        HEAP_WORDS,
        LOCK_ENTRIES,
        ALLOC_BASE_WORD,
        threads,
        OTABLE_BINS,
        policy,
    );
    let (host, stats) = HostMetrics::measure(|| {
        let (stats, _) = run_hybrid_threads(&shared, threads, |th| counter_body(th, lines, txns));
        (0, stats)
    });
    let total = threads as u64 * txns;
    check_sum(shared.tl2(), lines, total);
    Cell {
        ops_per_sec: total as f64 * 1e9 / host.ns.max(1) as f64,
        commits: stats.total_commits(),
        aborts: stats.total_aborts(),
        hybrid: stats,
    }
}

fn record(art: &mut ArtifactWriter, label: &str, threads: usize, system: &str, cell: &Cell) {
    println!(
        "  {label:<16} {threads}T {system:<7} commits={:>7} aborts={:>7} \
         failovers={:>6} slow={:>7}  {:>12.0} ops/s",
        cell.commits,
        cell.aborts,
        cell.hybrid.failovers,
        cell.hybrid.slow.commits,
        cell.ops_per_sec,
    );
    let key = format!("{label}/{threads}T/{system}");
    art.metric(format!("{key}/ops_per_sec"), cell.ops_per_sec);
    if system == "hybrid" {
        art.metric(format!("{key}/failovers"), cell.hybrid.failovers as f64);
        art.metric(
            format!("{key}/slow_commits"),
            cell.hybrid.slow.commits as f64,
        );
        art.metric(
            format!("{key}/fast_aborts"),
            cell.hybrid.fast.total_aborts() as f64,
        );
        art.metric(
            format!("{key}/slow_aborts"),
            cell.hybrid.slow.total_aborts() as f64,
        );
    }
}

fn main() {
    header("native hybrid vs TL2-only: host ops/sec (no simulator)");
    let mut art = ArtifactWriter::new("native_hybrid");

    let txns: u64 = if quick() { 300 } else { 1500 };

    println!();
    for &threads in &native_thread_counts() {
        for (label, lines) in [("low-contention", 64u64), ("high-contention", 1)] {
            let tl2 = run_tl2_only(threads, lines, txns);
            record(&mut art, label, threads, "tl2", &tl2);
            let hy = run_hybrid(threads, lines, txns);
            record(&mut art, label, threads, "hybrid", &hy);
        }
    }

    // The headline cell: 4 threads on one line, run regardless of the
    // sweep cap (intentionally oversubscribed on small hosts — the
    // mid-transaction yields keep the interleaving adversarial either
    // way). The expectation is hybrid >= TL2-only: once abort rates
    // explode, failing over to the blocking slow path beats optimistic
    // re-execution. Single wall-clock measurements on a shared runner
    // are noisy, so each system takes the best of three repetitions and
    // the hard assertion allows a tolerance band; the exact >= 1.0
    // expectation stays a logged metric (and the CI baseline gate
    // catches sustained regressions).
    const HEADLINE_REPS: usize = 3;
    const HEADLINE_MIN_RATIO: f64 = 0.8;
    println!();
    let tl2 = (0..HEADLINE_REPS)
        .map(|_| run_tl2_only(4, 1, txns))
        .max_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec))
        .expect("at least one repetition");
    record(&mut art, "headline", 4, "tl2", &tl2);
    let hy = (0..HEADLINE_REPS)
        .map(|_| run_hybrid(4, 1, txns))
        .max_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec))
        .expect("at least one repetition");
    record(&mut art, "headline", 4, "hybrid", &hy);
    assert!(
        hy.hybrid.failovers > 0 && hy.hybrid.slow.commits > 0,
        "the headline cell must actually exercise the slow path \
         (failovers={}, slow commits={})",
        hy.hybrid.failovers,
        hy.hybrid.slow.commits,
    );
    let ratio = hy.ops_per_sec / tl2.ops_per_sec.max(1.0);
    art.metric("headline/hybrid_over_tl2".to_string(), ratio);
    println!("headline hybrid/tl2 throughput ratio: {ratio:.2}x (expect >= 1.0)");
    assert!(
        ratio >= HEADLINE_MIN_RATIO,
        "hybrid lost decisively to TL2-only on the high-contention \
         headline cell ({:.0} vs {:.0} ops/s, best of {HEADLINE_REPS}): \
         failover is supposed to pay for itself exactly here",
        hy.ops_per_sec,
        tl2.ops_per_sec,
    );

    art.finish();
    check_native_baseline(art.metrics());
}
