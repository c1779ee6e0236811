//! Wall-clock throughput of the native host-atomics TL2 backend (the
//! native hybrid with failover off).
//!
//! Runs the backend-generic kmeans and ssca2 bodies on real OS threads
//! (no simulator) and records operations per second in
//! `BENCH_native_tl2.json`. Unlike the simulated figures these numbers
//! are host-dependent and not byte-deterministic; they exist to answer
//! the question the simulator cannot: what the software TL2 path costs
//! on real contended cache lines. `docs/PERF.md` documents the
//! methodology; the sim-vs-native agreement itself is pinned by the
//! `cross_validate` test suite, not here.

use ufotm_bench::{
    check_native_baseline, header, native_thread_counts, quick, ArtifactWriter, HostMetrics,
};
use ufotm_stamp::harness::{NativeOutcome, RunSpec};
use ufotm_stamp::kmeans::{self, KmeansParams};
use ufotm_stamp::ssca2::{self, Ssca2Params};

fn ops_per_sec(out: &NativeOutcome, host: HostMetrics) -> f64 {
    out.ops as f64 * 1e9 / host.ns.max(1) as f64
}

fn record(
    art: &mut ArtifactWriter,
    label: String,
    run: impl FnOnce(&RunSpec) -> NativeOutcome,
    threads: usize,
) {
    let spec = RunSpec::native(threads);
    // sim_cycles is 0 by definition: no simulator runs here, so the
    // ns-per-cycle field of the host record is meaningless for this bench.
    let (host, out) = HostMetrics::measure(|| (0, run(&spec)));
    let ops_s = ops_per_sec(&out, host);
    println!(
        "  {label:<28} {threads}T  ops={:>8}  commits={:>8}  aborts={:>6}  {:>12.0} ops/s",
        out.ops,
        out.total_commits(),
        out.stats.total_aborts(),
        ops_s,
    );
    art.metric(format!("{label}/{threads}T/ops_per_sec"), ops_s);
    art.push_host(format!("{label}/{threads}T"), host);
}

fn main() {
    header("native TL2: host-atomics ops/sec (no simulator)");
    let mut art = ArtifactWriter::new("native_tl2");

    let (km, sc) = if quick() {
        (
            KmeansParams {
                points: 192,
                dims: 4,
                clusters: 4,
                iterations: 2,
            },
            Ssca2Params {
                nodes: 64,
                edges: 512,
            },
        )
    } else {
        (KmeansParams::high_contention(), Ssca2Params::standard())
    };

    println!();
    for &threads in &native_thread_counts() {
        record(
            &mut art,
            "kmeans-high-contention".to_string(),
            |spec| kmeans::run_native(spec, &km),
            threads,
        );
    }
    println!();
    for &threads in &native_thread_counts() {
        record(
            &mut art,
            "ssca2".to_string(),
            |spec| ssca2::run_native(spec, &sc),
            threads,
        );
    }

    art.finish();
    check_native_baseline(art.metrics());
}
