//! `disjoint`: each worker runs short read-modify-write transactions on
//! lines private to it, and every 4th operation is a plain load of one
//! of its own lines.
//!
//! Nothing conflicts, so the slow path never runs: the workload isolates
//! the fast path's fixed costs (the `fast_inflight` gate on transactions
//! and plain accesses, TL2 begin, commit and the global clock bump) and
//! how they scale from one thread to two.

use std::time::{Duration, Instant};

use ufotm_core::TmBackend;
use ufotm_machine::{Addr, SimRng};
use ufotm_native::{NativeHybrid, NativeHybridPolicy};

use crate::native::{counter_layers, run_slice, NativeAcc};
use crate::phase::PhaseOut;
use crate::probe::{Probe, Worker};
use crate::stats::ns;

/// Lines private to each worker.
const LINES_PER_WORKER: usize = 4;
/// One operation in this many is a plain load instead of a transaction.
const PLAIN_EVERY: u64 = 4;
/// One transaction in this many is timed by the untraced probe.
pub const LATENCY_STRIDE: u64 = 32;
/// Wall time of one slice; each slice builds a fresh heap.
const SLICE: Duration = Duration::from_millis(250);
/// Operations between deadline checks.
const CHECK_EVERY: u64 = 256;
/// Byte address of worker 0's first line.
const LINE_BASE: u64 = 4096;

fn line(tid: usize, j: usize) -> Addr {
    Addr(LINE_BASE + ((tid * LINES_PER_WORKER + j) as u64) * 64)
}

/// Builds the hybrid: the 4096-stripe lock table and 1024-bin otable of
/// the repository's harness over a heap just large enough for the lines.
pub fn build(threads: usize) -> NativeHybrid {
    let base_word = LINE_BASE / 8 + (threads * LINES_PER_WORKER) as u64 * 8;
    let policy = NativeHybridPolicy::default();
    NativeHybrid::new(base_word + 64, 1 << 12, base_word, threads, 1 << 10, policy)
}

struct Disjoint {
    seed: u64,
    slice: Duration,
}

struct DisjointOut {
    /// Committed increments per own line.
    expect: [u64; LINES_PER_WORKER],
    plain_checks: u64,
    plain_mismatches: u64,
    elapsed: Duration,
}

impl Worker for Disjoint {
    type Out = DisjointOut;

    fn run<B: TmBackend>(&self, b: &mut B) -> DisjointOut {
        let tid = b.tid();
        let mut rng = SimRng::seed_from_u64(self.seed ^ ((tid as u64 + 1) << 40));
        let mut out = DisjointOut {
            expect: [0; LINES_PER_WORKER],
            plain_checks: 0,
            plain_mismatches: 0,
            elapsed: Duration::ZERO,
        };
        b.barrier();
        let start = Instant::now();
        for op in 0.. {
            if op % CHECK_EVERY == 0 && start.elapsed() >= self.slice {
                break;
            }
            let j = rng.gen_index(0..LINES_PER_WORKER);
            if op % PLAIN_EVERY == PLAIN_EVERY - 1 {
                // Strong atomicity of privatized data: a plain load of
                // an own line sees exactly the committed increments.
                out.plain_checks += 1;
                if b.plain_load(line(tid, j)) != out.expect[j] {
                    out.plain_mismatches += 1;
                }
                continue;
            }
            let k = (j + 1 + rng.gen_index(0..LINES_PER_WORKER - 1)) % LINES_PER_WORKER;
            let d = 1 + rng.gen_range(0..8);
            let (a, c) = (line(tid, j), line(tid, k));
            b.transaction(|tx| {
                let x = tx.read(a)?;
                let y = tx.read(c)?;
                tx.write(a, x + d)?;
                tx.write(c, y + d)
            });
            out.expect[j] += d;
            out.expect[k] += d;
        }
        out.elapsed = start.elapsed();
        out
    }
}

/// Runs slices of `slice` wall time until `budget` is spent.
pub fn phase(seed: u64, threads: usize, probe: Probe, budget: Duration) -> PhaseOut {
    let mut out = PhaseOut::default();
    let mut acc = NativeAcc::default();
    let began = Instant::now();
    for n in 0u64.. {
        if n > 0 && began.elapsed() + SLICE > budget {
            break;
        }
        let t0 = Instant::now();
        let h = build(threads);
        out.setups.push(ns(t0.elapsed()) as f64 / 1e9);
        let w = Disjoint {
            seed: seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            slice: SLICE.min(budget),
        };
        let outs = match run_slice(&h, threads, probe, &w, &mut acc) {
            Ok(outs) => outs,
            Err(e) => {
                out.fail(1, format!("disjoint slice {n}: worker panicked: {e}"));
                continue;
            }
        };
        let mut txns = 0;
        let mut elapsed = Duration::ZERO;
        for (tid, (o, po)) in outs.into_iter().enumerate() {
            let ops = po.txns + o.plain_checks;
            out.attempted += ops;
            if o.plain_mismatches > 0 {
                out.fail(
                    o.plain_mismatches,
                    format!("disjoint: {} stale plain loads", o.plain_mismatches),
                );
            }
            for j in 0..LINES_PER_WORKER {
                let got = h.tl2().peek(line(tid, j));
                if got != o.expect[j] {
                    out.fail(
                        po.txns,
                        format!("disjoint: line {tid}.{j} = {got}, want {}", o.expect[j]),
                    );
                    break;
                }
            }
            txns += po.txns;
            elapsed = elapsed.max(o.elapsed);
            out.absorb(po);
        }
        out.rates.push(txns as f64 / elapsed.as_secs_f64());
    }
    counter_layers(&acc, out.txns, &mut out.layer);
    out
}
