//! The run harness: builds a machine + world for a [`SystemKind`], runs the
//! workload threads, verifies, and collects the numbers the benchmark
//! drivers report.
//!
//! Simulated-address conventions: the first 4 KiB belong to the harness
//! (the phase barrier lives there); workload static data starts at 4 KiB;
//! the shared heap and TM metadata are placed by
//! [`TmSharedLayout::standard`](ufotm_core::TmSharedLayout).

use std::collections::BTreeMap;

use ufotm_core::{BackendKind, HybridPolicy, RunReport, SystemKind, TmShared, TmThread};
use ufotm_machine::{AbortReason, Addr, Machine, MachineConfig};
use ufotm_native::{
    run_hybrid_threads, HybridStats, HybridThread, NativeHybrid, NativeHybridPolicy, NativeTl2,
};
use ufotm_sim::{Ctx, HandoffMode, Sim, ThreadFn};
use ufotm_tl2::Tl2Stats;
use ufotm_ustm::UstmStats;

use crate::world::{Barrier, StampWorld};

/// Simulated address of the harness barrier counter.
const BARRIER_ADDR: Addr = Addr(64);

/// First simulated address available to workload static data.
pub const STATIC_BASE: Addr = Addr(4096);

/// Everything needed to run one workload configuration.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// The TM system under test.
    pub kind: SystemKind,
    /// Worker thread count (= CPUs used).
    pub threads: usize,
    /// Hybrid policy knobs.
    pub policy: HybridPolicy,
    /// Machine configuration (CPU count and unbounded-BTM flag are fixed up
    /// automatically).
    pub machine: MachineConfig,
    /// Engine scheduling quantum (0 = exact lockstep).
    pub quantum: u64,
    /// Workload RNG seed.
    pub seed: u64,
    /// Override the USTM otable bin count (default: the standard layout's
    /// 16384). Used by the otable-size ablation.
    pub otable_bins_override: Option<u64>,
    /// Trace-journal cap in events (0 = tracing off). Enabling tracing
    /// populates the report's latency/retry histograms and runs the trace
    /// auditor over the run; recording is host-side only and charges no
    /// simulated cycles, so results are unchanged either way.
    pub trace_cap: usize,
    /// Run the engine in [`HandoffMode::Broadcast`] (the legacy
    /// `notify_all` scheduler) instead of the default targeted handoff.
    /// Both modes must simulate bit-identically; this knob exists so the
    /// determinism regression tests can prove it.
    pub broadcast_handoff: bool,
    /// Which execution substrate runs the workload. [`run_workload`]
    /// requires [`BackendKind::Simulated`]; the `run_native` entry points
    /// require [`BackendKind::NativeTl2`] or [`BackendKind::NativeHybrid`]
    /// (where `kind`, `policy`, `machine` and the engine knobs are
    /// meaningless and ignored).
    pub backend: BackendKind,
}

impl RunSpec {
    /// A spec with the paper's Table 4 machine.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0.
    #[must_use]
    pub fn new(kind: SystemKind, threads: usize) -> Self {
        assert!(threads >= 1, "at least one thread");
        RunSpec {
            kind,
            threads,
            policy: HybridPolicy::default(),
            machine: MachineConfig::table4(threads.max(1)),
            quantum: 0,
            seed: 0xC0FF_EE11,
            otable_bins_override: None,
            trace_cap: 0,
            broadcast_handoff: false,
            backend: BackendKind::Simulated,
        }
    }

    /// A spec for the native host-atomics TL2 backend: the native hybrid
    /// with failover off. The simulated TL2 is named as `kind` purely for
    /// labelling — no simulator runs.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0.
    #[must_use]
    pub fn native(threads: usize) -> Self {
        let mut spec = RunSpec::new(SystemKind::Tl2, threads);
        spec.backend = BackendKind::NativeTl2;
        spec
    }

    /// A spec for the native hybrid backend (TL2 fast path + USTM slow
    /// path on real threads). The simulated hybrid is named as `kind`
    /// purely for labelling — no simulator runs.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0.
    #[must_use]
    pub fn native_hybrid(threads: usize) -> Self {
        let mut spec = RunSpec::new(SystemKind::UfoHybrid, threads);
        spec.backend = BackendKind::NativeHybrid;
        spec
    }

    fn machine_config(&self) -> MachineConfig {
        let mut cfg = self.machine.clone();
        cfg.cpus = self.threads;
        if self.kind.needs_unbounded_btm() {
            cfg.btm_unbounded = true;
        }
        cfg
    }
}

/// Collected results of one run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The system that ran.
    pub kind: SystemKind,
    /// Thread count.
    pub threads: usize,
    /// Simulated completion time (max CPU clock).
    pub makespan: u64,
    /// Transactions committed in hardware.
    pub hw_commits: u64,
    /// Transactions committed in software.
    pub sw_commits: u64,
    /// Transactions committed under the lock / serially.
    pub lock_commits: u64,
    /// Machine-level BTM aborts by reason (Figure 6's raw data).
    pub aborts: BTreeMap<AbortReason, u64>,
    /// Driver failovers by triggering reason.
    pub failovers: BTreeMap<AbortReason, u64>,
    /// Microbenchmark-forced failovers.
    pub forced_failovers: u64,
    /// USTM counters.
    pub ustm: UstmStats,
    /// TL2 counters.
    pub tl2: Tl2Stats,
    /// PhTM phase aborts.
    pub phase_aborts: u64,
    /// PhTM stalls waiting for an STM phase to drain.
    pub phase_stalls: u64,
    /// Total simulated memory accesses.
    pub accesses: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// Nacked transactional requests.
    pub nacks: u64,
    /// UFO faults delivered.
    pub ufo_faults: u64,
    /// Cycles spent in explicit stalls.
    pub stall_cycles: u64,
    /// The full run report (deterministic JSON via
    /// [`RunReport::to_json`]). When the spec enabled tracing, collection
    /// already audited the journal: `report.trace.audit_violations` is 0
    /// for any correct run.
    pub report: RunReport,
    /// The rendered trace journal (empty when the spec left tracing off).
    /// A pure function of the recorded events, so two runs with identical
    /// journals render identical strings — the determinism tests compare
    /// these bytes directly.
    pub journal: String,
}

impl RunOutcome {
    /// Total committed transactions.
    #[must_use]
    pub fn total_commits(&self) -> u64 {
        self.hw_commits + self.sw_commits + self.lock_commits
    }

    /// Total BTM aborts.
    #[must_use]
    pub fn total_aborts(&self) -> u64 {
        self.aborts.values().sum()
    }

    /// Aborts for one reason.
    #[must_use]
    pub fn aborts_for(&self, reason: AbortReason) -> u64 {
        self.aborts.get(&reason).copied().unwrap_or(0)
    }
}

/// A workload thread body, given its runtime and context.
pub type WorkBody = Box<dyn FnOnce(&mut TmThread, &mut Ctx<StampWorld>) + Send>;

/// Runs one configuration: `setup` initializes simulated memory, `make_body`
/// produces each thread's work, `verify` checks invariants on the final
/// world (panicking on violation).
pub fn run_workload(
    spec: &RunSpec,
    setup: impl FnOnce(&mut Machine, &mut StampWorld),
    make_body: impl Fn(usize) -> WorkBody,
    verify: impl FnOnce(&Machine, &StampWorld),
) -> RunOutcome {
    assert_eq!(
        spec.backend,
        BackendKind::Simulated,
        "run_workload drives the simulator; use the workload's run_native \
         for a native backend"
    );
    let cfg = spec.machine_config();
    let mut layout = ufotm_core::TmSharedLayout::standard(&cfg);
    if let Some(bins) = spec.otable_bins_override {
        layout.otable_bins = bins;
    }
    let mut tm = TmShared::new(spec.kind, cfg.cpus, layout);
    if spec.trace_cap > 0 {
        tm.trace.enable(spec.trace_cap);
    }
    let mut machine = Machine::new(cfg);
    let mut world = StampWorld {
        tm,
        barrier: Barrier::new(BARRIER_ADDR, spec.threads),
    };
    setup(&mut machine, &mut world);
    let kind = spec.kind;
    let policy = spec.policy;
    let bodies: Vec<ThreadFn<StampWorld>> = (0..spec.threads)
        .map(|cpu| {
            let body = make_body(cpu);
            let f: ThreadFn<StampWorld> = Box::new(move |ctx| {
                let mut t = TmThread::with_policy(kind, cpu, policy);
                t.install(ctx);
                body(&mut t, ctx);
            });
            f
        })
        .collect();
    let mode = if spec.broadcast_handoff {
        HandoffMode::Broadcast
    } else {
        HandoffMode::Targeted
    };
    let r = Sim::new(machine, world)
        .quantum(spec.quantum)
        .handoff_mode(mode)
        .run(bodies);
    verify(&r.machine, &r.shared);

    let agg = r.machine.stats().aggregate();
    let report = RunReport::collect(spec.seed, &r.machine, &r.shared.tm);
    let journal = if spec.trace_cap > 0 {
        r.shared.tm.trace.render()
    } else {
        String::new()
    };
    RunOutcome {
        kind: spec.kind,
        threads: spec.threads,
        makespan: r.makespan,
        hw_commits: r.shared.tm.stats.hw_commits,
        sw_commits: r.shared.tm.stats.sw_commits,
        lock_commits: r.shared.tm.stats.lock_commits,
        aborts: agg.btm_aborts.clone(),
        failovers: r.shared.tm.stats.failovers.clone(),
        forced_failovers: r.shared.tm.stats.forced_failovers,
        ustm: r.shared.tm.ustm.stats,
        tl2: r.shared.tm.tl2.stats,
        phase_aborts: r.shared.tm.phtm.phase_aborts,
        phase_stalls: r.shared.tm.phtm.phase_stalls,
        accesses: agg.accesses,
        l1_misses: agg.l1_misses,
        nacks: agg.nacks,
        ufo_faults: agg.ufo_faults,
        stall_cycles: agg.stall_cycles,
        report,
        journal,
    }
}

/// Collected results of one native-backend run. Wall-clock timing is the
/// *caller's* job (`ufotm-bench` wraps `run_native` in its host-metrics
/// measurement); this crate stays free of host clocks.
#[derive(Clone, Debug)]
pub struct NativeOutcome {
    /// Real OS threads that ran.
    pub threads: usize,
    /// Workload operations completed (the ops/sec numerator).
    pub ops: u64,
    /// Merged per-thread hybrid counters. On a TL2-only run the
    /// slow-path, failover and serial fields are zero.
    pub stats: HybridStats,
}

impl NativeOutcome {
    /// Transactions committed on any tier: fast, slow or serial.
    #[must_use]
    pub fn total_commits(&self) -> u64 {
        self.stats.total_commits()
    }
}

/// Builds native hybrid shared state with a heap for statics ending at
/// `static_end` (a byte address, exclusive) plus `alloc_words` words of
/// transactional allocation headroom, a 4096-stripe lock table, and a
/// 1024-bin USTM ownership table for `threads` threads, under the
/// default [`NativeHybridPolicy`].
#[must_use]
pub fn native_hybrid_world(static_end: Addr, alloc_words: u64, threads: usize) -> NativeHybrid {
    native_world(BackendKind::NativeHybrid, static_end, alloc_words, threads)
}

/// The one place a native world is built. [`BackendKind::NativeTl2`] is
/// the hybrid with failover off; everything else about the two native
/// systems is the same.
fn native_world(
    backend: BackendKind,
    static_end: Addr,
    alloc_words: u64,
    threads: usize,
) -> NativeHybrid {
    let policy = match backend {
        BackendKind::NativeTl2 => NativeHybridPolicy {
            failover_after: None,
            ..NativeHybridPolicy::default()
        },
        BackendKind::NativeHybrid => NativeHybridPolicy::default(),
        BackendKind::Simulated => {
            panic!("a native run needs a native backend; use run_workload for the simulator")
        }
    };
    let base_word = static_end.0.next_multiple_of(64) / 8;
    NativeHybrid::new(
        base_word + alloc_words,
        1 << 12,
        base_word,
        threads,
        1 << 10,
        policy,
    )
}

/// Runs one configuration on the native backend `spec.backend` names, in
/// a world sized like [`native_hybrid_world`]: `setup` populates the
/// heap, every thread runs `body` through its [`HybridThread`] handle,
/// `verify` checks invariants on the final heap (panicking on violation).
///
/// # Panics
///
/// Panics if `spec.backend` is [`BackendKind::Simulated`], or if `verify`
/// (or a worker) panics.
pub fn run_native_workload(
    spec: &RunSpec,
    static_end: Addr,
    alloc_words: u64,
    setup: impl FnOnce(&NativeTl2),
    body: impl Fn(&mut HybridThread<'_>) + Sync,
    verify: impl FnOnce(&NativeTl2),
    ops: u64,
) -> NativeOutcome {
    let shared = native_world(spec.backend, static_end, alloc_words, spec.threads);
    setup(shared.tl2());
    let (stats, _) = run_hybrid_threads(&shared, spec.threads, body);
    verify(shared.tl2());
    NativeOutcome {
        threads: spec.threads,
        ops,
        stats,
    }
}

/// Splits `total` items into per-thread `(start, end)` chunks.
#[must_use]
pub fn chunk(total: usize, threads: usize, tid: usize) -> (usize, usize) {
    let base = total / threads;
    let rem = total % threads;
    let start = tid * base + tid.min(rem);
    let len = base + usize::from(tid < rem);
    (start, start + len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufotm_core::{Stop, TmBackend};

    #[test]
    fn native_total_commits_counts_the_serial_tier() {
        // Fail over after one abort and escalate after one failed slow
        // attempt: a body that stops twice commits on the serial tier.
        let policy = NativeHybridPolicy {
            failover_after: Some(1),
            serial_after: 1,
            ..NativeHybridPolicy::default()
        };
        let h = NativeHybrid::new(1 << 12, 1 << 12, 1 << 11, 1, 1 << 6, policy);
        let (stats, _) = run_hybrid_threads(&h, 1, |th| {
            let mut attempts = 0;
            th.transaction(|_tx| {
                attempts += 1;
                if attempts <= 2 {
                    return Err(Stop);
                }
                Ok(())
            });
        });
        assert_eq!(
            stats.serial_commits, 1,
            "the body must reach the serial tier"
        );
        let out = NativeOutcome {
            threads: 1,
            ops: 1,
            stats,
        };
        assert_eq!(out.total_commits(), out.ops);
    }

    #[test]
    fn chunks_partition_exactly() {
        for total in [0, 1, 7, 100, 101] {
            for threads in [1, 2, 3, 8] {
                let mut covered = 0;
                let mut expected_start = 0;
                for tid in 0..threads {
                    let (s, e) = chunk(total, threads, tid);
                    assert_eq!(s, expected_start);
                    assert!(e >= s);
                    covered += e - s;
                    expected_start = e;
                }
                assert_eq!(covered, total, "total={total} threads={threads}");
            }
        }
    }
}
