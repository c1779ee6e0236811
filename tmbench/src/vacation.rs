//! `vacation` (native hybrid) and `sim-vacation` (simulated UFO hybrid):
//! STAMP vacation's reservation mix, low-contention query shape.
//!
//! `ufotm_stamp::vacation` keeps its task body private, so the timed
//! runs drive a copy of that body here, written against the same public
//! `BstMap` and the same table layout, generic over `TmBackend` so the
//! probes can wrap it. Each run also calls the program's own
//! `vacation::run_native` / `vacation::run` once, whose conservation
//! check counts against `error_rate` like the copy's.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ufotm_core::{SystemKind, TmBackend};
use ufotm_machine::{Addr, Machine, SimRng};
use ufotm_native::chaos::panic_message;
use ufotm_stamp::harness::{chunk, native_hybrid_world, run_workload, WorkBody, STATIC_BASE};
use ufotm_stamp::structures::{BstMap, Peek};
use ufotm_stamp::vacation::{self, VacationParams};
use ufotm_stamp::{RunSpec, SimBackend, StampWorld};

use crate::native::{counter_layers, run_slice, NativeAcc};
use crate::phase::PhaseOut;
use crate::probe::{probed, Probe, ProbeOut, Worker};
use crate::stats::ns;

/// Relation tables (cars, flights, rooms).
const TABLES: usize = 3;

/// `vacation`: 16384 relations per table and 16384 customers, so the
/// 65536 tree nodes (one line each) average 16 lines per TL2 stripe and
/// 64 per otable bin. `total_tasks` is unused: slices run for a time.
/// Customer counts here are powers of two (see `populate`).
const NATIVE: VacationParams = VacationParams {
    relations: 16384,
    id_space: 32768,
    queries: 16,
    query_range_pct: 90,
    reserve_pct: 98,
    total_tasks: 0,
    customers: 16384,
};

/// `sim-vacation`: the same query mix on tables sized so that one job
/// takes a fraction of a second of host time.
const SIM: VacationParams = VacationParams {
    relations: 4096,
    id_space: 8192,
    customers: 4096,
    ..NATIVE
};

/// Tasks in one `sim-vacation` job (split across the simulated CPUs).
const SIM_TASKS: usize = 128;
/// Wall time of one native `vacation` slice; each builds a fresh heap.
const SLICE: Duration = Duration::from_millis(1000);
/// Update tasks (the only ones that allocate) a native slice may run;
/// sizes the heap's allocation headroom.
const UPDATE_CAP: usize = 8192;
/// Tasks the program's own `run_native`/`run` leg runs per run.
const LEG_TASKS: usize = 512;

fn table_root(t: usize) -> Addr {
    STATIC_BASE.add_words(t as u64)
}

fn customer_root() -> Addr {
    STATIC_BASE.add_words(TABLES as u64)
}

fn static_end() -> Addr {
    STATIC_BASE.add_words(TABLES as u64 + 1)
}

fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut x =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

/// Populates the three tables and the customers (non-transactional),
/// one `insert(map, key, values)` per node.
fn populate(p: VacationParams, seed: u64, insert: &mut dyn FnMut(BstMap, u64, [u64; 4])) {
    for t in 0..TABLES {
        let map = BstMap::new(table_root(t));
        for i in 0..p.relations {
            let id = mix(seed, t as u64, i as u64) % p.id_space as u64;
            let price = 50 + mix(seed, id, t as u64 + 7) % 450;
            let total = 3 + mix(seed, id, 99) % 5;
            insert(map, id, [total, total, price, 0]);
        }
    }
    // Customer ids are dense, so insert them in bit-reversed order: in
    // id order the tree would degenerate into a list.
    let customers = BstMap::new(customer_root());
    let bits = p.customers.ilog2();
    for c in 0..p.customers {
        insert(
            customers,
            (c.reverse_bits() >> (usize::BITS - bits)) as u64,
            [0; 4],
        );
    }
}

/// Reservation conservation: per table, `Σ (total − free)` equals the
/// customers' reservations, and every relation keeps `free ≤ total`.
fn check(peek: &Peek<'_>) -> Result<(), String> {
    let mut by_tables = 0u64;
    let mut bad = None;
    for t in 0..TABLES {
        BstMap::new(table_root(t)).peek_each(peek, |key, v| {
            if v[1] > v[0] {
                bad = Some(format!(
                    "table {t} relation {key}: free {} > total {}",
                    v[1], v[0]
                ));
            }
            by_tables += v[0].saturating_sub(v[1]);
        });
    }
    let mut by_customers = 0u64;
    BstMap::new(customer_root()).peek_each(peek, |_, v| by_customers += v[0]);
    if let Some(bad) = bad {
        return Err(bad);
    }
    if by_tables != by_customers {
        return Err(format!(
            "conservation: tables hold {by_tables} reservations, customers {by_customers}"
        ));
    }
    Ok(())
}

/// When a worker stops.
#[derive(Clone, Copy, Debug)]
enum Until {
    /// After this much wall time (native slices).
    Elapsed(Duration),
    /// After this many tasks (simulated jobs, which must be exact).
    Tasks(usize),
}

struct Vacation {
    p: VacationParams,
    seed: u64,
    until: Until,
}

struct VacationOut {
    elapsed: Duration,
}

impl Worker for Vacation {
    type Out = VacationOut;

    /// One worker's tasks: the body of `ufotm_stamp::vacation`.
    fn run<B: TmBackend>(&self, b: &mut B) -> VacationOut {
        let p = self.p;
        let tid = b.tid();
        let mut rng = SimRng::seed_from_u64(self.seed ^ ((tid as u64) << 32));
        let range = (p.id_space * p.query_range_pct / 100).max(1) as u64;
        let update_cap = UPDATE_CAP / b.threads();
        if let Until::Elapsed(_) = self.until {
            b.barrier();
        }
        let start = Instant::now();
        let (mut tasks, mut updates) = (0, 0);
        loop {
            let done = match self.until {
                Until::Elapsed(d) => start.elapsed() >= d || updates >= update_cap,
                Until::Tasks(n) => tasks >= n,
            };
            if done {
                break;
            }
            tasks += 1;
            if rng.gen_range(0..100) < p.reserve_pct as u64 {
                let customer = rng.gen_range(0..p.customers as u64);
                let queries: Vec<(usize, u64)> = (0..p.queries)
                    .map(|_| (rng.gen_index(0..TABLES), rng.gen_range(0..range)))
                    .collect();
                b.transaction(|tx| {
                    let mut best: Option<(Addr, u64)> = None;
                    for &(table, id) in &queries {
                        let map = BstMap::new(table_root(table));
                        if let Some(node) = map.lookup(tx, id)? {
                            let free = map.value(tx, node, 1)?;
                            let price = map.value(tx, node, 2)?;
                            if free > 0 && best.is_none_or(|(_, bp)| price < bp) {
                                best = Some((node, price));
                            }
                        }
                        tx.work(20)?;
                    }
                    if let Some((node, price)) = best {
                        let map = BstMap::new(table_root(0));
                        let free = map.value(tx, node, 1)?;
                        if free > 0 {
                            map.set_value(tx, node, 1, free - 1)?;
                            let cust = BstMap::new(customer_root());
                            let cnode = cust.lookup(tx, customer)?.expect("customer exists");
                            let n = cust.value(tx, cnode, 0)?;
                            let spent = cust.value(tx, cnode, 1)?;
                            cust.set_value(tx, cnode, 0, n + 1)?;
                            cust.set_value(tx, cnode, 1, spent + price)?;
                        }
                    }
                    Ok(())
                });
            } else {
                updates += 1;
                let table = rng.gen_index(0..TABLES);
                let id = rng.gen_range(0..p.id_space as u64);
                let price = 50 + rng.gen_range(0..450);
                b.transaction(|tx| {
                    let map = BstMap::new(table_root(table));
                    if let Some(node) = map.lookup(tx, id)? {
                        map.set_value(tx, node, 2, price)?;
                    } else {
                        let total = 3 + (id % 5);
                        map.insert(tx, id, &[total, total, price, 0])?;
                    }
                    Ok(())
                });
            }
        }
        VacationOut {
            elapsed: start.elapsed(),
        }
    }
}

fn slice_seed(seed: u64, n: u64) -> u64 {
    seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Native `vacation`: slices of `SLICE` wall time, each on a freshly
/// built and populated heap, until `budget` is spent.
pub fn native_phase(seed: u64, threads: usize, probe: Probe, budget: Duration) -> PhaseOut {
    let p = NATIVE;
    let mut out = PhaseOut::default();
    let mut acc = NativeAcc::default();
    let began = Instant::now();
    let alloc_words = (TABLES * p.relations + p.customers + UPDATE_CAP + 64) as u64 * 8;
    for n in 0u64.. {
        if n > 0 && began.elapsed() + SLICE > budget {
            break;
        }
        let seed = slice_seed(seed, n);
        let t0 = Instant::now();
        let h = native_hybrid_world(static_end(), alloc_words, threads);
        let t = h.tl2();
        populate(p, seed, &mut |map, key, vals| {
            let mut alloc = |w| t.host_alloc(w);
            map.host_insert(
                &|a| t.peek(a),
                &mut |a, v| t.poke(a, v),
                &mut alloc,
                key,
                &vals,
            );
        });
        out.setups.push(ns(t0.elapsed()) as f64 / 1e9);
        let w = Vacation {
            p,
            seed,
            until: Until::Elapsed(SLICE.min(budget)),
        };
        let outs = match run_slice(&h, threads, probe, &w, &mut acc) {
            Ok(outs) => outs,
            Err(e) => {
                out.fail(1, format!("vacation slice {n}: worker panicked: {e}"));
                continue;
            }
        };
        let txns: u64 = outs.iter().map(|(_, po)| po.txns).sum();
        let elapsed = outs
            .iter()
            .map(|(o, _)| o.elapsed)
            .max()
            .unwrap_or_default();
        out.attempted += txns;
        if let Err(e) = check(&|a| t.peek(a)) {
            out.fail(txns, format!("vacation slice {n}: {e}"));
        }
        if h.ustm().owned_lines() != 0 {
            out.fail(txns, format!("vacation slice {n}: USTM lines still owned"));
        }
        for (_, po) in outs {
            out.absorb(po);
        }
        out.rates.push(txns as f64 / elapsed.as_secs_f64());
    }
    counter_layers(&acc, out.txns, &mut out.layer);
    out
}

/// The program's own body: `vacation::run_native` on the native hybrid
/// at the `vacation` table sizes. A panic (its conservation check
/// failing) counts every task as failed.
pub fn native_leg(seed: u64, out: &mut PhaseOut) {
    let mut spec = RunSpec::native_hybrid(2);
    spec.seed = seed;
    let params = leg_params(NATIVE, LEG_TASKS);
    out.attempted += LEG_TASKS as u64;
    match catch_unwind(|| vacation::run_native(&spec, &params)) {
        Ok(o) if o.total_commits() == LEG_TASKS as u64 => {}
        Ok(o) => out.fail(
            LEG_TASKS as u64,
            format!(
                "vacation::run_native committed {} of {LEG_TASKS}",
                o.total_commits()
            ),
        ),
        Err(e) => out.fail(
            LEG_TASKS as u64,
            format!("vacation::run_native: {}", panic_message(e.as_ref())),
        ),
    }
}

/// The program's own body at `p`'s table sizes with `tasks` tasks and
/// STAMP's customer count: it inserts customers in id order, and a
/// short list keeps that tree shallow enough.
fn leg_params(p: VacationParams, tasks: usize) -> VacationParams {
    VacationParams {
        total_tasks: tasks,
        customers: VacationParams::low_contention().customers,
        ..p
    }
}

/// What one simulated job produced.
#[derive(Debug)]
struct SimJob {
    /// Host wall time of the whole `run_workload` call.
    wall: Duration,
    /// Host wall time from the first worker's start to the last's end.
    run: Duration,
    /// Per-worker probe output.
    probes: Vec<ProbeOut>,
    /// The simulator's outcome.
    outcome: ufotm_stamp::RunOutcome,
}

impl SimJob {
    /// The exact counts every run of a seed must repeat.
    fn fingerprint(&self) -> [u64; 5] {
        let o = &self.outcome;
        [
            o.makespan,
            o.accesses,
            o.hw_commits,
            o.sw_commits,
            o.lock_commits,
        ]
    }
}

/// Each simulated worker's probe output and host start and end times.
type Finished = Arc<Mutex<Vec<(ProbeOut, Instant, Instant)>>>;

/// One `sim-vacation` job: `tasks` tasks on `threads` simulated CPUs of
/// the UFO hybrid, through the stamp harness's `run_workload` with the
/// simulated backend, verified by the conservation check.
///
/// # Errors
///
/// A failed check or a panic inside the simulator.
fn sim_job(
    seed: u64,
    threads: usize,
    tasks: usize,
    probe: Probe,
    trace_cap: usize,
) -> Result<SimJob, String> {
    let p = SIM;
    let mut spec = RunSpec::new(SystemKind::UfoHybrid, threads);
    spec.seed = seed;
    spec.trace_cap = trace_cap;
    let finished: Finished = Arc::default();
    let verdict: Arc<Mutex<Option<Result<(), String>>>> = Arc::default();
    let setup = move |m: &mut Machine, w: &mut StampWorld| {
        // Each insert walks with peeks and stages its pokes, applied once
        // the walk is done: the machine cannot be borrowed both ways.
        let heap = &mut w.tm.heap;
        let mut pending: Vec<(Addr, u64)> = Vec::new();
        populate(p, seed, &mut |map, key, vals| {
            pending.clear();
            map.host_insert(
                &|a| m.peek(a),
                &mut |a, v| pending.push((a, v)),
                &mut |words| heap.alloc_line_aligned(words).expect("setup heap"),
                key,
                &vals,
            );
            for &(a, v) in &pending {
                m.poke(a, v);
            }
        });
    };
    let make_body = {
        let finished = Arc::clone(&finished);
        move |tid: usize| -> WorkBody {
            let finished = Arc::clone(&finished);
            Box::new(move |t, ctx| {
                let (start, end) = chunk(tasks, threads, tid);
                let w = Vacation {
                    p,
                    seed,
                    until: Until::Tasks(end - start),
                };
                let t0 = Instant::now();
                let mut b = SimBackend::new(t, ctx, tid, threads);
                let (_, po) = probed(&mut b, probe, &w);
                let t1 = Instant::now();
                finished
                    .lock()
                    .expect("no worker panics holding it")
                    .push((po, t0, t1));
            })
        }
    };
    let verify = {
        let verdict = Arc::clone(&verdict);
        move |m: &Machine, _: &StampWorld| {
            *verdict.lock().expect("verify runs once") = Some(check(&|a| m.peek(a)));
        }
    };
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_workload(&spec, setup, make_body, verify)
    }))
    .map_err(|e| format!("sim-vacation: {}", panic_message(e.as_ref())))?;
    let wall = t0.elapsed();
    let verdict = verdict.lock().expect("verify done").take();
    match verdict {
        Some(Ok(())) => {}
        Some(Err(e)) => return Err(format!("sim-vacation: {e}")),
        None => return Err("sim-vacation: verification never ran".into()),
    }
    if outcome.total_commits() != tasks as u64 {
        return Err(format!(
            "sim-vacation: {} of {tasks} tasks committed",
            outcome.total_commits()
        ));
    }
    let finished = std::mem::take(&mut *finished.lock().expect("workers done"));
    let first = finished.iter().map(|f| f.1).min().unwrap_or(t0);
    let last = finished.iter().map(|f| f.2).max().unwrap_or(t0);
    Ok(SimJob {
        wall,
        run: last - first,
        probes: finished.into_iter().map(|f| f.0).collect(),
        outcome,
    })
}

/// Trace-journal cap for the traced `sim-vacation` job.
const SIM_TRACE_CAP: usize = 1 << 20;
/// `sim-vacation`: jobs of `SIM_TASKS` tasks, each on the inputs of its
/// own sub-seed, until `budget` is spent; then job 0 runs again and must
/// reproduce its exact counts. A traced probe also turns on the
/// simulator's journal and auditor (`RunSpec::trace_cap`).
pub fn sim_phase(seed: u64, threads: usize, probe: Probe, budget: Duration) -> PhaseOut {
    let cap = match probe {
        Probe::Traced(_) => SIM_TRACE_CAP,
        Probe::Timed(_) => 0,
    };
    let mut out = PhaseOut::default();
    let began = Instant::now();
    let mut first: Option<SimJob> = None;
    let mut totals = SimTotals::default();
    for k in 0u64.. {
        if k > 0 && began.elapsed() >= budget {
            break;
        }
        out.attempted += SIM_TASKS as u64;
        let mut job = match sim_job(slice_seed(seed, k), threads, SIM_TASKS, probe, cap) {
            Ok(job) => job,
            Err(e) => {
                out.fail(SIM_TASKS as u64, e);
                break;
            }
        };
        out.rates.push(SIM_TASKS as f64 / job.run.as_secs_f64());
        totals.run_ns += ns(job.run);
        totals.cycles += job.outcome.makespan;
        totals.accesses += job.outcome.accesses;
        let audit = job.outcome.report.trace.audit_violations;
        totals.audit_violations += audit;
        if audit != 0 {
            out.fail(
                SIM_TASKS as u64,
                format!("sim-vacation job {k}: {audit} audit violations"),
            );
        }
        for po in std::mem::take(&mut job.probes) {
            out.absorb(po);
        }
        first.get_or_insert(job);
    }
    let Some(first) = first else { return out };
    // A simulated run is a pure function of its inputs: job 0 again.
    match sim_job(seed, threads, SIM_TASKS, probe, cap) {
        Ok(again) if again.fingerprint() == first.fingerprint() => {}
        Ok(again) => out.fail(
            SIM_TASKS as u64,
            format!(
                "sim-vacation: job 0 repeated as {:?}, first {:?}",
                again.fingerprint(),
                first.fingerprint()
            ),
        ),
        Err(e) => out.fail(SIM_TASKS as u64, e),
    }
    sim_layers(&first, &totals, &mut out.layer);
    out.exact = Some(first.fingerprint());
    out
}

/// Host time and simulated work summed over a phase's jobs.
#[derive(Debug, Default)]
struct SimTotals {
    run_ns: u64,
    cycles: u64,
    accesses: u64,
    audit_violations: u64,
}

/// Times `reps` zero-task jobs: the host cost of building the machine,
/// populating the tables and verifying them.
pub fn sim_setups(seed: u64, reps: usize, out: &mut PhaseOut) {
    for _ in 0..reps {
        match sim_job(seed, 2, 0, Probe::Timed(1), 0) {
            Ok(job) => out.setups.push(job.wall.as_secs_f64()),
            Err(e) => out.fail(1, e),
        }
    }
}

/// Per-layer metrics of the `sim`, `machine` and `core` crates: host
/// speed over all jobs, exact counts of job 0.
fn sim_layers(
    job: &SimJob,
    t: &SimTotals,
    out: &mut std::collections::BTreeMap<&'static str, f64>,
) {
    use ufotm_machine::AbortReason;
    let o = &job.outcome;
    let c = &o.report.cycles;
    let ratio = crate::native::ratio;
    let run_ns = t.run_ns as f64;
    out.extend([
        ("sim.ns_per_cycle", ratio(run_ns, t.cycles as f64)),
        ("sim.makespan_cycles", o.makespan as f64),
        ("sim.accesses_per_s", ratio(t.accesses as f64 * 1e9, run_ns)),
        ("machine.accesses", o.accesses as f64),
        (
            "machine.l1_miss_frac",
            ratio(o.l1_misses as f64, o.accesses as f64),
        ),
        ("machine.nacks", o.nacks as f64),
        ("machine.ufo_faults", o.ufo_faults as f64),
        (
            "machine.btm_aborts.overflow",
            o.aborts_for(AbortReason::Overflow) as f64,
        ),
        (
            "machine.btm_aborts.conflict",
            o.aborts_for(AbortReason::Conflict) as f64,
        ),
        ("core.hw_commits", o.hw_commits as f64),
        ("core.sw_commits", o.sw_commits as f64),
        ("core.lock_commits", o.lock_commits as f64),
        ("core.failovers", o.failovers.values().sum::<u64>() as f64),
        ("core.cycles.barrier", c.barrier as f64),
        ("core.cycles.backoff", c.backoff as f64),
        ("core.cycles.nack_stall", c.nack_stall as f64),
        ("core.cycles.serial", c.serial as f64),
        ("core.trace.audit_violations", t.audit_violations as f64),
    ]);
}

/// The program's own body: `vacation::run` on the simulated UFO hybrid
/// at the `sim-vacation` table sizes, untraced and traced. Both must
/// verify, agree on makespan and commits, and audit clean.
pub fn sim_leg(seed: u64, out: &mut PhaseOut) {
    let tasks = LEG_TASKS / 8;
    let params = leg_params(SIM, tasks);
    let run = |cap: usize| {
        let mut spec = RunSpec::new(SystemKind::UfoHybrid, 2);
        spec.seed = seed;
        spec.trace_cap = cap;
        catch_unwind(|| vacation::run(&spec, &params)).map_err(|e| panic_message(e.as_ref()))
    };
    out.attempted += tasks as u64;
    let verdict = match (run(0), run(SIM_TRACE_CAP)) {
        (Ok(a), Ok(b)) => {
            let same = (a.makespan, a.total_commits()) == (b.makespan, b.total_commits());
            if !same {
                Err("traced and untraced runs differ".to_string())
            } else if a.total_commits() != tasks as u64 {
                Err(format!("{} of {tasks} committed", a.total_commits()))
            } else if b.report.trace.audit_violations != 0 {
                Err(format!(
                    "{} audit violations",
                    b.report.trace.audit_violations
                ))
            } else {
                Ok(())
            }
        }
        (Err(e), _) | (_, Err(e)) => Err(e),
    };
    if let Err(e) = verdict {
        out.fail(tasks as u64, format!("vacation::run: {e}"));
    }
}
