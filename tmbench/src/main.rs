//! The repository benchmark: one closed-loop run of one workload.
//!
//! ```text
//! cargo run --release --manifest-path tmbench/Cargo.toml -- \
//!     --workload <disjoint|vacation|sim-vacation> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with 2 worker threads and
//! no tracing. `--trace 1` splits the time three ways (untraced at 2
//! threads, untraced at 1 thread, traced at 2 threads) and reports the
//! per-layer metrics. Human-readable lines start with `#`; the last line
//! is the JSON result. A full report, with the host fingerprint and (when
//! traced) the first transactions' spans, goes to
//! `.tmbench_out/<workload>-seed<n>-trace<t>.json`. See `tmbench/README.md`.

mod disjoint;
mod native;
mod phase;
mod probe;
mod stats;
mod vacation;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use phase::PhaseOut;
use probe::{KeptSpan, Probe};
use stats::{median, quantile};

/// Worker threads (closed-loop clients) of every measured phase.
const THREADS: usize = 2;

/// The per-layer metrics, printed by `--trace 1`. A metric whose layer
/// does not run in a workload reads 0 there.
const PER_LAYER: [(&str, &str); 54] = [
    ("hybrid.failovers_per_ktxn", "1/ktxn"),
    ("hybrid.slow_commit_frac", "frac"),
    ("hybrid.serial_commits", "count"),
    ("hybrid.attempts_per_txn", "1/txn"),
    ("hybrid.wasted_attempt_frac", "frac"),
    ("hybrid.fast.self_ns_p50", "ns"),
    ("hybrid.slow.self_ns_p50", "ns"),
    ("hybrid.slow.self_ns_p99", "ns"),
    ("hybrid.txn_ns_p50.fast", "ns"),
    ("hybrid.txn_ns_p50.slow", "ns"),
    ("hybrid.txn_ns_p50.serial", "ns"),
    ("hybrid.txn_ns_p99.fast", "ns"),
    ("hybrid.txn_ns_p99.slow", "ns"),
    ("hybrid.txn_ns_p99.serial", "ns"),
    ("plain.load_ns_p50", "ns"),
    ("tl2.commit_frac", "frac"),
    ("tl2.read_validation_aborts_per_ktxn", "1/ktxn"),
    ("tl2.lock_busy_aborts_per_ktxn", "1/ktxn"),
    ("tl2.commit_validation_aborts_per_ktxn", "1/ktxn"),
    ("tl2.clock_bumps_per_txn", "1/txn"),
    ("tl2.read_ns_p50", "ns"),
    ("tl2.reads_per_txn", "1/txn"),
    ("tl2.write_ns_p50", "ns"),
    ("ustm.commit_frac", "frac"),
    ("ustm.kills_per_slow_txn", "1/txn"),
    ("ustm.stalls_per_slow_txn", "1/txn"),
    ("ustm.read_ns_p50", "ns"),
    ("ustm.owned_lines_end", "count"),
    ("guard.guarded", "bool"),
    ("guard.windows_per_ktxn", "1/ktxn"),
    ("guard.faults_in_window", "count"),
    ("body.self_ns_p50", "ns"),
    ("scaling.t2_over_t1", "x"),
    ("sim.ns_per_cycle", "ns/cycle"),
    ("sim.makespan_cycles", "cycles"),
    ("sim.accesses_per_s", "1/s"),
    ("machine.accesses", "count"),
    ("machine.l1_miss_frac", "frac"),
    ("machine.nacks", "count"),
    ("machine.ufo_faults", "count"),
    ("machine.btm_aborts.overflow", "count"),
    ("machine.btm_aborts.conflict", "count"),
    ("core.hw_commits", "count"),
    ("core.sw_commits", "count"),
    ("core.lock_commits", "count"),
    ("core.failovers", "count"),
    ("core.cycles.barrier", "cycles"),
    ("core.cycles.backoff", "cycles"),
    ("core.cycles.nack_stall", "cycles"),
    ("core.cycles.serial", "cycles"),
    ("core.trace.audit_violations", "count"),
    ("trace.overhead_frac", "frac"),
    ("latency.samples", "count"),
    ("latency.timer_share", "frac"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Disjoint,
    Vacation,
    SimVacation,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "disjoint" => Some(Workload::Disjoint),
            "vacation" => Some(Workload::Vacation),
            "sim-vacation" => Some(Workload::SimVacation),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Disjoint => "disjoint",
            Workload::Vacation => "vacation",
            Workload::SimVacation => "sim-vacation",
        }
    }

    /// One transaction in this many is timed by the untraced probe: the
    /// two clock reads must stay a small share of a transaction.
    fn stride(self) -> u64 {
        match self {
            Workload::Disjoint => disjoint::LATENCY_STRIDE,
            Workload::Vacation | Workload::SimVacation => 1,
        }
    }

    /// Runs one phase.
    fn phase(self, seed: u64, threads: usize, probe: Probe, budget: Duration) -> PhaseOut {
        match self {
            Workload::Disjoint => disjoint::phase(seed, threads, probe, budget),
            Workload::Vacation => vacation::native_phase(seed, threads, probe, budget),
            Workload::SimVacation => vacation::sim_phase(seed, threads, probe, budget),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds missing")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload missing")?,
        seed: seed.ok_or("--seed missing")?,
        seconds,
        trace: trace.ok_or("--trace missing")?,
    })
}

/// What a result depends on besides the code: recorded with every run.
fn host_fingerprint(args: &Args) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let guard_active = disjoint::build(1).guard_stats().guarded;
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu),
        (
            "guard_available",
            ufotm_native::guard::available().to_string(),
        ),
        ("guard_active", guard_active.to_string()),
        (
            "ufotm_skip_guard_env",
            std::env::var_os("UFOTM_SKIP_GUARD").is_some().to_string(),
        ),
        (
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("workload", args.workload.name().into()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("threads", THREADS.to_string()),
    ]
}

/// The cost of one `Instant::now()` read in ns, and the share of each
/// worker's time the untraced probe's two reads per sampled transaction
/// take at `rate` transactions per second.
fn timer_share(w: Workload, rate: f64) -> (f64, f64) {
    let timer = timer_ns();
    let per_txn = 2.0 * timer / w.stride() as f64;
    (timer, per_txn * rate / THREADS as f64 / 1e9)
}

/// Median cost of one `Instant::now()` read, in ns.
fn timer_ns() -> f64 {
    let mut per = Vec::new();
    for _ in 0..9 {
        let t0 = Instant::now();
        for _ in 0..10_000 {
            std::hint::black_box(Instant::now());
        }
        per.push(t0.elapsed().as_nanos() as f64 / 10_000.0);
    }
    median(&mut per)
}

/// Runs the program's own `vacation` entry points once.
fn program_leg(w: Workload, seed: u64, out: &mut PhaseOut) {
    match w {
        Workload::Disjoint => {}
        Workload::Vacation => vacation::native_leg(seed, out),
        Workload::SimVacation => vacation::sim_leg(seed, out),
    }
}

struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    notes: Vec<String>,
    spans: Vec<KeptSpan>,
}

fn end_to_end(args: &Args) -> Outcome {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let mut legs = PhaseOut::default();
    program_leg(w, args.seed, &mut legs);
    let mut p = w.phase(args.seed, THREADS, Probe::Timed(w.stride()), budget);
    if w == Workload::SimVacation {
        vacation::sim_setups(args.seed, 15, &mut p);
    }
    let mut lat: Vec<f64> = p.samples.iter().map(|&n| n as f64 / 1000.0).collect();
    let rate = median(&mut p.rates);
    let (timer, share) = timer_share(w, rate);
    let notes = vec![
        format!(
            "{} slices/jobs, {} txns, {} latency samples (1 in {}), timer {timer:.1} ns = {:.2}% of txn time",
            p.rates.len(),
            p.txns,
            lat.len(),
            w.stride(),
            share * 100.0
        ),
        format!("txn_per_s per slice/job: {:?}", p.rates),
    ];
    Outcome {
        metrics: vec![
            ("txn_per_s", rate, "1/s"),
            ("txn_p50_us", quantile(&mut lat, 0.5), "us"),
            ("txn_p99_us", quantile(&mut lat, 0.99), "us"),
            ("setup_s", median(&mut p.setups), "s"),
        ],
        attempted: p.attempted + legs.attempted,
        failed: p.failed + legs.failed,
        problems: [p.problems, legs.problems].concat(),
        notes,
        spans: Vec::new(),
    }
}

fn per_layer(args: &Args) -> Outcome {
    let w = args.workload;
    let third = Duration::from_secs_f64(args.seconds as f64 / 3.0);
    let mut legs = PhaseOut::default();
    legs.attempted += 1;
    if let Err(e) = probe::self_check() {
        legs.fail(1, e);
    }
    program_leg(w, args.seed, &mut legs);
    let mut t2 = w.phase(args.seed, THREADS, Probe::Timed(w.stride()), third);
    let mut t1 = w.phase(args.seed, 1, Probe::Timed(w.stride()), third);
    let native = w != Workload::SimVacation;
    let mut tr = w.phase(args.seed, THREADS, Probe::Traced(native), third);
    let (r2, r1, rt) = (
        median(&mut t2.rates),
        median(&mut t1.rates),
        median(&mut tr.rates),
    );

    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    // Counters come from the untraced run; span times from the traced one.
    m.extend(t2.layer.iter().map(|(&k, &v)| (k, v)));
    if native {
        native::trace_layers(&tr.trace, &mut m);
    } else {
        if t2.exact != tr.exact {
            tr.fail(
                1,
                "sim-vacation: traced and untraced jobs differ in exact counts".into(),
            );
        }
        m.insert(
            "core.trace.audit_violations",
            tr.layer["core.trace.audit_violations"],
        );
    }
    if tr.trace.nesting_violations > 0 || tr.trace.unlabelled > 0 {
        tr.fail(
            tr.trace.nesting_violations + tr.trace.unlabelled,
            "probe: spans outside their parent or transactions without a path".into(),
        );
    }
    m.extend([
        ("body.self_ns_p50", tr.trace.body_self_ns.quantile(0.5)),
        ("scaling.t2_over_t1", native::ratio(r2, r1)),
        ("trace.overhead_frac", native::ratio(r2 - rt, r2)),
        ("latency.samples", t2.samples.len() as f64),
        ("latency.timer_share", timer_share(w, r2).1),
    ]);
    assert_eq!(
        m.len(),
        PER_LAYER.len(),
        "a measured metric is missing from PER_LAYER"
    );
    let metrics = PER_LAYER.iter().map(|&(n, u)| (n, m[n], u)).collect();
    let spans = std::mem::take(&mut tr.trace.kept);
    let phases = [t2, t1, tr, legs];
    Outcome {
        metrics,
        attempted: phases.iter().map(|p| p.attempted).sum(),
        failed: phases.iter().map(|p| p.failed).sum(),
        notes: vec![format!(
            "txn_per_s: 2 threads {r2:.0}, 1 thread {r1:.0}, traced {rt:.0}"
        )],
        problems: phases.iter().flat_map(|p| p.problems.clone()).collect(),
        spans,
    }
}

/// A JSON number: finite values as Rust prints them (every digit), 0
/// otherwise.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                num(*v),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Writes the full report next to the checkout's other build outputs.
fn write_report(
    args: &Args,
    host: &[(&str, String)],
    r: &Outcome,
    result_line: &str,
) -> Result<String, String> {
    let dir = std::path::Path::new(".tmbench_out");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let mut s = String::from("{\n  \"host\": {");
    let host: Vec<String> = host
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    s.push_str(&host.join(", "));
    let _ = write!(s, "}},\n  \"result\": {result_line},\n  \"problems\": [");
    let problems: Vec<String> = r.problems.iter().map(|p| json_str(p)).collect();
    s.push_str(&problems.join(", "));
    s.push_str("],\n  \"spans\": [");
    let spans: Vec<String> = r
        .spans
        .iter()
        .map(|k| {
            format!(
                "\n    {{\"tid\": {}, \"txn\": {}, \"path\": {}, \"kind\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                k.tid,
                k.txn,
                k.path.map_or("null".into(), |p| json_str(p.label())),
                k.span.kind.label(),
                if k.span.parent == u32::MAX { "null".into() } else { k.span.parent.to_string() },
                k.span.start,
                k.span.end
            )
        })
        .collect();
    s.push_str(&spans.join(","));
    s.push_str("\n  ]\n}\n");
    std::fs::write(&path, s).map_err(|e| e.to_string())?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tmbench: {e}");
            eprintln!("usage: tmbench --workload <disjoint|vacation|sim-vacation> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let host = host_fingerprint(&args);
    let line: Vec<String> = host.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# host: {}", line.join(" "));
    let r = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    for n in &r.notes {
        println!("# {n}");
    }
    for (n, v, u) in &r.metrics {
        println!("# {n:<40} {v:>16.4} {u}");
    }
    println!(
        "# error_rate {} ({} failed of {} attempted)",
        native::ratio(r.failed as f64, r.attempted as f64),
        r.failed,
        r.attempted
    );
    for p in &r.problems {
        println!("# FAILED: {p}");
    }
    let correct = r.failed == 0 && r.problems.is_empty();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.attempted.max(1),
        r.failed,
        metrics_json(&r.metrics)
    );
    match write_report(&args, &host, &r, &result) {
        Ok(path) => println!("# report: {path}"),
        Err(e) => println!("# report not written: {e}"),
    }
    println!("{result}");
    ExitCode::SUCCESS
}
