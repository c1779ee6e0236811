//! Benchmark-side probes around the TM layers' public traits.
//!
//! * [`Timed`] is the untraced wrapper: it forwards every call and times
//!   one `TmBackend::transaction` call in `stride`, so the two clock
//!   reads cost a small, fixed share of throughput.
//! * [`Traced`] wraps the backend and every scope a body receives. It
//!   records the spans `txn` → `attempt` → `read`/`write`/`alloc`/`work`
//!   and standalone `plain` spans into per-thread memory, folds each
//!   finished transaction into per-thread statistics ([`Trace`]), and
//!   keeps the first transactions' span trees verbatim for the written
//!   report. Threads' traces merge at join.
//!
//! A transaction's path is read, not inferred: between transactions the
//! probe reads the backend's `commit_counts()` and `serial_commits()`
//! hooks, and exactly one of fast, slow or serial must have moved by one.

use std::time::Instant;

use ufotm_core::{Stop, TmBackend, TxScope};
use ufotm_machine::Addr;

use crate::stats::{ns, Hist};

/// Which tier committed a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// The TL2 fast path.
    Fast = 0,
    /// The USTM slow path, after a failover.
    Slow = 1,
    /// The serial-irrevocable tier.
    Serial = 2,
}

impl Path {
    /// Metric-name suffix.
    pub fn label(self) -> &'static str {
        match self {
            Path::Fast => "fast",
            Path::Slow => "slow",
            Path::Serial => "serial",
        }
    }
}

/// A span kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One `TmBackend::transaction` call, retries included.
    Txn,
    /// One execution of the body.
    Attempt,
    /// `TxScope::read`.
    Read,
    /// `TxScope::write`.
    Write,
    /// `TxScope::alloc`.
    Alloc,
    /// `TxScope::work`.
    Work,
    /// `TmBackend::plain_load`.
    Plain,
}

impl Kind {
    /// Span name in the written trace.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Txn => "txn",
            Kind::Attempt => "attempt",
            Kind::Read => "read",
            Kind::Write => "write",
            Kind::Alloc => "alloc",
            Kind::Work => "work",
            Kind::Plain => "plain",
        }
    }
}

/// No parent (a `txn` or `plain` span).
const ROOT: u32 = u32::MAX;

/// One span: nanoseconds since the probe's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What the span covers.
    pub kind: Kind,
    /// Index of the parent span within its transaction, or `ROOT`.
    pub parent: u32,
    /// Start.
    pub start: u64,
    /// End.
    pub end: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A kept span with the transaction it belongs to.
#[derive(Clone, Debug)]
pub struct KeptSpan {
    /// Worker thread.
    pub tid: usize,
    /// The thread's transaction sequence number (plain spans: the number
    /// of transactions before it).
    pub txn: u64,
    /// The committing path, when labelled.
    pub path: Option<Path>,
    /// The span itself.
    pub span: Span,
}

/// Spans kept verbatim: whole transactions are kept, first come, while
/// fewer than this many are held.
const KEEP_SPANS: usize = 4096;

/// Per-path transaction statistics.
#[derive(Clone, Debug, Default)]
pub struct PathStats {
    /// Transactions committed on this path.
    pub txns: u64,
    /// Whole-transaction wall time.
    pub txn_ns: Hist,
    /// Transaction self time: its duration minus its attempts'.
    pub self_ns: Hist,
    /// Reads in committing attempts.
    pub reads: u64,
    /// `read` span durations in committing attempts.
    pub read_ns: Hist,
    /// `write` span durations in committing attempts.
    pub write_ns: Hist,
}

/// One thread's (or, after merging, one run's) traced statistics.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Per-path statistics, indexed by `Path as usize`.
    pub paths: [PathStats; 3],
    /// Transactions traced.
    pub txns: u64,
    /// Body executions.
    pub attempts: u64,
    /// Wall time inside all attempts.
    pub attempt_ns: u64,
    /// Wall time inside attempts that did not commit.
    pub wasted_ns: u64,
    /// Attempt self time: the body's own compute between scope calls.
    pub body_self_ns: Hist,
    /// `plain_load` wall time.
    pub plain_load_ns: Hist,
    /// Spans that started before or ended after their parent, or whose
    /// children cover more than the parent's duration.
    pub nesting_violations: u64,
    /// Transactions whose hook deltas named no single path.
    pub unlabelled: u64,
    /// Span trees of the first transactions of each thread.
    pub kept: Vec<KeptSpan>,
    /// Scratch: child time per span of the current transaction.
    child_ns: Vec<u64>,
}

impl Trace {
    /// Folds another thread's trace into this one.
    pub fn merge(&mut self, other: &Trace) {
        for (a, b) in self.paths.iter_mut().zip(&other.paths) {
            a.txns += b.txns;
            a.txn_ns.merge(&b.txn_ns);
            a.self_ns.merge(&b.self_ns);
            a.reads += b.reads;
            a.read_ns.merge(&b.read_ns);
            a.write_ns.merge(&b.write_ns);
        }
        self.txns += other.txns;
        self.attempts += other.attempts;
        self.attempt_ns += other.attempt_ns;
        self.wasted_ns += other.wasted_ns;
        self.body_self_ns.merge(&other.body_self_ns);
        self.plain_load_ns.merge(&other.plain_load_ns);
        self.nesting_violations += other.nesting_violations;
        self.unlabelled += other.unlabelled;
        let room = KEEP_SPANS.saturating_sub(self.kept.len());
        self.kept.extend(other.kept.iter().take(room).cloned());
    }

    /// Folds one finished transaction's spans (index 0 is the `txn`
    /// span; attempts are its children, scope calls their children).
    fn fold(&mut self, tid: usize, spans: &[Span], path: Option<Path>) {
        if self.kept.len() < KEEP_SPANS {
            self.kept.extend(spans.iter().map(|&span| KeptSpan {
                tid,
                txn: self.txns,
                path,
                span,
            }));
        }
        self.txns += 1;
        self.child_ns.clear();
        self.child_ns.resize(spans.len(), 0);
        for s in &spans[1..] {
            let p = &spans[s.parent as usize];
            if s.start < p.start || s.end > p.end || s.end < s.start {
                self.nesting_violations += 1;
            }
            self.child_ns[s.parent as usize] += s.dur();
        }
        let last = spans.iter().rposition(|s| s.kind == Kind::Attempt);
        for (i, s) in spans.iter().enumerate() {
            if s.kind != Kind::Attempt {
                continue;
            }
            let children = self.child_ns[i];
            if children > s.dur() {
                self.nesting_violations += 1;
            }
            self.body_self_ns.record(s.dur().saturating_sub(children));
            self.attempts += 1;
            self.attempt_ns += s.dur();
            if Some(i) != last {
                self.wasted_ns += s.dur();
            }
        }
        let txn = spans[0];
        if self.child_ns[0] > txn.dur() {
            self.nesting_violations += 1;
        }
        let Some(path) = path else { return };
        let ps = &mut self.paths[path as usize];
        ps.txns += 1;
        ps.txn_ns.record(txn.dur());
        ps.self_ns
            .record(txn.dur().saturating_sub(self.child_ns[0]));
        let Some(last) = last else { return };
        for s in spans.iter().filter(|s| s.parent as usize == last) {
            match s.kind {
                Kind::Read => {
                    ps.reads += 1;
                    ps.read_ns.record(s.dur());
                }
                Kind::Write => ps.write_ns.record(s.dur()),
                _ => {}
            }
        }
    }
}

/// The untraced probe: forwards everything, timing every `stride`-th
/// transaction.
pub struct Timed<'a, B> {
    inner: &'a mut B,
    stride: u64,
    txns: u64,
    samples: Vec<u64>,
}

impl<'a, B: TmBackend> Timed<'a, B> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut B, stride: u64) -> Self {
        Timed {
            inner,
            stride: stride.max(1),
            txns: 0,
            samples: Vec::new(),
        }
    }

    /// Transactions run and the sampled latencies in ns.
    pub fn finish(self) -> (u64, Vec<u64>) {
        (self.txns, self.samples)
    }
}

/// Forwards the non-transactional half of [`TmBackend`] to `self.inner`.
macro_rules! forward_backend {
    () => {
        fn plain_store(&mut self, addr: Addr, value: u64) {
            self.inner.plain_store(addr, value);
        }

        fn compute(&mut self, cycles: u64) {
            self.inner.compute(cycles);
        }

        fn barrier(&mut self) {
            self.inner.barrier();
        }

        fn tid(&self) -> usize {
            self.inner.tid()
        }

        fn threads(&self) -> usize {
            self.inner.threads()
        }

        fn force_failover_next(&mut self) {
            self.inner.force_failover_next();
        }

        fn commit_counts(&mut self) -> (u64, u64) {
            self.inner.commit_counts()
        }

        fn failovers(&mut self) -> u64 {
            self.inner.failovers()
        }

        fn serial_commits(&mut self) -> u64 {
            self.inner.serial_commits()
        }
    };
}

impl<B: TmBackend> TmBackend for Timed<'_, B> {
    fn transaction<R>(&mut self, body: impl FnMut(&mut dyn TxScope) -> Result<R, Stop>) -> R {
        self.txns += 1;
        if !self.txns.is_multiple_of(self.stride) {
            return self.inner.transaction(body);
        }
        let t0 = Instant::now();
        let r = self.inner.transaction(body);
        self.samples.push(ns(t0.elapsed()));
        r
    }

    fn plain_load(&mut self, addr: Addr) -> u64 {
        self.inner.plain_load(addr)
    }

    forward_backend!();
}

/// The traced probe; see the module docs.
pub struct Traced<'a, B> {
    inner: &'a mut B,
    epoch: Instant,
    /// Whether to label paths from the hooks (their deltas must be
    /// per-thread, which the simulator's world-global counters are not).
    label: bool,
    last: (u64, u64, u64),
    last_path: Option<Path>,
    buf: Vec<Span>,
    trace: Trace,
}

impl<'a, B: TmBackend> Traced<'a, B> {
    /// Wraps `inner`, labelling paths when `label` is set.
    pub fn new(inner: &'a mut B, label: bool) -> Self {
        let mut t = Traced {
            inner,
            epoch: Instant::now(),
            label,
            last: (0, 0, 0),
            last_path: None,
            buf: Vec::new(),
            trace: Trace::default(),
        };
        if label {
            t.last = t.counters();
        }
        t
    }

    fn counters(&mut self) -> (u64, u64, u64) {
        let (fast, slow) = self.inner.commit_counts();
        (fast, slow, self.inner.serial_commits())
    }

    /// The path the previous transaction committed on, when labelled.
    pub fn last_path(&self) -> Option<Path> {
        self.last_path
    }

    /// This thread's trace.
    pub fn finish(self) -> Trace {
        self.trace
    }
}

fn since(epoch: &Instant) -> u64 {
    ns(epoch.elapsed())
}

impl<B: TmBackend> TmBackend for Traced<'_, B> {
    fn transaction<R>(&mut self, mut body: impl FnMut(&mut dyn TxScope) -> Result<R, Stop>) -> R {
        let epoch = self.epoch;
        let buf = &mut self.buf;
        buf.clear();
        buf.push(Span {
            kind: Kind::Txn,
            parent: ROOT,
            start: since(&epoch),
            end: 0,
        });
        let r = self.inner.transaction(|tx| {
            let attempt = buf.len();
            buf.push(Span {
                kind: Kind::Attempt,
                parent: 0,
                start: since(&epoch),
                end: 0,
            });
            let mut scope = Scope {
                inner: tx,
                epoch,
                buf: &mut *buf,
                attempt: attempt as u32,
            };
            let out = body(&mut scope);
            buf[attempt].end = since(&epoch);
            out
        });
        self.buf[0].end = since(&epoch);
        self.last_path = None;
        if self.label {
            let now = self.counters();
            let delta = (
                now.0 - self.last.0,
                now.1 - self.last.1,
                now.2 - self.last.2,
            );
            self.last = now;
            self.last_path = match delta {
                (1, 0, 0) => Some(Path::Fast),
                (0, 1, 0) => Some(Path::Slow),
                (0, 1, 1) => Some(Path::Serial),
                _ => {
                    self.trace.unlabelled += 1;
                    None
                }
            };
        }
        let tid = self.inner.tid();
        self.trace.fold(tid, &self.buf, self.last_path);
        r
    }

    fn plain_load(&mut self, addr: Addr) -> u64 {
        let start = since(&self.epoch);
        let v = self.inner.plain_load(addr);
        let span = Span {
            kind: Kind::Plain,
            parent: ROOT,
            start,
            end: since(&self.epoch),
        };
        self.trace.plain_load_ns.record(span.dur());
        if self.trace.kept.len() < KEEP_SPANS {
            let (tid, txn) = (self.inner.tid(), self.trace.txns);
            self.trace.kept.push(KeptSpan {
                tid,
                txn,
                path: None,
                span,
            });
        }
        v
    }

    forward_backend!();
}

/// The scope the traced body sees: times each call into the real scope.
struct Scope<'s> {
    inner: &'s mut dyn TxScope,
    epoch: Instant,
    buf: &'s mut Vec<Span>,
    attempt: u32,
}

impl Scope<'_> {
    fn timed<T>(&mut self, kind: Kind, f: impl FnOnce(&mut dyn TxScope) -> T) -> T {
        let start = since(&self.epoch);
        let r = f(&mut *self.inner);
        self.buf.push(Span {
            kind,
            parent: self.attempt,
            start,
            end: since(&self.epoch),
        });
        r
    }
}

impl TxScope for Scope<'_> {
    fn read(&mut self, addr: Addr) -> Result<u64, Stop> {
        self.timed(Kind::Read, |tx| tx.read(addr))
    }

    fn write(&mut self, addr: Addr, value: u64) -> Result<(), Stop> {
        self.timed(Kind::Write, |tx| tx.write(addr, value))
    }

    fn alloc(&mut self, words: u64) -> Result<Addr, Stop> {
        self.timed(Kind::Alloc, |tx| tx.alloc(words))
    }

    fn work(&mut self, cycles: u64) -> Result<(), Stop> {
        self.timed(Kind::Work, |tx| tx.work(cycles))
    }
}

/// How a phase observes its workers.
#[derive(Clone, Copy, Debug)]
pub enum Probe {
    /// Untraced; time one transaction in this many.
    Timed(u64),
    /// Traced; label paths from the hooks when set.
    Traced(bool),
}

/// What a probe gathered on one worker.
#[derive(Debug, Default)]
pub struct ProbeOut {
    /// Transactions run.
    pub txns: u64,
    /// Sampled transaction latencies in ns (untraced only).
    pub samples: Vec<u64>,
    /// The worker's trace (traced only).
    pub trace: Option<Trace>,
}

/// A worker body, generic over the backend it drives.
pub trait Worker: Sync {
    /// What one worker returns.
    type Out: Send;

    /// Runs one worker's share on `b`.
    fn run<B: TmBackend>(&self, b: &mut B) -> Self::Out;
}

/// Runs `w` on `b` under `probe`.
pub fn probed<B: TmBackend, W: Worker>(b: &mut B, probe: Probe, w: &W) -> (W::Out, ProbeOut) {
    match probe {
        Probe::Timed(stride) => {
            let mut t = Timed::new(b, stride);
            let out = w.run(&mut t);
            let (txns, samples) = t.finish();
            (
                out,
                ProbeOut {
                    txns,
                    samples,
                    trace: None,
                },
            )
        }
        Probe::Traced(label) => {
            let mut t = Traced::new(b, label);
            let out = w.run(&mut t);
            let trace = t.finish();
            (
                out,
                ProbeOut {
                    txns: trace.txns,
                    samples: Vec::new(),
                    trace: Some(trace),
                },
            )
        }
    }
}

/// The probe's own check on a tiny single-threaded native hybrid run:
/// transactions forced through `force_failover_next()` are labelled
/// slow and ordinary ones fast, no child span outlasts its parent, and
/// the per-path counts match the backend's `HybridStats`.
///
/// # Errors
///
/// Names the first broken property.
pub fn self_check() -> Result<(), String> {
    use ufotm_native::{run_hybrid_threads, NativeHybrid, NativeHybridPolicy};

    const TXNS: u64 = 64;
    let counter = Addr(4096);
    let policy = NativeHybridPolicy::default();
    let h = NativeHybrid::new(1 << 12, 1 << 12, 1 << 11, 1, 1 << 10, policy);
    let (stats, mut traces) = run_hybrid_threads(&h, 1, |th| {
        let mut t = Traced::new(th, true);
        let mut mislabelled = 0;
        for i in 0..TXNS {
            let forced = i % 8 == 7;
            if forced {
                t.force_failover_next();
            }
            t.transaction(|tx| {
                let v = tx.read(counter)?;
                tx.work(4)?;
                tx.write(counter, v + 1)
            });
            let want = if forced { Path::Slow } else { Path::Fast };
            mislabelled += u64::from(t.last_path() != Some(want));
            let _ = t.plain_load(counter);
        }
        (mislabelled, t.finish())
    });
    let (mislabelled, trace) = traces.pop().expect("one worker");
    let checks = [
        (
            mislabelled == 0,
            "a forced transaction not labelled slow, or an ordinary one not fast",
        ),
        (
            trace.nesting_violations == 0,
            "a child span outside its parent",
        ),
        (trace.unlabelled == 0, "a transaction without a path"),
        (
            trace.paths[0].txns == stats.fast.commits,
            "fast count differs from HybridStats",
        ),
        (
            trace.paths[1].txns == stats.slow.commits,
            "slow count differs from HybridStats",
        ),
        (
            trace.paths[2].txns == stats.serial_commits,
            "serial count differs from HybridStats",
        ),
        (trace.plain_load_ns.count() == TXNS, "plain spans missing"),
        (h.tl2().peek(counter) == TXNS, "lost increments"),
    ];
    match checks.iter().find(|(ok, _)| !ok) {
        Some((_, what)) => Err(format!("probe self-check: {what}")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn probe_self_check_passes() {
        super::self_check().unwrap();
    }
}
