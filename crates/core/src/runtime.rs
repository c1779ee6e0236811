//! The per-thread transaction drivers: retry loops, the BTM abort handler
//! (paper Algorithm 3), and the hybrid failover machinery.

use ufotm_api::{AbortClass, Decision, RetryCore, RetryPolicy, Tally};
use ufotm_machine::{splitmix64, AbortInfo, AbortReason, AccessError, Addr, PlainAccess, SimRng};
use ufotm_sim::Ctx;
use ufotm_tl2::Tl2Txn;
use ufotm_ustm::{nont_load, TxnStatus, UstmAbort, UstmTxn};

use crate::lockbase::{lock_acquire, lock_release};
use crate::policy::HybridPolicy;
use crate::shared::{SystemKind, TmWorld};
use crate::trace::{EscalationTier, TraceKind};
use crate::tx::{Mode, Tx, TxAbort};

/// Records one trace event (free when the journal is disabled). Any chaos
/// faults the machine injected since the last event are drained first, so
/// a `FaultInjected` entry always precedes the driver event it provoked.
fn trace<U: TmWorld>(ctx: &mut Ctx<U>, kind: TraceKind) {
    let cpu = ctx.cpu();
    ctx.with(|w| {
        let injected = w.machine.drain_chaos_events();
        let t = w.shared.tm();
        if t.trace.is_recording() {
            for e in &injected {
                w.shared
                    .tm()
                    .trace
                    .record(e.cycle, e.cpu, TraceKind::FaultInjected(e.kind));
            }
            let cycle = w.machine.now(cpu);
            w.shared.tm().trace.record(cycle, cpu, kind);
        }
    });
}

/// How a hardware attempt failed.
enum HwFail {
    /// The BTM transaction aborted with this reason.
    Abort(AbortInfo),
    /// The microbenchmark hook forced a failover.
    Forced,
    /// The body executed `retry`; honour it in software.
    RetryRequested,
    /// PhTM only: the system is in an STM phase.
    PhaseBusy,
    /// A serial-irrevocable transaction holds the system; wait it out.
    SerialBusy,
}

/// The per-thread TM runtime: owns the software transaction handles and
/// drives attempts according to the selected [`SystemKind`] and
/// [`HybridPolicy`].
pub struct TmThread {
    cpu: usize,
    kind: SystemKind,
    policy: HybridPolicy,
    ustm: UstmTxn,
    tl2: Tl2Txn,
    alloc_budget: u32,
    /// Algorithm 3's retry/escalation decision, shared with the native
    /// hybrid.
    retry: RetryCore,
    /// Seeded per-thread stream for backoff jitter (watchdog tier 0);
    /// deterministic per CPU, so runs stay bit-reproducible.
    rng: SimRng,
}

impl TmThread {
    /// Creates a runtime for `kind` on `cpu` with the default policy.
    #[must_use]
    pub fn new(kind: SystemKind, cpu: usize) -> Self {
        TmThread::with_policy(kind, cpu, HybridPolicy::default())
    }

    /// Creates a runtime with an explicit hybrid policy (Figure 8 knobs).
    #[must_use]
    pub fn with_policy(kind: SystemKind, cpu: usize, policy: HybridPolicy) -> Self {
        let ufo = kind == SystemKind::UfoHybrid;
        TmThread {
            cpu,
            kind,
            policy,
            ustm: UstmTxn::new(cpu),
            tl2: Tl2Txn::new(cpu),
            alloc_budget: 1, // first allocation refills the pool
            // Contention failover and the hardware watchdog tier belong to
            // the UFO hybrid's abort handler alone.
            retry: RetryCore::new(RetryPolicy {
                backoff_base: policy.backoff_base,
                backoff_cap_exp: policy.backoff_cap_exp,
                backoff_jitter_pct: policy.backoff_jitter_pct,
                failover_after: policy.conflict_failover_after.filter(|_| ufo),
                watchdog_after: policy.watchdog_hw_attempts.filter(|_| ufo),
                serial_after: policy.watchdog_sw_kills,
                stagnation_after: policy.watchdog_stagnation,
            }),
            rng: SimRng::seed_from_u64(splitmix64(&mut (0x057a_7d06 ^ cpu as u64))),
        }
    }

    /// The system this runtime drives.
    #[must_use]
    pub fn kind(&self) -> SystemKind {
        self.kind
    }

    /// Thread-start setup: arms UFO fault delivery for strongly-atomic
    /// systems (their threads must fault on protected lines outside their
    /// own transactions — that is what protects software transactions from
    /// both plain code and hardware transactions).
    pub fn install<U: TmWorld>(&self, ctx: &mut Ctx<U>) {
        ctx.set_ufo_enabled(self.kind.strong_atomicity());
    }

    /// Runs `body` as one transaction to commit, retrying and failing over
    /// per the system's policy, and returns the body's result.
    ///
    /// The body receives a fresh [`Tx`] per attempt and must propagate
    /// `Err` from every fallible `Tx` operation.
    pub fn transaction<U: TmWorld, R>(
        &mut self,
        ctx: &mut Ctx<U>,
        mut body: impl FnMut(&mut Tx<'_>, &mut Ctx<U>) -> Result<R, TxAbort>,
    ) -> R {
        match self.kind {
            SystemKind::Sequential => self.plain_path(ctx, &mut body, false),
            SystemKind::GlobalLock => self.plain_path(ctx, &mut body, true),
            SystemKind::UstmWeak | SystemKind::UstmStrong => self.ustm_path(ctx, &mut body),
            SystemKind::Tl2 => self.tl2_path(ctx, &mut body),
            SystemKind::UnboundedHtm => self.unbounded_path(ctx, &mut body),
            SystemKind::UfoHybrid => self.ufo_hybrid_path(ctx, &mut body),
            SystemKind::HyTm => self.hytm_path(ctx, &mut body),
            SystemKind::PhTm => self.phtm_path(ctx, &mut body),
        }
    }

    // --- baselines -------------------------------------------------------

    fn plain_path<U: TmWorld, R>(
        &mut self,
        ctx: &mut Ctx<U>,
        body: &mut impl FnMut(&mut Tx<'_>, &mut Ctx<U>) -> Result<R, TxAbort>,
        locked: bool,
    ) -> R {
        if locked {
            lock_acquire(ctx, 80);
        }
        let mut tx = Tx::new(self.cpu, Mode::Plain, self.policy, &mut self.alloc_budget);
        let r = body(&mut tx, ctx);
        let bk = tx.into_bookkeeping();
        let r = r.unwrap_or_else(|e| panic!("plain-mode body cannot abort, got {e}"));
        apply_frees(ctx, &bk.frees);
        ctx.with(|w| w.shared.tm().stats.lock_commits += 1);
        trace(ctx, TraceKind::PlainCommit);
        bk.run_deferred();
        if locked {
            lock_release(ctx);
        }
        r
    }

    fn ustm_path<U: TmWorld, R>(
        &mut self,
        ctx: &mut Ctx<U>,
        body: &mut impl FnMut(&mut Tx<'_>, &mut Ctx<U>) -> Result<R, TxAbort>,
    ) -> R {
        let mut tally = Tally::default();
        let mut aborted = None;
        loop {
            if self.serial_gate_armed() {
                self.wait_serial_clear(ctx);
            }
            // Watchdog tier 2: a transaction that keeps getting killed in
            // software (or observes system-wide stagnation) escalates to
            // serial-irrevocable execution. Only sound where the serial
            // path's plain accesses are strongly atomic — and only on
            // volatile machines: the serial path has no redo record, so a
            // persistent machine refuses the escalation (counted once per
            // transaction) and stays on the software tier, whose
            // age-ordered kills still guarantee progress.
            if let Some(class) = aborted.take() {
                if self.decide(ctx, &mut tally, class, true) == Decision::Escalate {
                    self.escalate(ctx, EscalationTier::Serial);
                    return self.serial_path(ctx, body);
                }
            }
            trace(ctx, TraceKind::SwBegin);
            self.ustm.begin(ctx);
            let mut tx = Tx::new(
                self.cpu,
                Mode::Ustm(&mut self.ustm),
                self.policy,
                &mut self.alloc_budget,
            );
            let out = body(&mut tx, ctx);
            let bk = tx.into_bookkeeping();
            let class = match out {
                Ok(r) => {
                    let fences_before = ctx.with(|w| w.machine.persist_stats().fences);
                    match self.ustm.commit(ctx) {
                        Ok(()) => {
                            apply_frees(ctx, &bk.frees);
                            ctx.with(|w| w.shared.tm().stats.sw_commits += 1);
                            // A persistent commit fenced its redo record
                            // durable before releasing ownership; journal the
                            // fence so the auditor can check the ordering.
                            if ctx.with(|w| w.machine.persist_stats().fences) > fences_before {
                                trace(ctx, TraceKind::PersistFence);
                            }
                            trace(ctx, TraceKind::SwCommit);
                            bk.run_deferred();
                            return r;
                        }
                        Err(UstmAbort::Killed { .. }) => AbortClass::SlowFailed,
                        Err(other) => unreachable!("commit produced {other:?}"),
                    }
                }
                Err(TxAbort::Stm(UstmAbort::Killed { .. })) => AbortClass::SlowFailed,
                Err(TxAbort::Stm(UstmAbort::RetryWoken | UstmAbort::Explicit)) => {
                    AbortClass::SlowRestart
                }
                Err(other) => unreachable!("USTM body produced {other}"),
            };
            undo_allocs(ctx, &bk.allocs);
            trace(ctx, TraceKind::SwAbort);
            if class == AbortClass::SlowFailed {
                self.ustm.wait_for_killer(ctx);
            }
            aborted = Some(class);
        }
    }

    fn tl2_path<U: TmWorld, R>(
        &mut self,
        ctx: &mut Ctx<U>,
        body: &mut impl FnMut(&mut Tx<'_>, &mut Ctx<U>) -> Result<R, TxAbort>,
    ) -> R {
        let mut aborts = 0;
        loop {
            trace(ctx, TraceKind::SwBegin);
            self.tl2.begin(ctx);
            let mut tx = Tx::new(
                self.cpu,
                Mode::Tl2(&mut self.tl2),
                self.policy,
                &mut self.alloc_budget,
            );
            let out = body(&mut tx, ctx);
            let bk = tx.into_bookkeeping();
            match out {
                Ok(r) => {
                    if self.tl2.commit(ctx).is_ok() {
                        apply_frees(ctx, &bk.frees);
                        ctx.with(|w| w.shared.tm().stats.sw_commits += 1);
                        trace(ctx, TraceKind::SwCommit);
                        bk.run_deferred();
                        return r;
                    }
                    undo_allocs(ctx, &bk.allocs);
                    trace(ctx, TraceKind::SwAbort);
                }
                Err(TxAbort::Tl2(_)) | Err(TxAbort::RetryRequested) => {
                    if self.tl2.is_active() {
                        self.tl2.drop_attempt(ctx);
                    }
                    undo_allocs(ctx, &bk.allocs);
                    trace(ctx, TraceKind::SwAbort);
                }
                Err(other) => unreachable!("TL2 body produced {other}"),
            }
            // Un-jittered: this path ignores `backoff_jitter_pct`.
            aborts += 1;
            let backoff = self.retry.policy().backoff_for(aborts);
            ctx.with(|w| w.shared.tm().stats.backoff_cycles += backoff);
            ctx.stall(backoff).plain("TL2 backoff");
        }
    }

    // --- hardware attempt ------------------------------------------------

    /// One hardware attempt: begin, (PhTM phase check), body, commit.
    fn hw_attempt<U: TmWorld, R>(
        &mut self,
        ctx: &mut Ctx<U>,
        body: &mut impl FnMut(&mut Tx<'_>, &mut Ctx<U>) -> Result<R, TxAbort>,
        hytm: bool,
        phtm_check: bool,
    ) -> Result<R, HwFail> {
        if let Err(AccessError::TxnAbort(i)) = ctx.btm_begin() {
            // The attempt died at begin (e.g. a timer interrupt landing on
            // the begin op). Journal both edges so every abort has a begin
            // and the trace auditor sees a balanced attempt.
            trace(ctx, TraceKind::HwBegin);
            trace(ctx, TraceKind::HwAbort(i.reason));
            return Err(HwFail::Abort(i));
        }
        trace(ctx, TraceKind::HwBegin);
        if phtm_check {
            // Transactionally subscribe to the STM-phase counter: if it is
            // non-zero now (or changes mid-flight), this transaction dies.
            let cpu = self.cpu;
            loop {
                let r = ctx.with(|w| {
                    let a = w.shared.tm().phtm.stm_addr();
                    w.machine.load(cpu, a).map(|_| w.shared.tm().phtm.stm_count)
                });
                match r {
                    Ok(0) => break,
                    Ok(_) => {
                        ctx.btm_abort_with(AbortInfo::new(AbortReason::Explicit));
                        ctx.with(|w| w.shared.tm().phtm.phase_aborts += 1);
                        trace(ctx, TraceKind::HwAbort(AbortReason::Explicit));
                        return Err(HwFail::PhaseBusy);
                    }
                    Err(AccessError::Nacked) => {}
                    Err(AccessError::TxnAbort(i)) => {
                        trace(ctx, TraceKind::HwAbort(i.reason));
                        return Err(HwFail::Abort(i));
                    }
                    Err(e) => panic!("phase check: {e}"),
                }
            }
        }
        if self.serial_gate_armed() {
            // Transactionally subscribe to the serial-irrevocable flag:
            // raising it dooms this transaction through plain coherence;
            // finding it already raised means a serial transaction holds
            // the system — abort and get out of its way. Without this gate
            // a hardware commit could land between a serial transaction's
            // read and write of the same line (a lost update).
            let cpu = self.cpu;
            loop {
                let r = ctx.with(|w| {
                    let a = w.shared.tm().serial.addr();
                    w.machine.load(cpu, a).map(|_| w.shared.tm().serial.active)
                });
                match r {
                    Ok(false) => break,
                    Ok(true) => {
                        ctx.btm_abort_with(AbortInfo::new(AbortReason::Explicit));
                        trace(ctx, TraceKind::HwAbort(AbortReason::Explicit));
                        return Err(HwFail::SerialBusy);
                    }
                    Err(AccessError::Nacked) => {}
                    Err(AccessError::TxnAbort(i)) => {
                        trace(ctx, TraceKind::HwAbort(i.reason));
                        return Err(HwFail::Abort(i));
                    }
                    Err(e) => panic!("serial gate subscribe: {e}"),
                }
            }
        }
        let mut tx = Tx::new(
            self.cpu,
            Mode::Hw { hytm },
            self.policy,
            &mut self.alloc_budget,
        );
        let out = body(&mut tx, ctx);
        let bk = tx.into_bookkeeping();
        match out {
            Ok(r) => match ctx.btm_end() {
                Ok(()) => {
                    apply_frees(ctx, &bk.frees);
                    wake_sleepers(ctx, &bk.wakes);
                    ctx.with(|w| w.shared.tm().stats.hw_commits += 1);
                    trace(ctx, TraceKind::HwCommit);
                    bk.run_deferred();
                    Ok(r)
                }
                Err(AccessError::TxnAbort(i)) => {
                    undo_allocs(ctx, &bk.allocs);
                    trace(ctx, TraceKind::HwAbort(i.reason));
                    Err(HwFail::Abort(i))
                }
                Err(e) => panic!("btm_end: {e}"),
            },
            Err(e) => {
                undo_allocs(ctx, &bk.allocs);
                match e {
                    TxAbort::Hw(i) => {
                        trace(ctx, TraceKind::HwAbort(i.reason));
                        Err(HwFail::Abort(i))
                    }
                    // Both hooks already aborted the BTM transaction (as
                    // Explicit); journal the abort so the attempt is
                    // balanced in the trace.
                    TxAbort::Forced => {
                        trace(ctx, TraceKind::HwAbort(AbortReason::Explicit));
                        Err(HwFail::Forced)
                    }
                    TxAbort::RetryRequested => {
                        trace(ctx, TraceKind::HwAbort(AbortReason::Explicit));
                        Err(HwFail::RetryRequested)
                    }
                    TxAbort::Stm(_) | TxAbort::Tl2(_) => {
                        unreachable!("software abort in a hardware attempt")
                    }
                }
            }
        }
    }

    /// One Algorithm-3 step after an abort (see [`RetryCore::on_abort`]).
    /// With `watch` set and stagnation armed, the global commit count
    /// feeds the livelock detector; jitter comes from this CPU's seeded
    /// stream; serial escalation needs strong atomicity and a volatile
    /// machine.
    fn decide<U: TmWorld>(
        &mut self,
        ctx: &mut Ctx<U>,
        tally: &mut Tally,
        class: AbortClass,
        watch: bool,
    ) -> Decision {
        let commits = (watch && self.policy.watchdog_stagnation.is_some())
            .then(|| ctx.with(|w| w.shared.tm().stats.total_commits()));
        let strong = self.kind.strong_atomicity();
        let rng = &mut self.rng;
        self.retry.on_abort(
            tally,
            class,
            commits,
            || strong && !Self::refuse_serial_escalation(ctx),
            |span| rng.gen_range(0..span),
        )
    }

    /// Algorithm 3 after a hardware abort. A page fault gets a
    /// non-transactional (strong-atomicity-aware) touch of the page and an
    /// immediate retry; any other abort is classified and decided by the
    /// core: back off and retry (`None`), or record the failover or
    /// watchdog escalation and return the tier the transaction moves to.
    /// Only the UFO hybrid watches for stagnation; the unbounded HTM, with
    /// no software to fail over to, treats every abort as transient.
    fn hw_abort<U: TmWorld>(
        &mut self,
        ctx: &mut Ctx<U>,
        tally: &mut Tally,
        info: AbortInfo,
    ) -> Option<EscalationTier> {
        let class = match info.reason {
            AbortReason::PageFault => {
                if let Some(a) = info.addr {
                    let _ = nont_load(ctx, a);
                }
                ctx.with(|w| w.shared.tm().stats.hw_retries += 1);
                return None;
            }
            _ if self.kind == SystemKind::UnboundedHtm => AbortClass::Transient,
            r if r.is_failover() => AbortClass::Unfit,
            AbortReason::Conflict
            | AbortReason::NonTConflict
            | AbortReason::UfoSet
            | AbortReason::UfoFault => AbortClass::Contention,
            _ => AbortClass::Transient,
        };
        match self.decide(ctx, tally, class, self.kind == SystemKind::UfoHybrid) {
            Decision::Retry { backoff } => {
                ctx.with(|w| {
                    let stats = &mut w.shared.tm().stats;
                    stats.hw_retries += 1;
                    stats.backoff_cycles += backoff;
                });
                ctx.stall(backoff).plain("backoff stall");
                None
            }
            Decision::Failover { watchdog: false } => {
                ctx.with(|w| w.shared.tm().stats.record_failover(info.reason));
                trace(ctx, TraceKind::Failover(info.reason));
                Some(EscalationTier::Software)
            }
            Decision::Failover { watchdog: true } => {
                self.escalate(ctx, EscalationTier::Software);
                Some(EscalationTier::Software)
            }
            Decision::Escalate => {
                self.escalate(ctx, EscalationTier::Serial);
                Some(EscalationTier::Serial)
            }
        }
    }

    /// Whether a serial-irrevocable escalation must be refused because
    /// the machine has a persist domain. The serial path commits through
    /// plain stores with **no redo record**, so a power failure inside a
    /// serial window would leave a torn, unrecoverable heap — on
    /// persistent machines the watchdog therefore caps out at the
    /// software tier. Each refusal bumps
    /// [`HybridStats::durable_serial_refusals`](crate::HybridStats), so
    /// a run that degraded this way is visible in its report.
    fn refuse_serial_escalation<U: TmWorld>(ctx: &mut Ctx<U>) -> bool {
        ctx.with(|w| {
            let durable = w.machine.persist_enabled();
            if durable {
                w.shared.tm().stats.durable_serial_refusals += 1;
            }
            durable
        })
    }

    /// Records a watchdog escalation (counter + trace journal).
    fn escalate<U: TmWorld>(&mut self, ctx: &mut Ctx<U>, tier: EscalationTier) {
        ctx.with(|w| w.shared.tm().stats.watchdog_escalations += 1);
        trace(ctx, TraceKind::WatchdogEscalation(tier));
    }

    /// Whether this thread participates in the serial-irrevocable gate:
    /// the policy can escalate to tier 2 and the system's plain accesses
    /// are strongly atomic (the soundness requirement for serial mode).
    fn serial_gate_armed(&self) -> bool {
        self.kind.strong_atomicity()
            && (self.policy.watchdog_sw_kills.is_some()
                || self.policy.watchdog_stagnation.is_some())
    }

    /// Spins (with stalls) until no serial-irrevocable transaction holds
    /// the system.
    fn wait_serial_clear<U: TmWorld>(&mut self, ctx: &mut Ctx<U>) {
        let cpu = self.cpu;
        loop {
            let active = ctx.with(|w| {
                let a = w.shared.tm().serial.addr();
                w.machine.load(cpu, a).plain("serial flag read");
                w.shared.tm().serial.active
            });
            if !active {
                return;
            }
            ctx.stall(200).plain("serial gate wait");
        }
    }

    /// The watchdog's last tier: run the transaction serial-irrevocably
    /// under the global lock with the stop flag raised. Raising the flag
    /// dooms every subscribed hardware transaction through plain coherence
    /// and turns away new attempts; in-flight software transactions are
    /// quiesced before the body runs. Accesses then use the
    /// strong-atomicity-aware non-transactional path, which cannot abort,
    /// so this attempt always commits — the bounded-retry guarantee.
    fn serial_path<U: TmWorld, R>(
        &mut self,
        ctx: &mut Ctx<U>,
        body: &mut impl FnMut(&mut Tx<'_>, &mut Ctx<U>) -> Result<R, TxAbort>,
    ) -> R {
        let cpu = self.cpu;
        let entered = ctx.with(|w| w.machine.now(cpu));
        lock_acquire(ctx, 80);
        ctx.with(|w| {
            let a = {
                let t = w.shared.tm();
                t.serial.active = true;
                t.serial.raised += 1;
                t.serial.addr()
            };
            w.machine.store(cpu, a, 1).plain("serial flag raise");
        });
        // Quiesce in-flight software transactions. Parked (`Retrying`)
        // sleepers may stay parked: they hold read ownership only, and a
        // conflicting serial store wakes them through the fault handler.
        loop {
            let busy = ctx.with(|w| {
                w.shared.ustm().slots.iter().enumerate().any(|(o, s)| {
                    o != cpu
                        && matches!(
                            s.status,
                            TxnStatus::Active | TxnStatus::Committing | TxnStatus::Aborting
                        )
                })
            });
            if !busy {
                break;
            }
            ctx.stall(120).plain("serial quiesce wait");
        }
        // Journaled only now — gate raised and quiesce complete — so the
        // SerialIrrevocable..PlainCommit window in the trace is exactly the
        // interval in which no other CPU may commit (the auditor's serial-
        // exclusivity invariant).
        trace(ctx, TraceKind::SerialIrrevocable);
        let mut tx = Tx::new(self.cpu, Mode::Serial, self.policy, &mut self.alloc_budget);
        let r = body(&mut tx, ctx);
        let bk = tx.into_bookkeeping();
        let r = r.unwrap_or_else(|e| panic!("serial-mode body cannot abort, got {e}"));
        apply_frees(ctx, &bk.frees);
        ctx.with(|w| w.shared.tm().stats.serial_commits += 1);
        trace(ctx, TraceKind::PlainCommit);
        bk.run_deferred();
        ctx.with(|w| {
            let a = {
                let t = w.shared.tm();
                t.serial.active = false;
                t.serial.addr()
            };
            w.machine.store(cpu, a, 0).plain("serial flag lower");
        });
        lock_release(ctx);
        ctx.with(|w| {
            let window = w.machine.now(cpu) - entered;
            w.shared.tm().stats.serial_cycles += window;
        });
        r
    }

    // --- the paper's hybrid ---------------------------------------------

    /// The UFO hybrid (paper §4.3): try BTM, classify aborts per
    /// Algorithm 3, fail over to the strongly-atomic USTM when hardware
    /// cannot help.
    fn ufo_hybrid_path<U: TmWorld, R>(
        &mut self,
        ctx: &mut Ctx<U>,
        body: &mut impl FnMut(&mut Tx<'_>, &mut Ctx<U>) -> Result<R, TxAbort>,
    ) -> R {
        let mut tally = Tally::default();
        loop {
            match self.hw_attempt(ctx, body, false, false) {
                Ok(r) => return r,
                Err(HwFail::Forced) => {
                    ctx.with(|w| w.shared.tm().stats.forced_failovers += 1);
                    return self.ustm_path(ctx, body);
                }
                Err(HwFail::RetryRequested) => {
                    return self.ustm_path(ctx, body);
                }
                Err(HwFail::PhaseBusy) => unreachable!("no phase check in UFO hybrid"),
                // A serial-irrevocable transaction holds the system: wait
                // for it to finish, then retry in hardware (no backoff —
                // this is not contention, and the wait itself paces us).
                Err(HwFail::SerialBusy) => self.wait_serial_clear(ctx),
                Err(HwFail::Abort(info)) => match self.hw_abort(ctx, &mut tally, info) {
                    None => {}
                    Some(EscalationTier::Software) => return self.ustm_path(ctx, body),
                    Some(EscalationTier::Serial) => return self.serial_path(ctx, body),
                },
            }
        }
    }

    // --- prior hybrids ----------------------------------------------------

    /// The idealized unbounded HTM: everything retries in hardware; page
    /// faults and allocator syscalls get software fix-ups (the "simplified
    /// abort handler" of §5's footnote).
    fn unbounded_path<U: TmWorld, R>(
        &mut self,
        ctx: &mut Ctx<U>,
        body: &mut impl FnMut(&mut Tx<'_>, &mut Ctx<U>) -> Result<R, TxAbort>,
    ) -> R {
        let mut tally = Tally::default();
        loop {
            match self.hw_attempt(ctx, body, false, false) {
                Ok(r) => return r,
                Err(HwFail::Abort(info)) if info.reason == AbortReason::Syscall => {
                    // The pool refill already happened; pay its cost
                    // outside the transaction and retry.
                    let cost = ctx.with(|w| w.shared.tm().alloc_model.syscall_cost);
                    ctx.work(cost).plain("refill outside txn");
                    ctx.with(|w| w.shared.tm().stats.hw_retries += 1);
                }
                Err(HwFail::Abort(info)) => {
                    self.hw_abort(ctx, &mut tally, info);
                }
                // No software to fail over to: spin and retry (both hooks
                // abort the BTM transaction as Explicit).
                Err(HwFail::Forced | HwFail::RetryRequested) => {
                    self.hw_abort(ctx, &mut tally, AbortInfo::new(AbortReason::Explicit));
                }
                Err(HwFail::PhaseBusy | HwFail::SerialBusy) => unreachable!(),
            }
        }
    }

    /// HyTM: hardware transactions carry otable-check barriers; anything
    /// the hardware cannot run fails over to the (weakly-atomic) USTM.
    fn hytm_path<U: TmWorld, R>(
        &mut self,
        ctx: &mut Ctx<U>,
        body: &mut impl FnMut(&mut Tx<'_>, &mut Ctx<U>) -> Result<R, TxAbort>,
    ) -> R {
        let mut tally = Tally::default();
        loop {
            match self.hw_attempt(ctx, body, true, false) {
                Ok(r) => return r,
                Err(HwFail::Forced) => {
                    ctx.with(|w| w.shared.tm().stats.forced_failovers += 1);
                    return self.ustm_path(ctx, body);
                }
                Err(HwFail::RetryRequested) => return self.ustm_path(ctx, body),
                Err(HwFail::PhaseBusy | HwFail::SerialBusy) => {
                    unreachable!("no phase check or serial gate in HyTM")
                }
                // Explicit = otable conflict with an STM txn: retry in
                // hardware after backoff (paper §5).
                Err(HwFail::Abort(info)) => {
                    if self.hw_abort(ctx, &mut tally, info).is_some() {
                        return self.ustm_path(ctx, body);
                    }
                }
            }
        }
    }

    /// PhTM: hardware and software phases exclude each other via the two
    /// global counters.
    fn phtm_path<U: TmWorld, R>(
        &mut self,
        ctx: &mut Ctx<U>,
        body: &mut impl FnMut(&mut Tx<'_>, &mut Ctx<U>) -> Result<R, TxAbort>,
    ) -> R {
        let cpu = self.cpu;
        let mut tally = Tally::default();
        loop {
            // Phase check (plain reads of both counters).
            let (must, stm) = ctx.with(|w| {
                let (ma, sa) = {
                    let p = &w.shared.tm().phtm;
                    (p.must_addr(), p.stm_addr())
                };
                w.machine.load(cpu, ma).plain("must read");
                w.machine.load(cpu, sa).plain("stm read");
                let p = &w.shared.tm().phtm;
                (p.must_count, p.stm_count)
            });
            if must != 0 {
                // Mandatory STM phase: new transactions start in software.
                return self.phtm_sw(ctx, body, false);
            }
            if stm != 0 {
                // Draining back toward a hardware phase: stall, don't start.
                ctx.with(|w| w.shared.tm().phtm.phase_stalls += 1);
                ctx.stall(self.policy.backoff_base * 4).plain("phase stall");
                continue;
            }
            match self.hw_attempt(ctx, body, false, true) {
                Ok(r) => return r,
                Err(HwFail::Forced) => {
                    ctx.with(|w| w.shared.tm().stats.forced_failovers += 1);
                    return self.phtm_sw(ctx, body, true);
                }
                Err(HwFail::RetryRequested) => return self.phtm_sw(ctx, body, true),
                Err(HwFail::PhaseBusy) => { /* loop back to the phase check */ }
                Err(HwFail::SerialBusy) => unreachable!("no serial gate in PhTM"),
                Err(HwFail::Abort(info)) => {
                    if self.hw_abort(ctx, &mut tally, info).is_some() {
                        return self.phtm_sw(ctx, body, true);
                    }
                }
            }
        }
    }

    /// Runs the transaction in PhTM's software mode, bumping the phase
    /// counters around it. The counter stores are plain — they kill any
    /// hardware transaction subscribed to the counter line, exactly the
    /// paper's "nonT conflicts on the software-transactions-in-flight
    /// counter".
    fn phtm_sw<U: TmWorld, R>(
        &mut self,
        ctx: &mut Ctx<U>,
        body: &mut impl FnMut(&mut Tx<'_>, &mut Ctx<U>) -> Result<R, TxAbort>,
        mandatory: bool,
    ) -> R {
        let cpu = self.cpu;
        ctx.with(|w| {
            let (sa, ma) = {
                let p = &w.shared.tm().phtm;
                (p.stm_addr(), p.must_addr())
            };
            {
                let p = &mut w.shared.tm().phtm;
                p.stm_count += 1;
            }
            let sv = w.shared.tm().phtm.stm_count;
            w.machine.store(cpu, sa, sv).plain("stm count store");
            if mandatory {
                {
                    let p = &mut w.shared.tm().phtm;
                    p.must_count += 1;
                }
                let mv = w.shared.tm().phtm.must_count;
                w.machine.store(cpu, ma, mv).plain("must count store");
            }
        });
        let r = self.ustm_path(ctx, body);
        ctx.with(|w| {
            let (sa, ma) = {
                let p = &w.shared.tm().phtm;
                (p.stm_addr(), p.must_addr())
            };
            {
                let p = &mut w.shared.tm().phtm;
                p.stm_count -= 1;
            }
            let sv = w.shared.tm().phtm.stm_count;
            w.machine.store(cpu, sa, sv).plain("stm count store");
            if mandatory {
                {
                    let p = &mut w.shared.tm().phtm;
                    p.must_count -= 1;
                }
                let mv = w.shared.tm().phtm.must_count;
                w.machine.store(cpu, ma, mv).plain("must count store");
            }
        });
        r
    }
}

/// Frees deferred by a committed transaction.
fn apply_frees<U: TmWorld>(ctx: &mut Ctx<U>, frees: &[Addr]) {
    if frees.is_empty() {
        return;
    }
    let frees = frees.to_vec();
    ctx.with(|w| {
        let heap = &mut w.shared.tm().heap;
        for a in frees {
            heap.free(a).expect("double free of heap allocation");
        }
    });
}

/// Wakes `retry`-parked STM sleepers after a hardware commit (paper §6:
/// the wake is deferred so an aborted transaction never wakes anyone).
fn wake_sleepers<U: TmWorld>(ctx: &mut Ctx<U>, wakes: &[usize]) {
    if wakes.is_empty() {
        return;
    }
    let cpu = ctx.cpu();
    let wakes = wakes.to_vec();
    ctx.with(|w| {
        for s in wakes {
            let slot_addr = {
                let u = w.shared.ustm();
                u.slots[s].woken = true;
                u.slot_addr(s)
            };
            w.machine.store(cpu, slot_addr, 4).plain("wake store");
        }
    });
}

/// Allocations rolled back by an aborted attempt.
fn undo_allocs<U: TmWorld>(ctx: &mut Ctx<U>, allocs: &[Addr]) {
    if allocs.is_empty() {
        return;
    }
    let allocs = allocs.to_vec();
    ctx.with(|w| {
        let heap = &mut w.shared.tm().heap;
        for a in allocs {
            heap.free(a).expect("aborted allocation already freed");
        }
    });
}
