//! The retry/escalation decision of the paper's BTM abort handler
//! (Algorithm 3), written once for both hybrid drivers: after each abort
//! the driver classifies it, asks [`RetryCore::on_abort`], and acts on
//! the [`Decision`] — back off and retry, fail over to the STM, or
//! escalate to the serial-irrevocable tier. The core holds no substrate
//! code: the global commit count, the permission to escalate and the
//! jitter draw come from the caller. A transaction that commits without
//! aborting never reaches it.

/// The decision's knobs. A limit of `n` trips on the `n`-th counted
/// abort; `None` disables it, and with every limit `None` the core
/// retries forever (the paper's default for contention).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// The backoff after the `n`-th counted fast-path abort is
    /// `backoff_base << min(n, backoff_cap_exp)` units, before jitter.
    pub backoff_base: u64,
    /// Where the backoff exponent saturates.
    pub backoff_cap_exp: u32,
    /// Jitter: each backoff `b` becomes `b + uniform[0, b·pct/100)`.
    pub backoff_jitter_pct: u32,
    /// Fail over on this many consecutive [`AbortClass::Contention`] aborts.
    pub failover_after: Option<u32>,
    /// Watchdog tier 1: fail over on this many consecutive counted
    /// fast-path aborts of any class.
    pub watchdog_after: Option<u32>,
    /// Watchdog tier 2: escalate on this many [`AbortClass::SlowFailed`].
    pub serial_after: Option<u32>,
    /// Escalate to the strongest allowed tier once this many consecutive
    /// observations see no global commit progress.
    pub stagnation_after: Option<u32>,
}

impl RetryPolicy {
    /// The un-jittered backoff after the `n`-th counted abort.
    #[must_use]
    #[inline]
    pub fn backoff_for(&self, n: u32) -> u64 {
        self.backoff_base << n.min(self.backoff_cap_exp)
    }
}

/// What kind of abort the driver saw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortClass {
    /// The fast path cannot run this transaction: fail over at once.
    Unfit,
    /// Fast-path data contention: counts towards `failover_after` and the
    /// watchdog.
    Contention,
    /// Any other recoverable fast-path abort: counts towards the watchdog.
    Transient,
    /// A failed slow-path attempt: counts towards `serial_after`.
    SlowFailed,
    /// A slow-path restart that is no failure (an explicit abort, a woken
    /// `retry`): uncounted, but stagnation is still watched.
    SlowRestart,
}

/// What the driver does next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Back off (`0` on the slow path), then retry on the same path.
    Retry {
        /// Units to back off: simulated cycles or native spin units.
        backoff: u64,
    },
    /// Move to the slow path.
    Failover {
        /// The progress watchdog made the call, not Algorithm 3 (an unfit
        /// abort or the contention limit).
        watchdog: bool,
    },
    /// Run the transaction serial-irrevocably.
    Escalate,
}

/// One path's counts for the transaction in flight. Each path of each
/// transaction starts from `Tally::default()`.
#[derive(Debug, Default)]
pub struct Tally {
    aborts: u32,
    serial_refused: bool,
}

/// One thread's decision state: the policy and the stagnation memory,
/// which outlives single transactions.
#[derive(Debug)]
pub struct RetryCore {
    policy: RetryPolicy,
    last_commits: u64,
    stagnant: u32,
}

impl RetryCore {
    /// A fresh core for one thread.
    #[must_use]
    pub const fn new(policy: RetryPolicy) -> Self {
        RetryCore {
            policy,
            last_commits: 0,
            stagnant: 0,
        }
    }

    /// The policy this core decides by.
    #[must_use]
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// One decision after an abort of `class` on the path `tally` counts.
    /// `commits` is the global commit count (`None`: no stagnation
    /// check). `serial_allowed` is asked only when the core wants to
    /// escalate; a `false` answer (a persistent machine, a weakly-atomic
    /// system) turns a fast-path escalation into a watchdog failover and
    /// is not asked again on the slow path, so each refusal can be
    /// counted. `uniform(span)`, called only for a jittered backoff, must
    /// return a value in `[0, span)`.
    pub fn on_abort(
        &mut self,
        tally: &mut Tally,
        class: AbortClass,
        commits: Option<u64>,
        serial_allowed: impl FnOnce() -> bool,
        uniform: impl FnOnce(u64) -> u64,
    ) -> Decision {
        let p = self.policy;
        if class == AbortClass::Unfit {
            return Decision::Failover { watchdog: false };
        }
        if matches!(class, AbortClass::SlowFailed | AbortClass::SlowRestart) {
            tally.aborts += u32::from(class == AbortClass::SlowFailed);
            let Some(limit) = p.serial_after.filter(|_| tally.aborts > 0) else {
                return Decision::Retry { backoff: 0 };
            };
            let stagnant = self.observe(commits);
            if (tally.aborts >= limit || stagnant) && !tally.serial_refused {
                if serial_allowed() {
                    return self.escalated(Decision::Escalate);
                }
                tally.serial_refused = true;
            }
            return Decision::Retry { backoff: 0 };
        }
        let n = tally.aborts + 1;
        if class == AbortClass::Contention && reached(p.failover_after, n) {
            return Decision::Failover { watchdog: false };
        }
        // Per-transaction patience cannot break a livelock: when nobody
        // commits, every contender must leave.
        let stagnant = self.observe(commits);
        if stagnant && serial_allowed() {
            return self.escalated(Decision::Escalate);
        }
        if stagnant || reached(p.watchdog_after, n) {
            return self.escalated(Decision::Failover { watchdog: true });
        }
        tally.aborts = n;
        let base = p.backoff_for(n);
        let span = base * u64::from(p.backoff_jitter_pct) / 100;
        let jitter = if span > 0 { uniform(span) } else { 0 };
        Decision::Retry {
            backoff: base + jitter,
        }
    }

    /// One stagnation observation: `true` once the armed limit of
    /// consecutive observations without global commit progress is met.
    fn observe(&mut self, commits: Option<u64>) -> bool {
        let (Some(limit), Some(now)) = (self.policy.stagnation_after, commits) else {
            return false;
        };
        if now != self.last_commits {
            self.last_commits = now;
            self.stagnant = 0;
            return false;
        }
        self.stagnant += 1;
        self.stagnant >= limit
    }

    /// A watchdog decision restarts the stagnation count.
    fn escalated(&mut self, d: Decision) -> Decision {
        self.stagnant = 0;
        d
    }
}

fn reached(limit: Option<u32>, n: u32) -> bool {
    limit.is_some_and(|l| n >= l)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exponential backoff with no jitter and no limits.
    fn exponential(base: u64, cap_exp: u32) -> RetryPolicy {
        RetryPolicy {
            backoff_base: base,
            backoff_cap_exp: cap_exp,
            backoff_jitter_pct: 0,
            failover_after: None,
            watchdog_after: None,
            serial_after: None,
            stagnation_after: None,
        }
    }

    /// How the caller reports the global commit count.
    #[derive(Clone, Copy, Debug)]
    enum Commits {
        /// No stagnation tracking.
        Untracked,
        /// Stuck: every observation after the first is stagnant.
        Stuck,
        /// Advancing on every abort: never stagnant.
        Advancing,
    }

    impl Commits {
        fn at(self, step: usize) -> Option<u64> {
            match self {
                Commits::Untracked => None,
                Commits::Stuck => Some(7),
                Commits::Advancing => Some(100 + step as u64),
            }
        }
    }

    /// One sweep cell: three limits, the escalation permission, and the
    /// commit-count mode. Miri runs a smaller grid.
    type Setting = ([Option<u32>; 3], bool, Commits);

    fn settings() -> Vec<Setting> {
        let limits: &[Option<u32>] = if cfg!(miri) {
            &[None, Some(2)]
        } else {
            &[None, Some(1), Some(2), Some(3), Some(4)]
        };
        let mut out = Vec::new();
        for &a in limits {
            for &b in limits {
                for &c in limits {
                    for allowed in [true, false] {
                        for mode in [Commits::Untracked, Commits::Stuck, Commits::Advancing] {
                            out.push(([a, b, c], allowed, mode));
                        }
                    }
                }
            }
        }
        out
    }

    /// Every class sequence over `classes` of the sweep length (6, or 4
    /// under Miri); each prefix is a shorter sequence.
    fn sequences(classes: &[AbortClass]) -> Vec<Vec<AbortClass>> {
        let len = if cfg!(miri) { 4 } else { 6 };
        (0..len).fold(vec![Vec::new()], |seqs, _| {
            seqs.iter()
                .flat_map(|s| classes.iter().map(move |&c| [&s[..], &[c]].concat()))
                .collect()
        })
    }

    fn policy(failover: Option<u32>, watchdog: Option<u32>, serial: Option<u32>) -> RetryPolicy {
        RetryPolicy {
            backoff_jitter_pct: 25,
            failover_after: failover,
            watchdog_after: watchdog,
            serial_after: serial,
            ..exponential(50, 3)
        }
    }

    #[test]
    fn fast_path_backs_off_then_fails_over_or_escalates_exactly_at_its_limits() {
        use AbortClass::{Contention, Transient, Unfit};
        let settings = settings();
        for seq in sequences(&[Unfit, Contention, Transient]) {
            for &([failover, watchdog, stagnation], allowed, mode) in &settings {
                let mut core = RetryCore::new(RetryPolicy {
                    stagnation_after: stagnation,
                    ..policy(failover, watchdog, None)
                });
                let mut tally = Tally::default();
                // Stagnation observations so far; the first one only
                // records the count.
                let mut seen = 0u32;
                for (step, &class) in seq.iter().enumerate() {
                    let n = tally.aborts + 1;
                    let (mut asked, mut drawn) = (false, None);
                    let d = core.on_abort(
                        &mut tally,
                        class,
                        mode.at(step),
                        || {
                            asked = true;
                            allowed
                        },
                        |span| {
                            drawn = Some(span);
                            span - 1
                        },
                    );
                    let ctx = || {
                        format!(
                            "{seq:?} step {step} failover={failover:?} watchdog={watchdog:?} \
                             stagnation={stagnation:?} allowed={allowed} {mode:?}"
                        )
                    };
                    let algorithm3 =
                        class == Unfit || (class == Contention && reached(failover, n));
                    let observes = !algorithm3 && stagnation.is_some() && mode.at(step).is_some();
                    seen += u32::from(observes);
                    let stagnant =
                        observes && matches!(mode, Commits::Stuck) && reached(stagnation, seen - 1);
                    let base = 50u64 << n.min(3);
                    let want = if algorithm3 {
                        Decision::Failover { watchdog: false }
                    } else if stagnant && allowed {
                        Decision::Escalate
                    } else if stagnant || reached(watchdog, n) {
                        Decision::Failover { watchdog: true }
                    } else {
                        Decision::Retry {
                            backoff: base + base / 4 - 1,
                        }
                    };
                    assert_eq!(d, want, "{}", ctx());
                    assert_eq!(asked, stagnant, "serial permission asked: {}", ctx());
                    let Decision::Retry { backoff } = d else {
                        assert_eq!(drawn, None, "drew without backing off: {}", ctx());
                        break;
                    };
                    assert_eq!(drawn, Some(base / 4), "jitter span: {}", ctx());
                    assert!(
                        (base..base + base / 4).contains(&backoff),
                        "backoff {backoff} outside [base, base + span): {}",
                        ctx()
                    );
                    assert_eq!(tally.aborts, n, "{}", ctx());
                }
            }
        }
    }

    #[test]
    fn slow_path_escalates_exactly_at_its_limits_and_asks_once() {
        use AbortClass::{SlowFailed, SlowRestart};
        let settings = settings();
        for seq in sequences(&[SlowFailed, SlowRestart]) {
            // The third limit has no meaning on the slow path.
            for &([serial, stagnation, _], allowed, mode) in
                settings.iter().filter(|s| s.0[2].is_none())
            {
                let mut core = RetryCore::new(RetryPolicy {
                    stagnation_after: stagnation,
                    ..policy(None, None, serial)
                });
                let mut tally = Tally::default();
                let (mut failed, mut seen, mut asks, mut refused) = (0u32, 0u32, 0, false);
                for (step, &class) in seq.iter().enumerate() {
                    let d = core.on_abort(
                        &mut tally,
                        class,
                        mode.at(step),
                        || {
                            asks += 1;
                            allowed
                        },
                        |_| panic!("the slow path never draws"),
                    );
                    let ctx = || {
                        format!(
                            "{seq:?} step {step} serial={serial:?} stagnation={stagnation:?} \
                             allowed={allowed} {mode:?}"
                        )
                    };
                    failed += u32::from(class == SlowFailed);
                    let observes = serial.is_some()
                        && failed > 0
                        && stagnation.is_some()
                        && mode.at(step).is_some();
                    seen += u32::from(observes);
                    let stagnant =
                        observes && matches!(mode, Commits::Stuck) && reached(stagnation, seen - 1);
                    let wants = serial.is_some()
                        && failed > 0
                        && (reached(serial, failed) || stagnant)
                        && !refused;
                    refused |= wants && !allowed;
                    let want = if wants && allowed {
                        Decision::Escalate
                    } else {
                        Decision::Retry { backoff: 0 }
                    };
                    assert_eq!(d, want, "{}", ctx());
                    assert_eq!(tally.aborts, failed, "{}", ctx());
                    if d == Decision::Escalate {
                        break;
                    }
                }
                assert!(asks <= 1, "serial permission asked {asks} times");
            }
        }
    }

    #[test]
    fn with_every_limit_off_the_core_retries_forever() {
        let mut core = RetryCore::new(exponential(16, 6));
        for class in [AbortClass::Contention, AbortClass::Transient] {
            let mut tally = Tally::default();
            for n in 1..=10_000u32 {
                let d = core.on_abort(
                    &mut tally,
                    class,
                    Some(0),
                    || panic!("never escalates"),
                    |_| panic!("no jitter, no draw"),
                );
                assert_eq!(
                    d,
                    Decision::Retry {
                        backoff: 16 << n.min(6)
                    }
                );
            }
        }
        let mut tally = Tally::default();
        for class in [AbortClass::SlowFailed, AbortClass::SlowRestart]
            .iter()
            .cycle()
            .take(10_000)
        {
            let d = core.on_abort(&mut tally, *class, Some(0), || true, |_| 0);
            assert_eq!(d, Decision::Retry { backoff: 0 });
        }
    }

    #[test]
    fn stagnation_memory_outlives_the_transaction_and_resets_on_escalation() {
        let mut core = RetryCore::new(RetryPolicy {
            stagnation_after: Some(2),
            ..exponential(50, 3)
        });
        let step = |core: &mut RetryCore| {
            core.on_abort(
                &mut Tally::default(),
                AbortClass::Transient,
                Some(3),
                || true,
                |_| 0,
            )
        };
        // First sight of the count, then two stuck observations across
        // three separate transactions.
        assert_eq!(step(&mut core), Decision::Retry { backoff: 100 });
        assert_eq!(step(&mut core), Decision::Retry { backoff: 100 });
        assert_eq!(step(&mut core), Decision::Escalate);
        // Escalating restarted the count.
        assert_eq!(step(&mut core), Decision::Retry { backoff: 100 });
    }

    #[test]
    fn zero_jitter_span_never_draws() {
        // 1 << 0 = 1 unit at 25 % jitter: the span rounds to zero.
        let mut core = RetryCore::new(RetryPolicy {
            backoff_jitter_pct: 25,
            ..exponential(1, 0)
        });
        let d = core.on_abort(
            &mut Tally::default(),
            AbortClass::Contention,
            None,
            || true,
            |_| panic!("zero span must not draw"),
        );
        assert_eq!(d, Decision::Retry { backoff: 1 });
    }

    #[test]
    fn backoff_doubles_then_saturates() {
        let p = exponential(50, 7);
        assert_eq!(p.backoff_for(0), 50);
        assert_eq!(p.backoff_for(1), 100);
        assert_eq!(p.backoff_for(7), 50 << 7);
        assert_eq!(p.backoff_for(20), 50 << 7, "saturates at the cap");
    }
}
