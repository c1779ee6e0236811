//! Hybrid contention-management and failover policy knobs (paper §4.4).
//!
//! Together with the machine-level knobs
//! ([`HwCmPolicy`](ufotm_machine::HwCmPolicy),
//! [`UfoKillPolicy`](ufotm_machine::UfoKillPolicy)), these reproduce every
//! bar of the paper's Figure 8 sensitivity study.

/// What a hardware transaction does when it takes a UFO fault (i.e. touches
/// a line held by an in-flight software transaction).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum BtmUfoFaultPolicy {
    /// Abort the hardware transaction and let the abort handler back off
    /// and retry (the paper's default).
    #[default]
    AbortAndRetry,
    /// Stall inside the transaction until the protection clears (Figure 8,
    /// third bar: "preventing hardware transactions from aborting unless
    /// absolutely necessary").
    Stall,
}

/// The hybrid's software policy, consumed by the BTM abort handler
/// (Algorithm 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HybridPolicy {
    /// UFO-fault handling inside hardware transactions.
    pub btm_ufo_fault: BtmUfoFaultPolicy,
    /// Fail over to software after this many consecutive contention-class
    /// aborts. `None` — the paper's recommendation — never fails over on
    /// contention ("the STM's overhead will increase the transaction's
    /// duration, … increasing contention"; such policies are metastable).
    pub conflict_failover_after: Option<u32>,
    /// Base of the exponential backoff applied after counted hardware
    /// aborts: `backoff_base << min(n, backoff_cap_exp)` cycles after the
    /// `n`-th consecutive one.
    pub backoff_base: u64,
    /// Consecutive-abort count saturates here (the paper counts "up to 7").
    pub backoff_cap_exp: u32,
    /// Cycles a [`BtmUfoFaultPolicy::Stall`] retry waits between attempts.
    pub ufo_stall_backoff: u64,
    /// Seeded random jitter (watchdog tier 0: randomized backoff breaks
    /// symmetric abort ping-pong): each backoff `b` becomes
    /// `b + uniform[0, b·pct/100)`, the same meaning as
    /// `NativeHybridPolicy::backoff_jitter_pct`. `0` keeps the paper's
    /// pure exponential schedule. The TL2 baseline's backoff is never
    /// jittered.
    pub backoff_jitter_pct: u32,
    /// Watchdog tier 1: after this many *consecutive* hardware aborts of
    /// any recoverable class, stop retrying in hardware and fail the
    /// transaction over to the STM. `None` (the default) disables the
    /// watchdog and keeps the paper's retry-forever policy.
    pub watchdog_hw_attempts: Option<u32>,
    /// Watchdog tier 2: after this many consecutive software kills of the
    /// same transaction, escalate to serial-irrevocable execution under
    /// the global lock (strongly-atomic systems only). `None` disables.
    pub watchdog_sw_kills: Option<u32>,
    /// Watchdog livelock accelerator: if the *global* commit count has not
    /// advanced across this many consecutive abort/backoff observations by
    /// this thread, escalate straight to the strongest available tier
    /// (nobody is making progress, so per-transaction patience is
    /// pointless). `None` disables.
    pub watchdog_stagnation: Option<u32>,
}

impl Default for HybridPolicy {
    fn default() -> Self {
        HybridPolicy {
            btm_ufo_fault: BtmUfoFaultPolicy::default(),
            conflict_failover_after: None,
            backoff_base: 50,
            backoff_cap_exp: 7,
            ufo_stall_backoff: 60,
            backoff_jitter_pct: 0,
            watchdog_hw_attempts: None,
            watchdog_sw_kills: None,
            watchdog_stagnation: None,
        }
    }
}

impl HybridPolicy {
    /// Figure 8, second bar: fail over to software after `n` conflict
    /// aborts.
    #[must_use]
    pub fn failover_on_nth_conflict(n: u32) -> Self {
        HybridPolicy {
            conflict_failover_after: Some(n),
            ..HybridPolicy::default()
        }
    }

    /// Figure 8, third bar: stall (rather than abort) on UFO faults.
    #[must_use]
    pub fn stall_on_ufo_fault() -> Self {
        HybridPolicy {
            btm_ufo_fault: BtmUfoFaultPolicy::Stall,
            ..HybridPolicy::default()
        }
    }

    /// The progress watchdog, armed with its default limits: jittered
    /// backoff, software failover after 16 consecutive hardware aborts,
    /// serial-irrevocable execution after 8 consecutive software kills,
    /// and immediate escalation once 8 consecutive observations show zero
    /// global commit progress. Guarantees every transaction commits within
    /// a bounded number of attempts, at the price of abandoning the
    /// paper's never-fail-over-on-contention recommendation when the
    /// system is demonstrably stuck.
    #[must_use]
    pub fn watchdog() -> Self {
        HybridPolicy {
            backoff_jitter_pct: 25,
            watchdog_hw_attempts: Some(16),
            watchdog_sw_kills: Some(8),
            watchdog_stagnation: Some(8),
            ..HybridPolicy::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_set_the_right_knobs() {
        assert_eq!(
            HybridPolicy::failover_on_nth_conflict(5).conflict_failover_after,
            Some(5)
        );
        assert_eq!(
            HybridPolicy::stall_on_ufo_fault().btm_ufo_fault,
            BtmUfoFaultPolicy::Stall
        );
        assert_eq!(HybridPolicy::default().conflict_failover_after, None);
    }

    #[test]
    fn watchdog_is_off_by_default_and_bounded_when_armed() {
        let d = HybridPolicy::default();
        assert_eq!(d.backoff_jitter_pct, 0);
        assert_eq!(d.watchdog_hw_attempts, None);
        assert_eq!(d.watchdog_sw_kills, None);
        assert_eq!(d.watchdog_stagnation, None);
        let w = HybridPolicy::watchdog();
        assert!(w.watchdog_hw_attempts.is_some());
        assert!(w.watchdog_sw_kills.is_some());
        assert!(w.watchdog_stagnation.is_some());
        assert!(w.backoff_jitter_pct > 0);
        // The armed watchdog leaves the paper's CM knobs alone.
        assert_eq!(w.conflict_failover_after, None);
        assert_eq!(
            (w.backoff_base, w.backoff_cap_exp),
            (d.backoff_base, d.backoff_cap_exp)
        );
    }
}
