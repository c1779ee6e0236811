//! The backend abstraction: one workload, two execution substrates.
//!
//! Every STAMP workload is written once against [`TmBackend`] /
//! [`TxScope`] — defined in the dependency-free `ufotm-api` crate and
//! re-exported here — and runs unchanged on either substrate:
//!
//! * **Simulated** — the deterministic cycle-charged machine. The scope
//!   delegates to [`Tx`](crate::Tx) under a
//!   [`TmThread`](crate::TmThread) driver, every access is charged
//!   simulated cycles, and runs replay bit-for-bit from a seed. This is
//!   the substrate all of the paper's figures are measured on.
//! * **Native** — real host atomics on real OS threads (the
//!   `ufotm-native` crate's TL2 and hybrid), which depends on
//!   `ufotm-api` alone. Runs are *not* deterministic; they exist to
//!   measure wall-clock ops/sec and to cross-validate the simulated TL2
//!   against an implementation whose races are real.
//!
//! The split mirrors the paper's Figure 4 property (each transaction
//! compiled once per execution mode): the workload body is generic over
//! the backend, and the backend supplies transactional semantics,
//! plain (non-transactional) access, compute charging, and the phase
//! barrier. As with [`TxAbort`](crate::TxAbort) inside
//! [`TmThread::transaction`](crate::TmThread::transaction), the real
//! abort reason never reaches the body: it sees only [`Stop`].

pub use ufotm_api::{Stop, TmBackend, TxScope};

/// Which substrate a run executes on; carried by the stamp harness's
/// `RunSpec`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The deterministic cycle-charged simulator (default).
    #[default]
    Simulated,
    /// Host-atomics TL2 on real OS threads (`ufotm-native`).
    NativeTl2,
    /// Host-atomics hybrid: TL2 fast path failing over to a
    /// strongly-atomic USTM slow path (`ufotm-native`).
    NativeHybrid,
}

impl BackendKind {
    /// Stable label used in reports and bench artifacts.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            BackendKind::Simulated => "simulated",
            BackendKind::NativeTl2 => "native-tl2",
            BackendKind::NativeHybrid => "native-hybrid",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_are_stable() {
        assert_eq!(BackendKind::default(), BackendKind::Simulated);
        assert_eq!(BackendKind::Simulated.label(), "simulated");
        assert_eq!(BackendKind::NativeTl2.label(), "native-tl2");
        assert_eq!(BackendKind::NativeHybrid.label(), "native-hybrid");
    }
}
