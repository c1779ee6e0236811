//! What one timed phase of a workload produces.

use std::collections::BTreeMap;

use crate::probe::{ProbeOut, Trace};

/// One phase: a fixed thread count and probe, run for a time budget as
/// a series of slices (native) or jobs (simulated).
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Committed transactions per second, one entry per slice or job.
    pub rates: Vec<f64>,
    /// Sampled `TmBackend::transaction` latencies in ns.
    pub samples: Vec<u64>,
    /// Set-up times in seconds.
    pub setups: Vec<f64>,
    /// Transactions committed.
    pub txns: u64,
    /// Operations attempted: transactions plus checked plain loads.
    pub attempted: u64,
    /// Operations that failed a check or never committed.
    pub failed: u64,
    /// What failed, for the report.
    pub problems: Vec<String>,
    /// Per-layer metrics this phase measured.
    pub layer: BTreeMap<&'static str, f64>,
    /// The merged trace (empty when untraced).
    pub trace: Trace,
    /// Simulated runs: makespan, accesses and hw/sw/lock commits, which
    /// every job of a seed must repeat exactly.
    pub exact: Option<[u64; 5]>,
}

impl PhaseOut {
    /// Records `ops` failed operations and why.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.problems.push(why);
    }

    /// Folds one worker's probe output in.
    pub fn absorb(&mut self, po: ProbeOut) {
        self.txns += po.txns;
        self.samples.extend(po.samples);
        if let Some(t) = po.trace {
            self.trace.merge(&t);
        }
    }
}
