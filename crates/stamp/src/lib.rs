//! # `ufotm-stamp` — STAMP-style workloads over the simulated machine
//!
//! Re-implementations of the three STAMP benchmarks the paper evaluates
//! (§5.1), plus the software-failover microbenchmark of §5.3:
//!
//! * [`kmeans`] — clustering; many small transactions updating per-cluster
//!   accumulators. High contention = few clusters.
//! * [`vacation`] — a travel-reservation system over binary search trees in
//!   simulated memory; long-running, large-footprint transactions that
//!   sometimes overflow the L1 (more often in the low-contention
//!   configuration, as the paper observes).
//! * [`genome`] — segment de-duplication into a shared hash set, then
//!   assembly by sorted-linked-list insertion: the paper's high-contention
//!   CM stress test.
//! * [`micro`] — conflict-free transactions that fail over to software at a
//!   prescribed random rate (Figure 7).
//! * [`ssca2`] — an extension workload (STAMP's graph-construction kernel):
//!   tiny scalable transactions, the low-contention end of the spectrum.
//!
//! Every workload is written once against `ufotm-core`'s [`Tx`] facade and
//! runs unchanged on all nine [`SystemKind`]s; each verifies its own
//! invariants against the final memory image. The [`harness`] module wires
//! workload bodies, machine configuration, and result collection together
//! for the benchmark drivers in `ufotm-bench`.
//!
//! kmeans, ssca2, vacation and genome are written against the
//! substrate-agnostic [`TmBackend`](ufotm_core::TmBackend) traits via
//! [`backend::SimBackend`], so the *same body* also runs on `ufotm-native`'s
//! driver (each workload's `run_native`) for wall-clock throughput and
//! sim-vs-native cross-validation: TL2-only, which is the native hybrid with
//! failover off, or the failover hybrid, as `RunSpec::backend` selects.
//!
//! [`Tx`]: ufotm_core::Tx
//! [`SystemKind`]: ufotm_core::SystemKind

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod genome;
pub mod harness;
pub mod kmeans;
pub mod micro;
pub mod ssca2;
pub mod structures;
pub mod vacation;
mod world;

pub use backend::SimBackend;
pub use harness::{NativeOutcome, RunOutcome, RunSpec};
pub use world::{Barrier, StampWorld};
