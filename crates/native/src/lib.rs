//! # `ufotm-native` — the paper's hybrid on real OS threads
//!
//! Host-atomics implementations of the reproduction's TM systems, with
//! **zero simulator involvement**: the crate's one dependency is the
//! leaf `ufotm-api` (addresses, the backend traits, the abort types and
//! the retry/escalation core it shares with the simulator), so it
//! compiles without any simulator crate. Where the simulated crates
//! charge deterministic cycles and replay bit-for-bit, this crate
//! measures what the paper's design actually costs in wall-clock
//! ops/sec on real contended cache lines:
//!
//! * [`NativeTl2`] / [`NativeTxn`] / [`NativeThread`] — the
//!   simulated TL2's version-lock protocol on `AtomicU64` stripes; the
//!   hybrid's fast path and a backend in its own right.
//! * [`NativeUstm`] / [`NativeUstmTxn`] ([`ustm`]) — a redo-log USTM
//!   with a sharded ownership table and age-ordered kills; the hybrid's
//!   strongly-atomic slow path.
//! * [`guard`] — the `mprotect`/SIGSEGV strong-atomicity guard standing
//!   in for the paper's UFO bits: USTM commit windows page-protect the
//!   public heap view, racing plain accesses fault, get classified, and
//!   re-execute after the window (feature `mprotect-guard`, Linux
//!   x86_64 only; disable at runtime with `UFOTM_SKIP_GUARD=1`).
//! * [`NativeHybrid`] / [`HybridThread`] ([`hybrid`]) — the failover
//!   driver: TL2 fast path, USTM slow path after `failover_after`
//!   consecutive aborts with jittered backoff, serial tier after
//!   `serial_after` failed slow attempts, PhTM-style mode gate — with
//!   every retry decision made by the shared `RetryCore`.
//!
//! The sim and native implementations are cross-validated
//! (`crates/stamp`'s `cross_validate` suite): the same transaction
//! scripts must produce identical final heap states and identical
//! abort classifications on both substrates.
//!
//! ## What this crate is *not*
//!
//! Not deterministic (real races, real interleavings — runs are
//! unrepeatable by design; the `cargo xtask analyze` determinism lints
//! exempt this crate for exactly that reason) and not cycle-accurate
//! ([`spin_work`] is a calibrated busy-loop, not a cycle model). Unlike
//! the weakly-atomic TL2-only backend, the hybrid *is* strongly atomic
//! for its slow path: the guard window defers racing plain accesses,
//! and the mode gate quiesces the uninstrumented fast path.
//!
//! `unsafe` is confined to [`guard`]'s raw-syscall module; the rest of
//! the crate denies it. Inside that module every unsafe operation must
//! sit in its own scoped block (`unsafe_op_in_unsafe_fn` is denied) with
//! a `// SAFETY:` comment the D10 analyze pass enforces.

#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod chaos;
pub mod guard;
mod heap;
mod tl2;

pub mod hybrid;
pub mod ustm;

pub use chaos::{ChaosPlan, ChaosReport, FailSite, InjectedPanic, Liveness, NativeChaos, PanicAt};
pub use guard::GuardStats;
pub use hybrid::{
    run_hybrid_threads, run_hybrid_threads_collect, HybridOutcome, HybridStats, HybridThread,
    NativeHybrid, NativeHybridPolicy,
};
pub use tl2::{
    run_threads, run_threads_collect, spin_work, DebugWindow, NativeOutcome, NativeStats,
    NativeThread, NativeTl2, NativeTxn,
};
pub use ustm::{NativeUstm, NativeUstmStats, NativeUstmTxn};
