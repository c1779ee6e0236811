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
//! * [`NativeTl2`] / [`NativeTxn`] — the simulated TL2's version-lock
//!   protocol on `AtomicU64` stripes; the hybrid's fast path.
//! * [`NativeUstm`] / [`NativeUstmTxn`] ([`ustm`]) — a redo-log USTM
//!   with a sharded ownership table and age-ordered kills; the hybrid's
//!   strongly-atomic slow path.
//! * [`guard`] — the `mprotect`/SIGSEGV strong-atomicity guard standing
//!   in for the paper's UFO bits: USTM commit windows page-protect the
//!   public heap view, racing plain accesses fault, get classified, and
//!   re-execute after the window (feature `mprotect-guard`, Linux
//!   x86_64 only; disable at runtime with `UFOTM_SKIP_GUARD=1`).
//! * [`NativeHybrid`] / [`HybridThread`] ([`hybrid`]) — the one driver
//!   and its runners ([`run_hybrid_threads`]): TL2 fast path, USTM slow
//!   path after `failover_after` consecutive aborts with jittered
//!   backoff, serial tier after `serial_after` failed slow attempts —
//!   with every retry decision made by the shared `RetryCore`. Fast and
//!   slow transactions run concurrently, isolated per stripe. "TL2-only"
//!   is this driver with failover off (`failover_after: None`).
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
//! ([`spin_work`] is a calibrated busy-loop, not a cycle model). The
//! hybrid is strongly atomic for its slow path: the stripe table keeps
//! plain accesses and fast commits out of a slow transaction's lines,
//! and the guard window defers plain accesses racing a write-back on the
//! same page. With failover off no transaction takes the slow path, so
//! TL2-only stays weakly atomic, like the simulated TL2.
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
pub use tl2::{spin_work, DebugWindow, NativeStats, NativeTl2, NativeTxn};
pub use ustm::{NativeUstm, NativeUstmStats, NativeUstmTxn};
