//! # `ufotm-machine` — the simulated hardware substrate
//!
//! This crate models the hardware assumed by the ISCA 2008 paper *"Using
//! Hardware Memory Protection to Build a High-Performance, Strongly-Atomic
//! Hybrid Transactional Memory"* (Baugh, Neelakantam, Zilles): a
//! multiprocessor with
//!
//! * a word-addressed physical memory image,
//! * per-CPU L1 data caches and a shared L2, kept coherent by a
//!   directory protocol,
//! * **UFO** — two *user fault-on* bits (fault-on-read, fault-on-write) per
//!   64-byte cache line that travel with the data through the hierarchy and
//!   are manipulated by user-mode instructions
//!   ([`Machine::set_ufo_bits`], [`Machine::add_ufo_bits`],
//!   [`Machine::read_ufo_bits`], [`Machine::set_ufo_enabled`]), and
//! * **BTM** — a best-effort hardware transactional memory that tracks
//!   speculatively-read / speculatively-written lines in the L1, aborts on
//!   any eviction of a speculative line, and arbitrates conflicts with an
//!   age-ordered nack/abort policy ([`Machine::btm_begin`],
//!   [`Machine::btm_end`], [`Machine::btm_abort`], [`Machine::btm_status`]).
//!
//! Everything is executed under a *deterministic* timing model: each CPU has
//! a local cycle clock, and each operation charges latencies from a
//! [`CostModel`] (approximating the paper's Table 4). There is no real
//! concurrency in this crate — callers (normally the `ufotm-sim` lockstep
//! engine) interleave CPUs by always invoking the CPU with the smallest local
//! clock.
//!
//! ## Example
//!
//! ```
//! use ufotm_machine::{Machine, MachineConfig, Addr, UfoBits};
//!
//! let mut m = Machine::new(MachineConfig::small(2));
//! let a = Addr::from_word_index(100);
//!
//! // Plain accesses.
//! m.store(0, a, 7).unwrap();
//! assert_eq!(m.load(0, a).unwrap(), 7);
//!
//! // Protect the line and watch a conflicting access fault.
//! m.set_ufo_bits(0, a, UfoBits::FAULT_ON_WRITE).unwrap();
//! m.set_ufo_enabled(1, true);
//! assert!(m.store(1, a, 9).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod alloc;
mod bits;
mod btm;
mod cache;
mod chaos;
mod coherence;
mod config;
mod machine;
mod mem;
mod persist;
mod rng;
mod stats;
mod swap;
mod ufo;

pub use alloc::{AllocError, SimAlloc};
pub use bits::{cpu_bit, BitIter};
pub use btm::{AbortInfo, AbortReason, BtmEvent, BtmStatus};
pub use cache::CacheGeometry;
pub use chaos::{ChaosEvent, ChaosFaultKind, ChaosStats, FaultPlan};
pub use config::{CostModel, HwCmPolicy, MachineConfig, UfoKillPolicy};
pub use machine::{AccessError, AccessResult, CpuId, Machine, PlainAccess};
pub use persist::{CrashImage, PersistConfig, PersistStats};
pub use rng::{splitmix64, SimRng};
pub use stats::{CpuStats, MachineStats};
pub use swap::{SwapConfig, SwapStats};
pub use ufo::{UfoBits, UfoFaultKind};
pub use ufotm_api::{
    Addr, LineAddr, PageAddr, LINE_BYTES, LINE_WORDS, PAGE_BYTES, PAGE_LINES, WORD_BYTES,
};
