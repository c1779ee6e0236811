//! # `ufotm-ustm` — USTM, the UFO software transactional memory
//!
//! USTM (paper §4.1–4.2) is an eager-versioning, eager-conflict-detection,
//! cache-line-granularity STM built around a shared **ownership table**
//! ([`Otable`]): one record per line currently read or written by any
//! software transaction, holding the line's tag, the permission held, and
//! the owner set. Read/write barriers acquire ownership (and log old values
//! for writes) before the data access; conflicts are resolved age-ordered —
//! a younger transaction stalls, an older one aborts its conflictors and
//! waits for them to unwind (USTM is blocking).
//!
//! **Strong atomicity** (§4.2) is what makes USTM special: barriers install
//! UFO protection on every transactionally-held line (read barrier ⇒
//! fault-on-write; write barrier ⇒ fault-on-read + fault-on-write), and the
//! transaction runs with its own UFO faults disabled. Any non-transactional
//! access that would violate isolation takes a hardware fault *before* it
//! completes and is resolved by a software policy ([`NonTFaultPolicy`]) —
//! no instrumentation of non-transactional code, and no overhead when there
//! is no conflict. The same mechanism is what lets the hybrid's hardware
//! transactions run uninstrumented (crate `ufotm-core`).
//!
//! The otable and transaction-status array live at *simulated addresses*:
//! every barrier issues real simulated memory traffic, so STM overhead,
//! cache pressure, and the HyTM pathologies all emerge from the machine
//! model rather than being hard-coded.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod barrier;
mod nont;
mod otable;
mod recovery;
mod retry;
mod txn;

pub use barrier::UstmTxn;
pub use nont::{nont_load, nont_store, NonTFaultPolicy};
pub use otable::{Otable, OtableEntry, OtableOccupancy, Perm};
pub use recovery::{CpuRecovery, REDO_MAX_LINES};
pub use retry::retry_wait;
pub use txn::{TxnSlot, TxnStatus, UstmConfig, UstmShared, UstmStats};
pub use ufotm_api::UstmAbort;

/// Gives USTM access to its shared state inside a larger world type.
///
/// The simulation engine parameterizes the world over one shared-state type;
/// harnesses that combine several TM systems (the `ufotm-core` crate) embed
/// a [`UstmShared`] and implement this trait for the combined type.
pub trait HasUstm {
    /// The embedded USTM shared state.
    fn ustm(&mut self) -> &mut UstmShared;
}

impl HasUstm for UstmShared {
    fn ustm(&mut self) -> &mut UstmShared {
        self
    }
}
