//! # `ufotm-api` — what both substrates share
//!
//! The dependency-free leaf of the workspace: [`Addr`] and the memory
//! geometry, the backend traits [`TmBackend`]/[`TxScope`], the abort
//! types [`Tl2Abort`]/[`UstmAbort`], and [`RetryCore`], the
//! retry/escalation decision of the paper's abort handler (Algorithm 3)
//! that both hybrid drivers run. The simulator crates and the native
//! backend build on it, and neither needs the other to compile. Nothing
//! here charges a cycle, touches a thread, or draws a random number.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abort;
mod addr;
mod backend;
mod retry;

pub use abort::{Tl2Abort, UstmAbort};
pub use addr::{
    Addr, LineAddr, PageAddr, LINE_BYTES, LINE_WORDS, PAGE_BYTES, PAGE_LINES, WORD_BYTES,
};
pub use backend::{Stop, TmBackend, TxScope};
pub use retry::{AbortClass, Decision, RetryCore, RetryPolicy, Tally};
