//! Abort reasons of the two software TMs, shared by the simulated and
//! native implementations so classifications (and their `Display` text)
//! agree by construction.

use std::fmt;

/// Why a TL2 transaction aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tl2Abort {
    /// A read observed a locked or too-new lock word.
    ReadValidation,
    /// Commit could not acquire a write lock.
    LockBusy,
    /// Commit-time read-set validation failed.
    CommitValidation,
}

impl fmt::Display for Tl2Abort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tl2Abort::ReadValidation => f.write_str("read validation failed"),
            Tl2Abort::LockBusy => f.write_str("write lock busy at commit"),
            Tl2Abort::CommitValidation => f.write_str("commit validation failed"),
        }
    }
}

impl std::error::Error for Tl2Abort {}

/// Why a USTM operation could not proceed; the transaction must roll back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UstmAbort {
    /// This transaction was killed by an older conflicting transaction (the
    /// killer's CPU is recorded so the retry can wait for it to retire).
    Killed {
        /// The CPU whose transaction killed us.
        by: usize,
    },
    /// The transaction executed an explicit abort.
    Explicit,
    /// The transaction issued `retry` (transactional waiting, paper §6) and
    /// has been woken; it restarts as if after an abort.
    RetryWoken,
}

impl fmt::Display for UstmAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UstmAbort::Killed { by } => write!(f, "killed by STM transaction on cpu {by}"),
            UstmAbort::Explicit => f.write_str("explicit STM abort"),
            UstmAbort::RetryWoken => f.write_str("woken from transactional retry"),
        }
    }
}

impl std::error::Error for UstmAbort {}
