//! # mvtl-common
//!
//! Shared vocabulary types for the reproduction of *"Locking Timestamps versus
//! Locking Objects"* (Aguilera, David, Guerraoui, Wang — PODC 2018).
//!
//! The paper's central idea is to lock **individual timestamps** of objects
//! instead of whole objects. Everything in this crate exists to make that idea
//! precise and reusable across the rest of the workspace:
//!
//! * [`Timestamp`] — a totally ordered `(value, process)` pair, exactly as in
//!   §4.1 of the paper ("to ensure processes pick distinct timestamps, we add a
//!   process id to a timestamp").
//! * [`TsRange`] and [`TsSet`] — closed intervals of timestamps and sets of such
//!   intervals. These are the *interval compression* of §6: the lock state and
//!   the per-transaction candidate sets (`tx.TS`, `PossTS`) are always stored as
//!   a small number of contiguous intervals rather than per-point state.
//! * [`TxId`], [`ProcessId`], [`Key`] — identifiers.
//! * [`TxError`] / [`AbortReason`] — the error vocabulary shared by every engine.
//! * [`ops`] — the workload model of §2 (sequences of reads/writes/commits
//!   indexed by transaction), used by the verifier and the workload generators.
//! * [`kv`] — the `TransactionalKV` trait an engine author implements (all
//!   MVTL policies, MVTO+, 2PL): the static, per-store transaction surface.
//! * [`engine`] — the object-safe consumer layer: the [`Engine`] trait, the
//!   boxed [`TxHandle`] (the one handle trait, shared with the shards of a
//!   sharded store, whose [`TxHandle::prepare`] yields a [`PreparedTxn`]),
//!   the RAII [`Transaction`] guard (abort on drop), and the
//!   [`EngineExt::run`] retry loop. `Box<dyn Engine<V>>` is what the
//!   string-spec registry (`mvtl-registry`) hands out and what every consumer
//!   drives.
//! * [`watermark`] — the [`ActiveTxnRegistry`]: in-flight transactions pin the
//!   timestamps they anchor reads on, and its low watermark tells the garbage
//!   collector (`mvtl-gc`) how far state can safely be purged (§6).
//!
//! # Example
//!
//! ```
//! use mvtl_common::{Timestamp, TsRange, TsSet};
//!
//! let t = Timestamp::new(10, 1);
//! let range = TsRange::new(t, Timestamp::new(20, 1));
//! let mut set = TsSet::from_range(range);
//! set.intersect_range(TsRange::new(Timestamp::new(15, 0), Timestamp::MAX));
//! assert!(set.contains(Timestamp::new(16, 3)));
//! assert!(!set.contains(Timestamp::new(10, 1)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
mod error;
mod ids;
pub mod kv;
pub mod ops;
mod tempdir;
mod timestamp;
mod tsset;
pub mod watermark;

pub use engine::{Engine, EngineExt, PreparedTxn, RetryOptions, RunReport, Transaction, TxHandle};
pub use error::{AbortReason, TxError};
pub use ids::{Key, ProcessId, TxId};
pub use kv::{CommitInfo, StoreStats, TransactionalKV, TxOutcome};
pub use tempdir::TempDir;
pub use timestamp::{Timestamp, TsRange};
pub use tsset::TsSet;
pub use watermark::{ActiveTxnRegistry, TxnPin};

/// The status of a transaction, from the point of view of any engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxStatus {
    /// The transaction is executing operations.
    Active,
    /// The transaction committed; it carries the commit timestamp where one
    /// exists (single-version engines such as 2PL report `None`).
    Committed,
    /// The transaction aborted.
    Aborted,
}

impl std::fmt::Display for TxStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxStatus::Active => write!(f, "active"),
            TxStatus::Committed => write!(f, "committed"),
            TxStatus::Aborted => write!(f, "aborted"),
        }
    }
}

/// Lock modes used throughout the workspace.
///
/// The paper's *freezable locks* (§4.2) are readers-writer locks over
/// write-once objects (individual timestamps), so only two modes exist.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum LockMode {
    /// Shared mode: many transactions may hold read locks on the same timestamp.
    Read,
    /// Exclusive mode: at most one transaction may hold the write lock on a
    /// timestamp, and no other transaction may hold a read lock on it.
    Write,
}

impl LockMode {
    /// Whether a lock in mode `self` held by one transaction conflicts with a
    /// request in mode `other` from a *different* transaction.
    #[must_use]
    pub fn conflicts_with(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Write, _) | (_, LockMode::Write))
    }
}

impl std::fmt::Display for LockMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockMode::Read => write!(f, "read"),
            LockMode::Write => write!(f, "write"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_mode_conflict_matrix() {
        assert!(!LockMode::Read.conflicts_with(LockMode::Read));
        assert!(LockMode::Read.conflicts_with(LockMode::Write));
        assert!(LockMode::Write.conflicts_with(LockMode::Read));
        assert!(LockMode::Write.conflicts_with(LockMode::Write));
    }

    #[test]
    fn tx_status_display() {
        assert_eq!(TxStatus::Active.to_string(), "active");
        assert_eq!(TxStatus::Committed.to_string(), "committed");
        assert_eq!(TxStatus::Aborted.to_string(), "aborted");
    }
}
