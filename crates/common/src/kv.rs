//! The transactional key-value interface implemented by every engine: the
//! workspace's one storage trait.
//!
//! The paper studies multiversion algorithms "in their broadest scope" (§1); we
//! model the transactional storage system of §2 as a key-value store with
//! `begin` / `read` / `write` / `commit`, and every concurrency-control engine
//! in the workspace (all MVTL policies, MVTO+, 2PL) implements this single
//! trait, as do the store decorators (`mvtl-shard`'s fault injection). A
//! store also takes part in the §7 cross-shard commit through
//! [`TransactionalKV::prepare`], which hands out a [`PreparedTxn`].
//! `mvtl-shard`'s `ShardedStore<S>` is generic over this trait: it holds its
//! shards as `Arc<S>`, calls them statically, and is itself the object-safe
//! [`Engine`](crate::Engine) that the workload harness, the serializability
//! checker and the benchmarks drive, so they compare protocols on identical
//! inputs.

use crate::{AbortReason, Key, ProcessId, Timestamp, TsSet, TxError, TxId};
use std::sync::Arc;

/// Aggregate state-size statistics of an engine, used by the Figure 6
/// experiments ("number of locks and versions as time passes") and by the
/// garbage collector's bounded-state checks.
///
/// Engines that have no multiversion state (e.g. single-version 2PL) report
/// the parts they track and leave the rest zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of keys that currently own engine state (cells).
    pub keys: usize,
    /// Total committed versions currently stored.
    pub versions: usize,
    /// Total versions removed by purging so far.
    pub purged_versions: usize,
    /// Total interval lock entries currently stored. For the MVTL engines
    /// these are the live entries of transactions in flight plus the frozen
    /// read runs, one per version whose read locks outlived a transaction;
    /// their frozen write points are the
    /// [`versions`](StoreStats::versions) themselves.
    pub lock_entries: usize,
    /// How many of those lock entries are frozen: for the MVTL engines, the
    /// read runs.
    pub frozen_lock_entries: usize,
}

impl StoreStats {
    /// The resident state an engine accumulates over time: stored versions
    /// plus lock entries. This is the quantity the §6 garbage collector must
    /// keep bounded.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.versions + self.lock_entries
    }

    /// Component-wise sum, for aggregating across shards.
    #[must_use]
    pub fn merge(self, other: StoreStats) -> StoreStats {
        StoreStats {
            keys: self.keys + other.keys,
            versions: self.versions + other.versions,
            purged_versions: self.purged_versions + other.purged_versions,
            lock_entries: self.lock_entries + other.lock_entries,
            frozen_lock_entries: self.frozen_lock_entries + other.frozen_lock_entries,
        }
    }
}

/// Information reported by a successful commit.
///
/// Besides the commit timestamp, engines report the exact versions read and the
/// keys written so that `mvtl-verify` can build the multiversion serialization
/// graph of Appendix A without peeking into engine internals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitInfo {
    /// Runtime id of the transaction.
    pub tx: TxId,
    /// Serialization timestamp, when the engine has one. The multiversion
    /// engines report their commit timestamp; single-version 2PL reports its
    /// commit sequence number, which orders its commits the same way.
    pub commit_ts: Option<Timestamp>,
    /// For each key read: the timestamp of the version whose value was
    /// returned (`tr` in Algorithm 1). [`Timestamp::ZERO`] denotes the initial
    /// `⊥` version.
    pub reads: Vec<(Key, Timestamp)>,
    /// Keys written by the transaction.
    pub writes: Vec<Key>,
}

impl CommitInfo {
    /// Whether the transaction was read-only.
    #[must_use]
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }
}

/// Outcome of running a whole transaction attempt, used by the workload runner
/// for statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxOutcome {
    /// The attempt committed.
    Committed(CommitInfo),
    /// The attempt aborted for the given reason.
    Aborted(AbortReason),
}

impl TxOutcome {
    /// Whether this outcome is a commit.
    #[must_use]
    pub fn is_commit(&self) -> bool {
        matches!(self, TxOutcome::Committed(_))
    }

    /// The commit info if the outcome is a commit.
    #[must_use]
    pub fn commit_info(&self) -> Option<&CommitInfo> {
        match self {
            TxOutcome::Committed(info) => Some(info),
            TxOutcome::Aborted(_) => None,
        }
    }
}

/// A transaction in the prepared state of the §7 commit: its frozen interval
/// is immutable (the transaction still holds every backing lock) until the
/// coordinator decides. Dropping a prepared transaction without a decision
/// aborts it.
pub trait PreparedTxn<V>: Send {
    /// The frozen interval reported to the coordinator. Never empty.
    fn interval(&self) -> &TsSet;

    /// Commits at the coordinator-chosen timestamp, which must lie inside
    /// [`PreparedTxn::interval`].
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Aborted`] when `ts` lies outside the frozen
    /// interval (a coordinator bug); a timestamp inside always succeeds.
    fn commit_at(self: Box<Self>, ts: Timestamp) -> Result<CommitInfo, TxError>;

    /// Aborts the prepared transaction (the coordinator's empty-intersection
    /// decision), releasing its locks.
    fn abort(self: Box<Self>);
}

/// A serializable transactional key-value store.
///
/// The concurrency-control engines (`MvtlStore` under every policy, MVTO+
/// and 2PL) implement this trait. `V` is the value type; the paper's
/// evaluation uses small strings, the benchmarks here use `u64`.
///
/// This trait has an associated `Txn` type and is therefore not object-safe;
/// it is the surface an *engine author* implements, and what a caller uses
/// to drive one store statically. Consumers (workload runners, the verifier,
/// benchmarks) program against the object-safe [`Engine`](crate::Engine)
/// trait instead: every registry spec is a `ShardedStore` (`mvtl-shard`)
/// whose shards are `TransactionalKV` stores — see the
/// [`EngineExt::run`](crate::EngineExt::run) retry loop for the idiomatic
/// transfer example.
pub trait TransactionalKV<V>: Send + Sync {
    /// Per-transaction handle.
    type Txn: Send;

    /// Begins a transaction on behalf of `process`, optionally pinning the
    /// clock value the transaction observes.
    ///
    /// Pinning exists so that the verifier can replay the paper's schedules
    /// ("T1 gets timestamp 1, T2 gets timestamp 2, ..."); normal callers use
    /// [`TransactionalKV::begin`].
    fn begin_at(&self, process: ProcessId, pinned: Option<Timestamp>) -> Self::Txn;

    /// Begins a transaction whose timestamp(s) come from the engine's clock.
    fn begin(&self, process: ProcessId) -> Self::Txn {
        self.begin_at(process, None)
    }

    /// Reads `key` within the transaction. Returns `Ok(None)` when the key has
    /// never been written (the initial `⊥` version).
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Aborted`] when the engine decides the transaction
    /// cannot proceed (lock timeout, purged version, ...). After an abort error
    /// the transaction must be passed to [`TransactionalKV::abort`].
    fn read(&self, txn: &mut Self::Txn, key: Key) -> Result<Option<V>, TxError>;

    /// Writes `value` to `key` within the transaction. The write is not visible
    /// to other transactions until commit.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Aborted`] when acquiring write locks eagerly fails
    /// (policies that lock at write time) or when the transaction already
    /// finished.
    fn write(&self, txn: &mut Self::Txn, key: Key, value: V) -> Result<(), TxError>;

    /// Reads every key of `keys` within the transaction, returning the values
    /// in input order (`None` for the initial `⊥` version): one
    /// [`TransactionalKV::read`] per key.
    ///
    /// # Errors
    ///
    /// Returns the first failing read's error; the transaction must then be
    /// passed to [`TransactionalKV::abort`], exactly as for a single read.
    fn read_many(&self, txn: &mut Self::Txn, keys: &[Key]) -> Result<Vec<Option<V>>, TxError> {
        keys.iter().map(|key| self.read(txn, *key)).collect()
    }

    /// Attempts to commit the transaction.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Aborted`] when no serialization point could be found;
    /// the transaction is fully cleaned up in that case.
    fn commit(&self, txn: Self::Txn) -> Result<CommitInfo, TxError>;

    /// Aborts the transaction, releasing any state it holds.
    fn abort(&self, txn: Self::Txn);

    /// Runs the participant side of the §7 cross-shard commit: freezes the
    /// interval of timestamps `store` guarantees `txn` can commit at, and
    /// hands back the prepared transaction, which keeps `store` alive until
    /// the coordinator decides.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Aborted`] when commit-time locking fails or the
    /// frozen interval is empty; the transaction is aborted. The default
    /// aborts the transaction and returns [`TxError::Internal`]: an engine
    /// with no commit interval to freeze (the MVTO+ and 2PL baselines)
    /// cannot take part in a cross-shard commit.
    fn prepare(store: &Arc<Self>, txn: Self::Txn) -> Result<Box<dyn PreparedTxn<V>>, TxError> {
        store.abort(txn);
        Err(TxError::Internal(format!(
            "engine '{}' cannot prepare a cross-shard commit: it has no commit interval to freeze",
            store.name()
        )))
    }

    /// A short human-readable name for reports ("mvtil-early", "mvto+", "2pl", ...).
    fn name(&self) -> &'static str;

    // --- Maintenance surface (§6 / §8.1: the timestamp service) ------------
    //
    // These default-implemented methods are what a garbage collector needs
    // from an engine. Engines without purgeable state keep the no-op
    // defaults; multiversion engines override all three.

    /// Aggregate state-size statistics (keys, versions, lock entries).
    ///
    /// The default reports all zeros, for engines that track no such state.
    fn stats(&self) -> StoreStats {
        StoreStats::default()
    }

    /// Purges versions and lock state older than `bound`, keeping the most
    /// recent version of each key so that reads at or above `bound` still
    /// succeed (§6). Returns `(versions_removed, lock_entries_removed)`.
    ///
    /// Purging is only *safe* when `bound` does not exceed the engine's
    /// [`low_watermark`](TransactionalKV::low_watermark) (plus any slack the
    /// caller maintains); a transaction that still needs a purged version
    /// aborts with [`AbortReason::VersionPurged`] rather than reading stale
    /// or missing data. The default is a no-op.
    fn purge_below(&self, bound: Timestamp) -> (usize, usize) {
        let _ = bound;
        (0, 0)
    }

    /// The smallest timestamp any in-flight transaction may still anchor a
    /// read on, or `None` when no transaction is active (or the engine does
    /// not track one). A garbage collector must not purge at or above this
    /// bound without risking `VersionPurged` aborts of live transactions.
    fn low_watermark(&self) -> Option<Timestamp> {
        None
    }

    // --- Recovery surface (durability, `mvtl-wal`) --------------------------

    /// Re-installs one recovered committed transaction's write set, exactly
    /// as it was originally committed.
    ///
    /// This is the replay half of crash recovery: the write-ahead log stores
    /// `(writes, commit_ts)` per committed transaction, and replaying must
    /// install the versions *at their original timestamps* — not through a
    /// fresh transaction whose policy would pick new ones — so that
    /// post-crash reads reference the same `(key, commit_ts)` versions the
    /// pre-crash history committed and the combined history stays checkable
    /// by the multiversion serialization graph.
    ///
    /// # Errors
    ///
    /// Returns an error when the engine cannot install the write set.
    fn recover_install(&self, writes: Vec<(Key, V)>, commit_ts: Timestamp) -> Result<(), TxError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_info_read_only() {
        let info = CommitInfo {
            tx: TxId(1),
            commit_ts: Some(Timestamp::at(4)),
            reads: vec![(Key(1), Timestamp::ZERO)],
            writes: vec![],
        };
        assert!(info.is_read_only());
        let outcome = TxOutcome::Committed(info.clone());
        assert!(outcome.is_commit());
        assert_eq!(outcome.commit_info(), Some(&info));
        assert!(!TxOutcome::Aborted(AbortReason::UserRequested).is_commit());
        assert!(TxOutcome::Aborted(AbortReason::UserRequested)
            .commit_info()
            .is_none());
    }
}
