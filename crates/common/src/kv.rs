//! The transactional key-value interface implemented by every engine.
//!
//! The paper studies multiversion algorithms "in their broadest scope" (§1); we
//! model the transactional storage system of §2 as a key-value store with
//! `begin` / `read` / `write` / `commit` and drive every concurrency-control
//! engine in the workspace (all MVTL policies, MVTO+, 2PL) through this single
//! trait. That is what lets the workload harness, the serializability checker
//! and the benchmarks compare protocols on identical inputs.

use crate::{AbortReason, Key, ProcessId, Timestamp, TxError, TxId};

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
    /// Total interval lock entries currently stored.
    pub lock_entries: usize,
    /// How many of those lock entries are frozen.
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
    /// Serialization timestamp, when the engine has one (all multiversion
    /// engines do; single-version 2PL reports `None`).
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

/// A serializable transactional key-value store.
///
/// All engines in the workspace implement this trait. `V` is the value type;
/// the paper's evaluation uses small strings, the benchmarks here use `u64`.
///
/// This trait has an associated `Txn` type and is therefore not object-safe;
/// it is the surface an *engine author* implements. Consumers (workload
/// runners, the verifier, benchmarks) should program against the object-safe
/// [`Engine`](crate::Engine) layer instead, which every `TransactionalKV`
/// engine gets for free via a blanket impl — see the
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

    // --- Batched operations -------------------------------------------------
    //
    // The batched surface exists so engines can amortize per-key overhead
    // (latch round-trips, interval negotiation) across a whole multi-key
    // operation. The defaults are plain loops, so every engine keeps working
    // unchanged; engines with a cheaper native path (`MvtlStore`'s sorted
    // deduplicated lock pass, `ShardedStore`'s one-round-per-shard routing)
    // override them.

    /// Reads every key of `keys` within the transaction, returning the values
    /// in input order (`None` for the initial `⊥` version).
    ///
    /// Equivalent to calling [`TransactionalKV::read`] once per key, except
    /// that engines may deduplicate repeated keys (one lock negotiation per
    /// distinct key) and acquire locks in a canonical order.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Aborted`] when the engine decides the transaction
    /// cannot proceed; the transaction is aborted in that case, exactly as for
    /// a failing single read.
    fn read_many(&self, txn: &mut Self::Txn, keys: &[Key]) -> Result<Vec<Option<V>>, TxError> {
        keys.iter().map(|key| self.read(txn, *key)).collect()
    }

    /// Writes every `(key, value)` pair of `entries` within the transaction,
    /// in order (for repeated keys the last value wins, as with sequential
    /// writes).
    ///
    /// Equivalent to calling [`TransactionalKV::write`] once per entry, except
    /// that engines may acquire the write locks for the whole batch in one
    /// sorted, deduplicated pass.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Aborted`] when eager lock acquisition fails; the
    /// transaction is aborted in that case.
    fn write_many(&self, txn: &mut Self::Txn, entries: Vec<(Key, V)>) -> Result<(), TxError> {
        for (key, value) in entries {
            self.write(txn, key, value)?;
        }
        Ok(())
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
    /// by the multiversion serialization graph. Engines that serialize by
    /// timestamp receive `Some(commit_ts)`; single-version engines receive
    /// `None` and apply the writes in replay (log) order.
    ///
    /// # Errors
    ///
    /// The default returns [`TxError::Internal`]: the engine does not support
    /// recovery, so replaying a non-empty log into it fails.
    fn recover_install(
        &self,
        writes: Vec<(Key, V)>,
        commit_ts: Option<Timestamp>,
    ) -> Result<(), TxError> {
        let _ = (writes, commit_ts);
        Err(TxError::Internal(format!(
            "engine '{}' does not support WAL recovery",
            self.name()
        )))
    }
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
