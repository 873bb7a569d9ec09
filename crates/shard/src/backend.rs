//! The participant interface a shard must offer to the cross-shard commit
//! coordinator, and [`KvBackend`], which turns any [`TransactionalKV`] store
//! into one.
//!
//! [`ShardedStore`](crate::ShardedStore) holds its shards as
//! `Arc<dyn ShardBackend<V>>`, so one coordinator drives shards built from
//! *any* engine. A shard transaction is an ordinary [`TxHandle`], the same
//! trait the consumer-facing `Engine` hands out, and follows the participant
//! life cycle of §7: open it, run operations, then either commit alone
//! (single-shard fast path), or [`TxHandle::prepare`] — freeze the interval
//! of timestamps the shard guarantees the transaction can commit at — and
//! wait for the coordinator's `commit-at` / `abort` decision on the
//! [`PreparedTxn`].

use mvtl_common::{
    CommitInfo, Key, PreparedTxn, ProcessId, StoreStats, Timestamp, TransactionalKV, TxError,
    TxHandle,
};
use std::sync::Arc;

/// One partition of a [`ShardedStore`](crate::ShardedStore): a full
/// transactional engine that additionally speaks the §7 participant protocol.
pub trait ShardBackend<V>: Send + Sync {
    /// Opens a transaction on this shard. A multi-shard coordinator always
    /// pins the clock reading, so that every shard of one distributed
    /// transaction reasons from the same timestamp base (the client-side
    /// policy state of §7, split across participants); a one-shard store
    /// passes its caller's pin through unchanged and hands the handle to its
    /// caller as is.
    ///
    /// Unlike an `Engine` handle, a shard handle owns what it needs
    /// (`'static`): when a prepare misses its deadline, the fault layer
    /// hands the handle to a detached thread that outlives the commit and
    /// plays the shard's side of presumed abort.
    fn begin(&self, process: ProcessId, pinned: Option<Timestamp>) -> Box<dyn TxHandle<V>>;

    /// Aggregate state-size statistics of the shard (locks, versions), used
    /// by tests and the state-size experiments.
    fn stats(&self) -> StoreStats;

    /// Purges versions and lock state older than `bound` on this shard.
    /// Returns `(versions_removed, lock_entries_removed)`.
    fn purge_below(&self, bound: Timestamp) -> (usize, usize);

    /// The smallest timestamp any in-flight transaction on this shard may
    /// still anchor a read on (the shard's GC low watermark), or `None` when
    /// the shard is idle or does not track one.
    fn low_watermark(&self) -> Option<Timestamp> {
        None
    }

    // --- Recovery surface (durability, `mvtl-wal`) --------------------------

    /// Re-installs one recovered committed transaction's write set at its
    /// original commit timestamp (crash recovery; see
    /// [`TransactionalKV::recover_install`]).
    ///
    /// # Errors
    ///
    /// The default returns [`TxError::Internal`]: the backend does not
    /// support recovery.
    fn recover_commit(&self, writes: Vec<(Key, V)>, commit_ts: Timestamp) -> Result<(), TxError> {
        let _ = (writes, commit_ts);
        Err(TxError::Internal(
            "shard backend does not support WAL recovery".into(),
        ))
    }
}

/// [`ShardBackend`] over any [`TransactionalKV`] store: an [`MvtlStore`]
/// under any policy, or one of the MVTO+ and 2PL baselines.
///
/// Everything forwards to the store: operations, the single-shard commit,
/// the §7 prepare through [`TransactionalKV::prepare`] (which the baselines
/// refuse, having no commit interval to freeze), GC, and WAL replay through
/// [`TransactionalKV::recover_install`].
///
/// [`MvtlStore`]: mvtl_core::MvtlStore
pub struct KvBackend<S> {
    store: Arc<S>,
}

impl<S> KvBackend<S> {
    /// Wraps `store`, type-erased — the form
    /// [`ShardedStore::new`](crate::ShardedStore::new) consumes.
    #[must_use]
    pub fn build<V>(store: S) -> Arc<dyn ShardBackend<V>>
    where
        V: 'static,
        S: TransactionalKV<V> + 'static,
    {
        Arc::new(KvBackend {
            store: Arc::new(store),
        })
    }
}

impl<V, S> ShardBackend<V> for KvBackend<S>
where
    V: 'static,
    S: TransactionalKV<V> + 'static,
{
    fn begin(&self, process: ProcessId, pinned: Option<Timestamp>) -> Box<dyn TxHandle<V>> {
        StoreTxn::begin(&self.store, process, pinned)
    }

    fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    fn purge_below(&self, bound: Timestamp) -> (usize, usize) {
        self.store.purge_below(bound)
    }

    fn low_watermark(&self) -> Option<Timestamp> {
        self.store.low_watermark()
    }

    fn recover_commit(&self, writes: Vec<(Key, V)>, commit_ts: Timestamp) -> Result<(), TxError> {
        self.store.recover_install(writes, commit_ts)
    }
}

/// The [`TxHandle`] of a [`KvBackend`]. Owns an `Arc` to the store so
/// handles are `'static`. The inner transaction is an `Option` only so that
/// `Drop` can abort a handle that was neither committed nor explicitly
/// aborted.
struct StoreTxn<V, S: TransactionalKV<V>> {
    store: Arc<S>,
    txn: Option<S::Txn>,
}

impl<V, S> StoreTxn<V, S>
where
    V: 'static,
    S: TransactionalKV<V> + 'static,
{
    fn begin(
        store: &Arc<S>,
        process: ProcessId,
        pinned: Option<Timestamp>,
    ) -> Box<dyn TxHandle<V>> {
        Box::new(StoreTxn {
            txn: Some(store.begin_at(process, pinned)),
            store: Arc::clone(store),
        })
    }
}

impl<V, S> TxHandle<V> for StoreTxn<V, S>
where
    V: 'static,
    S: TransactionalKV<V> + 'static,
{
    // `txn` is `None` only once the handle is consumed, so the
    // `TransactionFinished` arms below are unreachable through `Box<Self>`.

    fn read(&mut self, key: Key) -> Result<Option<V>, TxError> {
        let txn = self.txn.as_mut().ok_or(TxError::TransactionFinished)?;
        self.store.read(txn, key)
    }

    fn write(&mut self, key: Key, value: V) -> Result<(), TxError> {
        let txn = self.txn.as_mut().ok_or(TxError::TransactionFinished)?;
        self.store.write(txn, key, value)
    }

    fn commit(mut self: Box<Self>) -> Result<CommitInfo, TxError> {
        let txn = self.txn.take().ok_or(TxError::TransactionFinished)?;
        self.store.commit(txn)
    }

    fn prepare(mut self: Box<Self>) -> Result<Box<dyn PreparedTxn<V>>, TxError> {
        let txn = self.txn.take().ok_or(TxError::TransactionFinished)?;
        S::prepare(&self.store, txn)
    }

    fn abort(self: Box<Self>) {
        // Dropping an open handle aborts it.
    }
}

impl<V, S: TransactionalKV<V>> Drop for StoreTxn<V, S> {
    fn drop(&mut self) {
        if let Some(txn) = self.txn.take() {
            self.store.abort(txn);
        }
    }
}
