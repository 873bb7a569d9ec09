//! The participant interface a shard must offer to the cross-shard commit
//! coordinator, and its implementations: [`MvtlBackend`] over [`MvtlStore`],
//! and [`KvBackend`] over any other [`TransactionalKV`] engine.
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

use mvtl_clock::ClockSource;
use mvtl_common::{
    CommitInfo, Key, PreparedTxn, ProcessId, Timestamp, TransactionalKV, TsSet, TxError, TxHandle,
};
use mvtl_core::policy::LockingPolicy;
use mvtl_core::{MvtlConfig, MvtlStore, MvtlTransaction, PreparedCommit, StoreStats};
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
    /// (`'static`): a coordinator whose prepare timed out returns while the
    /// prepare still runs on a helper thread.
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

    /// Rebuilds the prepared state of a sub-transaction whose prepare record
    /// survived a crash but whose coordinator decision did not, so the
    /// presumed-abort rule can give it exactly one decision.
    ///
    /// # Errors
    ///
    /// Returns an abort error when the logged interval can no longer be
    /// frozen; the default returns [`TxError::Internal`] (no recovery
    /// support).
    fn recover_prepared(
        &self,
        writes: Vec<(Key, V)>,
        interval: &TsSet,
    ) -> Result<Box<dyn PreparedTxn<V>>, TxError> {
        let _ = (writes, interval);
        Err(TxError::Internal(
            "shard backend does not support WAL recovery".into(),
        ))
    }
}

/// [`ShardBackend`] over an [`MvtlStore`] with any [`LockingPolicy`]: the
/// standard way to build a [`ShardedStore`](crate::ShardedStore).
pub struct MvtlBackend<V, P> {
    store: Arc<MvtlStore<V, P>>,
}

impl<V, P> MvtlBackend<V, P>
where
    V: Clone + Send + Sync + 'static,
    P: LockingPolicy,
{
    /// Builds a fresh store for `policy` and wraps it, type-erased — the form
    /// the registry and [`ShardedStore::with_policy`](crate::ShardedStore)
    /// consume.
    #[must_use]
    pub fn build(
        policy: P,
        clock: Arc<dyn ClockSource>,
        config: MvtlConfig,
    ) -> Arc<dyn ShardBackend<V>> {
        Arc::new(MvtlBackend {
            store: Arc::new(MvtlStore::new(policy, clock, config)),
        })
    }
}

impl<V, P> ShardBackend<V> for MvtlBackend<V, P>
where
    V: Clone + Send + Sync + 'static,
    P: LockingPolicy,
{
    fn begin(&self, process: ProcessId, pinned: Option<Timestamp>) -> Box<dyn TxHandle<V>> {
        StoreTxn::begin(&self.store, process, pinned, prepare_mvtl)
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

    fn recover_prepared(
        &self,
        writes: Vec<(Key, V)>,
        interval: &TsSet,
    ) -> Result<Box<dyn PreparedTxn<V>>, TxError> {
        let prepared = self.store.recover_prepared(writes, interval)?;
        Ok(MvtlPrepared::boxed(&self.store, prepared))
    }
}

/// [`MvtlBackend`]'s prepare: freeze the interval of timestamps this shard
/// guarantees the transaction can commit at.
fn prepare_mvtl<V, P>(
    store: &Arc<MvtlStore<V, P>>,
    txn: MvtlTransaction<V>,
) -> Result<Box<dyn PreparedTxn<V>>, TxError>
where
    V: Clone + Send + Sync + 'static,
    P: LockingPolicy,
{
    let prepared = store.prepare_commit(txn)?;
    Ok(MvtlPrepared::boxed(store, prepared))
}

/// [`PreparedTxn`] over an [`MvtlStore`]. The prepared commit is an `Option`
/// only so that `Drop` can abort an undecided one; its frozen interval is
/// kept beside it.
struct MvtlPrepared<V, P>
where
    V: Clone + Send + Sync + 'static,
    P: LockingPolicy,
{
    store: Arc<MvtlStore<V, P>>,
    interval: TsSet,
    prepared: Option<PreparedCommit<V>>,
}

impl<V, P> MvtlPrepared<V, P>
where
    V: Clone + Send + Sync + 'static,
    P: LockingPolicy,
{
    fn boxed(store: &Arc<MvtlStore<V, P>>, prepared: PreparedCommit<V>) -> Box<dyn PreparedTxn<V>> {
        Box::new(MvtlPrepared {
            store: Arc::clone(store),
            interval: prepared.interval().clone(),
            prepared: Some(prepared),
        })
    }
}

impl<V, P> PreparedTxn<V> for MvtlPrepared<V, P>
where
    V: Clone + Send + Sync + 'static,
    P: LockingPolicy,
{
    fn interval(&self) -> &TsSet {
        &self.interval
    }

    fn commit_at(mut self: Box<Self>, ts: Timestamp) -> Result<CommitInfo, TxError> {
        let prepared = self.prepared.take().ok_or(TxError::TransactionFinished)?;
        self.store.commit_prepared(prepared, ts)
    }

    fn abort(self: Box<Self>) {
        // Dropping an undecided prepared commit aborts it.
    }
}

impl<V, P> Drop for MvtlPrepared<V, P>
where
    V: Clone + Send + Sync + 'static,
    P: LockingPolicy,
{
    fn drop(&mut self) {
        if let Some(prepared) = self.prepared.take() {
            self.store.abort_prepared(prepared);
        }
    }
}

/// [`ShardBackend`] over any [`TransactionalKV`] engine — in practice the
/// MVTO+ and 2PL baselines, which the registry runs as one-shard stores.
///
/// Such an engine has no commit interval to freeze, so it cannot take part
/// in a cross-shard commit: [`TxHandle::prepare`] aborts the transaction and
/// returns [`TxError::Internal`]. Everything else — operations, the
/// single-shard commit, GC and WAL replay through
/// [`TransactionalKV::recover_install`] — forwards to the engine.
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
        StoreTxn::begin(&self.store, process, pinned, refuse_prepare)
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

/// [`KvBackend`]'s prepare: the engine has no commit interval to freeze, so
/// the transaction aborts.
fn refuse_prepare<V, S: TransactionalKV<V>>(
    store: &Arc<S>,
    txn: S::Txn,
) -> Result<Box<dyn PreparedTxn<V>>, TxError> {
    store.abort(txn);
    Err(TxError::Internal(format!(
        "engine '{}' cannot prepare a cross-shard commit: it has no commit interval to freeze",
        store.name()
    )))
}

/// How a [`StoreTxn`] runs the participant side of the §7 commit.
type PrepareFn<V, S> =
    fn(&Arc<S>, <S as TransactionalKV<V>>::Txn) -> Result<Box<dyn PreparedTxn<V>>, TxError>;

/// The [`TxHandle`] of both [`MvtlBackend`] and [`KvBackend`], which differ
/// only in how they prepare. Owns an `Arc` to the store so handles are
/// `'static`. The inner transaction is an `Option` only so that `Drop` can
/// abort a handle that was neither committed nor explicitly aborted.
struct StoreTxn<V, S: TransactionalKV<V>> {
    store: Arc<S>,
    txn: Option<S::Txn>,
    prepare: PrepareFn<V, S>,
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
        prepare: PrepareFn<V, S>,
    ) -> Box<dyn TxHandle<V>> {
        Box::new(StoreTxn {
            txn: Some(store.begin_at(process, pinned)),
            store: Arc::clone(store),
            prepare,
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

    fn read_many(&mut self, keys: &[Key]) -> Result<Vec<Option<V>>, TxError> {
        let txn = self.txn.as_mut().ok_or(TxError::TransactionFinished)?;
        self.store.read_many(txn, keys)
    }

    fn write_many(&mut self, entries: Vec<(Key, V)>) -> Result<(), TxError> {
        let txn = self.txn.as_mut().ok_or(TxError::TransactionFinished)?;
        self.store.write_many(txn, entries)
    }

    fn commit(mut self: Box<Self>) -> Result<CommitInfo, TxError> {
        let txn = self.txn.take().ok_or(TxError::TransactionFinished)?;
        self.store.commit(txn)
    }

    fn prepare(mut self: Box<Self>) -> Result<Box<dyn PreparedTxn<V>>, TxError> {
        let txn = self.txn.take().ok_or(TxError::TransactionFinished)?;
        (self.prepare)(&self.store, txn)
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
