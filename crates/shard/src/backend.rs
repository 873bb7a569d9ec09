//! The object-safe participant interface a shard must offer to the
//! cross-shard commit coordinator, and its implementations: [`MvtlBackend`]
//! over [`MvtlStore`], and [`KvBackend`] over any other
//! [`TransactionalKV`] engine.
//!
//! [`ShardedStore`](crate::ShardedStore) holds its shards as
//! `Arc<dyn ShardBackend<V>>`, so one coordinator drives shards built from
//! *any* engine. The three traits mirror the participant life cycle of §7:
//! open a transaction, run operations, then either commit alone
//! (single-shard fast path), or **prepare** — freeze the interval of
//! timestamps the shard guarantees the transaction can commit at — and wait
//! for the coordinator's `commit-at` / `abort` decision.

use mvtl_clock::ClockSource;
use mvtl_common::{CommitInfo, Key, ProcessId, Timestamp, TransactionalKV, TsSet, TxError};
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
    /// passes its caller's pin through unchanged.
    fn begin(&self, process: ProcessId, pinned: Option<Timestamp>) -> Box<dyn ShardTxn<V>>;

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
    ) -> Result<Box<dyn PreparedShardTxn<V>>, TxError> {
        let _ = (writes, interval);
        Err(TxError::Internal(
            "shard backend does not support WAL recovery".into(),
        ))
    }
}

/// An open transaction on one shard.
pub trait ShardTxn<V>: Send {
    /// Reads `key` within the shard transaction.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Aborted`] when the shard's policy aborts the
    /// transaction; the shard-side state is already released in that case.
    fn read(&mut self, key: Key) -> Result<Option<V>, TxError>;

    /// Writes `value` to `key` within the shard transaction.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Aborted`] when eager lock acquisition fails.
    fn write(&mut self, key: Key, value: V) -> Result<(), TxError>;

    /// Reads every key of `keys` (all routed to this shard) in one round,
    /// returning values in input order. The default loops over
    /// [`ShardTxn::read`]; the [`MvtlStore`] backend forwards to the store's
    /// batch-native path so a sharded batch pays one deduplicated lock pass
    /// per shard, not one negotiation per key.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Aborted`] when the shard's policy aborts the
    /// transaction; the shard-side state is already released in that case.
    fn read_many(&mut self, keys: &[Key]) -> Result<Vec<Option<V>>, TxError> {
        keys.iter().map(|key| self.read(*key)).collect()
    }

    /// Writes every `(key, value)` pair of `entries` (all routed to this
    /// shard) in one round. The default loops over [`ShardTxn::write`]; the
    /// [`MvtlStore`] backend forwards to the store's batch-native path.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Aborted`] when eager lock acquisition fails.
    fn write_many(&mut self, entries: Vec<(Key, V)>) -> Result<(), TxError> {
        for (key, value) in entries {
            self.write(key, value)?;
        }
        Ok(())
    }

    /// Commits directly, letting the shard's own policy pick the timestamp —
    /// the fast path for transactions that touched a single shard.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Aborted`] when no serialization point exists.
    fn commit(self: Box<Self>) -> Result<CommitInfo, TxError>;

    /// Runs the participant side of the §7 commit: acquires commit-time
    /// locks and freezes the interval of timestamps this shard guarantees
    /// the transaction can commit at.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Aborted`] when commit-time locking fails or the
    /// frozen interval is empty; the shard-side state is released.
    fn prepare(self: Box<Self>) -> Result<Box<dyn PreparedShardTxn<V>>, TxError>;

    /// Aborts the shard transaction, releasing its locks.
    fn abort(self: Box<Self>);
}

/// A shard transaction in the prepared state: its frozen interval is
/// immutable (the transaction still holds every backing lock) until the
/// coordinator decides. Dropping a prepared transaction without a decision
/// aborts it.
pub trait PreparedShardTxn<V>: Send {
    /// The frozen interval reported to the coordinator. Never empty.
    fn interval(&self) -> &TsSet;

    /// Commits at the coordinator-chosen timestamp, which must lie inside
    /// [`PreparedShardTxn::interval`].
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
    /// Wraps an existing store.
    #[must_use]
    pub fn new(store: Arc<MvtlStore<V, P>>) -> Self {
        MvtlBackend { store }
    }

    /// Builds a fresh store for `policy` and wraps it, type-erased — the form
    /// the registry and [`ShardedStore::with_policy`](crate::ShardedStore)
    /// consume.
    #[must_use]
    pub fn build(
        policy: P,
        clock: Arc<dyn ClockSource>,
        config: MvtlConfig,
    ) -> Arc<dyn ShardBackend<V>> {
        Arc::new(MvtlBackend::new(Arc::new(MvtlStore::new(
            policy, clock, config,
        ))))
    }

    /// The wrapped store.
    #[must_use]
    pub fn store(&self) -> &Arc<MvtlStore<V, P>> {
        &self.store
    }
}

impl<V, P> ShardBackend<V> for MvtlBackend<V, P>
where
    V: Clone + Send + Sync + 'static,
    P: LockingPolicy,
{
    fn begin(&self, process: ProcessId, pinned: Option<Timestamp>) -> Box<dyn ShardTxn<V>> {
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
        self.store.recover_install(writes, Some(commit_ts))
    }

    fn recover_prepared(
        &self,
        writes: Vec<(Key, V)>,
        interval: &TsSet,
    ) -> Result<Box<dyn PreparedShardTxn<V>>, TxError> {
        let prepared = self.store.recover_prepared(writes, interval)?;
        Ok(Box::new(MvtlPreparedShardTxn {
            store: Arc::clone(&self.store),
            prepared: Some(prepared),
        }))
    }
}

/// [`MvtlBackend`]'s prepare: freeze the interval of timestamps this shard
/// guarantees the transaction can commit at.
fn prepare_mvtl<V, P>(
    store: &Arc<MvtlStore<V, P>>,
    txn: MvtlTransaction<V>,
) -> Result<Box<dyn PreparedShardTxn<V>>, TxError>
where
    V: Clone + Send + Sync + 'static,
    P: LockingPolicy,
{
    let prepared = store.prepare_commit(txn)?;
    Ok(Box::new(MvtlPreparedShardTxn {
        store: Arc::clone(store),
        prepared: Some(prepared),
    }))
}

/// [`PreparedShardTxn`] over an [`MvtlStore`].
struct MvtlPreparedShardTxn<V, P>
where
    V: Clone + Send + Sync + 'static,
    P: LockingPolicy,
{
    store: Arc<MvtlStore<V, P>>,
    prepared: Option<PreparedCommit<V>>,
}

impl<V, P> PreparedShardTxn<V> for MvtlPreparedShardTxn<V, P>
where
    V: Clone + Send + Sync + 'static,
    P: LockingPolicy,
{
    fn interval(&self) -> &TsSet {
        self.prepared
            .as_ref()
            .expect("prepared txn present until decided")
            .interval()
    }

    fn commit_at(mut self: Box<Self>, ts: Timestamp) -> Result<CommitInfo, TxError> {
        let prepared = self
            .prepared
            .take()
            .expect("prepared txn present until decided");
        self.store.commit_prepared(prepared, ts)
    }

    fn abort(mut self: Box<Self>) {
        if let Some(prepared) = self.prepared.take() {
            self.store.abort_prepared(prepared);
        }
    }
}

impl<V, P> Drop for MvtlPreparedShardTxn<V, P>
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
/// in a cross-shard commit: [`ShardTxn::prepare`] aborts the transaction and
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
    fn begin(&self, process: ProcessId, pinned: Option<Timestamp>) -> Box<dyn ShardTxn<V>> {
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
        self.store.recover_install(writes, Some(commit_ts))
    }
}

/// [`KvBackend`]'s prepare: the engine has no commit interval to freeze, so
/// the transaction aborts.
fn refuse_prepare<V, S: TransactionalKV<V>>(
    store: &Arc<S>,
    txn: S::Txn,
) -> Result<Box<dyn PreparedShardTxn<V>>, TxError> {
    store.abort(txn);
    Err(TxError::Internal(format!(
        "engine '{}' cannot prepare a cross-shard commit: it has no commit interval to freeze",
        store.name()
    )))
}

/// How a [`StoreTxn`] runs the participant side of the §7 commit.
type PrepareFn<V, S> =
    fn(&Arc<S>, <S as TransactionalKV<V>>::Txn) -> Result<Box<dyn PreparedShardTxn<V>>, TxError>;

/// The [`ShardTxn`] of both [`MvtlBackend`] and [`KvBackend`], which differ
/// only in how they prepare. Owns an `Arc` to the store so handles are
/// `'static` and can be held across the coordinator's shard vector. The
/// inner transaction is an `Option` so `Drop` can abort a handle that was
/// neither committed nor explicitly aborted.
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
    ) -> Box<dyn ShardTxn<V>> {
        Box::new(StoreTxn {
            txn: Some(store.begin_at(process, pinned)),
            store: Arc::clone(store),
            prepare,
        })
    }
}

impl<V, S> ShardTxn<V> for StoreTxn<V, S>
where
    V: 'static,
    S: TransactionalKV<V> + 'static,
{
    fn read(&mut self, key: Key) -> Result<Option<V>, TxError> {
        let txn = self.txn.as_mut().expect("shard txn present until finished");
        self.store.read(txn, key)
    }

    fn write(&mut self, key: Key, value: V) -> Result<(), TxError> {
        let txn = self.txn.as_mut().expect("shard txn present until finished");
        self.store.write(txn, key, value)
    }

    fn read_many(&mut self, keys: &[Key]) -> Result<Vec<Option<V>>, TxError> {
        let txn = self.txn.as_mut().expect("shard txn present until finished");
        self.store.read_many(txn, keys)
    }

    fn write_many(&mut self, entries: Vec<(Key, V)>) -> Result<(), TxError> {
        let txn = self.txn.as_mut().expect("shard txn present until finished");
        self.store.write_many(txn, entries)
    }

    fn commit(mut self: Box<Self>) -> Result<CommitInfo, TxError> {
        let txn = self.txn.take().expect("shard txn present until finished");
        self.store.commit(txn)
    }

    fn prepare(mut self: Box<Self>) -> Result<Box<dyn PreparedShardTxn<V>>, TxError> {
        let txn = self.txn.take().expect("shard txn present until finished");
        (self.prepare)(&self.store, txn)
    }

    fn abort(mut self: Box<Self>) {
        if let Some(txn) = self.txn.take() {
            self.store.abort(txn);
        }
    }
}

impl<V, S: TransactionalKV<V>> Drop for StoreTxn<V, S> {
    fn drop(&mut self) {
        if let Some(txn) = self.txn.take() {
            self.store.abort(txn);
        }
    }
}
