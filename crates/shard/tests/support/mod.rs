//! The instrumented store decorator shared by the phase-3 drain, routing and
//! fault-schedule tests: it forwards to a real shard while counting the
//! sub-transactions the coordinator opens and prepares and how it disposes
//! of every prepared participant, and can reject the coordinated commit
//! timestamp on demand.

use mvtl_common::{
    CommitInfo, Key, PreparedTxn, ProcessId, StoreStats, Timestamp, TransactionalKV, TsSet, TxError,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Shared instrumentation: sub-transactions opened and prepared, and how
/// prepared participants were disposed of.
#[derive(Default)]
pub(crate) struct Probe {
    /// Sub-transactions opened on instrumented shards.
    pub(crate) begins: AtomicU64,
    /// `prepare` calls on those sub-transactions.
    pub(crate) prepares: AtomicU64,
    /// `commit_at` calls that were rejected because `fail` was set.
    pub(crate) rejected_commits: AtomicU64,
    /// Explicit `abort()` calls on prepared participants.
    pub(crate) explicit_aborts: AtomicU64,
    /// Prepared participants dropped without an explicit decision — the lock
    /// leak the coordinator must never cause.
    pub(crate) dropped_undecided: AtomicU64,
    /// When set, `commit_at` on instrumented shards fails.
    pub(crate) fail: AtomicBool,
}

/// A store whose every transaction reports to a shared [`Probe`].
pub(crate) struct Probed<S> {
    inner: Arc<S>,
    probe: Arc<Probe>,
}

/// Wraps `inner` so every transaction it opens reports to `probe`.
pub(crate) fn probed<S>(inner: Arc<S>, probe: &Arc<Probe>) -> Arc<Probed<S>> {
    Arc::new(Probed {
        inner,
        probe: Arc::clone(probe),
    })
}

impl<S: TransactionalKV<u64> + 'static> TransactionalKV<u64> for Probed<S> {
    type Txn = S::Txn;

    fn begin_at(&self, process: ProcessId, pinned: Option<Timestamp>) -> Self::Txn {
        self.probe.begins.fetch_add(1, Ordering::Relaxed);
        self.inner.begin_at(process, pinned)
    }

    fn read(&self, txn: &mut Self::Txn, key: Key) -> Result<Option<u64>, TxError> {
        self.inner.read(txn, key)
    }

    fn write(&self, txn: &mut Self::Txn, key: Key, value: u64) -> Result<(), TxError> {
        self.inner.write(txn, key, value)
    }

    fn commit(&self, txn: Self::Txn) -> Result<CommitInfo, TxError> {
        self.inner.commit(txn)
    }

    fn abort(&self, txn: Self::Txn) {
        self.inner.abort(txn);
    }

    fn prepare(store: &Arc<Self>, txn: Self::Txn) -> Result<Box<dyn PreparedTxn<u64>>, TxError> {
        store.probe.prepares.fetch_add(1, Ordering::Relaxed);
        let prepared = S::prepare(&store.inner, txn)?;
        Ok(Box::new(ProbedPrepared {
            inner: Some(prepared),
            probe: Arc::clone(&store.probe),
        }))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn purge_below(&self, bound: Timestamp) -> (usize, usize) {
        self.inner.purge_below(bound)
    }

    fn low_watermark(&self) -> Option<Timestamp> {
        self.inner.low_watermark()
    }

    fn recover_install(
        &self,
        writes: Vec<(Key, u64)>,
        commit_ts: Timestamp,
    ) -> Result<(), TxError> {
        self.inner.recover_install(writes, commit_ts)
    }
}

struct ProbedPrepared {
    inner: Option<Box<dyn PreparedTxn<u64>>>,
    probe: Arc<Probe>,
}

impl PreparedTxn<u64> for ProbedPrepared {
    fn interval(&self) -> &TsSet {
        self.inner.as_ref().expect("undecided").interval()
    }

    fn commit_at(mut self: Box<Self>, ts: Timestamp) -> Result<CommitInfo, TxError> {
        let inner = self.inner.take().expect("undecided");
        if self.probe.fail.load(Ordering::Relaxed) {
            self.probe.rejected_commits.fetch_add(1, Ordering::Relaxed);
            inner.abort();
            return Err(TxError::Internal("injected phase-3 rejection".into()));
        }
        inner.commit_at(ts)
    }

    fn abort(mut self: Box<Self>) {
        self.probe.explicit_aborts.fetch_add(1, Ordering::Relaxed);
        self.inner.take().expect("undecided").abort();
    }
}

impl Drop for ProbedPrepared {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            self.probe.dropped_undecided.fetch_add(1, Ordering::Relaxed);
            inner.abort();
        }
    }
}
