//! The instrumented shard backend shared by the phase-3 drain and the
//! fault-schedule tests: it forwards to a real shard while counting how the
//! coordinator disposes of every prepared participant, and can reject the
//! coordinated commit timestamp on demand.

use mvtl_common::{
    CommitInfo, Key, PreparedTxn, ProcessId, StoreStats, Timestamp, TsSet, TxError, TxHandle,
};
use mvtl_shard::ShardBackend;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Shared instrumentation: how prepared participants were disposed of.
#[derive(Default)]
pub(crate) struct Probe {
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

/// Wraps `inner` so every transaction it opens reports to `probe`.
pub(crate) fn probed(
    inner: Arc<dyn ShardBackend<u64>>,
    probe: &Arc<Probe>,
) -> Arc<dyn ShardBackend<u64>> {
    Arc::new(ProbedBackend {
        inner,
        probe: Arc::clone(probe),
    })
}

struct ProbedBackend {
    inner: Arc<dyn ShardBackend<u64>>,
    probe: Arc<Probe>,
}

impl ShardBackend<u64> for ProbedBackend {
    fn begin(&self, process: ProcessId, pinned: Option<Timestamp>) -> Box<dyn TxHandle<u64>> {
        Box::new(ProbedTxn {
            inner: self.inner.begin(process, pinned),
            probe: Arc::clone(&self.probe),
        })
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
}

struct ProbedTxn {
    inner: Box<dyn TxHandle<u64>>,
    probe: Arc<Probe>,
}

impl TxHandle<u64> for ProbedTxn {
    fn read(&mut self, key: Key) -> Result<Option<u64>, TxError> {
        self.inner.read(key)
    }

    fn write(&mut self, key: Key, value: u64) -> Result<(), TxError> {
        self.inner.write(key, value)
    }

    fn commit(self: Box<Self>) -> Result<CommitInfo, TxError> {
        self.inner.commit()
    }

    fn prepare(self: Box<Self>) -> Result<Box<dyn PreparedTxn<u64>>, TxError> {
        let this = *self;
        let prepared = this.inner.prepare()?;
        Ok(Box::new(ProbedPrepared {
            inner: Some(prepared),
            probe: this.probe,
        }))
    }

    fn abort(self: Box<Self>) {
        self.inner.abort();
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
