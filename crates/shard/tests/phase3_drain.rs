//! Phase-3 failure handling of the cross-shard commit coordinator.
//!
//! If a shard rejects the coordinated commit timestamp (a backend bug — the
//! frozen-interval contract says it cannot happen for a correct backend), the
//! coordinator must *drain* the remaining prepared participants by explicitly
//! aborting them, not silently drop them: a backend whose handles do not
//! release state on drop would otherwise leak its locks forever. The
//! instrumented backend below counts explicit decisions versus undecided
//! drops, and the test also asserts the healthy shards' lock tables recover
//! to their pre-transaction state.

use mvtl_clock::GlobalClock;
use mvtl_common::{
    CommitInfo, Key, ProcessId, StoreStats, Timestamp, TransactionalKV, TsSet, TxError,
};
use mvtl_core::policy::MvtilPolicy;
use mvtl_core::MvtlConfig;
use mvtl_shard::{
    IntersectionPick, MvtlBackend, PreparedShardTxn, ShardBackend, ShardTxn, ShardedStore,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Shared instrumentation: how prepared participants were disposed of.
#[derive(Default)]
struct Probe {
    /// `commit_at` calls that were rejected because `fail` was set.
    rejected_commits: AtomicU64,
    /// Explicit `abort()` calls on prepared participants.
    explicit_aborts: AtomicU64,
    /// Prepared participants dropped without an explicit decision — the lock
    /// leak the coordinator must never cause.
    dropped_undecided: AtomicU64,
    /// When set, `commit_at` on instrumented shards fails.
    fail: AtomicBool,
}

struct ProbedBackend {
    inner: Arc<dyn ShardBackend<u64>>,
    probe: Arc<Probe>,
}

impl ShardBackend<u64> for ProbedBackend {
    fn begin(&self, process: ProcessId, pinned: Option<Timestamp>) -> Box<dyn ShardTxn<u64>> {
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
    inner: Box<dyn ShardTxn<u64>>,
    probe: Arc<Probe>,
}

impl ShardTxn<u64> for ProbedTxn {
    fn read(&mut self, key: Key) -> Result<Option<u64>, TxError> {
        self.inner.read(key)
    }

    fn write(&mut self, key: Key, value: u64) -> Result<(), TxError> {
        self.inner.write(key, value)
    }

    fn commit(self: Box<Self>) -> Result<CommitInfo, TxError> {
        self.inner.commit()
    }

    fn prepare(self: Box<Self>) -> Result<Box<dyn PreparedShardTxn<u64>>, TxError> {
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
    inner: Option<Box<dyn PreparedShardTxn<u64>>>,
    probe: Arc<Probe>,
}

impl PreparedShardTxn<u64> for ProbedPrepared {
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

fn probed_store(shards: usize) -> (ShardedStore<u64>, Arc<Probe>) {
    let clock: Arc<dyn mvtl_clock::ClockSource> = Arc::new(GlobalClock::new());
    let probe = Arc::new(Probe::default());
    let backends: Vec<Arc<dyn ShardBackend<u64>>> = (0..shards)
        .map(|_| {
            Arc::new(ProbedBackend {
                inner: MvtlBackend::build(
                    MvtilPolicy::early(100_000),
                    Arc::clone(&clock),
                    MvtlConfig::default(),
                ),
                probe: Arc::clone(&probe),
            }) as Arc<dyn ShardBackend<u64>>
        })
        .collect();
    (
        ShardedStore::new(backends, clock, IntersectionPick::Min),
        probe,
    )
}

#[test]
fn phase3_failure_drains_remaining_prepared_shards() {
    let (store, probe) = probed_store(3);
    let keys: Vec<Key> = (0..3).map(|s| store.key_on_shard(s, 0)).collect();
    let baseline = store.stats();

    // A cross-shard transaction over all three shards whose phase 3 is
    // sabotaged: the first participant rejects the coordinated timestamp.
    probe.fail.store(true, Ordering::Relaxed);
    let mut txn = store.begin(ProcessId(1));
    for (i, key) in keys.iter().enumerate() {
        store.write(&mut txn, *key, i as u64).unwrap();
    }
    let err = store
        .commit(txn)
        .expect_err("injected rejection must surface");
    assert!(matches!(err, TxError::Internal(_)), "got {err:?}");

    // The coordinator explicitly decided every prepared participant: one
    // rejected commit, the other two drained with abort() — none dropped
    // undecided, which is what would leak locks on backends without
    // drop-cleanup.
    assert_eq!(probe.rejected_commits.load(Ordering::Relaxed), 1);
    assert_eq!(probe.explicit_aborts.load(Ordering::Relaxed), 2);
    assert_eq!(probe.dropped_undecided.load(Ordering::Relaxed), 0);

    // Lock-entry counts recover to the pre-transaction state.
    let after = store.stats();
    assert_eq!(
        after.lock_entries, baseline.lock_entries,
        "locks leaked: {after:?} vs baseline {baseline:?}"
    );
    assert_eq!(after.versions, baseline.versions, "no partial installs");

    // The same keys are writable again once the fault is cleared.
    probe.fail.store(false, Ordering::Relaxed);
    let mut txn = store.begin(ProcessId(2));
    for key in &keys {
        store.write(&mut txn, *key, 99).unwrap();
    }
    let info = store.commit(txn).expect("healthy cross-shard commit");
    assert_eq!(info.writes.len(), 3);
    assert_eq!(probe.dropped_undecided.load(Ordering::Relaxed), 0);
}

#[test]
fn begin_pins_the_gc_watermark_before_the_first_access() {
    // Sub-transactions open lazily, so between begin() and the first
    // read/write no shard-level registry knows about the transaction; the
    // coordinator-level pin must cover that window or a GC sweep could purge
    // state the transaction is about to anchor on.
    let (store, _probe) = probed_store(2);
    assert_eq!(store.low_watermark(), None);
    let txn = store.begin(ProcessId(1));
    let wm = store
        .low_watermark()
        .expect("begin pins the coordinator watermark");
    assert!(wm <= txn.base_timestamp().expect("multi-shard txns have a base"));
    store.abort(txn);
    assert_eq!(store.low_watermark(), None);

    // The pin is released at commit too (sub-transactions then carry their
    // own shard-level pins while the commit coordinates).
    let mut txn = store.begin(ProcessId(2));
    store.write(&mut txn, store.key_on_shard(0, 0), 1).unwrap();
    store.write(&mut txn, store.key_on_shard(1, 0), 2).unwrap();
    store.commit(txn).unwrap();
    assert_eq!(store.low_watermark(), None);
}

#[test]
fn coordinator_abort_releases_every_shard_without_undecided_drops() {
    let (store, probe) = probed_store(2);
    let a = store.key_on_shard(0, 0);
    let b = store.key_on_shard(1, 0);
    let mut txn = store.begin(ProcessId(1));
    store.write(&mut txn, a, 1).unwrap();
    store.write(&mut txn, b, 2).unwrap();
    store.abort(txn);
    assert_eq!(probe.dropped_undecided.load(Ordering::Relaxed), 0);
    assert_eq!(store.stats().lock_entries, 0, "abort released all locks");
}
