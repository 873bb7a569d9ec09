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
mod support;

use mvtl_common::{Engine, EngineExt, Key, ProcessId, Timestamp, TxError};
use mvtl_core::policy::MvtilPolicy;
use mvtl_core::{MvtlConfig, MvtlStore};
use mvtl_shard::{IntersectionPick, ShardedStore};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use support::{probed, Probe, Probed};

/// Probed MVTIL shards.
type Store = ShardedStore<Probed<MvtlStore<u64, MvtilPolicy>>>;

fn probed_store(shards: usize) -> (Store, Arc<Probe>) {
    let clock: Arc<dyn mvtl_clock::ClockSource> = Arc::new(GlobalClock::new());
    let probe = Arc::new(Probe::default());
    let backends = (0..shards)
        .map(|_| {
            let inner = Arc::new(MvtlStore::new(
                MvtilPolicy::early(100_000),
                Arc::clone(&clock),
                MvtlConfig::default(),
            ));
            probed(inner, &probe)
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
        txn.write(*key, i as u64).unwrap();
    }
    let err = txn.commit().expect_err("injected rejection must surface");
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
        txn.write(*key, 99).unwrap();
    }
    let info = txn.commit().expect("healthy cross-shard commit");
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
    let pin = Timestamp::at(77);
    let txn = store.begin_pinned(ProcessId(1), pin);
    let wm = store
        .low_watermark()
        .expect("begin pins the coordinator watermark");
    assert!(wm <= pin, "watermark {wm} above the pin {pin}");
    txn.abort();
    assert_eq!(store.low_watermark(), None);

    // The pin is released at commit too (sub-transactions then carry their
    // own shard-level pins while the commit coordinates).
    let mut txn = store.begin(ProcessId(2));
    txn.write(store.key_on_shard(0, 0), 1).unwrap();
    txn.write(store.key_on_shard(1, 0), 2).unwrap();
    txn.commit().unwrap();
    assert_eq!(store.low_watermark(), None);
}

#[test]
fn coordinator_abort_releases_every_shard_without_undecided_drops() {
    let (store, probe) = probed_store(2);
    let a = store.key_on_shard(0, 0);
    let b = store.key_on_shard(1, 0);
    let mut txn = store.begin(ProcessId(1));
    txn.write(a, 1).unwrap();
    txn.write(b, 2).unwrap();
    txn.abort();
    assert_eq!(probe.dropped_undecided.load(Ordering::Relaxed), 0);
    assert_eq!(store.stats().lock_entries, 0, "abort released all locks");
}
