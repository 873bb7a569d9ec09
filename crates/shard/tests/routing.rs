//! How a sharded transaction touches its shards: it opens a sub-transaction
//! only on the shards that own a key it reads or writes, and a transaction
//! confined to one shard commits there directly, without the §7 prepare
//! phase. Counted with the instrumented backend in `support`.

mod support;

use mvtl_clock::{ClockSource, GlobalClock};
use mvtl_common::{EngineExt, Key, ProcessId};
use mvtl_core::policy::MvtilPolicy;
use mvtl_core::{MvtlConfig, MvtlStore};
use mvtl_shard::{IntersectionPick, KvBackend, ShardedStore};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use support::{probed, Probe};

fn probed_store(shards: usize) -> (ShardedStore<u64>, Arc<Probe>) {
    let clock: Arc<dyn ClockSource> = Arc::new(GlobalClock::starting_at(1000));
    let probe = Arc::new(Probe::default());
    let backends = (0..shards)
        .map(|_| {
            let inner = KvBackend::build(MvtlStore::new(
                MvtilPolicy::early(1000),
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

/// `n` distinct keys owned by `shard`.
fn keys_on(store: &ShardedStore<u64>, shard: usize, n: usize) -> Vec<Key> {
    let mut keys: Vec<Key> = Vec::with_capacity(n);
    for _ in 0..n {
        let from = keys.last().map_or(0, |k| k.0 + 1);
        keys.push(store.key_on_shard(shard, from));
    }
    keys
}

#[test]
fn transactions_open_sub_transactions_only_on_touched_shards() {
    let (store, probe) = probed_store(4);
    // Three keys on each of shards 1 and 3, interleaved.
    let keys: Vec<Key> = keys_on(&store, 1, 3)
        .into_iter()
        .zip(keys_on(&store, 3, 3))
        .flat_map(|(a, b)| [a, b])
        .collect();

    let mut tx = store.begin(ProcessId(1));
    for key in &keys {
        tx.write(*key, key.0 + 100).unwrap();
    }
    assert_eq!(tx.read(keys[0]).unwrap(), Some(keys[0].0 + 100));
    assert_eq!(
        probe.begins.load(Ordering::Relaxed),
        2,
        "one sub-transaction per touched shard, none on shards 0 and 2"
    );
    let info = tx.commit().unwrap();
    assert!(info.commit_ts.is_some());
    assert_eq!(
        probe.prepares.load(Ordering::Relaxed),
        2,
        "the cross-shard commit prepares each touched shard once"
    );

    // A transaction that touches nothing opens nothing.
    store.begin(ProcessId(2)).commit().unwrap();
    assert_eq!(probe.begins.load(Ordering::Relaxed), 2);
}

#[test]
fn single_shard_transactions_commit_without_prepare() {
    let (store, probe) = probed_store(3);
    let keys = keys_on(&store, 2, 3);

    let mut tx = store.begin(ProcessId(1));
    for key in &keys {
        tx.write(*key, key.0).unwrap();
    }
    assert_eq!(tx.read(keys[1]).unwrap(), Some(keys[1].0));
    let info = tx.commit().unwrap();
    assert!(info.commit_ts.is_some());

    assert_eq!(
        probe.begins.load(Ordering::Relaxed),
        1,
        "one shard, one sub-transaction"
    );
    assert_eq!(
        probe.prepares.load(Ordering::Relaxed),
        0,
        "the single-shard fast path skips the §7 prepare phase"
    );
}
