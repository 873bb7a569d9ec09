//! Deterministic batched-routing tests: a cross-shard `write_many` /
//! `read_many` touching K keys on S shards must open exactly S
//! sub-transactions and issue exactly **one** batched round per shard —
//! never one call per key. Asserted with an instrumented [`ShardBackend`]
//! that counts every participant-protocol call the coordinator makes.

use mvtl_common::{
    CommitInfo, EngineExt, Key, PreparedTxn, ProcessId, StoreStats, Timestamp, TxError, TxHandle,
};
use mvtl_core::policy::MvtilPolicy;
use mvtl_core::MvtlConfig;
use mvtl_shard::{IntersectionPick, MvtlBackend, ShardBackend, ShardedStore};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Per-shard call counters, shared between the probe backend and the test.
#[derive(Default, Debug)]
struct ShardCounters {
    begins: AtomicUsize,
    single_reads: AtomicUsize,
    single_writes: AtomicUsize,
    read_rounds: AtomicUsize,
    write_rounds: AtomicUsize,
    prepares: AtomicUsize,
}

impl ShardCounters {
    fn get(&self, counter: &AtomicUsize) -> usize {
        counter.load(Ordering::Relaxed)
    }
}

/// A [`ShardBackend`] that forwards to a real MVTL shard while counting the
/// calls the coordinator makes against it.
struct ProbeBackend {
    inner: Arc<dyn ShardBackend<u64>>,
    counters: Arc<ShardCounters>,
}

impl ShardBackend<u64> for ProbeBackend {
    fn begin(&self, process: ProcessId, pinned: Option<Timestamp>) -> Box<dyn TxHandle<u64>> {
        self.counters.begins.fetch_add(1, Ordering::Relaxed);
        Box::new(ProbeTxn {
            inner: self.inner.begin(process, pinned),
            counters: Arc::clone(&self.counters),
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

struct ProbeTxn {
    inner: Box<dyn TxHandle<u64>>,
    counters: Arc<ShardCounters>,
}

impl TxHandle<u64> for ProbeTxn {
    fn read(&mut self, key: Key) -> Result<Option<u64>, TxError> {
        self.counters.single_reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read(key)
    }

    fn write(&mut self, key: Key, value: u64) -> Result<(), TxError> {
        self.counters.single_writes.fetch_add(1, Ordering::Relaxed);
        self.inner.write(key, value)
    }

    fn read_many(&mut self, keys: &[Key]) -> Result<Vec<Option<u64>>, TxError> {
        self.counters.read_rounds.fetch_add(1, Ordering::Relaxed);
        self.inner.read_many(keys)
    }

    fn write_many(&mut self, entries: Vec<(Key, u64)>) -> Result<(), TxError> {
        self.counters.write_rounds.fetch_add(1, Ordering::Relaxed);
        self.inner.write_many(entries)
    }

    fn commit(self: Box<Self>) -> Result<CommitInfo, TxError> {
        self.inner.commit()
    }

    fn prepare(self: Box<Self>) -> Result<Box<dyn PreparedTxn<u64>>, TxError> {
        let this = *self;
        this.counters.prepares.fetch_add(1, Ordering::Relaxed);
        this.inner.prepare()
    }

    fn abort(self: Box<Self>) {
        self.inner.abort();
    }
}

const SHARDS: usize = 3;

/// A probed sharded store plus the per-shard counters.
fn probed_store() -> (ShardedStore<u64>, Vec<Arc<ShardCounters>>) {
    let clock = Arc::new(mvtl_clock::GlobalClock::starting_at(1000));
    let counters: Vec<Arc<ShardCounters>> = (0..SHARDS)
        .map(|_| Arc::new(ShardCounters::default()))
        .collect();
    let backends: Vec<Arc<dyn ShardBackend<u64>>> = counters
        .iter()
        .map(|counters| {
            Arc::new(ProbeBackend {
                inner: MvtlBackend::build(
                    MvtilPolicy::early(1000),
                    Arc::clone(&clock) as _,
                    MvtlConfig::default(),
                ),
                counters: Arc::clone(counters),
            }) as Arc<dyn ShardBackend<u64>>
        })
        .collect();
    let store = ShardedStore::new(backends, clock, IntersectionPick::Min);
    (store, counters)
}

/// `per_shard` distinct keys for each of the store's shards, interleaved so a
/// naive per-key routing would ping-pong between shards.
fn keys_across_shards(store: &ShardedStore<u64>, per_shard: usize) -> Vec<Key> {
    let mut keys = Vec::new();
    for round in 0..per_shard {
        let mut start = keys.last().map_or(0, |k: &Key| k.0 + 1);
        for shard in 0..store.shard_count() {
            let key = store.key_on_shard(shard, start);
            start = key.0 + 1;
            keys.push(key);
        }
        let _ = round;
    }
    keys
}

#[test]
fn cross_shard_write_many_opens_one_sub_txn_and_one_round_per_shard() {
    let (store, counters) = probed_store();
    let keys = keys_across_shards(&store, 3); // K = 9 keys on S = 3 shards

    let mut tx = store.begin(ProcessId(1));
    tx.write_many(keys.iter().map(|k| (*k, k.0 + 100)).collect())
        .unwrap();
    for (shard, c) in counters.iter().enumerate() {
        // 9 keys on 3 shards open exactly 3 sub-transactions.
        assert_eq!(c.get(&c.begins), 1, "shard {shard}: exactly one sub-txn");
        assert_eq!(
            c.get(&c.write_rounds),
            1,
            "shard {shard}: exactly one write_many round"
        );
        assert_eq!(
            c.get(&c.single_writes),
            0,
            "shard {shard}: no per-key write fallback"
        );
    }

    let info = tx.commit().unwrap();
    assert_eq!(info.writes.len(), keys.len());
    assert!(info.commit_ts.is_some());
    for c in &counters {
        assert_eq!(
            c.get(&c.prepares),
            1,
            "cross-shard commit prepares each shard once"
        );
    }
}

#[test]
fn cross_shard_read_many_issues_one_round_per_shard_and_scatters_in_order() {
    let (store, counters) = probed_store();
    let keys = keys_across_shards(&store, 3);
    let mut setup = store.begin(ProcessId(1));
    setup
        .write_many(keys.iter().map(|k| (*k, k.0 + 100)).collect())
        .unwrap();
    setup.commit().unwrap();

    let mut tx = store.begin(ProcessId(2));
    let values = tx.read_many(&keys).unwrap();
    assert_eq!(
        values,
        keys.iter().map(|k| Some(k.0 + 100)).collect::<Vec<_>>(),
        "values scatter back into input order"
    );
    for (shard, c) in counters.iter().enumerate() {
        assert_eq!(
            c.get(&c.begins),
            2,
            "shard {shard}: setup + reader sub-txns"
        );
        assert_eq!(
            c.get(&c.read_rounds),
            1,
            "shard {shard}: exactly one read_many round"
        );
        assert_eq!(c.get(&c.single_reads), 0, "shard {shard}: no per-key reads");
    }
    tx.commit().unwrap();
}

#[test]
fn single_shard_batches_skip_coordination_entirely() {
    let (store, counters) = probed_store();
    // Three keys, all on shard 0.
    let a = store.key_on_shard(0, 0);
    let b = store.key_on_shard(0, a.0 + 1);
    let c = store.key_on_shard(0, b.0 + 1);

    let mut tx = store.begin(ProcessId(1));
    tx.write_many(vec![(a, 1), (b, 2), (c, 3)]).unwrap();
    let info = tx.commit().unwrap();
    assert!(info.commit_ts.is_some());

    // One shard, one sub-txn.
    assert_eq!(counters[0].get(&counters[0].begins), 1);
    assert_eq!(counters[0].get(&counters[0].write_rounds), 1);
    // Single-shard fast path: the shard committed alone, no prepare phase.
    for (shard, c) in counters.iter().enumerate() {
        assert_eq!(c.get(&c.prepares), 0, "shard {shard}: no §7 coordination");
    }
    for c in &counters[1..] {
        assert_eq!(c.get(&c.begins), 0, "untouched shards stay closed");
    }
}
