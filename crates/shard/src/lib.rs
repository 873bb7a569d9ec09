//! # mvtl-shard
//!
//! A real, threaded, **partitioned** transactional engine that commits
//! cross-shard transactions with the paper's §7 protocol.
//!
//! The paper's headline claim is that locking *timestamps* — unlike locking
//! objects — **composes across servers**: each server can independently
//! freeze the interval of timestamps a transaction may commit at, and a
//! coordinator commits at any timestamp in the intersection of those
//! intervals, or aborts when the intersection is empty. This crate executes
//! that protocol with real threads:
//!
//! * [`ShardedStore`] hash-routes keys to `N` independent shards, each a full
//!   per-key-latched MVTL engine ([`mvtl_core::MvtlStore`] under any
//!   [`LockingPolicy`](mvtl_core::policy::LockingPolicy)). [`KvBackend`] is
//!   the one adapter that turns a store — an `MvtlStore` or a baseline —
//!   into a shard.
//! * A transaction opens shard sub-transactions lazily; one that touches a
//!   single shard commits through the shard policy's own timestamp pick, with
//!   no coordination. A one-shard store skips even the routing: its
//!   transactions are the shard's own handles, so it behaves exactly like the
//!   bare engine — which is how `mvtl-registry` builds every non-`sharded`
//!   spec, the baselines included.
//! * A cross-shard commit runs prepare → intersect → commit-at/abort:
//!   [`TxHandle::prepare`](mvtl_common::TxHandle::prepare) freezes the
//!   shard's interval
//!   ([`LockingPolicy::prepared_interval`](mvtl_core::policy::LockingPolicy::prepared_interval)
//!   over the Algorithm 1 line 13 candidates), the coordinator intersects the
//!   [`TsSet`](mvtl_common::TsSet)s, and either every shard commits at the
//!   same timestamp
//!   ([`PreparedTxn::commit_at`](mvtl_common::PreparedTxn::commit_at)) or
//!   every shard aborts. A shard prepares through its store's
//!   [`TransactionalKV::prepare`](mvtl_common::TransactionalKV::prepare),
//!   which the baselines refuse.
//! * [`ShardedStore::with_gc`] gives the store its own `mvtl-gc` sweeper
//!   over all shards, stopped and joined when the store drops.
//!
//! There is one transaction-handle trait on both sides of the shard seam:
//! a [`ShardBackend`] opens [`TxHandle`](mvtl_common::TxHandle)s, and
//! [`ShardedStore`] implements [`Engine`](mvtl_common::Engine) by handing out
//! either its only shard's handle or a routed one over several. Decorators
//! ([`FaultyBackend`], and the write-ahead log of `mvtl-wal`) wrap a shard
//! backend and its handles; `mvtl-registry` builds the whole stack from
//! string specs:
//!
//! ```
//! use mvtl_common::{EngineExt, Key, ProcessId};
//! use mvtl_shard::{IntersectionPick, ShardedStore};
//! use mvtl_core::policy::MvtilPolicy;
//! use mvtl_core::MvtlConfig;
//! use mvtl_clock::GlobalClock;
//! use std::sync::Arc;
//!
//! let store: ShardedStore<u64> = ShardedStore::with_policy(
//!     8,
//!     Arc::new(GlobalClock::new()),
//!     MvtlConfig::default(),
//!     IntersectionPick::Min,
//!     |_shard| MvtilPolicy::early(1000),
//! );
//! let engine: &dyn mvtl_common::Engine<u64> = &store;
//!
//! let mut tx = engine.begin(ProcessId(1));
//! tx.write(Key(1), 10).unwrap();   // lands on one shard
//! tx.write(Key(2), 20).unwrap();   // usually another
//! let info = tx.commit().unwrap(); // §7: interval intersection
//! assert!(info.commit_ts.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod faults;
mod store;

pub use backend::{KvBackend, ShardBackend};
pub use faults::FaultyBackend;
pub use store::{IntersectionPick, ShardedStore};

#[cfg(test)]
mod tests {
    use super::*;
    use mvtl_clock::GlobalClock;
    use mvtl_common::{AbortReason, Engine, EngineExt, Key, ProcessId, Timestamp, TransactionalKV};
    use mvtl_core::policy::MvtilPolicy;
    use mvtl_core::{MvtlConfig, MvtlStore};
    use std::sync::Arc;

    fn store(shards: usize) -> ShardedStore<u64> {
        ShardedStore::with_policy(
            shards,
            Arc::new(GlobalClock::starting_at(1000)),
            MvtlConfig::default(),
            IntersectionPick::Min,
            |_| MvtilPolicy::early(100),
        )
    }

    /// Two keys guaranteed to live on different shards.
    fn cross_shard_keys(s: &ShardedStore<u64>) -> (Key, Key) {
        let a = s.key_on_shard(0, 0);
        let b = s.key_on_shard(1, a.0 + 1);
        assert_ne!(s.shard_of(a), s.shard_of(b));
        (a, b)
    }

    #[test]
    fn cross_shard_commit_installs_one_timestamp_everywhere() {
        let s = store(4);
        let (a, b) = cross_shard_keys(&s);
        let mut tx = s.begin(ProcessId(1));
        tx.write(a, 1).unwrap();
        tx.write(b, 2).unwrap();
        let info = tx.commit().unwrap();
        let ts = info.commit_ts.expect("cross-shard commit has a timestamp");
        // Both versions are visible at (and only from) the common timestamp.
        let mut tx = s.begin(ProcessId(2));
        assert_eq!(tx.read(a).unwrap(), Some(1));
        assert_eq!(tx.read(b).unwrap(), Some(2));
        tx.commit().unwrap();
        assert!(ts > Timestamp::ZERO);
    }

    #[test]
    fn single_shard_transactions_take_the_fast_path() {
        let s = store(4);
        let a = s.key_on_shard(2, 0);
        let mut tx = s.begin(ProcessId(1));
        tx.write(a, 7).unwrap();
        // Only the touched shard opened a sub-transaction.
        let locked: Vec<bool> = s
            .shard_stats()
            .iter()
            .map(|st| st.lock_entries > 0)
            .collect();
        assert_eq!(locked, vec![false, false, true, false]);
        let info = tx.commit().unwrap();
        assert!(info.commit_ts.is_some());
    }

    #[test]
    fn empty_transactions_commit() {
        let s = store(4);
        let info = s.begin(ProcessId(1)).commit().unwrap();
        assert!(info.reads.is_empty() && info.writes.is_empty());
    }

    #[test]
    fn abort_releases_every_shard() {
        let s = store(4);
        let (a, b) = cross_shard_keys(&s);
        let baseline = s.stats().lock_entries;
        let mut tx = s.begin(ProcessId(1));
        tx.write(a, 1).unwrap();
        tx.write(b, 2).unwrap();
        assert!(s.stats().lock_entries > baseline);
        tx.abort();
        assert_eq!(s.stats().lock_entries, baseline);
    }

    #[test]
    fn engine_layer_drop_aborts_across_shards() {
        let s = store(8);
        let baseline = s.stats().lock_entries;
        {
            let engine: &dyn Engine<u64> = &s;
            let mut tx = engine.begin(ProcessId(1));
            for k in 0..16u64 {
                tx.write(Key(k), k).unwrap();
            }
            // Dropped without commit: RAII must abort every sub-transaction.
        }
        assert_eq!(s.stats().lock_entries, baseline);
    }

    #[test]
    fn retry_loop_works_through_the_dyn_layer() {
        let s = store(2);
        let engine: &dyn Engine<u64> = &s;
        let report = engine
            .run(
                ProcessId(1),
                &mvtl_common::RetryOptions::default().with_seed(3),
                |tx| {
                    let v = tx.read(Key(5))?.unwrap_or(0);
                    tx.write(Key(5), v + 1)?;
                    tx.write(Key(6), v + 2)?;
                    Ok(v)
                },
            )
            .unwrap();
        assert_eq!(report.value, 0);
    }

    #[test]
    fn poisoned_transactions_reject_further_operations() {
        // Exhaust an interval deterministically: a committed reader freezes
        // read locks over a lower writer's whole interval on one shard.
        let s = store(2);
        let key = s.key_on_shard(0, 0);
        let mut reader = s.begin_pinned(ProcessId(1), Timestamp::at(500));
        let _ = reader.read(key).unwrap();
        reader.commit().unwrap();

        let mut writer = s.begin_pinned(ProcessId(2), Timestamp::at(100));
        let err = writer.write(key, 1).unwrap_err();
        assert_eq!(
            err.abort_reason(),
            Some(&AbortReason::IntervalExhausted { key })
        );
        // Every further operation fails fast, and commit refuses too.
        assert!(writer.write(Key(99), 1).is_err());
        assert!(writer.commit().is_err());
    }

    #[test]
    fn purge_and_stats_aggregate_across_shards() {
        let s = store(4);
        for k in 0..12u64 {
            for value in [k, k + 100] {
                let mut tx = s.begin(ProcessId(1));
                tx.write(Key(k), value).unwrap();
                tx.commit().unwrap();
            }
        }
        assert_eq!(s.stats().versions, 24);
        assert_eq!(s.shard_stats().len(), 4);
        let (versions_removed, _) = s.purge_below(Timestamp::MAX);
        assert_eq!(versions_removed, 12, "one version per key survives");
        assert_eq!(s.stats().versions, 12);
    }

    #[test]
    fn one_shard_store_behaves_exactly_like_the_bare_engine() {
        use mvtl_core::MvtlStore;
        let bare: MvtlStore<u64, MvtilPolicy> = MvtlStore::new(
            MvtilPolicy::early(100),
            Arc::new(GlobalClock::starting_at(1000)),
            MvtlConfig::default(),
        );
        let one = store(1);
        // Same pinned schedule on both: an empty transaction, a blind write,
        // a read of it. The commit infos agree on everything but the runtime
        // transaction id — including the empty commit's timestamp.
        let seen = |info: mvtl_common::CommitInfo| (info.commit_ts, info.reads, info.writes);
        let on_bare = {
            let pin = |t| bare.begin_at(ProcessId(1), Some(Timestamp::at(t)));
            let empty = bare.commit(pin(1000)).unwrap();
            let mut tx = pin(1010);
            bare.write(&mut tx, Key(1), 7).unwrap();
            let write = bare.commit(tx).unwrap();
            let mut tx = pin(1020);
            assert_eq!(bare.read(&mut tx, Key(1)).unwrap(), Some(7));
            [empty, write, bare.commit(tx).unwrap()].map(seen)
        };
        let on_one = {
            let pin = |t| one.begin_pinned(ProcessId(1), Timestamp::at(t));
            let empty = pin(1000).commit().unwrap();
            let mut tx = pin(1010);
            tx.write(Key(1), 7).unwrap();
            let write = tx.commit().unwrap();
            let mut tx = pin(1020);
            assert_eq!(tx.read(Key(1)).unwrap(), Some(7));
            [empty, write, tx.commit().unwrap()].map(seen)
        };
        assert_eq!(on_bare, on_one);
        // No coordinator in between: the handle is the shard's own, so it
        // can even act as a §7 participant and prepare.
        let baseline = one.stats().lock_entries;
        let mut tx = one.begin_handle(ProcessId(1), None);
        tx.write(Key(2), 1).unwrap();
        tx.prepare().unwrap().abort();
        assert_eq!(one.stats().lock_entries, baseline);
    }

    #[test]
    fn kv_backend_refuses_to_prepare_and_releases_its_locks() {
        use mvtl_baselines::TwoPhaseLockingStore;
        use std::time::Duration;
        let backend: Arc<dyn ShardBackend<u64>> =
            KvBackend::build(TwoPhaseLockingStore::new(Duration::from_millis(20)));
        let mut tx = backend.begin(ProcessId(1), None);
        tx.write(Key(1), 1).unwrap();
        let err = tx.prepare().map(|_| ()).unwrap_err();
        assert!(matches!(err, mvtl_common::TxError::Internal(_)), "{err}");
        // The refused transaction released its lock: the next writer of the
        // key does not time out, and the single-shard commit works as usual.
        let mut tx = backend.begin(ProcessId(2), None);
        tx.write(Key(1), 2).unwrap();
        assert!(tx.commit().unwrap().commit_ts.is_some());
    }

    #[test]
    fn shard_count_one_degenerates_to_the_inner_engine() {
        let s = store(1);
        let mut tx = s.begin(ProcessId(1));
        tx.write(Key(1), 1).unwrap();
        tx.write(Key(2), 2).unwrap();
        let info = tx.commit().unwrap();
        assert!(info.commit_ts.is_some());
        assert_eq!(info.writes.len(), 2);
    }

    #[test]
    fn store_owned_sweeper_purges_every_shard_and_joins_on_drop() {
        use mvtl_core::policy::ToPolicy;
        use std::time::Duration;
        let clock = Arc::new(GlobalClock::starting_at(1000));
        let shards: Vec<Arc<dyn ShardBackend<u64>>> = (0..2)
            .map(|_| {
                KvBackend::build(MvtlStore::new(
                    ToPolicy::new(),
                    clock.clone(),
                    MvtlConfig::default(),
                ))
            })
            .collect();
        let probes = shards.clone();
        let s = ShardedStore::new(shards, clock, IntersectionPick::Min).with_gc(
            mvtl_gc::GcConfig::default()
                .with_interval(Duration::from_millis(1))
                .with_lag(Duration::ZERO),
        );
        let (a, b) = cross_shard_keys(&s);
        for round in 0..16u64 {
            let mut tx = s.begin(ProcessId(1));
            tx.write(a, round).unwrap();
            tx.write(b, round).unwrap();
            tx.commit().unwrap();
        }
        let swept = (0..500).any(|_| {
            let per_shard = s.shard_stats();
            if per_shard.iter().all(|st| st.versions == 1) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
            false
        });
        assert!(swept, "stats: {:?}", s.shard_stats());
        drop(s);
        // The sweeper was joined and released its share of every shard.
        assert!(probes.iter().all(|shard| Arc::strong_count(shard) == 1));
    }
}
