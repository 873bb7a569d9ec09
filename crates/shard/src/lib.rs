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
//! * [`ShardedStore`] hash-routes keys to `N` independent shards. It is
//!   generic over one storage trait,
//!   [`TransactionalKV`](mvtl_common::TransactionalKV): every shard is an
//!   `Arc<S>` — an [`MvtlStore`](mvtl_core::MvtlStore) under any
//!   [`LockingPolicy`](mvtl_core::policy::LockingPolicy), a baseline, or a
//!   decorator over one — and the store calls it statically.
//! * A transaction opens shard sub-transactions lazily; one that touches a
//!   single shard commits through the shard policy's own timestamp pick, with
//!   no coordination. A one-shard store skips even the routing: its handle
//!   owns the shard's own transaction (and records the write set when it has
//!   a log), so it behaves exactly like the bare engine — which is how
//!   `mvtl-registry` builds every non-`sharded` spec, the baselines included.
//! * A cross-shard commit runs prepare → intersect → commit-at/abort:
//!   [`TransactionalKV::prepare`](mvtl_common::TransactionalKV::prepare)
//!   freezes the shard's interval
//!   ([`LockingPolicy::prepared_interval`](mvtl_core::policy::LockingPolicy::prepared_interval)
//!   over the Algorithm 1 line 13 candidates; the baselines refuse), the
//!   coordinator intersects the [`TsSet`](mvtl_common::TsSet)s, and either
//!   every shard commits at the same timestamp
//!   ([`PreparedTxn::commit_at`](mvtl_common::PreparedTxn::commit_at)) or
//!   every shard aborts.
//! * [`ShardedStore::with_gc`] gives the store its own §6 sweeper thread:
//!   every interval it purges all shards below the store's low watermark
//!   and a lagged clock sample, and the store stops and joins it on drop.
//! * [`ShardedStore::with_log`] gives the store one `mvtl-wal` write-ahead
//!   log, however many shards it has. Every committing transaction with
//!   writes appends one `Commit` record: a cross-shard one after the
//!   coordinator picks its timestamp and before any shard installs, so a
//!   crash leaves it whole in the log or absent. Reopening replays each
//!   record into the shards its keys route to.
//!
//! [`ShardedStore`] implements [`Engine`](mvtl_common::Engine) by handing out
//! either one handle over its only shard's transaction or a routed one over
//! several. [`Faulty`] is a store decorator that injects a seeded fault
//! schedule between the coordinator and a shard; `mvtl-registry` builds the
//! whole stack from string specs:
//!
//! ```
//! use mvtl_common::{EngineExt, Key, ProcessId};
//! use mvtl_shard::{IntersectionPick, ShardedStore};
//! use mvtl_core::policy::MvtilPolicy;
//! use mvtl_core::{MvtlConfig, MvtlStore};
//! use mvtl_clock::GlobalClock;
//! use std::sync::Arc;
//!
//! let store: ShardedStore<MvtlStore<u64, MvtilPolicy>> = ShardedStore::with_policy(
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

mod faults;
mod store;

pub use faults::Faulty;
pub use store::{IntersectionPick, ShardedStore};

#[cfg(test)]
mod tests {
    use super::*;
    use mvtl_clock::GlobalClock;
    use mvtl_common::{AbortReason, Engine, EngineExt, Key, ProcessId, Timestamp, TransactionalKV};
    use mvtl_core::policy::{MvtilPolicy, ToPolicy};
    use mvtl_core::{MvtlConfig, MvtlStore};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    type MvtilShards = ShardedStore<MvtlStore<u64, MvtilPolicy>>;

    fn store(shards: usize) -> MvtilShards {
        ShardedStore::with_policy(
            shards,
            Arc::new(GlobalClock::starting_at(1000)),
            MvtlConfig::default(),
            IntersectionPick::Min,
            |_| MvtilPolicy::early(100),
        )
    }

    /// Two keys guaranteed to live on different shards.
    fn cross_shard_keys<S>(s: &ShardedStore<S>) -> (Key, Key) {
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
    }

    #[test]
    fn baseline_shards_refuse_to_prepare_and_release_their_locks() {
        use mvtl_baselines::TwoPhaseLockingStore;
        let shards = (0..2)
            .map(|_| Arc::new(TwoPhaseLockingStore::<u64>::new(Duration::from_millis(20))))
            .collect();
        let s = ShardedStore::new(shards, Arc::new(GlobalClock::new()), IntersectionPick::Min);
        let (a, b) = cross_shard_keys(&s);
        let mut tx = s.begin(ProcessId(1));
        tx.write(a, 1).unwrap();
        tx.write(b, 1).unwrap();
        let err = tx.commit().map(|_| ()).unwrap_err();
        assert!(matches!(err, mvtl_common::TxError::Internal(_)), "{err}");
        // The refused transaction released its locks on both shards: the
        // next writer of the keys does not time out, and a single-shard
        // commit works as usual.
        for key in [a, b] {
            let mut tx = s.begin(ProcessId(2));
            tx.write(key, 2).unwrap();
            assert!(tx.commit().unwrap().commit_ts.is_some());
        }
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
        let clock = Arc::new(GlobalClock::starting_at(1000));
        let shards: Vec<Arc<MvtlStore<u64, ToPolicy>>> = (0..2)
            .map(|_| {
                Arc::new(MvtlStore::new(
                    ToPolicy::new(),
                    clock.clone(),
                    MvtlConfig::default(),
                ))
            })
            .collect();
        let probes = shards.clone();
        let s = ShardedStore::new(shards, clock, IntersectionPick::Min)
            .with_gc(Duration::from_millis(1), Duration::ZERO)
            .unwrap();
        let (a, b) = cross_shard_keys(&s);
        for round in 0..16u64 {
            let mut tx = s.begin(ProcessId(1));
            tx.write(a, round).unwrap();
            tx.write(b, round).unwrap();
            tx.commit().unwrap();
        }
        assert!(
            wait_until(|| s.shard_stats().iter().all(|st| st.versions == 1)),
            "stats: {:?}",
            s.shard_stats()
        );
        drop(s);
        // The sweeper was joined and released its share of every shard.
        assert!(probes.iter().all(|shard| Arc::strong_count(shard) == 1));
    }

    /// A one-shard MVTL-TO store swept every `interval` with `lag`.
    fn swept_store(interval: Duration, lag: Duration) -> ShardedStore<MvtlStore<u64, ToPolicy>> {
        ShardedStore::with_policy(
            1,
            Arc::new(GlobalClock::new()),
            MvtlConfig::default(),
            IntersectionPick::Min,
            |_| ToPolicy::new(),
        )
        .with_gc(interval, lag)
        .unwrap()
    }

    fn wait_until(mut predicate: impl FnMut() -> bool) -> bool {
        for _ in 0..500 {
            if predicate() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }

    fn churn(s: &dyn Engine<u64>, key: Key, rounds: u64) {
        for round in 0..rounds {
            let mut tx = s.begin(ProcessId(1));
            tx.write(key, round).unwrap();
            tx.commit().unwrap();
        }
    }

    #[test]
    fn watermark_protects_versions_needed_by_active_transactions() {
        let s = swept_store(Duration::from_millis(2), Duration::ZERO);
        churn(&s, Key(1), 4);
        // An in-flight reader anchors the watermark before further churn.
        let mut reader = s.begin(ProcessId(7));
        assert_eq!(reader.read(Key(1)).unwrap(), Some(3));
        churn(&s, Key(1), 8);
        // Sweeps run, but the bound is capped at the reader's pin: the three
        // versions strictly below the reader's anchor are purged, while the
        // anchor itself and everything above it must survive.
        assert!(
            wait_until(|| s.stats().purged_versions >= 3),
            "stats: {:?}",
            s.stats()
        );
        assert!(
            s.stats().versions >= 9,
            "versions the reader may re-read were purged: {:?}",
            s.stats()
        );
        // A re-read under the same transaction still sees its version.
        assert_eq!(reader.read(Key(1)).unwrap(), Some(3));
        reader.commit().unwrap();
        // With the pin gone the chain shrinks to the latest version.
        assert!(
            wait_until(|| s.stats().versions <= 1),
            "stats: {:?}",
            s.stats()
        );
    }

    #[test]
    fn watermark_protects_a_transaction_from_begin_on() {
        // Lag 0 and back-to-back sweeps: only the watermark keeps a sweep
        // from purging the version a reader anchors on. A reader that has
        // read the clock but is not yet pinned would see a sweep that read
        // the clock earlier purge below a version the writer installed in
        // between, and its read would abort with `VersionPurged`.
        use std::sync::atomic::{AtomicBool, Ordering};
        let s = swept_store(Duration::ZERO, Duration::ZERO);
        let keys = [Key(1), Key(2), Key(3)];
        let stop = AtomicBool::new(false);
        let deadline = Instant::now() + Duration::from_millis(1500);
        let purged = std::thread::scope(|scope| {
            let (s, stop) = (&s, &stop);
            scope.spawn(move || {
                for round in 0.. {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    for key in keys {
                        let mut tx = s.begin(ProcessId(1));
                        // A write conflict with a later reader is fine here.
                        if tx.write(key, round).is_ok() {
                            let _ = tx.commit();
                        }
                    }
                }
            });
            let readers: Vec<_> = (2..4)
                .map(|p| {
                    scope.spawn(move || {
                        let mut purged = 0;
                        while Instant::now() < deadline {
                            let mut tx = s.begin(ProcessId(p));
                            for key in keys {
                                if let Err(e) = tx.read(key) {
                                    let reason = e.abort_reason();
                                    let lost =
                                        matches!(reason, Some(AbortReason::VersionPurged { .. }));
                                    purged += usize::from(lost);
                                    break;
                                }
                            }
                            let _ = tx.commit();
                        }
                        purged
                    })
                })
                .collect();
            let purged: usize = readers.into_iter().map(|r| r.join().unwrap()).sum();
            stop.store(true, Ordering::Relaxed);
            purged
        });
        assert_eq!(purged, 0, "reads aborted by a sweep that passed their pin");
        assert!(s.stats().purged_versions > 0, "the sweeper purged nothing");
    }

    #[test]
    fn lag_defers_purging_of_recent_state() {
        let lag = Duration::from_millis(300);
        let spawned = Instant::now();
        let s = swept_store(Duration::from_millis(1), lag);
        churn(&s, Key(1), 8);
        // The sweeper runs every millisecond, but while it is younger than
        // the lag no clock sample is old enough to bound a purge.
        while spawned.elapsed() < lag / 2 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = s.stats();
        assert!(spawned.elapsed() < lag, "the check ran past the lag");
        assert_eq!((stats.versions, stats.purged_versions), (8, 0));
        // Past the lag, the samples taken after the churn bound the purge.
        assert!(
            wait_until(|| s.stats().versions <= 1),
            "stats: {:?}",
            s.stats()
        );
    }
}
