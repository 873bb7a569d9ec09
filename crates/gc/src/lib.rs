//! # mvtl-gc
//!
//! The watermark-safe background garbage collector for the real (threaded)
//! engines: the in-process analogue of the paper's §6 / §8.1 **timestamp
//! service**.
//!
//! The paper argues MVTL is practical because versions and locks do not have
//! to be kept forever: a service periodically announces a timestamp bound, old
//! state below the bound is purged, and the rare transaction that still needs
//! purged state aborts. The discrete-event simulator (`mvtl-sim`) reproduces
//! that for Figures 6–7; this crate does it for the real engines:
//!
//! * [`GcService`] — owns a background thread that, every
//!   [`GcConfig::interval`], purges a [`SweepTarget`] below
//!   `min(low_watermark, now − gc_lag)`:
//!   * `low_watermark` is the engine's active-transaction watermark — the
//!     smallest timestamp an in-flight transaction may still anchor a read
//!     on. Never purging at or above it means a sweep cannot abort a live
//!     transaction.
//!   * `now − gc_lag` is a *lagged clock sample*: the service remembers
//!     `(wall instant, clock reading)` pairs and purges below the reading
//!     taken at least [`GcConfig::lag`] ago, so the bound stays meaningful
//!     for any [`ClockSource`] (a logical counter has no notion of "50 ms
//!     ago" by itself). The lag keeps freshly committed versions readable by
//!     transactions that begin right after a sweep.
//!
//!   The thread shuts down cleanly when the service is dropped.
//! * [`GcEngine`] — pairs any [`TransactionalKV`] engine with its
//!   `GcService` and delegates the whole transactional surface, so it *is*
//!   an engine (including the object-safe `Engine` layer via the blanket
//!   impl). This is what the `mvtl-registry` crate hands out for specs like
//!   `"mvtil-early?gc_ms=100&gc_lag_ms=50"` or `"sharded?shards=8&gc_ms=100"`:
//!   every spec's engine is a `ShardedStore` (of one shard, or `shards`), and
//!   one service sweeps all its shards through the store's aggregated
//!   watermark.
//!
//! # Example
//!
//! ```
//! use mvtl_clock::{ClockSource, GlobalClock};
//! use mvtl_common::{EngineExt, Key, ProcessId};
//! use mvtl_core::{policy::ToPolicy, MvtlConfig, MvtlStore};
//! use mvtl_gc::{GcConfig, GcEngine};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let clock = Arc::new(GlobalClock::new());
//! let store = Arc::new(MvtlStore::new(
//!     ToPolicy::new(),
//!     clock.clone() as Arc<dyn ClockSource>,
//!     MvtlConfig::default(),
//! ));
//! let engine = GcEngine::spawn(
//!     store,
//!     clock,
//!     GcConfig::default().with_interval(Duration::from_millis(5)),
//! );
//! let mut tx = EngineExt::begin(&engine, ProcessId(1));
//! tx.write(Key(1), 42u64).unwrap();
//! tx.commit().unwrap();
//! // Dropping `engine` stops the background sweeper.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mvtl_clock::ClockSource;
use mvtl_common::{
    CommitInfo, Engine, Key, ProcessId, StoreStats, Timestamp, TransactionalKV, TxError,
};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The process id GC sweeps read the clock as. Distinct from workload client
/// ids (which count up from 0) so per-process clock sources are unaffected.
const GC_PROCESS: ProcessId = ProcessId(u32::MAX);

/// Configuration of a [`GcService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcConfig {
    /// How often the background thread sweeps.
    pub interval: Duration,
    /// Wall-clock slack kept behind the current clock reading: a sweep purges
    /// below the clock sample taken at least this long ago (further capped by
    /// the engine's low watermark). Larger lags keep more history readable
    /// for transactions that begin between sweeps.
    pub lag: Duration,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            interval: Duration::from_millis(100),
            lag: Duration::from_millis(50),
        }
    }
}

impl GcConfig {
    /// Returns a configuration with the given sweep interval.
    #[must_use]
    pub fn with_interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }

    /// Returns a configuration with the given clock lag.
    #[must_use]
    pub fn with_lag(mut self, lag: Duration) -> Self {
        self.lag = lag;
        self
    }
}

/// A snapshot of a [`GcService`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Sweeps performed (including ones that found nothing to purge).
    pub sweeps: u64,
    /// Sweeps that computed a purge bound and called `purge_below`.
    pub purges: u64,
    /// Total versions removed so far.
    pub versions_purged: u64,
    /// Total lock entries removed so far.
    pub lock_entries_purged: u64,
}

/// What the sweeper needs from an engine: its watermark and its purge hook.
///
/// Provided for `Arc<dyn Engine<V>>`, which every [`TransactionalKV`] store
/// coerces to ([`GcEngine::spawn`] does exactly that).
pub trait SweepTarget: Send + Sync + 'static {
    /// The smallest timestamp any in-flight transaction may still anchor a
    /// read on, or `None` when nothing is active (or untracked).
    fn low_watermark(&self) -> Option<Timestamp>;

    /// Purges versions and lock state older than `bound`. Returns
    /// `(versions_removed, lock_entries_removed)`.
    fn purge_below(&self, bound: Timestamp) -> (usize, usize);
}

impl<V: 'static> SweepTarget for Arc<dyn Engine<V>> {
    fn low_watermark(&self) -> Option<Timestamp> {
        Engine::low_watermark(self.as_ref())
    }

    fn purge_below(&self, bound: Timestamp) -> (usize, usize) {
        Engine::purge_below(self.as_ref(), bound)
    }
}

struct GcShared {
    stop: Mutex<bool>,
    wake: Condvar,
    sweeps: AtomicU64,
    purges: AtomicU64,
    versions_purged: AtomicU64,
    lock_entries_purged: AtomicU64,
}

impl Default for GcShared {
    fn default() -> Self {
        GcShared {
            stop: Mutex::named("gc.stop", 90, false),
            wake: Condvar::new(),
            sweeps: AtomicU64::new(0),
            purges: AtomicU64::new(0),
            versions_purged: AtomicU64::new(0),
            lock_entries_purged: AtomicU64::new(0),
        }
    }
}

/// A background thread that periodically purges an engine below
/// `min(low_watermark, now − lag)`. Stops (and joins the thread) on drop.
pub struct GcService {
    shared: Arc<GcShared>,
    handle: Option<JoinHandle<()>>,
}

impl GcService {
    /// Spawns the sweeper over an explicit [`SweepTarget`], reading purge
    /// bounds from `clock`.
    ///
    /// The target is owned by the thread, so whatever it references stays
    /// alive at least as long as the service; dropping the service stops the
    /// thread before it could observe a half-dropped engine.
    #[must_use]
    pub fn spawn(
        target: Box<dyn SweepTarget>,
        clock: Arc<dyn ClockSource>,
        config: GcConfig,
    ) -> GcService {
        let shared = Arc::new(GcShared::default());
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("mvtl-gc".to_string())
            .spawn(move || Self::run(&thread_shared, target.as_ref(), clock.as_ref(), config))
            .expect("spawn GC thread");
        GcService {
            shared,
            handle: Some(handle),
        }
    }

    fn run(shared: &GcShared, target: &dyn SweepTarget, clock: &dyn ClockSource, config: GcConfig) {
        // (wall instant, clock reading) samples, oldest first. The front is
        // kept as the newest sample that is at least `lag` old, which is the
        // lag-derived part of the purge bound.
        let mut samples: VecDeque<(Instant, Timestamp)> = VecDeque::new();
        loop {
            {
                let mut guard = shared.stop.lock();
                if *guard {
                    return;
                }
                let _ = shared
                    .wake
                    .wait_until(&mut guard, Instant::now() + config.interval);
                if *guard {
                    return;
                }
            }
            shared.sweeps.fetch_add(1, Ordering::Relaxed);
            let now_wall = Instant::now();
            samples.push_back((now_wall, clock.timestamp(GC_PROCESS)));
            while samples.len() >= 2 && now_wall.duration_since(samples[1].0) >= config.lag {
                samples.pop_front();
            }
            let lagged = samples
                .front()
                .filter(|(taken, _)| now_wall.duration_since(*taken) >= config.lag)
                .map(|(_, ts)| *ts);
            let Some(mut bound) = lagged else {
                // The service is younger than the lag: nothing is old enough
                // to purge yet.
                continue;
            };
            if let Some(watermark) = target.low_watermark() {
                bound = bound.min(watermark);
            }
            let (versions, locks) = target.purge_below(bound);
            shared.purges.fetch_add(1, Ordering::Relaxed);
            shared
                .versions_purged
                .fetch_add(versions as u64, Ordering::Relaxed);
            shared
                .lock_entries_purged
                .fetch_add(locks as u64, Ordering::Relaxed);
        }
    }

    /// A snapshot of the service's counters.
    #[must_use]
    pub fn stats(&self) -> GcStats {
        GcStats {
            sweeps: self.shared.sweeps.load(Ordering::Relaxed),
            purges: self.shared.purges.load(Ordering::Relaxed),
            versions_purged: self.shared.versions_purged.load(Ordering::Relaxed),
            lock_entries_purged: self.shared.lock_entries_purged.load(Ordering::Relaxed),
        }
    }

    /// Stops the background thread and waits for it to exit. Called
    /// automatically on drop; explicit calls are idempotent.
    pub fn shutdown(&mut self) {
        {
            *self.shared.stop.lock() = true;
        }
        self.shared.wake.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for GcService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for GcService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GcService")
            .field("running", &self.handle.is_some())
            .field("stats", &self.stats())
            .finish()
    }
}

/// An engine paired with the [`GcService`] that sweeps it: state stays
/// bounded for as long as the wrapper lives, and the sweeper stops when the
/// wrapper is dropped.
///
/// `GcEngine` delegates the whole [`TransactionalKV`] surface to the wrapped
/// store, so the blanket impl in `mvtl-common` gives it the object-safe
/// `Engine` layer for free — `Box<dyn Engine<V>>` works, which is how the
/// registry returns it for specs carrying `gc_ms`.
pub struct GcEngine<V, S> {
    inner: Arc<S>,
    service: GcService,
    _values: PhantomData<fn() -> V>,
}

impl<V, S> GcEngine<V, S>
where
    V: 'static,
    S: TransactionalKV<V> + 'static,
    S::Txn: 'static,
{
    /// Wraps `inner` and spawns its sweeper.
    #[must_use]
    pub fn spawn(inner: Arc<S>, clock: Arc<dyn ClockSource>, config: GcConfig) -> GcEngine<V, S> {
        let target: Arc<dyn Engine<V>> = inner.clone();
        let service = GcService::spawn(Box::new(target), clock, config);
        GcEngine {
            inner,
            service,
            _values: PhantomData,
        }
    }

    /// The garbage-collection service sweeping this engine.
    #[must_use]
    pub fn service(&self) -> &GcService {
        &self.service
    }

    /// The wrapped engine.
    #[must_use]
    pub fn inner(&self) -> &Arc<S> {
        &self.inner
    }
}

impl<V, S> TransactionalKV<V> for GcEngine<V, S>
where
    V: 'static,
    S: TransactionalKV<V> + 'static,
{
    type Txn = S::Txn;

    fn begin_at(&self, process: ProcessId, pinned: Option<Timestamp>) -> Self::Txn {
        self.inner.begin_at(process, pinned)
    }

    fn read(&self, txn: &mut Self::Txn, key: Key) -> Result<Option<V>, TxError> {
        self.inner.read(txn, key)
    }

    fn write(&self, txn: &mut Self::Txn, key: Key, value: V) -> Result<(), TxError> {
        self.inner.write(txn, key, value)
    }

    // The batched surface must forward too: the trait defaults loop over
    // `read`/`write`, which would silently strip the inner engine's native
    // batched path from every GC-wrapped spec.
    fn read_many(&self, txn: &mut Self::Txn, keys: &[Key]) -> Result<Vec<Option<V>>, TxError> {
        self.inner.read_many(txn, keys)
    }

    fn write_many(&self, txn: &mut Self::Txn, entries: Vec<(Key, V)>) -> Result<(), TxError> {
        self.inner.write_many(txn, entries)
    }

    fn commit(&self, txn: Self::Txn) -> Result<CommitInfo, TxError> {
        self.inner.commit(txn)
    }

    fn abort(&self, txn: Self::Txn) {
        self.inner.abort(txn);
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
}

impl<V, S: TransactionalKV<V>> std::fmt::Debug for GcEngine<V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GcEngine")
            .field("engine", &self.inner.name())
            .field("service", &self.service)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvtl_common::{EngineExt, Key};
    use mvtl_core::policy::ToPolicy;
    use mvtl_core::{MvtlConfig, MvtlStore};

    type Store = MvtlStore<u64, ToPolicy>;

    fn store_and_clock() -> (Arc<Store>, Arc<mvtl_clock::GlobalClock>) {
        let clock = Arc::new(mvtl_clock::GlobalClock::new());
        let store = Arc::new(MvtlStore::new(
            ToPolicy::new(),
            clock.clone() as Arc<dyn ClockSource>,
            MvtlConfig::default(),
        ));
        (store, clock)
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

    fn churn(engine: &dyn Engine<u64>, key: Key, rounds: u64) {
        for round in 0..rounds {
            let mut tx = engine.begin(ProcessId(1));
            tx.write(key, round).unwrap();
            tx.commit().unwrap();
        }
    }

    fn fast_gc() -> GcConfig {
        GcConfig {
            interval: Duration::from_millis(2),
            lag: Duration::ZERO,
        }
    }

    #[test]
    fn gc_engine_forwards_the_batched_surface() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// Counts batched calls so a wrapper that falls back to the default
        /// per-key loops is caught.
        struct Probe {
            inner: Store,
            read_many_calls: AtomicUsize,
            write_many_calls: AtomicUsize,
        }

        impl TransactionalKV<u64> for Probe {
            type Txn = <Store as TransactionalKV<u64>>::Txn;

            fn begin_at(&self, process: ProcessId, pinned: Option<Timestamp>) -> Self::Txn {
                self.inner.begin_at(process, pinned)
            }

            fn read(&self, txn: &mut Self::Txn, key: Key) -> Result<Option<u64>, TxError> {
                self.inner.read(txn, key)
            }

            fn write(&self, txn: &mut Self::Txn, key: Key, value: u64) -> Result<(), TxError> {
                self.inner.write(txn, key, value)
            }

            fn read_many(
                &self,
                txn: &mut Self::Txn,
                keys: &[Key],
            ) -> Result<Vec<Option<u64>>, TxError> {
                self.read_many_calls.fetch_add(1, Ordering::Relaxed);
                self.inner.read_many(txn, keys)
            }

            fn write_many(
                &self,
                txn: &mut Self::Txn,
                entries: Vec<(Key, u64)>,
            ) -> Result<(), TxError> {
                self.write_many_calls.fetch_add(1, Ordering::Relaxed);
                self.inner.write_many(txn, entries)
            }

            fn commit(&self, txn: Self::Txn) -> Result<CommitInfo, TxError> {
                self.inner.commit(txn)
            }

            fn abort(&self, txn: Self::Txn) {
                self.inner.abort(txn);
            }

            fn name(&self) -> &'static str {
                "probe"
            }
        }

        let clock = Arc::new(mvtl_clock::GlobalClock::new());
        let probe = Arc::new(Probe {
            inner: MvtlStore::new(
                ToPolicy::new(),
                clock.clone() as Arc<dyn ClockSource>,
                MvtlConfig::default(),
            ),
            read_many_calls: AtomicUsize::new(0),
            write_many_calls: AtomicUsize::new(0),
        });
        let engine = GcEngine::spawn(
            Arc::clone(&probe),
            clock as Arc<dyn ClockSource>,
            GcConfig::default(),
        );
        let engine: &dyn Engine<u64> = &engine;

        let mut tx = engine.begin(ProcessId(1));
        tx.write_many(vec![(Key(1), 1), (Key(2), 2), (Key(3), 3)])
            .unwrap();
        assert_eq!(
            tx.read_many(&[Key(1), Key(2), Key(3)]).unwrap(),
            vec![Some(1), Some(2), Some(3)]
        );
        tx.commit().unwrap();

        // One batched call each reached the wrapped store — the GC wrapper
        // must not degrade batches into per-key loops.
        assert_eq!(probe.write_many_calls.load(Ordering::Relaxed), 1);
        assert_eq!(probe.read_many_calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn service_purges_old_versions_down_to_one() {
        let (store, clock) = store_and_clock();
        let engine: Arc<dyn Engine<u64>> = store.clone();
        let service = GcService::spawn(
            Box::new(Arc::clone(&engine)),
            clock as Arc<dyn ClockSource>,
            fast_gc(),
        );
        churn(engine.as_ref(), Key(1), 32);
        assert!(
            wait_until(|| engine.stats().versions <= 1),
            "GC must shrink the chain to the latest version, stats: {:?}",
            engine.stats()
        );
        assert!(service.stats().versions_purged >= 31);
        assert!(service.stats().purges > 0);
        // The latest value survives.
        let mut tx = engine.as_ref().begin(ProcessId(2));
        assert_eq!(tx.read(Key(1)).unwrap(), Some(31));
        tx.commit().unwrap();
    }

    #[test]
    fn watermark_protects_versions_needed_by_active_transactions() {
        let (store, clock) = store_and_clock();
        let engine: Arc<dyn Engine<u64>> = store.clone();
        let _service = GcService::spawn(
            Box::new(Arc::clone(&engine)),
            clock as Arc<dyn ClockSource>,
            fast_gc(),
        );
        churn(engine.as_ref(), Key(1), 4);
        // An in-flight reader anchors the watermark before further churn.
        let mut reader = TransactionalKV::begin(store.as_ref(), ProcessId(7));
        assert_eq!(store.read(&mut reader, Key(1)).unwrap(), Some(3));
        churn(engine.as_ref(), Key(1), 8);
        // Sweeps run, but the bound is capped at the reader's pin: the three
        // versions strictly below the reader's anchor are purged, while the
        // anchor itself and everything above it must survive.
        assert!(
            wait_until(|| engine.stats().purged_versions >= 3),
            "stats: {:?}",
            engine.stats()
        );
        assert!(
            engine.stats().versions >= 9,
            "versions the reader may re-read were purged: {:?}",
            engine.stats()
        );
        // A re-read under the same transaction still sees its version.
        assert_eq!(store.read(&mut reader, Key(1)).unwrap(), Some(3));
        store.commit(reader).unwrap();
        // With the pin gone the chain shrinks to the latest version.
        assert!(
            wait_until(|| engine.stats().versions <= 1),
            "stats: {:?}",
            engine.stats()
        );
    }

    #[test]
    fn drop_stops_the_sweeper() {
        let (store, clock) = store_and_clock();
        let engine: Arc<dyn Engine<u64>> = store;
        let service = GcService::spawn(
            Box::new(Arc::clone(&engine)),
            clock as Arc<dyn ClockSource>,
            GcConfig {
                interval: Duration::from_millis(1),
                lag: Duration::ZERO,
            },
        );
        assert!(wait_until(|| service.stats().sweeps > 2));
        drop(service);
        // The thread has joined; no further sweeps can touch the engine.
        churn(engine.as_ref(), Key(1), 8);
        let resident = engine.stats().versions;
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(engine.stats().versions, resident, "sweeper kept running");
    }

    #[test]
    fn lag_defers_purging_of_recent_state() {
        let (store, clock) = store_and_clock();
        let engine: Arc<dyn Engine<u64>> = store;
        let service = GcService::spawn(
            Box::new(Arc::clone(&engine)),
            clock as Arc<dyn ClockSource>,
            GcConfig {
                interval: Duration::from_millis(2),
                lag: Duration::from_secs(3600),
            },
        );
        churn(engine.as_ref(), Key(1), 8);
        assert!(wait_until(|| service.stats().sweeps > 3));
        // With an hour of lag nothing is old enough to purge.
        assert_eq!(engine.stats().versions, 8);
        assert_eq!(service.stats().purges, 0);
    }

    #[test]
    fn gc_engine_delegates_and_sweeps() {
        let (store, clock) = store_and_clock();
        let engine = GcEngine::spawn(store.clone(), clock as Arc<dyn ClockSource>, fast_gc());
        assert_eq!(TransactionalKV::name(&engine), "mvtl-to");
        let dyn_engine: &dyn Engine<u64> = &engine;
        churn(dyn_engine, Key(9), 16);
        // Wait for the steady state (latest version kept, all purgeable lock
        // entries gone) so the stats snapshots below cannot race a sweep.
        assert!(
            wait_until(|| {
                let s = dyn_engine.stats();
                s.versions <= 1 && s.lock_entries == 0
            }),
            "stats: {:?}",
            dyn_engine.stats()
        );
        assert_eq!(
            TransactionalKV::stats(store.as_ref()),
            dyn_engine.stats(),
            "wrapper reports the inner engine's stats"
        );
        assert!(engine.service().stats().versions_purged >= 15);
    }
}
