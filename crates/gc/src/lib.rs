//! # mvtl-gc
//!
//! The watermark-safe background garbage collector for the real (threaded)
//! engines: the in-process analogue of the paper's §6 / §8.1 **timestamp
//! service**.
//!
//! The paper argues MVTL is practical because versions and locks do not have
//! to be kept forever: a service periodically announces a timestamp bound, old
//! state below the bound is purged, and the rare transaction that still needs
//! purged state aborts. This crate does that for the engines, and Figures 6–7
//! measure it:
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
//!
//! The service knows nothing about engines: a [`SweepTarget`] is just a
//! watermark and a purge hook. The one production target is a
//! `ShardedStore` (`mvtl-shard`): `ShardedStore::with_gc` spawns a service
//! whose target shares the store's shard list and its coordinator-level
//! active-transaction registry, and the store joins the service when it is
//! dropped. That is what the `mvtl-registry` crate builds for specs like
//! `"mvtil-early?gc_ms=100&gc_lag_ms=50"` or `"sharded?shards=8&gc_ms=100"`:
//! every spec's engine is a `ShardedStore` (of one shard, or `shards`), and
//! one service sweeps all its shards through the store's aggregated
//! watermark.
//!
//! # Example
//!
//! A bare store swept through its §6 maintenance surface:
//!
//! ```
//! use mvtl_clock::{ClockSource, GlobalClock};
//! use mvtl_common::{Key, ProcessId, Timestamp, TransactionalKV};
//! use mvtl_core::{policy::ToPolicy, MvtlConfig, MvtlStore};
//! use mvtl_gc::{GcConfig, GcService, SweepTarget};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! struct Sweep(Arc<MvtlStore<u64, ToPolicy>>);
//!
//! impl SweepTarget for Sweep {
//!     fn low_watermark(&self) -> Option<Timestamp> {
//!         self.0.low_watermark()
//!     }
//!     fn purge_below(&self, bound: Timestamp) -> (usize, usize) {
//!         self.0.purge_below(bound)
//!     }
//! }
//!
//! let clock = Arc::new(GlobalClock::new());
//! let store = Arc::new(MvtlStore::new(
//!     ToPolicy::new(),
//!     clock.clone() as Arc<dyn ClockSource>,
//!     MvtlConfig::default(),
//! ));
//! let service = GcService::spawn(
//!     Arc::new(Sweep(Arc::clone(&store))),
//!     clock,
//!     GcConfig::default().with_interval(Duration::from_millis(5)),
//! );
//! let mut tx = store.begin(ProcessId(1));
//! store.write(&mut tx, Key(1), 42).unwrap();
//! store.commit(tx).unwrap();
//! drop(service); // stops and joins the background sweeper
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mvtl_clock::ClockSource;
use mvtl_common::{ProcessId, Timestamp};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
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
pub trait SweepTarget: Send + Sync + 'static {
    /// The smallest timestamp any in-flight transaction may still anchor a
    /// read on, or `None` when nothing is active (or untracked).
    fn low_watermark(&self) -> Option<Timestamp>;

    /// Purges versions and lock state older than `bound`. Returns
    /// `(versions_removed, lock_entries_removed)`.
    fn purge_below(&self, bound: Timestamp) -> (usize, usize);
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
    /// The thread holds a share of the target, so it stays alive at least as
    /// long as the service, and the engine that owns the service can share
    /// it; dropping the service stops and joins the thread, releasing that
    /// share before the engine's own.
    #[must_use]
    pub fn spawn(
        target: Arc<dyn SweepTarget>,
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

#[cfg(test)]
mod tests {
    use super::*;
    use mvtl_common::{Key, TransactionalKV};
    use mvtl_core::policy::ToPolicy;
    use mvtl_core::{MvtlConfig, MvtlStore};

    type Store = MvtlStore<u64, ToPolicy>;

    /// A bare store is its own sweep target.
    impl SweepTarget for Store {
        fn low_watermark(&self) -> Option<Timestamp> {
            MvtlStore::low_watermark(self)
        }

        fn purge_below(&self, bound: Timestamp) -> (usize, usize) {
            MvtlStore::purge_below(self, bound)
        }
    }

    fn store_and_clock() -> (Arc<Store>, Arc<mvtl_clock::GlobalClock>) {
        let clock = Arc::new(mvtl_clock::GlobalClock::new());
        let store = Arc::new(MvtlStore::new(
            ToPolicy::new(),
            clock.clone() as Arc<dyn ClockSource>,
            MvtlConfig::default(),
        ));
        (store, clock)
    }

    fn spawn(
        store: &Arc<Store>,
        clock: Arc<mvtl_clock::GlobalClock>,
        config: GcConfig,
    ) -> GcService {
        GcService::spawn(store.clone(), clock, config)
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

    fn churn(store: &Store, key: Key, rounds: u64) {
        for round in 0..rounds {
            let mut tx = store.begin(ProcessId(1));
            store.write(&mut tx, key, round).unwrap();
            store.commit(tx).unwrap();
        }
    }

    fn fast_gc() -> GcConfig {
        GcConfig {
            interval: Duration::from_millis(2),
            lag: Duration::ZERO,
        }
    }

    #[test]
    fn service_purges_old_versions_down_to_one() {
        let (store, clock) = store_and_clock();
        let service = spawn(&store, clock, fast_gc());
        churn(&store, Key(1), 32);
        assert!(
            wait_until(|| store.stats().versions <= 1),
            "GC must shrink the chain to the latest version, stats: {:?}",
            store.stats()
        );
        assert!(service.stats().versions_purged >= 31);
        assert!(service.stats().purges > 0);
        // The latest value survives.
        let mut tx = store.begin(ProcessId(2));
        assert_eq!(store.read(&mut tx, Key(1)).unwrap(), Some(31));
        store.commit(tx).unwrap();
    }

    #[test]
    fn watermark_protects_versions_needed_by_active_transactions() {
        let (store, clock) = store_and_clock();
        let _service = spawn(&store, clock, fast_gc());
        churn(&store, Key(1), 4);
        // An in-flight reader anchors the watermark before further churn.
        let mut reader = store.begin(ProcessId(7));
        assert_eq!(store.read(&mut reader, Key(1)).unwrap(), Some(3));
        churn(&store, Key(1), 8);
        // Sweeps run, but the bound is capped at the reader's pin: the three
        // versions strictly below the reader's anchor are purged, while the
        // anchor itself and everything above it must survive.
        assert!(
            wait_until(|| store.stats().purged_versions >= 3),
            "stats: {:?}",
            store.stats()
        );
        assert!(
            store.stats().versions >= 9,
            "versions the reader may re-read were purged: {:?}",
            store.stats()
        );
        // A re-read under the same transaction still sees its version.
        assert_eq!(store.read(&mut reader, Key(1)).unwrap(), Some(3));
        store.commit(reader).unwrap();
        // With the pin gone the chain shrinks to the latest version.
        assert!(
            wait_until(|| store.stats().versions <= 1),
            "stats: {:?}",
            store.stats()
        );
    }

    #[test]
    fn drop_stops_the_sweeper() {
        let (store, clock) = store_and_clock();
        let service = spawn(
            &store,
            clock,
            GcConfig {
                interval: Duration::from_millis(1),
                lag: Duration::ZERO,
            },
        );
        assert!(wait_until(|| service.stats().sweeps > 2));
        drop(service);
        // The thread has joined and released its share of the target.
        assert_eq!(Arc::strong_count(&store), 1);
        // No further sweeps can touch the engine.
        churn(&store, Key(1), 8);
        let resident = store.stats().versions;
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(store.stats().versions, resident, "sweeper kept running");
    }

    #[test]
    fn lag_defers_purging_of_recent_state() {
        let (store, clock) = store_and_clock();
        let service = spawn(
            &store,
            clock,
            GcConfig {
                interval: Duration::from_millis(2),
                lag: Duration::from_secs(3600),
            },
        );
        churn(&store, Key(1), 8);
        assert!(wait_until(|| service.stats().sweeps > 3));
        // With an hour of lag nothing is old enough to purge.
        assert_eq!(store.stats().versions, 8);
        assert_eq!(service.stats().purges, 0);
    }
}
