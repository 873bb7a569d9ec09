//! The partitioned engine and its cross-shard commit coordinator.

use crate::backend::ShardBackend;
use mvtl_clock::ClockSource;
use mvtl_common::{
    AbortReason, ActiveTxnRegistry, CommitInfo, Engine, Key, PreparedTxn, ProcessId, StoreStats,
    Timestamp, TsSet, TxError, TxHandle, TxId, TxnPin,
};
use mvtl_core::policy::LockingPolicy;
use mvtl_core::MvtlConfig;
use mvtl_gc::{GcConfig, GcService, SweepTarget};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Which timestamp the coordinator picks from the non-empty intersection of
/// the shards' frozen intervals. Mirrors MVTIL-early / MVTIL-late (§8): any
/// element of the intersection is safe, so this is a policy knob, not a
/// correctness one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntersectionPick {
    /// Commit at the smallest common timestamp (the MVTIL-early analogue).
    #[default]
    Min,
    /// Commit at the largest common timestamp (the MVTIL-late analogue).
    Max,
}

/// A real, threaded, partitioned transactional engine: keys are hash-routed
/// to `N` independent shards, and cross-shard transactions commit with the
/// paper's §7 protocol — each participating shard freezes the interval of
/// timestamps it can commit at, the coordinator intersects those `TsSet`s,
/// commits at one timestamp of a non-empty intersection, and aborts every
/// participant when the intersection is empty.
///
/// `ShardedStore` implements [`Engine`], and it is the one composition seam
/// of the `mvtl-registry` crate: every spec builds one,
/// `"sharded?shards=8&inner=mvtil-early"` with eight shards and every other
/// spec (`"mvtil-early"`, `"mvto+"`, ...) with one. A one-shard store hands
/// out its shard's own transaction handles unchanged — no routing, no
/// coordinator pin — so it behaves exactly like the bare engine. On a
/// multi-shard store, shard sub-transactions open lazily on first access,
/// so a transaction that happens to touch one shard pays no coordination
/// cost and commits through the shard policy's own timestamp pick.
///
/// [`ShardedStore::with_gc`] attaches the store's own background garbage
/// collector, which the store stops and joins when it is dropped.
///
/// # Why timestamp locks compose
///
/// Object locks give each server only a *yes/no* answer at commit time;
/// timestamp locks give an *interval*, and intervals can be intersected.
/// That is the paper's headline claim ("locking timestamps composes across
/// servers"), executed here with real threads; Figure 5 measures it over a
/// growing number of shards.
pub struct ShardedStore<V> {
    /// The store's own sweeper. Declared first so that it drops first:
    /// joining the sweeper thread releases its share of `shards`, so every
    /// shard — and its write-ahead log — is closed by the time dropping the
    /// store returns.
    gc: Option<GcService>,
    shards: Arc<Shards<V>>,
    clock: Arc<dyn ClockSource>,
    pick: IntersectionPick,
    /// What [`Engine::name`] reports.
    name: &'static str,
}

/// Everything a GC sweep of a [`ShardedStore`] reaches, shared between the
/// store and its sweeper thread.
struct Shards<V> {
    list: Vec<Arc<dyn ShardBackend<V>>>,
    /// Coordinator-level registry: a multi-shard transaction is pinned at
    /// its base timestamp from `begin` until commit/abort, covering the
    /// window before its lazily opened sub-transactions register with the
    /// shard-level registries (and any shard it never touches).
    active: ActiveTxnRegistry,
}

impl<V: 'static> SweepTarget for Shards<V> {
    fn low_watermark(&self) -> Option<Timestamp> {
        self.active
            .low_watermark()
            .into_iter()
            .chain(self.list.iter().filter_map(|s| s.low_watermark()))
            .min()
    }

    fn purge_below(&self, bound: Timestamp) -> (usize, usize) {
        self.list.iter().fold((0, 0), |(versions, locks), shard| {
            let (v, l) = shard.purge_below(bound);
            (versions + v, locks + l)
        })
    }
}

impl<V> ShardedStore<V>
where
    V: Clone + Send + Sync + 'static,
{
    /// Builds a sharded store from explicit shard backends.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is empty.
    #[must_use]
    pub fn new(
        shards: Vec<Arc<dyn ShardBackend<V>>>,
        clock: Arc<dyn ClockSource>,
        pick: IntersectionPick,
    ) -> Self {
        assert!(!shards.is_empty(), "a sharded store needs at least 1 shard");
        ShardedStore {
            gc: None,
            shards: Arc::new(Shards {
                list: shards,
                active: ActiveTxnRegistry::new(),
            }),
            clock,
            pick,
            name: "sharded",
        }
    }

    /// Names the store (default `"sharded"`): the registry names a one-shard
    /// store after the engine it wraps.
    #[must_use]
    pub fn with_name(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// Attaches the store's own background garbage collector (§6): one
    /// [`GcService`] reading the store's clock, which every `config.interval`
    /// purges all shards below `min(low watermark, now − config.lag)`. The
    /// watermark is [`Engine::low_watermark`]'s: the coordinator-level pins
    /// of open multi-shard transactions and every shard's own. Dropping the
    /// store stops and joins the sweeper.
    #[must_use]
    pub fn with_gc(mut self, config: GcConfig) -> Self {
        let target = Arc::clone(&self.shards);
        self.gc = Some(GcService::spawn(target, Arc::clone(&self.clock), config));
        self
    }

    /// Builds a sharded store whose shards are [`MvtlStore`]s sharing one
    /// clock, with per-shard policies produced by `policy` (called with the
    /// shard index).
    ///
    /// [`MvtlStore`]: mvtl_core::MvtlStore
    #[must_use]
    pub fn with_policy<P, F>(
        shard_count: usize,
        clock: Arc<dyn ClockSource>,
        config: MvtlConfig,
        pick: IntersectionPick,
        mut policy: F,
    ) -> Self
    where
        P: LockingPolicy,
        F: FnMut(usize) -> P,
    {
        let shards = (0..shard_count.max(1))
            .map(|i| {
                crate::backend::MvtlBackend::build(policy(i), Arc::clone(&clock), config.clone())
            })
            .collect();
        ShardedStore::new(shards, clock, pick)
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.list.len()
    }

    /// The shard index `key` routes to.
    #[must_use]
    pub fn shard_of(&self, key: Key) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.shard_count()
    }

    /// Any key that routes to `shard` — handy for tests and examples that
    /// need keys on specific shards. Scans upward from `start`.
    #[must_use]
    pub fn key_on_shard(&self, shard: usize, start: u64) -> Key {
        let shard = shard % self.shard_count();
        let mut key = Key(start);
        while self.shard_of(key) != shard {
            key = Key(key.0.wrapping_add(1));
        }
        key
    }

    /// Per-shard state-size statistics, in shard order.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<StoreStats> {
        self.shards.list.iter().map(|s| s.stats()).collect()
    }

    /// Phase 1: prepare participants inline, one after the other. A failing
    /// shard has already released its own state; the coordinator releases
    /// everyone else's. A participant that misses its deadline fails its
    /// prepare with [`AbortReason::PrepareTimedOut`] (the fault layer
    /// reports the miss), and is resolved by presumed abort like any other
    /// failure.
    fn prepare_inline(
        participants: Vec<Box<dyn TxHandle<V>>>,
    ) -> Result<Vec<Box<dyn PreparedTxn<V>>>, TxError> {
        let mut prepared: Vec<Box<dyn PreparedTxn<V>>> = Vec::with_capacity(participants.len());
        let mut participants = participants.into_iter();
        for sub in participants.by_ref() {
            match sub.prepare() {
                Ok(p) => prepared.push(p),
                Err(err) => {
                    for p in prepared {
                        p.abort();
                    }
                    for sub in participants {
                        sub.abort();
                    }
                    return Err(err);
                }
            }
        }
        Ok(prepared)
    }

    /// The §7 coordinator: prepare every participant, intersect the frozen
    /// intervals, then commit everywhere at one common timestamp — or abort
    /// everywhere when the intersection is empty.
    fn commit_cross_shard(
        &self,
        tx: TxId,
        participants: Vec<Box<dyn TxHandle<V>>>,
    ) -> Result<CommitInfo, TxError> {
        // Phase 1: freeze each participant's interval.
        let prepared = Self::prepare_inline(participants)?;

        // Phase 2: intersect the frozen intervals.
        let mut intersection: TsSet = prepared[0].interval().clone();
        for p in &prepared[1..] {
            intersection = intersection.intersection(p.interval());
            if intersection.is_empty() {
                break;
            }
        }
        let chosen = match self.pick {
            IntersectionPick::Min => intersection.min(),
            IntersectionPick::Max => intersection.max(),
        };
        let Some(commit_ts) = chosen else {
            // Empty intersection: the paper's line "if ∩ = ∅ then abort".
            for p in prepared {
                p.abort();
            }
            return Err(TxError::aborted(AbortReason::NoCommonTimestamp));
        };

        // Phase 3: commit every shard at the common timestamp. This cannot
        // fail for a correct backend: `commit_ts` lies inside each shard's
        // frozen interval and each participant still holds all the locks
        // backing it. Should a shard reject the timestamp anyway (a backend
        // bug), the remaining prepared participants must still be drained —
        // aborting them releases their locks instead of leaking them — before
        // the internal error is reported.
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        let mut failure: Option<TxError> = None;
        for p in prepared {
            if failure.is_some() {
                p.abort();
                continue;
            }
            match p.commit_at(commit_ts) {
                Ok(info) => {
                    reads.extend(info.reads);
                    writes.extend(info.writes);
                }
                Err(err) => {
                    failure = Some(TxError::Internal(format!(
                        "shard rejected the coordinated commit timestamp {commit_ts}: {err}"
                    )));
                }
            }
        }
        if let Some(err) = failure {
            return Err(err);
        }
        Ok(CommitInfo {
            tx,
            commit_ts: Some(commit_ts),
            reads,
            writes,
        })
    }
}

/// A transaction on a multi-shard [`ShardedStore`]: shard sub-transactions
/// open lazily on first access, all pinned at one base timestamp, and the
/// store's coordinator-level registry pins that base until commit or abort.
struct RoutedTxn<'a, V> {
    store: &'a ShardedStore<V>,
    /// The coordinator-side transaction id (the one reported in
    /// [`CommitInfo`]).
    id: TxId,
    process: ProcessId,
    /// The clock reading every shard sub-transaction is pinned to, so all
    /// participants of one transaction reason from the same timestamp base.
    base: Timestamp,
    subs: Vec<Option<Box<dyn TxHandle<V>>>>,
    poisoned: bool,
    /// Ticket in the coordinator's active-transaction registry; taken back
    /// when the transaction is committed or aborted.
    gc_pin: Option<TxnPin>,
}

impl<V> RoutedTxn<'_, V> {
    fn check_live(&self) -> Result<(), TxError> {
        if self.poisoned {
            Err(TxError::TransactionFinished)
        } else {
            Ok(())
        }
    }

    /// The sub-transaction on `shard`, opened (pinned at the base timestamp)
    /// on first access.
    fn sub(&mut self, shard: usize) -> &mut dyn TxHandle<V> {
        let (process, base) = (self.process, self.base);
        let backend = &self.store.shards.list[shard];
        self.subs[shard]
            .get_or_insert_with(|| backend.begin(process, Some(base)))
            .as_mut()
    }

    /// A shard failed an operation and released its own state; release the
    /// rest eagerly rather than waiting for the caller's abort.
    fn fail<T>(&mut self, err: TxError) -> Result<T, TxError> {
        self.poisoned = true;
        self.abort_subs();
        Err(err)
    }

    fn abort_subs(&mut self) {
        for sub in self.subs.iter_mut().filter_map(Option::take) {
            sub.abort();
        }
    }

    /// Releases the coordinator pin.
    fn unpin(&mut self) {
        if let Some(pin) = self.gc_pin.take() {
            self.store.shards.active.deregister(pin);
        }
    }
}

impl<V> TxHandle<V> for RoutedTxn<'_, V>
where
    V: Clone + Send + Sync + 'static,
{
    fn read(&mut self, key: Key) -> Result<Option<V>, TxError> {
        self.check_live()?;
        let shard = self.store.shard_of(key);
        self.sub(shard).read(key).or_else(|err| self.fail(err))
    }

    fn write(&mut self, key: Key, value: V) -> Result<(), TxError> {
        self.check_live()?;
        let shard = self.store.shard_of(key);
        self.sub(shard)
            .write(key, value)
            .or_else(|err| self.fail(err))
    }

    fn commit(mut self: Box<Self>) -> Result<CommitInfo, TxError> {
        // The coordinator pin only has to cover the window in which new
        // sub-transactions can still open; from here on every touched shard
        // holds its own (shard-level) pin, so release before coordinating.
        self.unpin();
        self.check_live()?;
        let mut participants: Vec<Box<dyn TxHandle<V>>> =
            self.subs.iter_mut().filter_map(Option::take).collect();
        if participants.len() > 1 {
            return self.store.commit_cross_shard(self.id, participants);
        }
        match participants.pop() {
            // A transaction that touched nothing commits trivially.
            None => Ok(CommitInfo {
                tx: self.id,
                commit_ts: None,
                reads: Vec::new(),
                writes: Vec::new(),
            }),
            // Single-shard fast path: the shard policy picks the timestamp,
            // exactly as in the non-partitioned engine.
            Some(sub) => sub.commit().map(|mut info| {
                info.tx = self.id;
                info
            }),
        }
    }

    fn abort(self: Box<Self>) {
        // Dropping an open transaction aborts it.
    }
}

impl<V> Drop for RoutedTxn<'_, V> {
    fn drop(&mut self) {
        self.unpin();
        self.abort_subs();
    }
}

impl<V> Engine<V> for ShardedStore<V>
where
    V: Clone + Send + Sync + 'static,
{
    fn begin_handle(
        &self,
        process: ProcessId,
        pinned: Option<Timestamp>,
    ) -> Box<dyn TxHandle<V> + '_> {
        if let [shard] = self.shards.list.as_slice() {
            return shard.begin(process, pinned);
        }
        // One clock reading per transaction, shared by all its shards: this
        // is the client-side policy state of §7, split across participants
        // (and it is what lets point-timestamp policies like MVTL-TO agree
        // on a commit timestamp across shards).
        let base = pinned.unwrap_or_else(|| self.clock.timestamp(process));
        Box::new(RoutedTxn {
            store: self,
            id: TxId::fresh(),
            process,
            base,
            subs: (0..self.shard_count()).map(|_| None).collect(),
            poisoned: false,
            gc_pin: Some(self.shards.active.register(base)),
        })
    }

    fn name(&self) -> &'static str {
        self.name
    }

    /// Aggregate state-size statistics summed across all shards.
    fn stats(&self) -> StoreStats {
        self.shards
            .list
            .iter()
            .map(|s| s.stats())
            .fold(StoreStats::default(), StoreStats::merge)
    }

    /// Purges versions and lock state older than `bound` on every shard.
    /// Returns the totals `(versions_removed, lock_entries_removed)`.
    fn purge_below(&self, bound: Timestamp) -> (usize, usize) {
        self.shards.purge_below(bound)
    }

    /// The minimum over the coordinator-level registry (every open
    /// multi-shard transaction is pinned at its base timestamp from `begin`
    /// to commit/abort — sub-transactions open *lazily*, so the shard-level
    /// registries alone would leave a begun-but-idle transaction
    /// unprotected) and every shard's own watermark. One sweep below this
    /// bound is safe on every shard.
    fn low_watermark(&self) -> Option<Timestamp> {
        self.shards.low_watermark()
    }
}
