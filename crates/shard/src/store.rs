//! The partitioned engine and its cross-shard commit coordinator.

use mvtl_clock::ClockSource;
use mvtl_common::{
    AbortReason, ActiveTxnRegistry, CommitInfo, Engine, Key, PreparedTxn, ProcessId, StoreStats,
    Timestamp, TransactionalKV, TsSet, TxError, TxHandle, TxId, TxnPin,
};
use mvtl_core::policy::LockingPolicy;
use mvtl_core::{MvtlConfig, MvtlStore};
use mvtl_wal::{Recovery, Wal, WalError, WalRecord, WalValue};
use parking_lot::{Condvar, Mutex};
use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::io;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The process id GC sweeps read the clock as. Distinct from workload client
/// ids (which count up from 0) so per-process clock sources are unaffected.
const GC_PROCESS: ProcessId = ProcessId(u32::MAX);

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
/// to `N` independent shards, each a [`TransactionalKV`] store `S`, and
/// cross-shard transactions commit with the paper's §7 protocol — each
/// participating shard freezes the interval of timestamps it can commit at
/// ([`TransactionalKV::prepare`]), the coordinator intersects those
/// `TsSet`s, commits at one timestamp of a non-empty intersection, and
/// aborts every participant when the intersection is empty.
///
/// `ShardedStore` implements [`Engine`], and it is the one composition seam
/// of the `mvtl-registry` crate: every spec builds one,
/// `"sharded?shards=8&inner=mvtil-early"` with eight shards and every other
/// spec (`"mvtil-early"`, `"mvto+"`, ...) with one. A one-shard store hands
/// out one boxed handle that owns its shard's transaction — no routing, no
/// coordinator pin; with a log, it also records the write set — so it
/// behaves exactly like the bare engine. On a multi-shard store, shard
/// sub-transactions open lazily on first access, so a transaction that
/// happens to touch one shard pays no coordination cost and commits through
/// the shard policy's own timestamp pick. The store calls its shards
/// statically; a decorator such as [`Faulty`](crate::Faulty) is just
/// another `S`.
///
/// [`ShardedStore::with_gc`] attaches the store's own background garbage
/// collector, which the store stops and joins when it is dropped, and
/// [`ShardedStore::with_log`] its one write-ahead log, however many shards
/// it has.
///
/// # Why timestamp locks compose
///
/// Object locks give each server only a *yes/no* answer at commit time;
/// timestamp locks give an *interval*, and intervals can be intersected.
/// That is the paper's headline claim ("locking timestamps composes across
/// servers"), executed here with real threads; Figure 5 measures it over a
/// growing number of shards.
pub struct ShardedStore<S> {
    /// The store's own sweeper. Declared first so that it drops first:
    /// joining the sweeper thread releases its share of `shards`, so every
    /// shard is gone by the time dropping the store returns.
    gc: Option<Sweeper>,
    shards: Arc<Shards<S>>,
    clock: Arc<dyn ClockSource>,
    pick: IntersectionPick,
    /// What [`Engine::name`] reports.
    name: &'static str,
    /// The write-ahead log ([`ShardedStore::with_log`]). Transactions record
    /// their write sets only while there is one.
    log: Option<Wal>,
}

/// Everything a GC sweep of a [`ShardedStore`] reaches, shared between the
/// store and its sweeper thread.
struct Shards<S> {
    list: Vec<Arc<S>>,
    /// Coordinator-level registry: a multi-shard transaction is pinned at
    /// its base timestamp from `begin` until commit/abort, covering the
    /// window before its lazily opened sub-transactions register with the
    /// shard-level registries (and any shard it never touches).
    active: ActiveTxnRegistry,
}

impl<S> Shards<S> {
    /// The smallest timestamp an open transaction may still anchor a read
    /// on: the minimum over the coordinator-level pins and every shard's own
    /// watermark, or `None` when nothing is open.
    fn low_watermark<V>(&self) -> Option<Timestamp>
    where
        S: TransactionalKV<V>,
    {
        self.active
            .low_watermark()
            .into_iter()
            .chain(self.list.iter().filter_map(|s| s.low_watermark()))
            .min()
    }

    /// Purges every shard below `bound`. Returns the totals
    /// `(versions_removed, lock_entries_removed)`.
    fn purge_below<V>(&self, bound: Timestamp) -> (usize, usize)
    where
        S: TransactionalKV<V>,
    {
        self.list.iter().fold((0, 0), |(versions, locks), shard| {
            let (v, l) = shard.purge_below(bound);
            (versions + v, locks + l)
        })
    }
}

/// The store's own §6 sweeper thread ([`ShardedStore::with_gc`]). Dropping
/// it stops and joins the thread, which then releases its share of the
/// shards.
struct Sweeper {
    /// The stop flag, and the condvar that cuts the thread's sleep short.
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for Sweeper {
    fn drop(&mut self) {
        let (stop, wake) = &*self.stop;
        *stop.lock() = true;
        wake.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The sweeper thread: every `interval`, until `stop` is set, purges every
/// shard below `min(low watermark, now − lag)`.
///
/// `now − lag` is a *lagged clock sample*: the thread remembers `(wall
/// instant, clock reading)` pairs and bounds the purge by the reading taken
/// at least `lag` ago, so the bound means the same for any [`ClockSource`]
/// (a logical counter has no notion of "50 ms ago" by itself). The lag keeps
/// freshly committed versions readable by transactions that begin right
/// after a sweep; the watermark keeps a sweep from aborting an open one.
fn sweep<V, S: TransactionalKV<V>>(
    stop: &(Mutex<bool>, Condvar),
    shards: &Shards<S>,
    clock: &dyn ClockSource,
    interval: Duration,
    lag: Duration,
) {
    let (stop, wake) = stop;
    // (wall instant, clock reading) samples, oldest first. The front is
    // kept as the newest sample that is at least `lag` old, which is the
    // lag-derived part of the purge bound.
    let mut samples: VecDeque<(Instant, Timestamp)> = VecDeque::new();
    loop {
        {
            let mut guard = stop.lock();
            if *guard {
                return;
            }
            let _ = wake.wait_until(&mut guard, Instant::now() + interval);
            if *guard {
                return;
            }
        }
        let now_wall = Instant::now();
        samples.push_back((now_wall, clock.timestamp(GC_PROCESS)));
        while samples.len() >= 2 && now_wall.duration_since(samples[1].0) >= lag {
            samples.pop_front();
        }
        let lagged = samples
            .front()
            .filter(|(taken, _)| now_wall.duration_since(*taken) >= lag)
            .map(|(_, ts)| *ts);
        let Some(mut bound) = lagged else {
            // The sweeper is younger than the lag: nothing is old enough to
            // purge yet.
            continue;
        };
        if let Some(watermark) = shards.low_watermark() {
            bound = bound.min(watermark);
        }
        shards.purge_below(bound);
    }
}

impl<S> ShardedStore<S> {
    /// Builds a sharded store from explicit shards.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is empty.
    #[must_use]
    pub fn new(shards: Vec<Arc<S>>, clock: Arc<dyn ClockSource>, pick: IntersectionPick) -> Self {
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
            log: None,
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
    /// thread, named `mvtl-gc` and reading the store's clock, which every
    /// `interval` purges all shards below `min(low watermark, now − lag)`.
    /// The watermark is [`Engine::low_watermark`]'s: the coordinator-level
    /// pins of open multi-shard transactions and every shard's own. Dropping
    /// the store stops and joins the sweeper.
    ///
    /// # Errors
    ///
    /// Returns the error of spawning the thread.
    pub fn with_gc<V>(mut self, interval: Duration, lag: Duration) -> io::Result<Self>
    where
        S: TransactionalKV<V> + 'static,
        V: 'static,
    {
        let stop = Arc::new((Mutex::named("gc.stop", 90, false), Condvar::new()));
        let thread_stop = Arc::clone(&stop);
        let shards = Arc::clone(&self.shards);
        let clock = Arc::clone(&self.clock);
        let thread = std::thread::Builder::new()
            .name("mvtl-gc".to_string())
            .spawn(move || sweep(&thread_stop, &shards, clock.as_ref(), interval, lag))?;
        self.gc = Some(Sweeper {
            stop,
            thread: Some(thread),
        });
        Ok(self)
    }

    /// Gives the store its one write-ahead log, after replaying what opening
    /// it recovered into the shards, which must be freshly built: each
    /// record's writes go to the shards their keys route to, at the record's
    /// commit timestamp. From then on, every transaction that writes appends
    /// one [`WalRecord::Commit`].
    ///
    /// # Errors
    ///
    /// Returns an error when a record has no commit timestamp or a shard
    /// rejects its replay.
    pub fn with_log<V>(mut self, log: Wal, recovery: Recovery<V>) -> Result<Self, WalError>
    where
        S: TransactionalKV<V>,
        V: Clone,
    {
        for WalRecord::Commit {
            id,
            commit_ts,
            writes,
        } in recovery.records
        {
            let ts = commit_ts
                .ok_or_else(|| WalError(format!("replaying commit {id}: no commit timestamp")))?;
            let mut routed = vec![Vec::new(); self.shard_count()];
            for (key, value) in writes {
                routed[self.shard_of(key)].push((key, value));
            }
            for (shard, writes) in self.shards.list.iter().zip(routed) {
                if !writes.is_empty() {
                    shard
                        .recover_install(writes, ts)
                        .map_err(|e| WalError(format!("replaying commit {id}: {e}")))?;
                }
            }
        }
        self.log = Some(log);
        Ok(self)
    }

    /// Appends a non-empty write set to the log, if the store has one.
    fn log_commit<V: WalValue>(
        &self,
        commit_ts: Option<Timestamp>,
        writes: Vec<(Key, V)>,
    ) -> Result<(), WalError> {
        match &self.log {
            Some(log) if !writes.is_empty() => log.append(&WalRecord::Commit {
                id: log.fresh_id(),
                commit_ts,
                writes,
            }),
            _ => Ok(()),
        }
    }

    /// Commits `txn` on `shard`, whose policy picks the timestamp, then logs.
    fn commit_one<V>(
        &self,
        shard: &S,
        txn: S::Txn,
        writes: Vec<(Key, V)>,
    ) -> Result<CommitInfo, TxError>
    where
        S: TransactionalKV<V>,
        V: WalValue,
    {
        let info = shard.commit(txn)?;
        self.log_commit(info.commit_ts, writes)
            .map_err(|e| TxError::Internal(format!("commit applied but not logged: {e}")))?;
        Ok(info)
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
    pub fn shard_stats<V>(&self) -> Vec<StoreStats>
    where
        S: TransactionalKV<V>,
    {
        self.shards.list.iter().map(|s| s.stats()).collect()
    }

    /// The §7 coordinator: prepare every participant, intersect the frozen
    /// intervals, log the decision, then commit everywhere at one common
    /// timestamp — or abort everywhere when the intersection is empty or the
    /// log refuses the record.
    fn commit_cross_shard<V>(
        &self,
        tx: TxId,
        participants: Vec<(usize, S::Txn)>,
        writes: Vec<(Key, V)>,
    ) -> Result<CommitInfo, TxError>
    where
        S: TransactionalKV<V>,
        V: WalValue,
    {
        // Phase 1: freeze each participant's interval, one after the other
        // in shard order. A failing shard has already released its own
        // state; the coordinator releases everyone else's. A participant
        // that misses its deadline fails its prepare with
        // `PrepareTimedOut` (the fault layer reports the miss), and is
        // resolved by presumed abort like any other failure.
        let mut prepared: Vec<Box<dyn PreparedTxn<V>>> = Vec::with_capacity(participants.len());
        let mut participants = participants.into_iter();
        for (shard, txn) in participants.by_ref() {
            match S::prepare(&self.shards.list[shard], txn) {
                Ok(p) => prepared.push(p),
                Err(err) => {
                    for p in prepared {
                        p.abort();
                    }
                    for (shard, txn) in participants {
                        self.shards.list[shard].abort(txn);
                    }
                    return Err(err);
                }
            }
        }

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

        // The decision is durable before it takes effect anywhere: one
        // record carries every participant's writes, so a crash leaves all
        // of them in the log, for every shard to replay, or none.
        if let Err(err) = self.log_commit(Some(commit_ts), writes) {
            for p in prepared {
                p.abort();
            }
            return Err(TxError::Internal(format!("commit not logged: {err}")));
        }

        // Phase 3: commit every shard at the common timestamp. This cannot
        // fail for a correct shard: `commit_ts` lies inside each shard's
        // frozen interval and each participant still holds all the locks
        // backing it. Should a shard reject the timestamp anyway (a shard
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

impl<V, P> ShardedStore<MvtlStore<V, P>>
where
    V: Clone + Send + Sync + 'static,
    P: LockingPolicy,
{
    /// Builds a sharded store whose shards are [`MvtlStore`]s sharing one
    /// clock, with per-shard policies produced by `policy` (called with the
    /// shard index).
    #[must_use]
    pub fn with_policy<F>(
        shard_count: usize,
        clock: Arc<dyn ClockSource>,
        config: MvtlConfig,
        pick: IntersectionPick,
        mut policy: F,
    ) -> Self
    where
        F: FnMut(usize) -> P,
    {
        let shards = (0..shard_count.max(1))
            .map(|i| {
                Arc::new(MvtlStore::new(
                    policy(i),
                    Arc::clone(&clock),
                    config.clone(),
                ))
            })
            .collect();
        ShardedStore::new(shards, clock, pick)
    }
}

/// Records `key = value` in a logged write set, last value per key.
fn record_write<V>(writes: &mut Vec<(Key, V)>, key: Key, value: V) {
    match writes.iter_mut().find(|(k, _)| *k == key) {
        Some(slot) => slot.1 = value,
        None => writes.push((key, value)),
    }
}

/// A transaction on a one-shard [`ShardedStore`]: the shard's own
/// transaction, and the write set its commit appends while the store has a
/// log. The transaction is an `Option` only so that `Drop` can abort one
/// that was neither committed nor explicitly aborted.
struct ShardTxn<'a, V, S: TransactionalKV<V>> {
    store: &'a ShardedStore<S>,
    shard: &'a S,
    txn: Option<S::Txn>,
    writes: Vec<(Key, V)>,
}

impl<V, S> TxHandle<V> for ShardTxn<'_, V, S>
where
    V: WalValue + Clone + Send,
    S: TransactionalKV<V>,
{
    // `txn` is `None` only once the handle is consumed, so the
    // `TransactionFinished` arms below are unreachable through `Box<Self>`.

    fn read(&mut self, key: Key) -> Result<Option<V>, TxError> {
        let txn = self.txn.as_mut().ok_or(TxError::TransactionFinished)?;
        self.shard.read(txn, key)
    }

    fn write(&mut self, key: Key, value: V) -> Result<(), TxError> {
        let txn = self.txn.as_mut().ok_or(TxError::TransactionFinished)?;
        if self.store.log.is_some() {
            record_write(&mut self.writes, key, value.clone());
        }
        self.shard.write(txn, key, value)
    }

    fn commit(mut self: Box<Self>) -> Result<CommitInfo, TxError> {
        let txn = self.txn.take().ok_or(TxError::TransactionFinished)?;
        let writes = std::mem::take(&mut self.writes);
        self.store.commit_one(self.shard, txn, writes)
    }

    fn abort(self: Box<Self>) {
        // Dropping an open handle aborts it.
    }
}

impl<V, S: TransactionalKV<V>> Drop for ShardTxn<'_, V, S> {
    fn drop(&mut self) {
        if let Some(txn) = self.txn.take() {
            self.shard.abort(txn);
        }
    }
}

/// A transaction on a multi-shard [`ShardedStore`]: shard sub-transactions
/// open lazily on first access, all pinned at one base timestamp, and the
/// store's coordinator-level registry pins that base until commit or abort.
struct RoutedTxn<'a, V, S: TransactionalKV<V>> {
    store: &'a ShardedStore<S>,
    /// The coordinator-side transaction id (the one reported in
    /// [`CommitInfo`]).
    id: TxId,
    process: ProcessId,
    /// The clock reading every shard sub-transaction is pinned to, so all
    /// participants of one transaction reason from the same timestamp base.
    base: Timestamp,
    /// The open sub-transaction of each shard, by shard index.
    subs: Vec<Option<S::Txn>>,
    /// The write set the log records, last value per key; empty when the
    /// store has no log.
    writes: Vec<(Key, V)>,
    poisoned: bool,
    /// Ticket in the coordinator's active-transaction registry; taken back
    /// when the transaction is committed or aborted.
    gc_pin: Option<TxnPin>,
}

impl<V, S: TransactionalKV<V>> RoutedTxn<'_, V, S> {
    fn check_live(&self) -> Result<(), TxError> {
        if self.poisoned {
            Err(TxError::TransactionFinished)
        } else {
            Ok(())
        }
    }

    /// Runs `op` on the sub-transaction of the shard `key` routes to,
    /// opening it (pinned at the base timestamp) on first access. A shard
    /// that fails an operation has released its own state; the rest are
    /// released eagerly rather than waiting for the caller's abort.
    fn on_shard<T>(
        &mut self,
        key: Key,
        op: impl FnOnce(&S, &mut S::Txn) -> Result<T, TxError>,
    ) -> Result<T, TxError> {
        self.check_live()?;
        let index = self.store.shard_of(key);
        let shard: &S = &self.store.shards.list[index];
        let (process, base) = (self.process, self.base);
        let txn = self.subs[index].get_or_insert_with(|| shard.begin_at(process, Some(base)));
        op(shard, txn).inspect_err(|_| {
            self.poisoned = true;
            self.abort_subs();
        })
    }

    fn abort_subs(&mut self) {
        for (shard, sub) in self.store.shards.list.iter().zip(&mut self.subs) {
            if let Some(txn) = sub.take() {
                shard.abort(txn);
            }
        }
    }

    /// Releases the coordinator pin.
    fn unpin(&mut self) {
        if let Some(pin) = self.gc_pin.take() {
            self.store.shards.active.deregister(pin);
        }
    }
}

impl<V, S> TxHandle<V> for RoutedTxn<'_, V, S>
where
    V: WalValue + Clone + Send,
    S: TransactionalKV<V>,
{
    fn read(&mut self, key: Key) -> Result<Option<V>, TxError> {
        self.on_shard(key, |shard, txn| shard.read(txn, key))
    }

    fn write(&mut self, key: Key, value: V) -> Result<(), TxError> {
        if self.store.log.is_some() {
            record_write(&mut self.writes, key, value.clone());
        }
        self.on_shard(key, |shard, txn| shard.write(txn, key, value))
    }

    fn commit(mut self: Box<Self>) -> Result<CommitInfo, TxError> {
        // The coordinator pin only has to cover the window in which new
        // sub-transactions can still open; from here on every touched shard
        // holds its own (shard-level) pin, so release before coordinating.
        self.unpin();
        self.check_live()?;
        let mut participants: Vec<(usize, S::Txn)> = self
            .subs
            .iter_mut()
            .enumerate()
            .filter_map(|(shard, sub)| sub.take().map(|txn| (shard, txn)))
            .collect();
        let writes = std::mem::take(&mut self.writes);
        if participants.len() > 1 {
            return self.store.commit_cross_shard(self.id, participants, writes);
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
            Some((shard, txn)) => self
                .store
                .commit_one(&self.store.shards.list[shard], txn, writes)
                .map(|mut info| {
                    info.tx = self.id;
                    info
                }),
        }
    }

    fn abort(self: Box<Self>) {
        // Dropping an open transaction aborts it.
    }
}

impl<V, S: TransactionalKV<V>> Drop for RoutedTxn<'_, V, S> {
    fn drop(&mut self) {
        self.unpin();
        self.abort_subs();
    }
}

impl<V, S> Engine<V> for ShardedStore<S>
where
    V: WalValue + Clone + Send + Sync + 'static,
    S: TransactionalKV<V> + 'static,
{
    fn begin_handle(
        &self,
        process: ProcessId,
        pinned: Option<Timestamp>,
    ) -> Box<dyn TxHandle<V> + '_> {
        if let [shard] = self.shards.list.as_slice() {
            return Box::new(ShardTxn {
                store: self,
                shard: &**shard,
                txn: Some(shard.begin_at(process, pinned)),
                writes: Vec::new(),
            });
        }
        // One clock reading per transaction, shared by all its shards: this
        // is the client-side policy state of §7, split across participants
        // (and it is what lets point-timestamp policies like MVTL-TO agree
        // on a commit timestamp across shards).
        // The coordinator pin is claimed before the clock is read, so no
        // sweep purges past the reading.
        let gc_pin = self.shards.active.register(process, || {
            pinned.unwrap_or_else(|| self.clock.timestamp(process))
        });
        Box::new(RoutedTxn {
            store: self,
            id: TxId::fresh(),
            process,
            base: gc_pin.timestamp(),
            subs: (0..self.shard_count()).map(|_| None).collect(),
            writes: Vec::new(),
            poisoned: false,
            gc_pin: Some(gc_pin),
        })
    }

    fn name(&self) -> &'static str {
        self.name
    }

    /// Aggregate state-size statistics summed across all shards.
    fn stats(&self) -> StoreStats {
        self.shard_stats()
            .into_iter()
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

#[cfg(test)]
mod tests {
    use super::*;
    use mvtl_clock::GlobalClock;
    use mvtl_common::{EngineExt, TempDir};
    use mvtl_core::policy::MvtilPolicy;
    use mvtl_wal::WalOptions;
    use std::path::Path;

    type Store = ShardedStore<MvtlStore<u64, MvtilPolicy>>;

    /// A one-shard MVTIL store rebuilt from the log in `dir`, and the number
    /// of commits it replayed.
    fn open(dir: &Path) -> (Store, usize) {
        let (log, recovery) = Wal::open::<u64>(dir, WalOptions::default()).expect("log opens");
        let start = recovery.max_commit_ts().map_or(1, |ts| ts.value + 1);
        let replayed = recovery.records.len();
        let clock = Arc::new(GlobalClock::starting_at(start));
        let store = ShardedStore::with_policy(
            1,
            clock,
            MvtlConfig::default(),
            IntersectionPick::Min,
            |_| MvtilPolicy::early(1000),
        );
        (store.with_log(log, recovery).expect("replay"), replayed)
    }

    fn commit(store: &Store, writes: &[(u64, u64)]) -> CommitInfo {
        let mut txn = store.begin(ProcessId(0));
        for &(key, value) in writes {
            txn.write(Key(key), value).unwrap();
        }
        txn.commit().unwrap()
    }

    fn read_committed(store: &Store, key: u64) -> Option<u64> {
        let mut txn = store.begin(ProcessId(9));
        let value = txn.read(Key(key)).unwrap();
        txn.commit().unwrap();
        value
    }

    #[test]
    fn committed_writes_survive_a_crash() {
        let dir = TempDir::new("store-log-crash");
        let (store, replayed) = open(dir.path());
        assert_eq!(replayed, 0);
        let ts = commit(&store, &[(1, 11), (2, 22)]).commit_ts.unwrap();
        drop(store); // crash: all in-memory versions are gone

        let (store, replayed) = open(dir.path());
        assert_eq!(replayed, 1);
        let mut txn = store.begin(ProcessId(0));
        assert_eq!(txn.read(Key(1)).unwrap(), Some(11));
        assert_eq!(txn.read(Key(2)).unwrap(), Some(22));
        // The recovered versions kept their original timestamp.
        assert_eq!(txn.commit().unwrap().reads, [(Key(1), ts), (Key(2), ts)]);
    }

    #[test]
    fn aborted_and_uncommitted_transactions_do_not_resurrect() {
        let dir = TempDir::new("store-log-abort");
        let (store, _) = open(dir.path());
        commit(&store, &[(1, 1)]);
        let mut aborted = store.begin(ProcessId(0));
        aborted.write(Key(2), 2).unwrap();
        aborted.abort();
        let mut in_flight = store.begin(ProcessId(0));
        in_flight.write(Key(3), 3).unwrap();
        drop(in_flight);
        drop(store);

        let (store, replayed) = open(dir.path());
        assert_eq!(replayed, 1);
        let values: Vec<_> = (1..=3).map(|key| read_committed(&store, key)).collect();
        assert_eq!(values, [Some(1), None, None]);
    }

    #[test]
    fn last_write_per_key_wins_within_a_transaction() {
        let dir = TempDir::new("store-log-upsert");
        let (store, _) = open(dir.path());
        commit(&store, &[(1, 1), (1, 2), (4, 40), (1, 3)]);
        drop(store);
        let (store, _) = open(dir.path());
        assert_eq!(read_committed(&store, 1), Some(3));
        assert_eq!(read_committed(&store, 4), Some(40));
    }

    #[test]
    fn read_only_commits_log_nothing() {
        let dir = TempDir::new("store-log-ro");
        let (store, _) = open(dir.path());
        assert_eq!(read_committed(&store, 1), None);
        drop(store);
        assert_eq!(open(dir.path()).1, 0);
    }
}
