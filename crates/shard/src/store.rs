//! The partitioned engine and its cross-shard commit coordinator.

use crate::backend::{PreparedShardTxn, ShardBackend, ShardTxn};
use mvtl_clock::ClockSource;
use mvtl_common::{
    AbortReason, ActiveTxnRegistry, CommitInfo, Key, ProcessId, StoreStats, Timestamp,
    TransactionalKV, TsSet, TxError, TxId, TxnPin,
};
use mvtl_core::policy::LockingPolicy;
use mvtl_core::MvtlConfig;
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

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
/// `ShardedStore` implements [`TransactionalKV`], so the blanket impl in
/// `mvtl-common` gives it the object-safe `Engine` surface. It is the one
/// composition seam of the `mvtl-registry` crate: every spec builds one,
/// `"sharded?shards=8&inner=mvtil-early"` with eight shards and every other
/// spec (`"mvtil-early"`, `"mvto+"`, ...) with one, which behaves exactly
/// like the bare engine (see [`ShardedTxn`]).
///
/// # Why timestamp locks compose
///
/// Object locks give each server only a *yes/no* answer at commit time;
/// timestamp locks give an *interval*, and intervals can be intersected.
/// That is the paper's headline claim ("locking timestamps composes across
/// servers"), executed here with real threads rather than in the
/// discrete-event simulator of `mvtl-sim`.
pub struct ShardedStore<V> {
    shards: Vec<Arc<dyn ShardBackend<V>>>,
    clock: Arc<dyn ClockSource>,
    pick: IntersectionPick,
    /// What [`TransactionalKV::name`] reports.
    name: &'static str,
    /// Coordinator-level registry: a multi-shard transaction is pinned at
    /// its base timestamp from `begin` until commit/abort, covering the
    /// window before its lazily opened sub-transactions register with the
    /// shard-level registries (and any shard it never touches).
    active: ActiveTxnRegistry,
    /// How long the coordinator waits for all participants' `prepare`
    /// responses before resolving the commit by presumed abort. `None`
    /// (the default) runs prepares inline with no timeout — the friendly-
    /// machine fast path with zero threading overhead.
    commit_timeout: Option<Duration>,
}

/// The coordinator's view of one participant's in-flight `prepare` when a
/// commit timeout is armed: the helper thread and the coordinator race for
/// the slot, and whoever loses the race is responsible for aborting an
/// undecided prepared sub-transaction (the presumed-abort rule).
enum PrepareSlot<V> {
    /// The helper thread has not delivered yet.
    Pending,
    /// The helper delivered its prepare result; the coordinator takes it.
    Delivered(Result<Box<dyn PreparedShardTxn<V>>, TxError>),
    /// The coordinator gave up (timeout or another shard's failure) before
    /// delivery: a late-arriving successful prepare must abort itself.
    Abandoned,
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
            shards,
            clock,
            pick,
            name: "sharded",
            active: ActiveTxnRegistry::new(),
            commit_timeout: None,
        }
    }

    /// Names the store (default `"sharded"`): the registry names a one-shard
    /// store after the engine it wraps.
    #[must_use]
    pub fn with_name(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// Arms the coordinator's prepare timeout: a cross-shard commit whose
    /// participants have not all answered `prepare` within `timeout` is
    /// resolved by **presumed abort** — every delivered prepared
    /// sub-transaction is aborted, undelivered ones abort themselves on
    /// arrival, and the commit fails with
    /// [`AbortReason::PrepareTimedOut`]. Without a timeout (the default)
    /// prepares run inline and a stalled shard blocks the commit
    /// indefinitely.
    #[must_use]
    pub fn with_commit_timeout(mut self, timeout: Duration) -> Self {
        self.commit_timeout = Some(timeout);
        self
    }

    /// The armed coordinator prepare timeout, if any.
    #[must_use]
    pub fn commit_timeout(&self) -> Option<Duration> {
        self.commit_timeout
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
        self.shards.len()
    }

    /// The shard index `key` routes to.
    #[must_use]
    pub fn shard_of(&self, key: Key) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    /// Any key that routes to `shard` — handy for tests and examples that
    /// need keys on specific shards. Scans upward from `start`.
    #[must_use]
    pub fn key_on_shard(&self, shard: usize, start: u64) -> Key {
        (start..)
            .map(Key)
            .find(|k| self.shard_of(*k) == shard % self.shards.len())
            .expect("hash routing reaches every shard")
    }

    /// Aggregate state-size statistics summed across all shards.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.shards
            .iter()
            .map(|s| s.stats())
            .fold(StoreStats::default(), StoreStats::merge)
    }

    /// Per-shard state-size statistics, in shard order.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<StoreStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    /// Purges versions and lock state older than `bound` on every shard.
    /// Returns the totals `(versions_removed, lock_entries_removed)`.
    pub fn purge_below(&self, bound: Timestamp) -> (usize, usize) {
        let mut versions = 0;
        let mut locks = 0;
        for shard in &self.shards {
            let (v, l) = shard.purge_below(bound);
            versions += v;
            locks += l;
        }
        (versions, locks)
    }

    /// The GC low watermark: the minimum over the coordinator-level registry
    /// (every open multi-shard transaction is pinned at its base timestamp
    /// from `begin` to commit/abort — sub-transactions open *lazily*, so the
    /// shard-level registries alone would leave a begun-but-idle transaction
    /// unprotected) and every shard's own watermark. One sweep below this
    /// bound is safe on every shard.
    #[must_use]
    pub fn low_watermark(&self) -> Option<Timestamp> {
        self.active
            .low_watermark()
            .into_iter()
            .chain(self.shards.iter().filter_map(|s| s.low_watermark()))
            .min()
    }

    /// Phase 1 without a timeout: prepare participants inline, one after the
    /// other. A failing shard has already released its own state; the
    /// coordinator releases everyone else's.
    fn prepare_inline(
        participants: Vec<(usize, Box<dyn ShardTxn<V>>)>,
    ) -> Result<Vec<Box<dyn PreparedShardTxn<V>>>, TxError> {
        let mut prepared: Vec<Box<dyn PreparedShardTxn<V>>> =
            Vec::with_capacity(participants.len());
        let mut participants = participants.into_iter();
        for (_, sub) in participants.by_ref() {
            match sub.prepare() {
                Ok(p) => prepared.push(p),
                Err(err) => {
                    for p in prepared {
                        p.abort();
                    }
                    for (_, sub) in participants {
                        sub.abort();
                    }
                    return Err(err);
                }
            }
        }
        Ok(prepared)
    }

    /// Phase 1 with a timeout: prepares run on helper threads and the
    /// coordinator collects responses until `timeout` elapses. Recovery is
    /// **presumed abort** — on timeout (or any shard's prepare failing) every
    /// delivered prepared sub-transaction is aborted and every undelivered
    /// slot is marked [`PrepareSlot::Abandoned`], so a late-arriving
    /// successful prepare aborts itself instead of stranding frozen locks.
    /// Every prepared sub-transaction therefore receives an *explicit*
    /// decision: nothing is leaked, nothing is dropped undecided.
    fn prepare_with_timeout(
        participants: Vec<(usize, Box<dyn ShardTxn<V>>)>,
        timeout: Duration,
    ) -> Result<Vec<Box<dyn PreparedShardTxn<V>>>, TxError> {
        let count = participants.len();
        let shard_ids: Vec<usize> = participants.iter().map(|(shard, _)| *shard).collect();
        let slots: Vec<Arc<Mutex<PrepareSlot<V>>>> = (0..count)
            .map(|_| Arc::new(Mutex::named("shard.prepare_slot", 40, PrepareSlot::Pending)))
            .collect();
        let (done_tx, done_rx) = mpsc::channel::<usize>();
        for (idx, (_, sub)) in participants.into_iter().enumerate() {
            let slot = Arc::clone(&slots[idx]);
            let done = done_tx.clone();
            thread::spawn(move || {
                let result = sub.prepare();
                let mut state = slot.lock();
                if matches!(*state, PrepareSlot::Abandoned) {
                    // The coordinator already resolved the commit by
                    // presumed abort; release this late prepare's locks.
                    drop(state);
                    if let Ok(p) = result {
                        p.abort();
                    }
                } else {
                    *state = PrepareSlot::Delivered(result);
                    drop(state);
                    let _ = done.send(idx);
                }
            });
        }
        drop(done_tx);

        let deadline = Instant::now() + timeout;
        let mut prepared: Vec<Option<Box<dyn PreparedShardTxn<V>>>> =
            (0..count).map(|_| None).collect();
        let mut remaining = count;
        let mut failure: Option<TxError> = None;
        while remaining > 0 {
            let timed_out = |slots: &[Arc<Mutex<PrepareSlot<V>>>]| {
                // Name a shard that had not answered when the timeout fired.
                let shard = slots
                    .iter()
                    .position(|s| matches!(*s.lock(), PrepareSlot::Pending))
                    .map_or(0, |idx| shard_ids[idx]);
                TxError::aborted(AbortReason::PrepareTimedOut {
                    shard: shard as u32,
                })
            };
            let Some(wait) = deadline.checked_duration_since(Instant::now()) else {
                failure = Some(timed_out(&slots));
                break;
            };
            match done_rx.recv_timeout(wait) {
                Ok(idx) => {
                    let state = std::mem::replace(&mut *slots[idx].lock(), PrepareSlot::Pending);
                    match state {
                        PrepareSlot::Delivered(Ok(p)) => {
                            prepared[idx] = Some(p);
                            remaining -= 1;
                        }
                        PrepareSlot::Delivered(Err(err)) => {
                            failure = Some(err);
                            break;
                        }
                        _ => {
                            failure = Some(TxError::Internal(
                                "prepare slot signalled without a delivery".into(),
                            ));
                            break;
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    failure = Some(timed_out(&slots));
                    break;
                }
                Err(RecvTimeoutError::Disconnected) => {
                    failure = Some(TxError::Internal(
                        "prepare worker vanished before delivering".into(),
                    ));
                    break;
                }
            }
        }

        if let Some(err) = failure {
            // Presumed abort: explicitly abort everything delivered, and
            // abandon every other slot so its helper aborts on arrival.
            for p in prepared.iter_mut().filter_map(Option::take) {
                p.abort();
            }
            for slot in &slots {
                let state = std::mem::replace(&mut *slot.lock(), PrepareSlot::Abandoned);
                if let PrepareSlot::Delivered(Ok(p)) = state {
                    p.abort();
                }
            }
            return Err(err);
        }
        Ok(prepared
            .into_iter()
            .map(|p| p.expect("all slots delivered on success"))
            .collect())
    }

    /// The §7 coordinator: prepare every participant, intersect the frozen
    /// intervals, then commit everywhere at one common timestamp — or abort
    /// everywhere when the intersection is empty.
    fn commit_cross_shard(
        &self,
        tx: TxId,
        participants: Vec<(usize, Box<dyn ShardTxn<V>>)>,
    ) -> Result<CommitInfo, TxError> {
        // Phase 1: freeze each participant's interval — inline on the
        // friendly path, with timeout + presumed-abort recovery when armed.
        let prepared = match self.commit_timeout {
            None => Self::prepare_inline(participants)?,
            Some(timeout) => Self::prepare_with_timeout(participants, timeout)?,
        };

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

/// A transaction on a [`ShardedStore`].
///
/// On a one-shard store it *is* the shard's transaction, opened at `begin`
/// with the caller's pin: no routing, no coordinator pin, nothing to
/// coordinate, so the store behaves exactly like the bare engine. On a
/// multi-shard store, shard sub-transactions open lazily on first access, so
/// a transaction that happens to touch one shard pays no coordination cost
/// and commits through the shard policy's own timestamp pick.
pub struct ShardedTxn<V>(Route<V>);

enum Route<V> {
    /// The only shard's transaction.
    Direct(Box<dyn ShardTxn<V>>),
    /// A multi-shard transaction.
    Routed(RoutedTxn<V>),
}

struct RoutedTxn<V> {
    /// The coordinator-side transaction id (the one reported in
    /// [`CommitInfo`]).
    id: TxId,
    process: ProcessId,
    /// The clock reading every shard sub-transaction is pinned to, so all
    /// participants of one transaction reason from the same timestamp base.
    base: Timestamp,
    subs: Vec<Option<Box<dyn ShardTxn<V>>>>,
    poisoned: bool,
    /// Ticket in the coordinator's active-transaction registry; taken back
    /// when the transaction is committed or aborted.
    gc_pin: Option<TxnPin>,
}

impl<V> ShardedTxn<V> {
    /// The clock reading shared by every shard sub-transaction, or `None` on
    /// a one-shard store (its only shard reads the clock itself).
    #[must_use]
    pub fn base_timestamp(&self) -> Option<Timestamp> {
        match &self.0 {
            Route::Direct(_) => None,
            Route::Routed(txn) => Some(txn.base),
        }
    }

    /// The shard indexes this transaction has touched so far.
    #[must_use]
    pub fn touched_shards(&self) -> Vec<usize> {
        match &self.0 {
            Route::Direct(_) => vec![0],
            Route::Routed(txn) => txn
                .subs
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.as_ref().map(|_| i))
                .collect(),
        }
    }
}

impl<V> RoutedTxn<V> {
    fn check_live(&self) -> Result<(), TxError> {
        if self.poisoned {
            Err(TxError::TransactionFinished)
        } else {
            Ok(())
        }
    }

    /// The sub-transaction on `shard`, opened (pinned at the base timestamp)
    /// on first access.
    fn sub(&mut self, shards: &[Arc<dyn ShardBackend<V>>], shard: usize) -> &mut dyn ShardTxn<V> {
        let (process, base) = (self.process, self.base);
        self.subs[shard]
            .get_or_insert_with(|| shards[shard].begin(process, Some(base)))
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
}

impl<V> TransactionalKV<V> for ShardedStore<V>
where
    V: Clone + Send + Sync + 'static,
{
    type Txn = ShardedTxn<V>;

    fn begin_at(&self, process: ProcessId, pinned: Option<Timestamp>) -> Self::Txn {
        if let [shard] = self.shards.as_slice() {
            return ShardedTxn(Route::Direct(shard.begin(process, pinned)));
        }
        // One clock reading per transaction, shared by all its shards: this
        // is the client-side policy state of §7, split across participants
        // (and it is what lets point-timestamp policies like MVTL-TO agree
        // on a commit timestamp across shards).
        let base = pinned.unwrap_or_else(|| self.clock.timestamp(process));
        ShardedTxn(Route::Routed(RoutedTxn {
            id: TxId::fresh(),
            process,
            base,
            subs: (0..self.shards.len()).map(|_| None).collect(),
            poisoned: false,
            gc_pin: Some(self.active.register(base)),
        }))
    }

    fn read(&self, txn: &mut Self::Txn, key: Key) -> Result<Option<V>, TxError> {
        match &mut txn.0 {
            Route::Direct(sub) => sub.read(key),
            Route::Routed(txn) => {
                txn.check_live()?;
                let shard = self.shard_of(key);
                txn.sub(&self.shards, shard)
                    .read(key)
                    .or_else(|err| txn.fail(err))
            }
        }
    }

    fn write(&self, txn: &mut Self::Txn, key: Key, value: V) -> Result<(), TxError> {
        match &mut txn.0 {
            Route::Direct(sub) => sub.write(key, value),
            Route::Routed(txn) => {
                txn.check_live()?;
                let shard = self.shard_of(key);
                txn.sub(&self.shards, shard)
                    .write(key, value)
                    .or_else(|err| txn.fail(err))
            }
        }
    }

    /// The batch-native sharded read: the batch is grouped by shard and each
    /// participating shard serves its whole group in **one**
    /// [`ShardTxn::read_many`] round, so an N-key batch costs O(shards)
    /// coordination instead of O(keys). Sub-transactions still open lazily —
    /// only shards that actually own batch keys are touched.
    fn read_many(&self, txn: &mut Self::Txn, keys: &[Key]) -> Result<Vec<Option<V>>, TxError> {
        let txn = match &mut txn.0 {
            Route::Direct(sub) => return sub.read_many(keys),
            Route::Routed(txn) => txn,
        };
        txn.check_live()?;
        // Group key positions by shard, preserving input order within each
        // group so results scatter back into place.
        let mut groups: Vec<(Vec<Key>, Vec<usize>)> =
            vec![(Vec::new(), Vec::new()); self.shards.len()];
        for (pos, key) in keys.iter().enumerate() {
            let (shard_keys, positions) = &mut groups[self.shard_of(*key)];
            shard_keys.push(*key);
            positions.push(pos);
        }
        let mut out: Vec<Option<V>> = vec![None; keys.len()];
        for (shard, (shard_keys, positions)) in groups.into_iter().enumerate() {
            if shard_keys.is_empty() {
                continue;
            }
            match txn.sub(&self.shards, shard).read_many(&shard_keys) {
                Ok(values) => {
                    for (pos, value) in positions.into_iter().zip(values) {
                        out[pos] = value;
                    }
                }
                Err(err) => return txn.fail(err),
            }
        }
        Ok(out)
    }

    /// The batch-native sharded write: one [`ShardTxn::write_many`] round per
    /// participating shard (same O(shards) argument as
    /// [`read_many`](TransactionalKV::read_many); order within a shard group
    /// is preserved, so last-value-wins semantics match sequential writes).
    fn write_many(&self, txn: &mut Self::Txn, entries: Vec<(Key, V)>) -> Result<(), TxError> {
        let txn = match &mut txn.0 {
            Route::Direct(sub) => return sub.write_many(entries),
            Route::Routed(txn) => txn,
        };
        txn.check_live()?;
        let mut groups: Vec<Vec<(Key, V)>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (key, value) in entries {
            groups[self.shard_of(key)].push((key, value));
        }
        for (shard, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            if let Err(err) = txn.sub(&self.shards, shard).write_many(group) {
                return txn.fail(err);
            }
        }
        Ok(())
    }

    fn commit(&self, txn: Self::Txn) -> Result<CommitInfo, TxError> {
        let mut txn = match txn.0 {
            Route::Direct(sub) => return sub.commit(),
            Route::Routed(txn) => txn,
        };
        // The coordinator pin only has to cover the window in which new
        // sub-transactions can still open; from here on every touched shard
        // holds its own (shard-level) pin, so release before coordinating.
        if let Some(pin) = txn.gc_pin.take() {
            self.active.deregister(pin);
        }
        txn.check_live()?;
        let mut participants: Vec<(usize, Box<dyn ShardTxn<V>>)> = txn
            .subs
            .iter_mut()
            .enumerate()
            .filter_map(|(shard, sub)| sub.take().map(|sub| (shard, sub)))
            .collect();
        match participants.len() {
            // A transaction that touched nothing commits trivially.
            0 => Ok(CommitInfo {
                tx: txn.id,
                commit_ts: None,
                reads: Vec::new(),
                writes: Vec::new(),
            }),
            // Single-shard fast path: the shard policy picks the timestamp,
            // exactly as in the non-partitioned engine.
            1 => participants
                .pop()
                .expect("one participant")
                .1
                .commit()
                .map(|mut info| {
                    info.tx = txn.id;
                    info
                }),
            _ => self.commit_cross_shard(txn.id, participants),
        }
    }

    fn abort(&self, txn: Self::Txn) {
        let mut txn = match txn.0 {
            Route::Direct(sub) => return sub.abort(),
            Route::Routed(txn) => txn,
        };
        if let Some(pin) = txn.gc_pin.take() {
            self.active.deregister(pin);
        }
        txn.abort_subs();
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn stats(&self) -> StoreStats {
        ShardedStore::stats(self)
    }

    fn purge_below(&self, bound: Timestamp) -> (usize, usize) {
        ShardedStore::purge_below(self, bound)
    }

    fn low_watermark(&self) -> Option<Timestamp> {
        ShardedStore::low_watermark(self)
    }
}
