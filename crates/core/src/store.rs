//! The MVTL storage engine (Algorithm 1).

use crate::cell::{CoreStripe, KeyData};
use crate::policy::{LockingPolicy, PolicyCtx, ReadGrant};
use crate::txn::{MvtlTransaction, TxState};
use crate::MvtlConfig;
use mvtl_clock::ClockSource;
use mvtl_common::{
    AbortReason, ActiveTxnRegistry, CommitInfo, Key, LockMode, PreparedTxn, ProcessId, StoreStats,
    Timestamp, TransactionalKV, TsRange, TsSet, TxError, TxStatus,
};
use mvtl_locks::ReadRequest;
use mvtl_storage::{ChainArena, StripedTable};
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// Stripes of the key → cell table, each behind its own latch.
const STRIPES: usize = 64;

/// The generic MVTL storage engine, parameterized by a [`LockingPolicy`].
///
/// `V` is the value type stored in versions. The engine is safe to share across
/// threads (`&self` methods take per-stripe latches internally), mirroring the
/// multi-threaded server of the paper's implementation (§8.1).
///
/// Key state lives in striped maps, one dense record per key: an operation
/// routes to a stripe, takes that stripe's mutex, and works on the record in
/// place — there is no per-key `Arc`, no shard rwlock in front of a per-key
/// mutex, and version storage beyond a small inline capacity comes from a
/// per-stripe arena of recycled buffers.
pub struct MvtlStore<V, P> {
    policy: P,
    clock: Arc<dyn ClockSource>,
    config: MvtlConfig,
    cells: StripedTable<CoreStripe<V>>,
    /// In-flight transactions and the lowest timestamp each may still anchor
    /// a read on; its minimum is the store's GC [low
    /// watermark](MvtlStore::low_watermark).
    active: ActiveTxnRegistry,
}

impl<V, P> MvtlStore<V, P>
where
    V: Clone + Send + Sync + 'static,
    P: LockingPolicy,
{
    /// Creates a store with the given policy, clock source and configuration.
    #[must_use]
    pub fn new(policy: P, clock: Arc<dyn ClockSource>, config: MvtlConfig) -> Self {
        let cells = StripedTable::build(STRIPES, |stripe| {
            Mutex::named("core.store.stripe", 60, stripe)
        });
        MvtlStore {
            policy,
            clock,
            config,
            cells,
            active: ActiveTxnRegistry::new(),
        }
    }

    /// The policy driving this store.
    #[must_use]
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &MvtlConfig {
        &self.config
    }

    /// Runs `f` on `key`'s cell (created when absent) and the stripe's arena
    /// under the stripe latch, then wakes the stripe's waiters once the latch
    /// is released — for operations that release or freeze locks, or install
    /// versions.
    #[inline]
    fn with_cell_notify<R>(
        &self,
        key: Key,
        f: impl FnOnce(&mut KeyData<V>, &mut ChainArena<V>) -> R,
    ) -> R {
        let stripe = self.cells.stripe_for(key);
        let result = {
            let mut guard = stripe.data.lock();
            let CoreStripe { map, arena, .. } = &mut *guard;
            f(map.get_or_insert_with(key, KeyData::default), arena)
        };
        stripe.notify();
        result
    }

    /// Begins a transaction, optionally pinning the clock value it observes and
    /// optionally marking it critical (MVTL-Prio §5.2).
    pub fn begin_with(
        &self,
        process: ProcessId,
        pinned: Option<Timestamp>,
        priority: bool,
    ) -> MvtlTransaction<V> {
        let mut state = TxState::new(process, pinned);
        state.priority = priority;
        // Register the transaction with the GC watermark. The slot is claimed
        // before the policy reads the clock, so no sweep purges past the
        // reading. The pin must not exceed any timestamp the transaction
        // might anchor a read on, so take the minimum of everything the
        // policy set up at init: its start timestamp and its candidate set
        // (ε-clock reaches ε below "now", MVTL-Pref can carry negative
        // offsets).
        let pin = self.active.register(process, || {
            self.policy.init(self, &mut state);
            let mut pin_ts = state.start_ts.or(pinned).unwrap_or(Timestamp::MAX);
            if let Some(lo) = state.ts_set.min() {
                pin_ts = pin_ts.min(lo);
            }
            if pin_ts == Timestamp::MAX {
                // No policy hint at all: fall back to a fresh clock reading.
                pin_ts = self.clock.timestamp(process);
            }
            pin_ts
        });
        state.gc_pin = Some(pin);
        MvtlTransaction::new(state)
    }

    /// Begins a critical (high-priority) transaction; only meaningful with
    /// [`crate::policy::PrioPolicy`].
    pub fn begin_critical(&self, process: ProcessId) -> MvtlTransaction<V> {
        self.begin_with(process, None, true)
    }

    /// Reads `key` within the transaction (Algorithm 1, `read`).
    ///
    /// Returns the transaction's own buffered write if it previously wrote the
    /// key, otherwise the committed version selected by the policy, or `None`
    /// for the initial `⊥` version.
    ///
    /// One stripe latch per read: every policy reads through exactly one
    /// [`PolicyCtx::acquire_read_interval`], which clones the anchored
    /// version's value under the latch that anchored it. A concurrent purge
    /// therefore cannot remove the version between the anchor and the fetch;
    /// a purged anchor is refused up front with `VersionPurged`.
    ///
    /// # Errors
    ///
    /// Returns an abort error if the policy could not acquire the read locks it
    /// needs; the transaction is aborted in that case.
    pub fn read(&self, txn: &mut MvtlTransaction<V>, key: Key) -> Result<Option<V>, TxError> {
        if !txn.state.is_active() {
            return Err(TxError::TransactionFinished);
        }
        if let Some(v) = txn.pending_write(key) {
            return Ok(Some(v.clone()));
        }
        let ctx = ReadCtx {
            store: self,
            anchored: Cell::new(None),
        };
        let result = match self.policy.read_locks(&ctx, &mut txn.state, key) {
            // The grant recorded the read on the key's record.
            Ok(version) => match ctx.anchored.into_inner() {
                Some((anchored, value)) if anchored == version => return Ok(value),
                _ => Err(TxError::Internal(format!(
                    "{} read {key} at {version} without anchoring on it",
                    self.policy.name()
                ))),
            },
            Err(err) => Err(err),
        };
        self.abort_internal(&mut txn.state);
        result
    }

    /// Writes `value` to `key` within the transaction (Algorithm 1, `write`).
    /// The value stays buffered in the transaction until commit.
    ///
    /// # Errors
    ///
    /// Returns an abort error if the policy acquires write locks eagerly and
    /// fails; the transaction is aborted in that case.
    pub fn write(&self, txn: &mut MvtlTransaction<V>, key: Key, value: V) -> Result<(), TxError> {
        if !txn.state.is_active() {
            return Err(TxError::TransactionFinished);
        }
        match self.policy.write_locks(self, &mut txn.state, key) {
            Ok(()) => {
                txn.buffer_write(key, value);
                Ok(())
            }
            Err(err) => {
                self.abort_internal(&mut txn.state);
                Err(err)
            }
        }
    }

    /// Attempts to commit the transaction (Algorithm 1, `commit`).
    ///
    /// # Errors
    ///
    /// Returns an abort error when no single timestamp is locked across all
    /// accessed keys (line 14), or when the policy's commit-time locking fails.
    pub fn commit(&self, mut txn: MvtlTransaction<V>) -> Result<CommitInfo, TxError> {
        if !txn.state.is_active() {
            return Err(TxError::TransactionFinished);
        }
        if let Err(err) = self.policy.commit_locks(self, &mut txn.state) {
            self.abort_internal(&mut txn.state);
            return Err(err);
        }
        // Line 13: find the timestamps locked across every accessed key.
        let candidates = txn.state.commit_candidates();
        let chosen = if candidates.is_empty() {
            None
        } else {
            self.policy.commit_ts(&txn.state, &candidates)
        };
        let commit_ts = match chosen {
            Some(t) if candidates.contains(t) => t,
            _ => {
                self.abort_internal(&mut txn.state);
                return Err(TxError::aborted(AbortReason::NoCommonTimestamp));
            }
        };
        Ok(self.finish_commit(&mut txn, commit_ts))
    }

    /// The commit tail shared by [`MvtlStore::commit`] and a prepared
    /// transaction's [`PreparedTxn::commit_at`]: installs versions (each one
    /// the frozen write lock at `commit_ts`), turns the read locks the policy
    /// keeps into read runs on the versions read and releases every live
    /// lock. `commit_ts` must be a member of the transaction's commit
    /// candidates.
    ///
    /// One pass over the transaction's records, one stripe latch per key
    /// that holds a lock or a written value; a record's value sits at its
    /// index, so no key is searched for.
    fn finish_commit(&self, txn: &mut MvtlTransaction<V>, commit_ts: Timestamp) -> CommitInfo {
        // Line 21: optional garbage collection (Algorithm 1, `gc`).
        let gc = self.policy.commit_gc(&txn.state);
        let MvtlTransaction { state: tx, values } = txn;
        for (index, record) in tx.records().iter().enumerate() {
            let value = values.get_mut(index).and_then(Option::take);
            if value.is_none() && !record.holds_locks() {
                continue;
            }
            // Lines 17-21 under one latch, so observers never see a
            // committed version without its frozen read runs.
            self.with_cell_notify(record.key(), |data, arena| {
                let read = record.read_locks();
                data.commit(tx.id, commit_ts, value, read.as_slice(), gc, arena);
            });
        }
        tx.status = TxStatus::Committed;
        tx.commit_ts = Some(commit_ts);
        if let Some(pin) = tx.gc_pin.take() {
            self.active.deregister(pin);
        }
        CommitInfo {
            tx: tx.id,
            commit_ts: Some(commit_ts),
            reads: tx.take_reads(),
            writes: tx.take_written_keys(),
        }
    }

    /// Aborts the transaction, releasing its locks according to the policy.
    pub fn abort(&self, mut txn: MvtlTransaction<V>) {
        if txn.state.is_active() {
            self.abort_internal(&mut txn.state);
        }
    }

    fn abort_internal(&self, tx: &mut TxState) {
        let keep_reads = !self.policy.release_read_locks_on_abort();
        for record in tx.records().iter().filter(|record| record.holds_locks()) {
            // A policy emulating MVTO+ keeps its read locks, as read runs.
            let read = record.read_locks();
            let kept = if keep_reads { read.as_slice() } else { &[] };
            self.with_cell_notify(record.key(), |data, _| data.abort(tx.id, kept));
        }
        tx.status = TxStatus::Aborted;
        if let Some(pin) = tx.gc_pin.take() {
            self.active.deregister(pin);
        }
    }

    /// [`PolicyCtx::acquire_read_interval`], also returning the anchored
    /// version's value (`None` for `⊥`), cloned under the stripe latch that
    /// anchored it.
    fn read_interval(
        &self,
        tx: &mut TxState,
        key: Key,
        anchor_below: Timestamp,
        mut upper: Timestamp,
        wait: bool,
    ) -> Result<(ReadGrant, Option<V>), TxError> {
        let stripe = self.cells.stripe_for(key);
        // Set at the first wait: a grant that never waits reads no clock.
        let mut deadline = None;
        let mut guard = stripe.data.lock();
        loop {
            // Re-probe the cell each iteration: waiting releases the latch,
            // and the stripe map may rehash or reclaim entries while we sleep.
            let CoreStripe { map, .. } = &mut *guard;
            let data = map.get_or_insert_with(key, KeyData::default);
            let (anchor, value) = data.versions.latest_before(anchor_below).map_err(|bound| {
                TxError::aborted(AbortReason::VersionPurged { key, below: bound })
            })?;
            // The window above the anchor, shrunk below a newer version
            // inside it (a frozen write lock), then granted whole, as its
            // free prefix, or after a wait. `upper` below the anchor's
            // successor leaves no window.
            let granted = match TsRange::checked(anchor.succ(), upper) {
                None => None,
                Some(window) => match data.first_frozen_read_conflict(window) {
                    // Retry below the version, re-anchoring on it when it
                    // is visible.
                    Some(version) if version > anchor.succ() => {
                        upper = version.pred();
                        continue;
                    }
                    Some(_) => None,
                    None => match data.locks.read_request(tx.id, window, wait) {
                        ReadRequest::Whole => Some(window),
                        ReadRequest::Prefix(prefix) => prefix,
                        ReadRequest::Wait => {
                            let deadline = *deadline.get_or_insert_with(|| {
                                Instant::now() + self.config.lock_wait_timeout
                            });
                            if stripe.changed.wait_until(&mut guard, deadline).timed_out() {
                                return Err(TxError::aborted(AbortReason::LockTimeout { key }));
                            }
                            continue;
                        }
                    },
                },
            };
            if let Some(range) = granted {
                data.locks.acquire_range(tx.id, LockMode::Read, range);
            }
            tx.record_read(key, anchor, granted);
            let grant = ReadGrant {
                version: anchor,
                granted,
            };
            return Ok((grant, value));
        }
    }

    /// Purges versions (and the associated lock state) older than `bound`,
    /// keeping the most recent version of each key, read run included (§6,
    /// §8.1). Returns the number of versions and lock entries (live entries
    /// and read runs) removed.
    ///
    /// The purge leaves a floor on each stripe: from then on a write lock
    /// is granted only at or above `bound`, since the frozen read runs that
    /// would refuse a writer below it go with their versions (and, for a
    /// `⊥`-only key, with its cell). This binds only the policies that lock
    /// below the clock, such as MVTL-Pessimistic's `[0, +∞]`.
    ///
    /// Purging is only *safe* (no `VersionPurged` aborts of live
    /// transactions) when `bound` does not exceed
    /// [`MvtlStore::low_watermark`]; the sweeper of a `mvtl-shard` store
    /// maintains that invariant automatically. Cells whose version chain is
    /// empty (only the implicit `⊥`, with no read run reaching `bound`) and
    /// whose lock table is empty after the purge are removed from the key
    /// map entirely, so keys that were only ever read — or whose writers all
    /// aborted — stop occupying memory. Reclamation is safe under the stripe
    /// latch alone: nothing holds a reference to a cell across a latch
    /// release, and waiters re-probe their key after waking.
    pub fn purge_below(&self, bound: Timestamp) -> (usize, usize) {
        let mut versions_removed = 0;
        let mut locks_removed = 0;
        for stripe in self.cells.stripes() {
            {
                let mut guard = stripe.data.lock();
                let CoreStripe { map, arena, floor } = &mut *guard;
                *floor = (*floor).max(bound);
                map.retain(|_, data| {
                    let (versions, locks) = data.purge_below(bound, arena);
                    versions_removed += versions;
                    locks_removed += locks;
                    if data.is_idle(bound) {
                        data.versions.release(arena);
                        false
                    } else {
                        true
                    }
                });
            }
            stripe.notify();
        }
        (versions_removed, locks_removed)
    }

    /// The smallest timestamp any in-flight transaction may still anchor a
    /// read on, or `None` when no transaction is active. Purging strictly
    /// below this bound can never abort a live transaction of a policy whose
    /// reads anchor at or above its begin-time state (every policy shipped
    /// here; the registered pin already accounts for ε-clock and
    /// negative-offset Pref windows).
    #[must_use]
    pub fn low_watermark(&self) -> Option<Timestamp> {
        self.active.low_watermark()
    }

    /// Number of transactions currently registered as in flight.
    #[must_use]
    pub fn active_transactions(&self) -> usize {
        self.active.active_count()
    }

    /// Aggregate state-size statistics across all keys.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        for stripe in self.cells.stripes() {
            let guard = stripe.data.lock();
            for (_, data) in guard.map.iter() {
                stats.keys += 1;
                let vs = data.versions.stats();
                stats.versions += vs.versions;
                stats.purged_versions += vs.purged;
                // The frozen write locks are the versions; the frozen read
                // runs are the read versions' high-water marks.
                stats.lock_entries += data.locks.stats().entries + vs.read_runs;
                stats.frozen_lock_entries += vs.read_runs;
            }
        }
        stats
    }

    /// The committed value of `key` at the latest version strictly before
    /// `before`, outside of any transaction. Intended for examples, tests and
    /// debugging; regular access goes through transactions.
    #[must_use]
    pub fn snapshot_read(&self, key: Key, before: Timestamp) -> Option<V> {
        let stripe = self.cells.stripe_for(key);
        let guard = stripe.data.lock();
        match guard.map.get(key) {
            Some(data) => match data.versions.latest_before(before) {
                Ok((_, v)) => v,
                Err(_) => None,
            },
            None => None,
        }
    }
}

impl<V, P> PolicyCtx for MvtlStore<V, P>
where
    V: Clone + Send + Sync + 'static,
    P: LockingPolicy,
{
    fn clock_value(&self, tx: &TxState, process: ProcessId, stride: u64) -> u64 {
        match tx.pinned {
            Some(ts) => ts.value,
            None => self.clock.now_by(process, stride),
        }
    }

    fn acquire_read_interval(
        &self,
        tx: &mut TxState,
        key: Key,
        anchor_below: Timestamp,
        upper: Timestamp,
        wait: bool,
    ) -> Result<ReadGrant, TxError> {
        self.read_interval(tx, key, anchor_below, upper, wait)
            .map(|(grant, _)| grant)
    }

    fn acquire_write_range(
        &self,
        tx: &mut TxState,
        key: Key,
        desired: &TsSet,
        wait: bool,
    ) -> Result<TsSet, TxError> {
        let stripe = self.cells.stripe_for(key);
        // Set at the first wait: a grant that never waits reads no clock.
        let mut deadline = None;
        let mut guard = stripe.data.lock();
        loop {
            // Nothing commits below the purge floor: the runs that would
            // refuse it may be gone with their versions or their cell. Read
            // it afresh after every wait, since a purge may run meanwhile.
            let floor = guard.floor;
            let clipped;
            let desired = if desired.min().is_some_and(|start| start < floor) {
                let mut above = desired.clone();
                above.intersect_range(TsRange::new(floor, Timestamp::MAX));
                clipped = above;
                &clipped
            } else {
                desired
            };
            if desired.is_empty() {
                return Ok(TsSet::new());
            }
            let CoreStripe { map, .. } = &mut *guard;
            let data = map.get_or_insert_with(key, KeyData::default);
            let Some(granted) = data.write_grant(tx.id, desired, wait) else {
                let deadline =
                    *deadline.get_or_insert_with(|| Instant::now() + self.config.lock_wait_timeout);
                if stripe.changed.wait_until(&mut guard, deadline).timed_out() {
                    return Err(TxError::aborted(AbortReason::LockTimeout { key }));
                }
                continue;
            };
            data.locks.acquire(tx.id, LockMode::Write, &granted);
            tx.record_write_locks(key, &granted);
            return Ok(granted);
        }
    }

    fn release_unfrozen_write_locks(&self, tx: &mut TxState) {
        for record in tx.records() {
            if record.write_locks().is_empty() {
                continue;
            }
            self.with_cell_notify(record.key(), |data, _| {
                data.locks
                    .release_unfrozen_range(tx.id, LockMode::Write, TsRange::all());
            });
        }
        tx.clear_write_locks();
    }

    fn latest_version_before(&self, key: Key, below: Timestamp) -> Result<Timestamp, TxError> {
        let stripe = self.cells.stripe_for(key);
        let guard = stripe.data.lock();
        let result = match guard.map.get(key) {
            Some(data) => data.versions.latest_before(below).map(|(t, _)| t),
            None => Ok(Timestamp::ZERO),
        };
        result.map_err(|bound| TxError::aborted(AbortReason::VersionPurged { key, below: bound }))
    }
}

/// The [`PolicyCtx`] a policy's `read_locks` runs against: the store, plus
/// the version the read anchored on and its value, kept from the one
/// [`PolicyCtx::acquire_read_interval`] so that [`MvtlStore::read`] returns
/// it without latching the key again.
struct ReadCtx<'s, V, P> {
    store: &'s MvtlStore<V, P>,
    anchored: Cell<Option<(Timestamp, Option<V>)>>,
}

impl<V, P> PolicyCtx for ReadCtx<'_, V, P>
where
    V: Clone + Send + Sync + 'static,
    P: LockingPolicy,
{
    fn clock_value(&self, tx: &TxState, process: ProcessId, stride: u64) -> u64 {
        self.store.clock_value(tx, process, stride)
    }

    fn acquire_read_interval(
        &self,
        tx: &mut TxState,
        key: Key,
        anchor_below: Timestamp,
        upper: Timestamp,
        wait: bool,
    ) -> Result<ReadGrant, TxError> {
        let (grant, value) = self
            .store
            .read_interval(tx, key, anchor_below, upper, wait)?;
        self.anchored.set(Some((grant.version, value)));
        Ok(grant)
    }

    fn acquire_write_range(
        &self,
        tx: &mut TxState,
        key: Key,
        desired: &TsSet,
        wait: bool,
    ) -> Result<TsSet, TxError> {
        self.store.acquire_write_range(tx, key, desired, wait)
    }

    fn release_unfrozen_write_locks(&self, tx: &mut TxState) {
        self.store.release_unfrozen_write_locks(tx);
    }

    fn latest_version_before(&self, key: Key, below: Timestamp) -> Result<Timestamp, TxError> {
        self.store.latest_version_before(key, below)
    }
}

impl<V, P> TransactionalKV<V> for MvtlStore<V, P>
where
    V: Clone + Send + Sync + 'static,
    P: LockingPolicy,
{
    type Txn = MvtlTransaction<V>;

    fn begin_at(&self, process: ProcessId, pinned: Option<Timestamp>) -> Self::Txn {
        self.begin_with(process, pinned, false)
    }

    fn read(&self, txn: &mut Self::Txn, key: Key) -> Result<Option<V>, TxError> {
        MvtlStore::read(self, txn, key)
    }

    fn write(&self, txn: &mut Self::Txn, key: Key, value: V) -> Result<(), TxError> {
        MvtlStore::write(self, txn, key, value)
    }

    fn commit(&self, txn: Self::Txn) -> Result<CommitInfo, TxError> {
        MvtlStore::commit(self, txn)
    }

    fn abort(&self, txn: Self::Txn) {
        MvtlStore::abort(self, txn);
    }

    fn name(&self) -> &'static str {
        self.policy.name()
    }

    fn stats(&self) -> StoreStats {
        MvtlStore::stats(self)
    }

    fn purge_below(&self, bound: Timestamp) -> (usize, usize) {
        MvtlStore::purge_below(self, bound)
    }

    fn low_watermark(&self) -> Option<Timestamp> {
        MvtlStore::low_watermark(self)
    }

    fn prepare(store: &Arc<Self>, txn: Self::Txn) -> Result<Box<dyn PreparedTxn<V>>, TxError> {
        Ok(Box::new(MvtlPrepared::new(store, txn)?))
    }

    /// Installs each write as the version at `commit_ts`. No lock is
    /// negotiated: the policy decided before the crash, and the log is its
    /// record. A second version of one key at one timestamp means a
    /// malformed log; the first one stays.
    fn recover_install(&self, writes: Vec<(Key, V)>, commit_ts: Timestamp) -> Result<(), TxError> {
        for (key, value) in writes {
            let duplicate = self.with_cell_notify(key, |data, arena| {
                // `install` overwrites and returns what it replaced: put the
                // first version back.
                let first = data.versions.install(commit_ts, value, arena)?;
                data.versions.install(commit_ts, first, arena)
            });
            if duplicate.is_some() {
                return Err(TxError::Internal(format!(
                    "log replays two versions of {key} at {commit_ts}"
                )));
            }
        }
        Ok(())
    }
}

/// A transaction that passed the participant half of the §7 distributed
/// commit on one [`MvtlStore`], as [`TransactionalKV::prepare`] hands it
/// out: commit-time locks are acquired and the interval the policy is
/// willing to commit at is frozen. The transaction keeps all its locks until
/// the coordinator decides, so no other transaction can invalidate the
/// interval in the meantime; dropping it undecided aborts it.
struct MvtlPrepared<V, P>
where
    V: Clone + Send + Sync + 'static,
    P: LockingPolicy,
{
    store: Arc<MvtlStore<V, P>>,
    txn: MvtlTransaction<V>,
    /// Every timestamp the store guarantees `txn` can commit at. Never empty.
    interval: TsSet,
}

impl<V, P> MvtlPrepared<V, P>
where
    V: Clone + Send + Sync + 'static,
    P: LockingPolicy,
{
    /// Runs the participant side of the §7 distributed commit: performs the
    /// policy's commit-time locking, computes the candidate timestamps of
    /// Algorithm 1 line 13, and freezes the interval the policy is willing
    /// to commit at ([`LockingPolicy::prepared_interval`]).
    ///
    /// When the commit-time locking fails or the frozen interval is empty,
    /// the transaction is fully aborted (locks released) and the abort error
    /// returned.
    fn new(store: &Arc<MvtlStore<V, P>>, mut txn: MvtlTransaction<V>) -> Result<Self, TxError> {
        if !txn.state.is_active() {
            return Err(TxError::TransactionFinished);
        }
        if let Err(err) = store.policy.commit_locks(store.as_ref(), &mut txn.state) {
            store.abort_internal(&mut txn.state);
            return Err(err);
        }
        let candidates = txn.state.commit_candidates();
        let interval = store.policy.prepared_interval(&txn.state, &candidates);
        if interval.is_empty() {
            store.abort_internal(&mut txn.state);
            return Err(TxError::aborted(AbortReason::NoCommonTimestamp));
        }
        Ok(MvtlPrepared {
            store: Arc::clone(store),
            txn,
            interval,
        })
    }
}

impl<V, P> PreparedTxn<V> for MvtlPrepared<V, P>
where
    V: Clone + Send + Sync + 'static,
    P: LockingPolicy,
{
    fn interval(&self) -> &TsSet {
        &self.interval
    }

    /// Commits at `ts`, which the coordinator picked from the intersection
    /// of every participant's frozen interval. A timestamp inside the
    /// interval always succeeds, because the transaction still holds all the
    /// locks backing it; one outside aborts the transaction.
    fn commit_at(mut self: Box<Self>, ts: Timestamp) -> Result<CommitInfo, TxError> {
        if !self.interval.contains(ts) {
            // Dropping `self` aborts the transaction.
            return Err(TxError::aborted(AbortReason::NoCommonTimestamp));
        }
        let MvtlPrepared { store, txn, .. } = &mut *self;
        Ok(store.finish_commit(txn, ts))
    }

    fn abort(self: Box<Self>) {
        // Dropping an undecided prepared transaction aborts it.
    }
}

impl<V, P> Drop for MvtlPrepared<V, P>
where
    V: Clone + Send + Sync + 'static,
    P: LockingPolicy,
{
    fn drop(&mut self) {
        if self.txn.state.is_active() {
            self.store.abort_internal(&mut self.txn.state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ToPolicy;
    use mvtl_clock::GlobalClock;

    fn store() -> MvtlStore<u64, ToPolicy> {
        MvtlStore::new(
            ToPolicy::new(),
            Arc::new(GlobalClock::new()),
            MvtlConfig::default(),
        )
    }

    #[test]
    fn read_your_own_writes() {
        let s = store();
        let mut tx = s.begin(ProcessId(0));
        s.write(&mut tx, Key(1), 7).unwrap();
        assert_eq!(s.read(&mut tx, Key(1)).unwrap(), Some(7));
        s.commit(tx).unwrap();
    }

    #[test]
    fn operations_on_finished_transactions_fail() {
        let s = store();
        let mut tx = s.begin(ProcessId(0));
        s.write(&mut tx, Key(1), 7).unwrap();
        let info = s.commit(tx).unwrap();
        assert_eq!(info.writes, vec![Key(1)]);

        let mut tx2 = s.begin(ProcessId(0));
        s.abort(tx2);
        tx2 = s.begin(ProcessId(0));
        let _ = s.read(&mut tx2, Key(1)).unwrap();
        s.commit(tx2).unwrap();
    }

    #[test]
    fn snapshot_read_sees_committed_state() {
        let s = store();
        let mut tx = s.begin(ProcessId(0));
        s.write(&mut tx, Key(5), 99).unwrap();
        s.commit(tx).unwrap();
        assert_eq!(s.snapshot_read(Key(5), Timestamp::MAX), Some(99));
        assert_eq!(s.snapshot_read(Key(6), Timestamp::MAX), None);
    }

    #[test]
    fn stats_count_state() {
        let s = store();
        for i in 0..5u64 {
            let mut tx = s.begin(ProcessId(0));
            s.write(&mut tx, Key(i), i).unwrap();
            s.commit(tx).unwrap();
        }
        let stats = s.stats();
        assert_eq!(stats.keys, 5);
        assert_eq!(stats.versions, 5);
        // The frozen write locks are the versions, not lock entries.
        assert_eq!((stats.lock_entries, stats.frozen_lock_entries), (0, 0));
        // MVTL-TO does not garbage collect on commit: a committed reader's
        // whole read locks stay, as one frozen read run per key.
        let mut tx = s.begin(ProcessId(0));
        for i in 0..5u64 {
            assert_eq!(s.read(&mut tx, Key(i)).unwrap(), Some(i));
        }
        s.commit(tx).unwrap();
        let stats = s.stats();
        assert_eq!((stats.lock_entries, stats.frozen_lock_entries), (5, 5));
    }

    #[test]
    fn prepare_then_commit_at_coordinator_timestamp() {
        let s = Arc::new(store());
        let mut tx = s.begin(ProcessId(0));
        s.write(&mut tx, Key(1), 7).unwrap();
        let prepared = TransactionalKV::prepare(&s, tx).unwrap();
        let interval = prepared.interval().clone();
        assert!(!interval.is_empty());
        let ts = interval.min().unwrap();
        let info = prepared.commit_at(ts).unwrap();
        assert_eq!(info.commit_ts, Some(ts));
        assert_eq!(s.snapshot_read(Key(1), Timestamp::MAX), Some(7));
    }

    #[test]
    fn commit_prepared_outside_the_frozen_interval_aborts() {
        let s = Arc::new(store());
        let mut tx = s.begin(ProcessId(0));
        s.write(&mut tx, Key(2), 9).unwrap();
        let prepared = TransactionalKV::prepare(&s, tx).unwrap();
        let outside = prepared.interval().max().unwrap().succ();
        let err = prepared.commit_at(outside).unwrap_err();
        assert!(err.is_abort());
        // The failed transaction released its locks: a writer succeeds now.
        let mut tx = s.begin(ProcessId(1));
        s.write(&mut tx, Key(2), 10).unwrap();
        s.commit(tx).unwrap();
    }

    #[test]
    fn abort_prepared_releases_locks() {
        let s = Arc::new(store());
        let before = s.stats().lock_entries;
        let mut tx = s.begin(ProcessId(0));
        s.write(&mut tx, Key(3), 1).unwrap();
        let prepared = TransactionalKV::prepare(&s, tx).unwrap();
        assert!(s.stats().lock_entries > before, "prepared txn holds locks");
        prepared.abort();
        assert_eq!(s.stats().lock_entries, before);
        assert_eq!(s.snapshot_read(Key(3), Timestamp::MAX), None);
    }

    #[test]
    fn replaying_a_second_version_at_one_timestamp_errors_and_keeps_the_first() {
        let s = store();
        let ts = Timestamp::at(5);
        s.recover_install(vec![(Key(1), 10), (Key(2), 20)], ts)
            .unwrap();
        let err = s.recover_install(vec![(Key(1), 11)], ts).unwrap_err();
        assert!(matches!(err, TxError::Internal(_)), "{err:?}");
        assert_eq!(s.snapshot_read(Key(1), Timestamp::MAX), Some(10));
        assert_eq!(s.stats().versions, 2);
        // Replay took no lock and pinned nothing.
        assert_eq!(s.stats().lock_entries, 0);
        assert_eq!(s.active_transactions(), 0);
    }

    #[test]
    fn a_writer_waiting_across_a_purge_gets_nothing_below_the_floor() {
        use crate::policy::PessimisticPolicy;
        use std::time::Duration;
        let s = MvtlStore::new(
            PessimisticPolicy::new(),
            Arc::new(GlobalClock::new()),
            MvtlConfig::default().with_lock_wait_timeout(Duration::from_secs(10)),
        );
        let mut holder = s.begin(ProcessId(0));
        s.write(&mut holder, Key(1), 1).unwrap();
        let floor = Timestamp::at(100);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let mut tx = s.begin(ProcessId(1));
                // Waits on the holder's `[0, +∞]` until it aborts.
                s.write(&mut tx, Key(1), 2).unwrap();
                s.commit(tx).unwrap().commit_ts.unwrap()
            });
            std::thread::sleep(Duration::from_millis(50));
            s.purge_below(floor);
            s.abort(holder);
            let ts = waiter.join().unwrap();
            assert!(ts >= floor, "committed at {ts}, below the floor {floor}");
        });
    }

    #[test]
    fn purge_removes_old_versions() {
        let s = store();
        for round in 0..3u64 {
            let mut tx = s.begin(ProcessId(0));
            s.write(&mut tx, Key(1), round).unwrap();
            s.commit(tx).unwrap();
        }
        assert_eq!(s.stats().versions, 3);
        let (versions_removed, _locks_removed) = s.purge_below(Timestamp::MAX);
        assert_eq!(versions_removed, 2);
        assert_eq!(s.stats().versions, 1);
        // The latest value is still readable.
        let mut tx = s.begin(ProcessId(0));
        assert_eq!(s.read(&mut tx, Key(1)).unwrap(), Some(2));
        s.commit(tx).unwrap();
    }

    #[test]
    fn low_watermark_tracks_active_transactions() {
        let s = store();
        assert_eq!(s.low_watermark(), None);
        let tx1 = s.begin(ProcessId(1));
        let tx2 = s.begin(ProcessId(2));
        let wm = s.low_watermark().expect("two active transactions");
        let pin1 = tx1.state().start_ts.unwrap();
        assert!(wm <= pin1, "watermark at or below the oldest pin");
        assert_eq!(s.active_transactions(), 2);
        s.abort(tx1);
        let wm2 = s.low_watermark().expect("tx2 still active");
        assert!(wm2 >= wm, "watermark advances monotonically here");
        s.commit(tx2).unwrap();
        assert_eq!(s.low_watermark(), None);
        assert_eq!(s.active_transactions(), 0);
    }

    #[test]
    fn failed_commits_release_the_watermark_pin() {
        let s = Arc::new(store());
        let mut tx = s.begin(ProcessId(0));
        s.write(&mut tx, Key(1), 1).unwrap();
        let prepared = TransactionalKV::prepare(&s, tx).unwrap();
        assert_eq!(s.active_transactions(), 1, "prepared txns stay pinned");
        let outside = prepared.interval().max().unwrap().succ();
        assert!(prepared.commit_at(outside).is_err());
        assert_eq!(s.active_transactions(), 0);
    }

    #[test]
    fn purge_reclaims_read_only_and_aborted_cells() {
        let s = store();
        // A committed write on one key, plus cells created by a pure read and
        // by an aborted writer.
        let mut tx = s.begin(ProcessId(0));
        s.write(&mut tx, Key(1), 7).unwrap();
        s.commit(tx).unwrap();
        let mut tx = s.begin(ProcessId(0));
        assert_eq!(s.read(&mut tx, Key(2)).unwrap(), None);
        s.commit(tx).unwrap();
        // ToPolicy locks writes only at commit, so an aborted writer leaves a
        // cell behind only if it also read the key.
        let mut tx = s.begin(ProcessId(0));
        assert_eq!(s.read(&mut tx, Key(3)).unwrap(), None);
        s.write(&mut tx, Key(3), 9).unwrap();
        s.abort(tx);
        assert_eq!(s.stats().keys, 3);
        let _ = s.purge_below(Timestamp::MAX);
        // Keys 2 and 3 carry no versions and no locks any more: their cells
        // are reclaimed. Key 1 keeps its latest version.
        let stats = s.stats();
        assert_eq!(stats.keys, 1);
        assert_eq!(stats.versions, 1);
        let mut tx = s.begin(ProcessId(0));
        assert_eq!(s.read(&mut tx, Key(1)).unwrap(), Some(7));
        assert_eq!(s.read(&mut tx, Key(2)).unwrap(), None);
        s.commit(tx).unwrap();
    }

    /// The entries of `key`'s lock table that `owner` owns.
    fn owned<P: LockingPolicy>(
        s: &MvtlStore<u64, P>,
        key: Key,
        owner: mvtl_common::TxId,
    ) -> Vec<mvtl_locks::LockEntry> {
        let guard = s.cells.stripe_for(key).data.lock();
        guard.map.get(key).map_or_else(Vec::new, |data| {
            data.locks
                .entries()
                .iter()
                .filter(|e| e.owner == owner)
                .copied()
                .collect()
        })
    }

    /// The frozen timestamps of `key` in `mode`, read off its version chain:
    /// for writes the versions themselves, for reads the read runs the
    /// versions' high-water marks stand for, minus the versions. The lock
    /// table itself holds no frozen entry.
    fn frozen<P: LockingPolicy>(s: &MvtlStore<u64, P>, key: Key, mode: LockMode) -> TsSet {
        let guard = s.cells.stripe_for(key).data.lock();
        let Some(data) = guard.map.get(key) else {
            return TsSet::new();
        };
        assert!(
            data.locks.entries().iter().all(|e| !e.frozen),
            "{key:?}: frozen entry in the lock table"
        );
        let versions = data.frozen_conflicts(LockMode::Read, TsRange::all());
        match mode {
            LockMode::Write => versions,
            LockMode::Read => data
                .frozen_conflicts(LockMode::Write, TsRange::all())
                .difference(&versions),
        }
    }

    /// Prepares one transaction (so its records include commit-time
    /// locks), then commits it, or with `abort` drops it undecided, and
    /// checks what it leaves on every key it touched against Algorithm 1's
    /// commit and `gc`, computed from the records. A commit leaves the
    /// version (frozen write point) on each written key and turns the read
    /// locks the policy keeps into frozen read runs: with `commit_gc` the
    /// runs `[version+1, commit_ts]` of its reads, without it every read
    /// lock. An abort leaves its read locks frozen when the policy keeps
    /// them ([`LockingPolicy::release_read_locks_on_abort`]), and nothing
    /// else. Either way no entry of the transaction stays in a lock table.
    fn check_end_state<P: LockingPolicy>(
        s: &Arc<MvtlStore<u64, P>>,
        process: ProcessId,
        abort: bool,
        body: impl FnOnce(&mut MvtlTransaction<u64>),
    ) {
        let mut tx = s.begin(process);
        body(&mut tx);
        let prepared = MvtlPrepared::new(s, tx).expect("prepare");
        let before = prepared.txn.state.clone();
        let commit_ts = s
            .policy()
            .commit_ts(&before, &prepared.interval)
            .expect("a commit timestamp");
        let keys: Vec<Key> = before.records().iter().map(|r| r.key()).collect();
        let frozen_before: Vec<[TsSet; 2]> = keys
            .iter()
            .map(|k| {
                [
                    frozen(s, *k, LockMode::Write),
                    frozen(s, *k, LockMode::Read),
                ]
            })
            .collect();
        if abort {
            drop(prepared);
        } else {
            PreparedTxn::commit_at(Box::new(prepared), commit_ts).expect("commit");
        }
        let gc = s.policy().commit_gc(&before);
        let point = TsSet::from_point(commit_ts);
        let name = s.policy().name();
        for (key, [write_before, read_before]) in keys.into_iter().zip(frozen_before) {
            let record = before.record(key).expect("a record per key");
            let held_read = TsSet::from_ranges(record.read_locks());
            let written = !abort && record.is_written();
            let read_run = record
                .versions_read()
                .and_then(|(low, _)| TsRange::checked(low.succ(), commit_ts))
                .map_or_else(TsSet::new, TsSet::from_range);
            let frozen_read = match (abort, gc) {
                (true, _) if s.policy().release_read_locks_on_abort() => TsSet::new(),
                (true, _) | (false, false) => held_read,
                (false, true) => held_read.intersection(&read_run),
            };
            if gc && !abort && !written {
                assert_eq!(frozen_read, read_run, "{key:?}: read run not fully held");
            }
            let frozen_write = if written { point.clone() } else { TsSet::new() };
            // A frozen write hides the frozen read at the same timestamp.
            let write_after = write_before.union(&frozen_write);
            assert_eq!(
                frozen(s, key, LockMode::Write),
                write_after,
                "{name} {key:?}: frozen write"
            );
            assert_eq!(
                frozen(s, key, LockMode::Read),
                read_before.union(&frozen_read).difference(&write_after),
                "{name} {key:?}: frozen read"
            );
            assert_eq!(
                owned(s, key, before.id),
                [],
                "{name} {key:?}: entries of a finished transaction"
            );
        }
    }

    /// A blind preload, then a transaction that reads only (1, 5), reads and
    /// writes (2) and writes only (4); key 5 was never written. The second
    /// one commits, or with `abort` is aborted after preparing.
    fn check_policy_end_state<P: LockingPolicy>(policy: P, abort: bool) {
        let s = Arc::new(MvtlStore::new(
            policy,
            Arc::new(GlobalClock::new()),
            MvtlConfig::default(),
        ));
        check_end_state(&s, ProcessId(0), false, |tx| {
            for k in 1..=3u64 {
                s.write(tx, Key(k), k).unwrap();
            }
        });
        check_end_state(&s, ProcessId(1), abort, |tx| {
            assert_eq!(s.read(tx, Key(1)).unwrap(), Some(1));
            assert_eq!(s.read(tx, Key(2)).unwrap(), Some(2));
            s.write(tx, Key(2), 20).unwrap();
            s.write(tx, Key(4), 40).unwrap();
            assert_eq!(s.read(tx, Key(5)).unwrap(), None);
        });
        let (two, four) = if abort { (2, None) } else { (20, Some(40)) };
        assert_eq!(s.snapshot_read(Key(2), Timestamp::MAX), Some(two));
        assert_eq!(s.snapshot_read(Key(4), Timestamp::MAX), four);
    }

    fn check_every_policy_end_state(abort: bool) {
        use crate::policy::{
            EpsilonPolicy, GhostbusterPolicy, MvtilPolicy, PessimisticPolicy, PrefPolicy,
            PrioPolicy,
        };
        check_policy_end_state(MvtilPolicy::early(1_000), abort);
        check_policy_end_state(MvtilPolicy::late(1_000), abort);
        check_policy_end_state(EpsilonPolicy::new(50), abort);
        check_policy_end_state(GhostbusterPolicy::new(), abort);
        check_policy_end_state(PessimisticPolicy::new(), abort);
        check_policy_end_state(PrioPolicy::new(), abort);
        check_policy_end_state(PrefPolicy::new(), abort);
        check_policy_end_state(ToPolicy::new(), abort);
    }

    #[test]
    fn commit_leaves_frozen_write_points_and_read_runs_only() {
        check_every_policy_end_state(false);
    }

    #[test]
    fn abort_leaves_only_the_read_runs_its_policy_keeps() {
        check_every_policy_end_state(true);
    }

    #[test]
    fn committed_readers_of_one_version_share_one_frozen_run() {
        use crate::policy::MvtilPolicy;
        let s = MvtlStore::new(
            MvtilPolicy::early(1_000),
            Arc::new(GlobalClock::new()),
            MvtlConfig::default(),
        );
        let mut tx = s.begin(ProcessId(0));
        s.write(&mut tx, Key(1), 7).unwrap();
        s.commit(tx).unwrap();
        let mut last = Timestamp::ZERO;
        for _ in 0..256 {
            let mut tx = s.begin(ProcessId(1));
            assert_eq!(s.read(&mut tx, Key(1)).unwrap(), Some(7));
            last = s.commit(tx).unwrap().commit_ts.unwrap();
        }
        // One read run on the version, not one entry per reader: the
        // version's read high-water mark is the last reader's commit.
        let stats = s.stats();
        assert_eq!((stats.lock_entries, stats.frozen_lock_entries), (1, 1));
        let guard = s.cells.stripe_for(Key(1)).data.lock();
        let chain = &guard.map.get(Key(1)).expect("written key").versions;
        let (version, _) = chain.latest().expect("one version");
        assert_eq!(chain.read_hw(version), Some(last));
    }

    #[test]
    fn purged_anchor_reads_abort_instead_of_returning_silent_none() {
        // Reproduce the purge/read race deterministically: anchor a read on
        // an old version by pinning the reader in the past, purge that
        // version, then fetch. The read must abort with `VersionPurged`, not
        // return `Ok(None)` for a key that has committed values.
        let s = store();
        let mut tx = s.begin(ProcessId(0));
        s.write(&mut tx, Key(1), 1).unwrap();
        let first = s.commit(tx).unwrap().commit_ts.unwrap();
        for round in 2..=3u64 {
            let mut tx = s.begin(ProcessId(0));
            s.write(&mut tx, Key(1), round).unwrap();
            s.commit(tx).unwrap();
        }
        // A reader pinned just above the first commit anchors on that oldest
        // version; purging everything below MAX (manual, watermark-ignoring)
        // removes it. The read must abort, never report `Ok(None)`.
        let mut reader = s.begin_with(ProcessId(1), Some(first.succ()), false);
        let _ = s.purge_below(Timestamp::MAX);
        let err = s.read(&mut reader, Key(1)).unwrap_err();
        assert!(
            matches!(
                err.abort_reason(),
                Some(AbortReason::VersionPurged { key, .. }) if *key == Key(1)
            ),
            "expected VersionPurged, got {err:?}"
        );
    }
}
