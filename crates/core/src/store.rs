//! The MVTL storage engine (Algorithm 1).

use crate::cell::{CoreStripe, KeyData};
use crate::policy::{LockingPolicy, PolicyCtx, ReadGrant};
use crate::txn::{HeldLocks, MvtlTransaction, TxState};
use crate::MvtlConfig;
use mvtl_clock::ClockSource;
use mvtl_common::{
    AbortReason, ActiveTxnRegistry, CommitInfo, Key, LockMode, ProcessId, StoreStats, Timestamp,
    TransactionalKV, TsRange, TsSet, TxError, TxStatus,
};
use mvtl_storage::{ChainArena, StripedTable};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// Process id that recovered transactions run under. It only matters as a
/// lock owner tie-breaker; real processes are numbered from zero and never
/// reach it.
const RECOVERY_PROCESS: ProcessId = ProcessId(u32::MAX);

/// Stripes of the key → cell table, each behind its own latch.
const STRIPES: usize = 64;

/// A transaction that passed the participant half of the §7 distributed
/// commit on one [`MvtlStore`]: commit-time locks are acquired and the
/// interval the policy is willing to commit at is frozen.
///
/// Produced by [`MvtlStore::prepare_commit`]; consumed by
/// [`MvtlStore::commit_prepared`] (with a timestamp inside
/// [`PreparedCommit::interval`]) or [`MvtlStore::abort_prepared`]. The
/// transaction keeps all its locks while prepared, so no other transaction can
/// invalidate the frozen interval in the meantime.
#[derive(Debug)]
pub struct PreparedCommit<V> {
    txn: MvtlTransaction<V>,
    interval: TsSet,
}

impl<V> PreparedCommit<V> {
    /// The frozen interval: every timestamp the store guarantees this
    /// transaction can commit at. Never empty.
    #[must_use]
    pub fn interval(&self) -> &TsSet {
        &self.interval
    }

    /// The id of the prepared transaction.
    #[must_use]
    pub fn id(&self) -> mvtl_common::TxId {
        self.txn.id()
    }
}

/// The generic MVTL storage engine, parameterized by a [`LockingPolicy`].
///
/// `V` is the value type stored in versions. The engine is safe to share across
/// threads (`&self` methods take per-stripe latches internally), mirroring the
/// multi-threaded server of the paper's implementation (§8.1).
///
/// Key state lives inline in striped open-addressed maps: an operation routes
/// to a stripe, takes that stripe's mutex, and works on the entry in place —
/// there is no per-key `Arc`, no shard rwlock in front of a per-key mutex,
/// and version storage beyond a small inline capacity comes from a per-stripe
/// arena of recycled buffers.
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
            let CoreStripe { map, arena } = &mut *guard;
            f(map.get_or_insert_with(key, KeyData::default), arena)
        };
        stripe.notify();
        result
    }

    /// Begins a transaction, optionally pinning the clock value it observes and
    /// optionally marking it critical (MVTL-Prio §5.2).
    #[must_use]
    pub fn begin_with(
        &self,
        process: ProcessId,
        pinned: Option<Timestamp>,
        priority: bool,
    ) -> MvtlTransaction<V> {
        let mut state = TxState::new(process, pinned);
        state.priority = priority;
        self.policy.init(self, &mut state);
        // Register the transaction with the GC watermark. The pin must not
        // exceed any timestamp the transaction might anchor a read on, so take
        // the minimum of everything the policy set up at init: its start
        // timestamp and its candidate set (ε-clock reaches ε below "now",
        // MVTL-Pref can carry negative offsets).
        let mut pin_ts = state.start_ts.or(pinned).unwrap_or(Timestamp::MAX);
        if let Some(lo) = state.ts_set.min() {
            pin_ts = pin_ts.min(lo);
        }
        if pin_ts == Timestamp::MAX {
            // No policy hint at all: fall back to a fresh clock reading.
            pin_ts = self.clock.timestamp(process);
        }
        state.gc_pin = Some(self.active.register(pin_ts));
        MvtlTransaction::new(state)
    }

    /// Begins a critical (high-priority) transaction; only meaningful with
    /// [`crate::policy::PrioPolicy`].
    #[must_use]
    pub fn begin_critical(&self, process: ProcessId) -> MvtlTransaction<V> {
        self.begin_with(process, None, true)
    }

    /// Reads `key` within the transaction (Algorithm 1, `read`).
    ///
    /// Returns the transaction's own buffered write if it previously wrote the
    /// key, otherwise the committed version selected by the policy, or `None`
    /// for the initial `⊥` version.
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
        self.read_committed(txn, key)
    }

    /// The committed-read tail shared by [`MvtlStore::read`] and
    /// [`MvtlStore::read_many`]: policy lock negotiation, read-set recording
    /// and the purge-safe version fetch, for a key the transaction has *not*
    /// buffered a write for.
    fn read_committed(&self, txn: &mut MvtlTransaction<V>, key: Key) -> Result<Option<V>, TxError> {
        match self.policy.read_locks(self, &mut txn.state, key) {
            Ok(version) => {
                txn.state.record_read(key, version);
                if version.is_zero() {
                    return Ok(None);
                }
                // The policy anchored on `version` under the stripe latch, but
                // the latch was released before we get here, so a concurrent
                // `purge_below` may have removed the selected version in the
                // window. A missing version for a non-zero anchor therefore
                // means "purged", never "⊥": returning a silent `None` here
                // would fabricate an empty read of a key that has a committed
                // value. Abort with `VersionPurged` instead (§6: transactions
                // that need purged state must abort).
                let fetched = {
                    let stripe = self.cells.stripe_for(key);
                    let guard = stripe.data.lock();
                    match guard.map.get(key) {
                        Some(data) => match data.versions.at(version) {
                            Some(value) => Ok(value.clone()),
                            None => Err(data.versions.purged_below()),
                        },
                        // The cell itself was reclaimed: every version is gone.
                        None => Err(Timestamp::ZERO),
                    }
                };
                match fetched {
                    Ok(value) => Ok(Some(value)),
                    Err(purged_below) => {
                        self.abort_internal(&mut txn.state);
                        Err(TxError::aborted(AbortReason::VersionPurged {
                            key,
                            below: purged_below.max(version.succ()),
                        }))
                    }
                }
            }
            Err(err) => {
                self.abort_internal(&mut txn.state);
                Err(err)
            }
        }
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

    /// Reads every key of `keys` within the transaction, returning values in
    /// input order — the batch-native path of the engine.
    ///
    /// Instead of negotiating an interval lock per *operation*, the batch is
    /// reduced to its distinct keys (keys the transaction has already
    /// buffered a write for are served from the write buffer) and the policy
    /// negotiation runs once per distinct key, in ascending key order. The
    /// canonical order makes concurrent batches acquire their waiting-mode
    /// locks in the same sequence, so two batches can never deadlock on each
    /// other's keys, and the deduplication both halves the latch traffic of
    /// skewed batches and keeps the read set (which commit intersects over)
    /// one entry per key.
    ///
    /// # Errors
    ///
    /// Returns an abort error if the policy could not acquire the read locks
    /// for some key; the transaction is aborted in that case.
    pub fn read_many(
        &self,
        txn: &mut MvtlTransaction<V>,
        keys: &[Key],
    ) -> Result<Vec<Option<V>>, TxError> {
        if !txn.state.is_active() {
            return Err(TxError::TransactionFinished);
        }
        let mut need: Vec<Key> = keys
            .iter()
            .copied()
            .filter(|key| txn.pending_write(*key).is_none())
            .collect();
        need.sort_unstable();
        need.dedup();
        // `need` is sorted, so the fetched pairs are sorted by key and the
        // answer-assembly lookup below can binary search instead of hashing.
        let mut fetched: Vec<(Key, Option<V>)> = Vec::with_capacity(need.len());
        for key in need {
            let value = self.read_committed(txn, key)?;
            fetched.push((key, value));
        }
        Ok(keys
            .iter()
            .map(|key| {
                txn.pending_write(*key).cloned().or_else(|| {
                    fetched
                        .binary_search_by_key(key, |(k, _)| *k)
                        .ok()
                        .and_then(|i| fetched[i].1.clone())
                })
            })
            .collect())
    }

    /// Writes every `(key, value)` pair of `entries` within the transaction
    /// (last value per key wins, as with sequential writes) — the batch-native
    /// path of the engine.
    ///
    /// The policy's write-lock acquisition runs once per distinct key, in
    /// ascending key order (same deadlock-freedom and deduplication argument
    /// as [`MvtlStore::read_many`]); only then are the values buffered.
    ///
    /// # Errors
    ///
    /// Returns an abort error if the policy acquires write locks eagerly and
    /// fails for some key; the transaction is aborted in that case.
    pub fn write_many(
        &self,
        txn: &mut MvtlTransaction<V>,
        entries: Vec<(Key, V)>,
    ) -> Result<(), TxError> {
        if !txn.state.is_active() {
            return Err(TxError::TransactionFinished);
        }
        let mut keys: Vec<Key> = entries.iter().map(|(key, _)| *key).collect();
        keys.sort_unstable();
        keys.dedup();
        for key in keys {
            if let Err(err) = self.policy.write_locks(self, &mut txn.state, key) {
                self.abort_internal(&mut txn.state);
                return Err(err);
            }
        }
        for (key, value) in entries {
            txn.buffer_write(key, value);
        }
        Ok(())
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
        let candidates = self.commit_candidates(&txn.state);
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
        Ok(self.finish_commit(txn, commit_ts))
    }

    /// Runs the participant side of the §7 distributed commit: performs the
    /// policy's commit-time locking, computes the candidate timestamps of
    /// Algorithm 1 line 13, and *freezes* the interval the policy is willing
    /// to commit at ([`LockingPolicy::prepared_interval`]). The transaction
    /// keeps all its locks, so the frozen interval cannot be invalidated until
    /// the coordinator calls [`MvtlStore::commit_prepared`] or
    /// [`MvtlStore::abort_prepared`].
    ///
    /// # Errors
    ///
    /// Returns an abort error when the policy's commit-time locking fails or
    /// the frozen interval is empty; the transaction is fully aborted (locks
    /// released) in that case.
    pub fn prepare_commit(
        &self,
        mut txn: MvtlTransaction<V>,
    ) -> Result<PreparedCommit<V>, TxError> {
        if !txn.state.is_active() {
            return Err(TxError::TransactionFinished);
        }
        if let Err(err) = self.policy.commit_locks(self, &mut txn.state) {
            self.abort_internal(&mut txn.state);
            return Err(err);
        }
        let candidates = self.commit_candidates(&txn.state);
        let interval = self.policy.prepared_interval(&txn.state, &candidates);
        if interval.is_empty() {
            self.abort_internal(&mut txn.state);
            return Err(TxError::aborted(AbortReason::NoCommonTimestamp));
        }
        Ok(PreparedCommit { txn, interval })
    }

    /// Commits a prepared transaction at `commit_ts`, which the coordinator
    /// picked from the intersection of every participant's frozen interval.
    ///
    /// # Errors
    ///
    /// Returns an abort error when `commit_ts` lies outside the frozen
    /// interval reported by [`MvtlStore::prepare_commit`]; the transaction is
    /// fully aborted in that case. A timestamp inside the interval always
    /// succeeds, because the transaction still holds all the locks backing it.
    pub fn commit_prepared(
        &self,
        prepared: PreparedCommit<V>,
        commit_ts: Timestamp,
    ) -> Result<CommitInfo, TxError> {
        let PreparedCommit { mut txn, interval } = prepared;
        if !interval.contains(commit_ts) {
            self.abort_internal(&mut txn.state);
            return Err(TxError::aborted(AbortReason::NoCommonTimestamp));
        }
        Ok(self.finish_commit(txn, commit_ts))
    }

    /// Aborts a prepared transaction, releasing its locks on this store (the
    /// coordinator's empty-intersection path).
    pub fn abort_prepared(&self, prepared: PreparedCommit<V>) {
        let mut txn = prepared.txn;
        self.abort_internal(&mut txn.state);
    }

    /// Rebuilds the prepared state of a sub-transaction from its logged write
    /// set and frozen interval (`mvtl-wal` crash recovery).
    ///
    /// A participant that logged a prepare record and then crashed promised
    /// the coordinator it could commit anywhere in `interval`. Recovery
    /// re-creates that promise: it write-locks every logged key over the
    /// interval (without waiting — the store has just been rebuilt, so the
    /// only contention is between recovered transactions themselves) and
    /// returns a [`PreparedCommit`] whose interval is the part of `interval`
    /// that could be re-frozen. The caller then resolves it exactly like a
    /// live prepared transaction: [`MvtlStore::commit_prepared`] when the
    /// coordinator's decision was logged, [`MvtlStore::abort_prepared`] under
    /// presumed abort when it was not.
    ///
    /// No locking policy runs here: the policy already made its decision
    /// before the crash, and the log is its record.
    ///
    /// # Errors
    ///
    /// Returns an abort error when none of `interval` can be re-frozen (for
    /// example because a recovered committed transaction already installed a
    /// version there); the partial lock state is fully released.
    pub fn recover_prepared(
        &self,
        writes: Vec<(Key, V)>,
        interval: &TsSet,
    ) -> Result<PreparedCommit<V>, TxError> {
        let Some(pin_ts) = interval.min() else {
            return Err(TxError::aborted(AbortReason::NoCommonTimestamp));
        };
        let mut state = TxState::new(RECOVERY_PROCESS, None);
        state.gc_pin = Some(self.active.register(pin_ts));
        let mut txn = MvtlTransaction::new(state);
        let mut keys: Vec<Key> = writes.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut frozen = interval.clone();
        for key in keys {
            let mut granted = TsSet::new();
            for range in interval.ranges() {
                match self.acquire_write_range(&mut txn.state, key, *range, false) {
                    Ok(got) => granted = granted.union(&got),
                    Err(err) => {
                        self.abort_internal(&mut txn.state);
                        return Err(err);
                    }
                }
            }
            frozen = frozen.intersection(&granted);
            if frozen.is_empty() {
                self.abort_internal(&mut txn.state);
                return Err(TxError::aborted(AbortReason::NoCommonTimestamp));
            }
        }
        for (key, value) in writes {
            txn.buffer_write(key, value);
        }
        Ok(PreparedCommit {
            txn,
            interval: frozen,
        })
    }

    /// The commit tail shared by [`MvtlStore::commit`] and
    /// [`MvtlStore::commit_prepared`]: installs versions, freezes write locks
    /// at `commit_ts` and garbage collects per policy. `commit_ts` must be a
    /// member of the transaction's commit candidates.
    ///
    /// One pass over the keys the transaction holds locks on, one stripe
    /// latch per key; without commit-time GC only the written keys need one.
    /// Every written key is among them: `commit_ts` is write-locked on each
    /// written key.
    fn finish_commit(&self, mut txn: MvtlTransaction<V>, commit_ts: Timestamp) -> CommitInfo {
        // Line 21: optional garbage collection (Algorithm 1, `gc`).
        let gc = self.policy.commit_gc(&txn.state);
        let MvtlTransaction {
            state: tx,
            write_values,
        } = &mut txn;
        for (key, _) in tx.held.iter() {
            let value = write_values
                .iter()
                .position(|(k, _)| *k == key)
                .map(|i| write_values.swap_remove(i).1);
            if value.is_none() && !gc {
                continue;
            }
            self.with_cell_notify(key, |data, arena| {
                // Lines 17-19: freeze the write lock at the commit timestamp
                // and expose the committed value under the same latch, so
                // observers never see a frozen write lock without its version.
                if let Some(value) = value {
                    data.locks
                        .freeze(tx.id, LockMode::Write, TsRange::point(commit_ts));
                    data.versions.install(commit_ts, value, arena);
                }
                if gc {
                    // Freeze the read locks between each version read and the
                    // commit timestamp, then release every other unfrozen lock.
                    for (_, version) in tx.read_set.iter().filter(|(k, _)| *k == key) {
                        let start = version.succ();
                        if start <= commit_ts {
                            data.locks.freeze(
                                tx.id,
                                LockMode::Read,
                                TsRange::new(start, commit_ts),
                            );
                        }
                    }
                    data.locks.release_unfrozen(tx.id);
                }
            });
        }
        assert!(write_values.is_empty(), "a written key holds no lock");
        txn.state.status = TxStatus::Committed;
        txn.state.commit_ts = Some(commit_ts);
        if let Some(pin) = txn.state.gc_pin.take() {
            self.active.deregister(pin);
        }
        // The transaction is consumed: move the read/write sets out instead
        // of cloning them.
        CommitInfo {
            tx: txn.state.id,
            commit_ts: Some(commit_ts),
            reads: std::mem::take(&mut txn.state.read_set),
            writes: std::mem::take(&mut txn.state.write_keys),
        }
    }

    /// Aborts the transaction, releasing its locks according to the policy.
    pub fn abort(&self, mut txn: MvtlTransaction<V>) {
        if txn.state.is_active() {
            self.abort_internal(&mut txn.state);
        }
    }

    fn abort_internal(&self, tx: &mut TxState) {
        let release_reads = self.policy.release_read_locks_on_abort();
        for (key, _) in tx.held.iter() {
            self.with_cell_notify(key, |data, _| {
                if release_reads {
                    data.locks.release_unfrozen(tx.id);
                } else {
                    // Emulating MVTO+: pending writes disappear but the
                    // read-timestamp footprint (read locks) stays behind.
                    data.locks
                        .release_unfrozen_range(tx.id, LockMode::Write, TsRange::all());
                }
            });
        }
        tx.status = TxStatus::Aborted;
        if let Some(pin) = tx.gc_pin.take() {
            self.active.deregister(pin);
        }
    }

    /// The candidate commit timestamps of Algorithm 1 line 13: timestamps `t`
    /// such that every read key is covered contiguously from the version read
    /// up to `t` by locks the transaction holds, and every written key is
    /// write-locked at `t`.
    fn commit_candidates(&self, tx: &TxState) -> TsSet {
        // Timestamp::ZERO is reserved for the initial ⊥ version, so no
        // transaction may serialize there.
        let mut candidates =
            TsSet::from_range(TsRange::new(Timestamp::ZERO.succ(), Timestamp::MAX));
        for (key, version) in &tx.read_set {
            let held = tx.locks_on(*key).map(HeldLocks::any).unwrap_or_default();
            let start = version.succ();
            let mut allowed = TsSet::new();
            for range in held.ranges() {
                if range.contains(start) {
                    allowed = TsSet::from_range(TsRange::new(start, range.end));
                    break;
                }
            }
            candidates = candidates.intersection(&allowed);
            if candidates.is_empty() {
                return candidates;
            }
        }
        for key in &tx.write_keys {
            let write_held = tx
                .locks_on(*key)
                .map(|h| h.write.clone())
                .unwrap_or_default();
            candidates = candidates.intersection(&write_held);
            if candidates.is_empty() {
                return candidates;
            }
        }
        candidates
    }

    /// Purges versions (and the associated lock state) older than `bound`,
    /// keeping the most recent version of each key (§6, §8.1). Returns the
    /// number of versions and lock entries removed.
    ///
    /// Purging is only *safe* (no `VersionPurged` aborts of live
    /// transactions) when `bound` does not exceed
    /// [`MvtlStore::low_watermark`]; the `mvtl-gc` service maintains that
    /// invariant automatically. Cells whose version chain is empty (only the
    /// implicit `⊥`) and whose lock table is empty after the purge are
    /// removed from the key map entirely, so keys that were only ever read —
    /// or whose writers all aborted — stop occupying memory. Reclamation is
    /// safe under the stripe latch alone: nothing holds a reference to a cell
    /// across a latch release, and waiters re-probe their key after waking.
    pub fn purge_below(&self, bound: Timestamp) -> (usize, usize) {
        let mut versions_removed = 0;
        let mut locks_removed = 0;
        for stripe in self.cells.stripes() {
            {
                let mut guard = stripe.data.lock();
                let CoreStripe { map, arena } = &mut *guard;
                map.retain(|_, data| {
                    versions_removed += data.versions.purge_below(bound, arena);
                    locks_removed += data.locks.purge_below(bound);
                    if data.is_idle() {
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
                let ls = data.locks.stats();
                stats.lock_entries += ls.entries;
                stats.frozen_lock_entries += ls.frozen_entries;
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
    fn clock_value(&self, tx: &TxState, process: ProcessId) -> u64 {
        match tx.pinned {
            Some(ts) => ts.value,
            None => self.clock.now(process),
        }
    }

    fn acquire_read_interval(
        &self,
        tx: &mut TxState,
        key: Key,
        anchor_below: Timestamp,
        mut upper: Timestamp,
        wait: bool,
    ) -> Result<ReadGrant, TxError> {
        let stripe = self.cells.stripe_for(key);
        let deadline = Instant::now() + self.config.lock_wait_timeout;
        let mut guard = stripe.data.lock();
        loop {
            // Re-probe the cell each iteration: waiting releases the latch,
            // and the stripe map may rehash or reclaim entries while we sleep.
            let CoreStripe { map, .. } = &mut *guard;
            let data = map.get_or_insert_with(key, KeyData::default);
            let anchor = match data.versions.latest_before(anchor_below) {
                Ok((t, _)) => t,
                Err(bound) => {
                    return Err(TxError::aborted(AbortReason::VersionPurged {
                        key,
                        below: bound,
                    }))
                }
            };
            if upper < anchor.succ() {
                return Ok(ReadGrant {
                    version: anchor,
                    granted: TsSet::new(),
                });
            }
            let desired = TsRange::new(anchor.succ(), upper);
            let analysis = data.locks.analyze(tx.id, LockMode::Read, desired);
            if analysis.hit_frozen() {
                // A frozen write lock inside the window means a newer version
                // exists (or is sealed) there; shrink the window to end just
                // below it and retry, re-anchoring on the newer version when
                // it is visible.
                let frozen_at = analysis
                    .first_frozen()
                    .expect("hit_frozen implies a frozen point");
                if frozen_at <= anchor.succ() {
                    return Ok(ReadGrant {
                        version: anchor,
                        granted: TsSet::new(),
                    });
                }
                upper = frozen_at.pred();
                continue;
            }
            if !analysis.blocked_unfrozen.is_empty() {
                if wait {
                    if stripe.changed.wait_until(&mut guard, deadline).timed_out() {
                        return Err(TxError::aborted(AbortReason::LockTimeout { key }));
                    }
                    continue;
                }
                // No waiting: lock only the contiguous prefix that is free.
                let granted = match analysis.contiguous_grantable_end(anchor.succ()) {
                    None => TsSet::new(),
                    Some(end) => TsSet::from_range(TsRange::new(anchor.succ(), end)),
                };
                data.locks.acquire(tx.id, LockMode::Read, &granted);
                tx.record_read_locks(key, &granted);
                return Ok(ReadGrant {
                    version: anchor,
                    granted,
                });
            }
            let granted = analysis.grantable;
            data.locks.acquire(tx.id, LockMode::Read, &granted);
            tx.record_read_locks(key, &granted);
            return Ok(ReadGrant {
                version: anchor,
                granted,
            });
        }
    }

    fn acquire_write_range(
        &self,
        tx: &mut TxState,
        key: Key,
        desired: TsRange,
        wait: bool,
    ) -> Result<TsSet, TxError> {
        let stripe = self.cells.stripe_for(key);
        let deadline = Instant::now() + self.config.lock_wait_timeout;
        let mut guard = stripe.data.lock();
        loop {
            let CoreStripe { map, .. } = &mut *guard;
            let data = map.get_or_insert_with(key, KeyData::default);
            let analysis = data.locks.analyze(tx.id, LockMode::Write, desired);
            if wait && !analysis.blocked_unfrozen.is_empty() {
                if stripe.changed.wait_until(&mut guard, deadline).timed_out() {
                    return Err(TxError::aborted(AbortReason::LockTimeout { key }));
                }
                continue;
            }
            let granted = analysis.grantable;
            data.locks.acquire(tx.id, LockMode::Write, &granted);
            tx.record_write_locks(key, &granted);
            return Ok(granted);
        }
    }

    fn release_unfrozen_write_locks(&self, tx: &mut TxState) {
        for (key, held) in tx.held.iter() {
            if held.write.is_empty() {
                continue;
            }
            self.with_cell_notify(key, |data, _| {
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

    fn read_many(&self, txn: &mut Self::Txn, keys: &[Key]) -> Result<Vec<Option<V>>, TxError> {
        MvtlStore::read_many(self, txn, keys)
    }

    fn write_many(&self, txn: &mut Self::Txn, entries: Vec<(Key, V)>) -> Result<(), TxError> {
        MvtlStore::write_many(self, txn, entries)
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

    fn recover_install(&self, writes: Vec<(Key, V)>, commit_ts: Timestamp) -> Result<(), TxError> {
        let prepared = self.recover_prepared(writes, &TsSet::from_point(commit_ts))?;
        self.commit_prepared(prepared, commit_ts).map(|_| ())
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
    fn batched_reads_dedup_and_serve_pending_writes() {
        let s = store();
        let mut setup = s.begin(ProcessId(0));
        s.write(&mut setup, Key(1), 10).unwrap();
        s.write(&mut setup, Key(2), 20).unwrap();
        s.commit(setup).unwrap();

        let mut tx = s.begin(ProcessId(1));
        s.write(&mut tx, Key(2), 99).unwrap();
        let values = s
            .read_many(&mut tx, &[Key(2), Key(1), Key(3), Key(1)])
            .unwrap();
        assert_eq!(values, vec![Some(99), Some(10), None, Some(10)]);
        // Deduplication: the repeated Key(1) read anchored once, and the
        // buffered Key(2) never reached the policy, so the read set holds
        // exactly one entry per negotiated key.
        let read_keys: Vec<Key> = tx.state().read_set.iter().map(|(k, _)| *k).collect();
        assert_eq!(read_keys, vec![Key(1), Key(3)]);
        s.commit(tx).unwrap();
    }

    #[test]
    fn batched_writes_lock_once_per_key_and_last_value_wins() {
        let s = store();
        let mut tx = s.begin(ProcessId(0));
        s.write_many(&mut tx, vec![(Key(5), 1), (Key(4), 2), (Key(5), 3)])
            .unwrap();
        // The write set preserves first-occurrence order, as sequential
        // writes would.
        assert_eq!(tx.state().write_keys, vec![Key(5), Key(4)]);
        s.commit(tx).unwrap();
        assert_eq!(s.snapshot_read(Key(5), Timestamp::MAX), Some(3));
        assert_eq!(s.snapshot_read(Key(4), Timestamp::MAX), Some(2));
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
        assert!(stats.lock_entries >= 5);
        assert!(stats.frozen_lock_entries >= 5);
    }

    #[test]
    fn prepare_then_commit_at_coordinator_timestamp() {
        let s = store();
        let mut tx = s.begin(ProcessId(0));
        s.write(&mut tx, Key(1), 7).unwrap();
        let prepared = s.prepare_commit(tx).unwrap();
        let interval = prepared.interval().clone();
        assert!(!interval.is_empty());
        let ts = interval.min().unwrap();
        let info = s.commit_prepared(prepared, ts).unwrap();
        assert_eq!(info.commit_ts, Some(ts));
        assert_eq!(s.snapshot_read(Key(1), Timestamp::MAX), Some(7));
    }

    #[test]
    fn commit_prepared_outside_the_frozen_interval_aborts() {
        let s = store();
        let mut tx = s.begin(ProcessId(0));
        s.write(&mut tx, Key(2), 9).unwrap();
        let prepared = s.prepare_commit(tx).unwrap();
        let outside = prepared.interval().max().unwrap().succ();
        let err = s.commit_prepared(prepared, outside).unwrap_err();
        assert!(err.is_abort());
        // The failed transaction released its locks: a writer succeeds now.
        let mut tx = s.begin(ProcessId(1));
        s.write(&mut tx, Key(2), 10).unwrap();
        s.commit(tx).unwrap();
    }

    #[test]
    fn abort_prepared_releases_locks() {
        let s = store();
        let before = s.stats().lock_entries;
        let mut tx = s.begin(ProcessId(0));
        s.write(&mut tx, Key(3), 1).unwrap();
        let prepared = s.prepare_commit(tx).unwrap();
        assert!(s.stats().lock_entries > before, "prepared txn holds locks");
        s.abort_prepared(prepared);
        assert_eq!(s.stats().lock_entries, before);
        assert_eq!(s.snapshot_read(Key(3), Timestamp::MAX), None);
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
        let s = store();
        let mut tx = s.begin(ProcessId(0));
        s.write(&mut tx, Key(1), 1).unwrap();
        let prepared = s.prepare_commit(tx).unwrap();
        assert_eq!(s.active_transactions(), 1, "prepared txns stay pinned");
        let outside = prepared.interval().max().unwrap().succ();
        assert!(s.commit_prepared(prepared, outside).is_err());
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

    /// The timestamps `owner` holds unfrozen on `key` in `mode`.
    fn owned<P: LockingPolicy>(
        s: &MvtlStore<u64, P>,
        key: Key,
        owner: mvtl_common::TxId,
        mode: LockMode,
    ) -> TsSet {
        let guard = s.cells.stripe_for(key).data.lock();
        guard
            .map
            .get(key)
            .map(|data| data.locks.held(owner, mode))
            .unwrap_or_default()
    }

    /// The timestamps of `key`'s ownerless frozen runs in `mode`.
    fn frozen<P: LockingPolicy>(s: &MvtlStore<u64, P>, key: Key, mode: LockMode) -> TsSet {
        let guard = s.cells.stripe_for(key).data.lock();
        let Some(data) = guard.map.get(key) else {
            return TsSet::new();
        };
        TsSet::from_ranges(
            data.locks
                .entries()
                .iter()
                .filter(|e| e.frozen && e.mode == mode)
                .map(|e| e.range),
        )
    }

    /// Commits one transaction through the prepare path (so the lock mirror
    /// includes commit-time locks) and checks what it leaves on every key it
    /// touched against Algorithm 1's commit and `gc`, computed from the
    /// mirror: the frozen write point on each written key; with `commit_gc`
    /// the frozen read run `[version+1, commit_ts]` of each read and nothing
    /// unfrozen; without it every other lock untouched.
    fn check_commit_end_state<P: LockingPolicy>(
        s: &MvtlStore<u64, P>,
        process: ProcessId,
        body: impl FnOnce(&mut MvtlTransaction<u64>),
    ) {
        let mut tx = s.begin(process);
        body(&mut tx);
        let prepared = s.prepare_commit(tx).expect("prepare");
        let before = prepared.txn.state.clone();
        let commit_ts = s
            .policy()
            .commit_ts(&before, prepared.interval())
            .expect("a commit timestamp");
        let mut keys: Vec<Key> = before.held.iter().map(|(k, _)| k).collect();
        keys.extend(before.read_set.iter().map(|(k, _)| *k));
        keys.extend(before.write_keys.iter().copied());
        let prefix_before: Vec<[TsSet; 2]> = keys
            .iter()
            .map(|k| {
                [
                    frozen(s, *k, LockMode::Write),
                    frozen(s, *k, LockMode::Read),
                ]
            })
            .collect();
        s.commit_prepared(prepared, commit_ts).expect("commit");
        let gc = s.policy().commit_gc(&before);
        let point = TsSet::from_point(commit_ts);
        for (key, [write_before, read_before]) in keys.into_iter().zip(prefix_before) {
            let held = before.locks_on(key).cloned().unwrap_or_default();
            let written = before.write_keys.contains(&key);
            let read_run = before
                .read_set
                .iter()
                .filter(|(k, v)| *k == key && v.succ() <= commit_ts)
                .fold(TsSet::new(), |run, (_, v)| {
                    run.union(&TsSet::from_range(TsRange::new(v.succ(), commit_ts)))
                });
            let (frozen_read, unfrozen_read, unfrozen_write) = if gc {
                (
                    held.read.intersection(&read_run),
                    TsSet::new(),
                    TsSet::new(),
                )
            } else {
                (
                    TsSet::new(),
                    held.read.clone(),
                    held.write.difference(&point),
                )
            };
            if gc && !written {
                assert_eq!(frozen_read, read_run, "{key:?}: read run not fully held");
            }
            let id = before.id;
            let name = s.policy().name();
            let frozen_write = if written { point.clone() } else { TsSet::new() };
            // What the commit adds to the ownerless prefix; a frozen write
            // hides the frozen read at the same timestamp.
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
                owned(s, key, id, LockMode::Write),
                unfrozen_write,
                "{name} {key:?}: unfrozen write"
            );
            assert_eq!(
                owned(s, key, id, LockMode::Read),
                unfrozen_read,
                "{name} {key:?}: unfrozen read"
            );
        }
    }

    fn check_policy_commit_end_state<P: LockingPolicy>(policy: P) {
        let s = MvtlStore::new(policy, Arc::new(GlobalClock::new()), MvtlConfig::default());
        // A blind preload, then a transaction that reads only (1, 5), reads
        // and writes (2) and writes only (4); key 5 was never written.
        check_commit_end_state(&s, ProcessId(0), |tx| {
            for k in 1..=3u64 {
                s.write(tx, Key(k), k).unwrap();
            }
        });
        check_commit_end_state(&s, ProcessId(1), |tx| {
            assert_eq!(s.read(tx, Key(1)).unwrap(), Some(1));
            assert_eq!(s.read(tx, Key(2)).unwrap(), Some(2));
            s.write(tx, Key(2), 20).unwrap();
            s.write(tx, Key(4), 40).unwrap();
            assert_eq!(s.read(tx, Key(5)).unwrap(), None);
        });
        assert_eq!(s.snapshot_read(Key(2), Timestamp::MAX), Some(20));
        assert_eq!(s.snapshot_read(Key(4), Timestamp::MAX), Some(40));
    }

    #[test]
    fn commit_leaves_frozen_write_points_and_read_runs_only() {
        use crate::policy::{
            EpsilonPolicy, GhostbusterPolicy, MvtilPolicy, PessimisticPolicy, PrefPolicy,
            PrioPolicy,
        };
        check_policy_commit_end_state(MvtilPolicy::early(1_000));
        check_policy_commit_end_state(MvtilPolicy::late(1_000));
        check_policy_commit_end_state(EpsilonPolicy::new(50));
        check_policy_commit_end_state(GhostbusterPolicy::new());
        check_policy_commit_end_state(PessimisticPolicy::new());
        check_policy_commit_end_state(PrioPolicy::new());
        check_policy_commit_end_state(PrefPolicy::new());
        check_policy_commit_end_state(ToPolicy::new());
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
        for _ in 0..256 {
            let mut tx = s.begin(ProcessId(1));
            assert_eq!(s.read(&mut tx, Key(1)).unwrap(), Some(7));
            s.commit(tx).unwrap();
        }
        // The version's frozen write point and one merged read run, not one
        // entry per reader.
        let stats = s.stats();
        assert_eq!((stats.lock_entries, stats.frozen_lock_entries), (2, 2));
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
