//! MVTO+ : multiversion timestamp ordering without cascading aborts (§3).

use mvtl_clock::ClockSource;
use mvtl_common::{
    AbortReason, ActiveTxnRegistry, CommitInfo, Key, ProcessId, StoreStats, Timestamp,
    TransactionalKV, TxError, TxId, TxStatus, TxnPin,
};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// One committed version with its read-timestamp.
#[derive(Debug, Clone)]
struct MvtoVersion<V> {
    value: V,
    /// The largest timestamp with which this version was read.
    rts: Timestamp,
}

/// Per-key state: the version list plus the read-timestamp of the initial `⊥`
/// version ("the read-timestamp of X at version 0" in the §5.3 example).
#[derive(Debug)]
struct MvtoKeyState<V> {
    versions: BTreeMap<Timestamp, MvtoVersion<V>>,
    bottom_rts: Timestamp,
    purged_below: Timestamp,
    purged: usize,
}

impl<V> Default for MvtoKeyState<V> {
    fn default() -> Self {
        MvtoKeyState {
            versions: BTreeMap::new(),
            bottom_rts: Timestamp::ZERO,
            purged_below: Timestamp::ZERO,
            purged: 0,
        }
    }
}

impl<V: Clone> MvtoKeyState<V> {
    /// Latest committed version strictly below `ts`, or the `⊥` version.
    fn latest_before(&self, ts: Timestamp) -> Result<(Timestamp, Option<V>), Timestamp> {
        match self.versions.range(..ts).next_back() {
            Some((t, v)) => Ok((*t, Some(v.value.clone()))),
            None => {
                if self.purged > 0 && ts <= self.purged_below {
                    Err(self.purged_below)
                } else {
                    Ok((Timestamp::ZERO, None))
                }
            }
        }
    }

    /// Records that the version at `version_ts` was read at `reader_ts`.
    fn bump_rts(&mut self, version_ts: Timestamp, reader_ts: Timestamp) {
        if version_ts.is_zero() {
            if reader_ts > self.bottom_rts {
                self.bottom_rts = reader_ts;
            }
        } else if let Some(v) = self.versions.get_mut(&version_ts) {
            if reader_ts > v.rts {
                v.rts = reader_ts;
            }
        }
    }

    /// The MVTO write rule: a write at `ts` is allowed only if the version it
    /// would supersede has not been read at a timestamp above `ts`.
    fn write_allowed(&self, ts: Timestamp) -> bool {
        match self.versions.range(..ts).next_back() {
            Some((_, v)) => v.rts <= ts,
            None => self.bottom_rts <= ts,
        }
    }

    fn install(&mut self, ts: Timestamp, value: V) {
        self.versions.insert(
            ts,
            MvtoVersion {
                value,
                rts: Timestamp::ZERO,
            },
        );
    }

    fn purge_below(&mut self, bound: Timestamp) -> usize {
        let keep = self.versions.range(..bound).next_back().map(|(t, _)| *t);
        let to_remove: Vec<Timestamp> = self
            .versions
            .range(..bound)
            .map(|(t, _)| *t)
            .filter(|t| Some(*t) != keep)
            .collect();
        let removed = to_remove.len();
        for t in to_remove {
            self.versions.remove(&t);
        }
        if bound > self.purged_below {
            self.purged_below = bound;
        }
        self.purged += removed;
        removed
    }
}

/// A transaction handle of the MVTO+ engine.
#[derive(Debug)]
pub struct MvtoTransaction<V> {
    id: TxId,
    ts: Timestamp,
    status: TxStatus,
    read_set: Vec<(Key, Timestamp)>,
    writes: Vec<(Key, V)>,
    /// Ticket in the store's active-transaction registry (GC watermark).
    gc_pin: Option<TxnPin>,
}

impl<V> MvtoTransaction<V> {
    /// The timestamp this transaction serializes at.
    #[must_use]
    pub fn timestamp(&self) -> Timestamp {
        self.ts
    }
}

/// The MVTO+ engine (§3).
///
/// Each transaction is assigned a timestamp at begin. Reads return the version
/// with the largest timestamp below the transaction's timestamp and record a
/// *read-timestamp* on that version; writes are buffered and validated at
/// commit: a write is rejected if the version it would supersede was already
/// read by a transaction with a larger timestamp. Unlike plain MVTO, versions
/// become visible only at commit, so cascading aborts cannot occur.
///
/// Aborted transactions leave their read-timestamps behind — this is precisely
/// the behaviour that causes ghost aborts (§5.5) and serial aborts under skewed
/// clocks (§5.3), both of which the MVTL policies remove.
pub struct MvtoStore<V> {
    clock: Arc<dyn ClockSource>,
    shards: Vec<MvtoShard<V>>,
    /// In-flight transactions, pinned at their begin timestamp; the minimum
    /// is the GC low watermark (reads anchor strictly below `txn.ts`).
    active: ActiveTxnRegistry,
}

/// One shard of the key map: keys hash to a shard, each key owns a latched
/// per-key state.
type MvtoShard<V> = RwLock<HashMap<Key, Arc<Mutex<MvtoKeyState<V>>>>>;

impl<V> MvtoStore<V>
where
    V: Clone + Send + Sync + 'static,
{
    /// Creates an MVTO+ store reading timestamps from `clock`.
    #[must_use]
    pub fn new(clock: Arc<dyn ClockSource>) -> Self {
        MvtoStore {
            clock,
            shards: (0..64)
                .map(|_| RwLock::named("baselines.mvto.shard", 54, HashMap::new()))
                .collect(),
            active: ActiveTxnRegistry::new(),
        }
    }

    fn cell(&self, key: Key) -> Arc<Mutex<MvtoKeyState<V>>> {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        let shard = &self.shards[(hasher.finish() as usize) % self.shards.len()];
        if let Some(cell) = shard.read().get(&key) {
            return Arc::clone(cell);
        }
        let mut map = shard.write();
        Arc::clone(map.entry(key).or_insert_with(|| {
            // Commit latches several key mutexes at once (sorted): a group site.
            Arc::new(Mutex::named_group(
                "baselines.mvto.key",
                56,
                MvtoKeyState::default(),
            ))
        }))
    }

    /// Purges versions older than `bound` (keeping the most recent one per
    /// key), as triggered by the timestamp service (§8.1). Returns the number
    /// of versions removed.
    ///
    /// Cells are never reclaimed here: an empty `MvtoKeyState` still carries
    /// the read-timestamp of the `⊥` version (`bottom_rts`), which MVTO+'s
    /// write rule consults — discarding it would re-admit writes below past
    /// reads. This is exactly the "aborted transactions leave their
    /// read-timestamps behind" footprint the MVTL policies avoid.
    pub fn purge_below(&self, bound: Timestamp) -> usize {
        let mut removed = 0;
        for shard in &self.shards {
            let cells: Vec<_> = shard.read().values().cloned().collect();
            for cell in cells {
                removed += cell.lock().purge_below(bound);
            }
        }
        removed
    }

    /// Total number of versions currently stored (state-size experiments).
    #[must_use]
    pub fn version_count(&self) -> usize {
        let mut count = 0;
        for shard in &self.shards {
            let cells: Vec<_> = shard.read().values().cloned().collect();
            for cell in cells {
                count += cell.lock().versions.len();
            }
        }
        count
    }

    /// The smallest begin timestamp among in-flight transactions, or `None`
    /// when none is active. Reads anchor strictly below the transaction's
    /// begin timestamp, so purging below this bound never aborts a live
    /// transaction.
    #[must_use]
    pub fn low_watermark(&self) -> Option<Timestamp> {
        self.active.low_watermark()
    }

    fn release_pin(&self, txn: &mut MvtoTransaction<V>) {
        if let Some(pin) = txn.gc_pin.take() {
            self.active.deregister(pin);
        }
    }
}

impl<V> TransactionalKV<V> for MvtoStore<V>
where
    V: Clone + Send + Sync + 'static,
{
    type Txn = MvtoTransaction<V>;

    fn begin_at(&self, process: ProcessId, pinned: Option<Timestamp>) -> Self::Txn {
        let ts = match pinned {
            Some(t) => Timestamp::new(t.value, process.0),
            None => Timestamp::new(self.clock.now(process), process.0),
        };
        MvtoTransaction {
            id: TxId::fresh(),
            ts,
            status: TxStatus::Active,
            read_set: Vec::new(),
            writes: Vec::new(),
            gc_pin: Some(self.active.register(ts)),
        }
    }

    fn read(&self, txn: &mut Self::Txn, key: Key) -> Result<Option<V>, TxError> {
        if txn.status != TxStatus::Active {
            return Err(TxError::TransactionFinished);
        }
        // Read-your-own-writes from the buffered write set.
        if let Some((_, v)) = txn.writes.iter().rev().find(|(k, _)| *k == key) {
            return Ok(Some(v.clone()));
        }
        let cell = self.cell(key);
        let mut state = cell.lock();
        match state.latest_before(txn.ts) {
            Ok((version_ts, value)) => {
                state.bump_rts(version_ts, txn.ts);
                txn.read_set.push((key, version_ts));
                Ok(value)
            }
            Err(bound) => {
                txn.status = TxStatus::Aborted;
                self.release_pin(txn);
                Err(TxError::aborted(AbortReason::VersionPurged {
                    key,
                    below: bound,
                }))
            }
        }
    }

    fn write(&self, txn: &mut Self::Txn, key: Key, value: V) -> Result<(), TxError> {
        if txn.status != TxStatus::Active {
            return Err(TxError::TransactionFinished);
        }
        if let Some(slot) = txn.writes.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            txn.writes.push((key, value));
        }
        Ok(())
    }

    fn commit(&self, mut txn: Self::Txn) -> Result<CommitInfo, TxError> {
        if txn.status != TxStatus::Active {
            return Err(TxError::TransactionFinished);
        }
        // Latch every written key (in key order, to avoid latch deadlocks),
        // validate the MVTO write rule on all of them, then install atomically.
        let mut write_keys: Vec<Key> = txn.writes.iter().map(|(k, _)| *k).collect();
        write_keys.sort();
        write_keys.dedup();
        let cells: Vec<(Key, Arc<Mutex<MvtoKeyState<V>>>)> =
            write_keys.iter().map(|k| (*k, self.cell(*k))).collect();
        let mut guards: Vec<(Key, parking_lot::MutexGuard<'_, MvtoKeyState<V>>)> = Vec::new();
        for (key, cell) in &cells {
            guards.push((*key, cell.lock()));
        }
        let conflicting_key = guards
            .iter()
            .find(|(_, guard)| !guard.write_allowed(txn.ts))
            .map(|(key, _)| *key);
        if let Some(key) = conflicting_key {
            drop(guards);
            txn.status = TxStatus::Aborted;
            self.release_pin(&mut txn);
            return Err(TxError::aborted(AbortReason::WriteConflict { key }));
        }
        for (key, value) in txn.writes.drain(..) {
            if let Some((_, guard)) = guards.iter_mut().find(|(k, _)| *k == key) {
                guard.install(txn.ts, value);
            }
        }
        drop(guards);
        txn.status = TxStatus::Committed;
        self.release_pin(&mut txn);
        Ok(CommitInfo {
            tx: txn.id,
            commit_ts: Some(txn.ts),
            reads: txn.read_set.clone(),
            writes: write_keys,
        })
    }

    fn abort(&self, mut txn: Self::Txn) {
        // Buffered writes disappear; read-timestamps, by design, stay.
        txn.status = TxStatus::Aborted;
        self.release_pin(&mut txn);
    }

    fn name(&self) -> &'static str {
        "mvto+"
    }

    fn stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        for shard in &self.shards {
            let cells: Vec<_> = shard.read().values().cloned().collect();
            for cell in cells {
                let state = cell.lock();
                stats.keys += 1;
                stats.versions += state.versions.len();
                stats.purged_versions += state.purged;
            }
        }
        stats
    }

    fn purge_below(&self, bound: Timestamp) -> (usize, usize) {
        (MvtoStore::purge_below(self, bound), 0)
    }

    fn low_watermark(&self) -> Option<Timestamp> {
        MvtoStore::low_watermark(self)
    }

    fn recover_install(&self, writes: Vec<(Key, V)>, commit_ts: Timestamp) -> Result<(), TxError> {
        // MVTO+ serializes by timestamp, so recovery re-installs each version
        // at the timestamp the pre-crash commit chose.
        for (key, value) in writes {
            self.cell(key).lock().install(commit_ts, value);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvtl_clock::{GlobalClock, ManualClock};

    fn manual_store() -> (MvtoStore<u64>, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let store = MvtoStore::new(Arc::clone(&clock) as Arc<dyn ClockSource>);
        (store, clock)
    }

    #[test]
    fn read_write_roundtrip() {
        let store: MvtoStore<u64> = MvtoStore::new(Arc::new(GlobalClock::new()));
        let mut w = store.begin(ProcessId(0));
        store.write(&mut w, Key(1), 42).unwrap();
        store.commit(w).unwrap();
        let mut r = store.begin(ProcessId(1));
        assert_eq!(store.read(&mut r, Key(1)).unwrap(), Some(42));
        store.commit(r).unwrap();
    }

    #[test]
    fn read_your_own_writes() {
        let store: MvtoStore<u64> = MvtoStore::new(Arc::new(GlobalClock::new()));
        let mut tx = store.begin(ProcessId(0));
        store.write(&mut tx, Key(1), 1).unwrap();
        assert_eq!(store.read(&mut tx, Key(1)).unwrap(), Some(1));
        store.commit(tx).unwrap();
    }

    #[test]
    fn write_below_read_timestamp_aborts() {
        // The serial-abort schedule of §5.3.
        let (store, clock) = manual_store();
        clock.script(ProcessId(2), vec![2]);
        clock.script(ProcessId(1), vec![1]);
        let mut t2 = store.begin(ProcessId(2));
        assert_eq!(store.read(&mut t2, Key(1)).unwrap(), None);
        store.commit(t2).unwrap();
        let mut t1 = store.begin(ProcessId(1));
        store.write(&mut t1, Key(1), 5).unwrap();
        assert!(store.commit(t1).is_err());
    }

    #[test]
    fn ghost_abort_schedule() {
        // §5.5: T3 R(X) C; T2 R(Y) W(X) A; T1 W(Y) A — the abort of T1 is a
        // ghost abort because its only conflict is with the aborted T2.
        let (store, clock) = manual_store();
        clock.script(ProcessId(1), vec![1]);
        clock.script(ProcessId(2), vec![2]);
        clock.script(ProcessId(3), vec![3]);
        let x = Key(1);
        let y = Key(2);
        let mut t1 = store.begin(ProcessId(1));
        let mut t2 = store.begin(ProcessId(2));
        let mut t3 = store.begin(ProcessId(3));
        let _ = store.read(&mut t3, x).unwrap();
        store.commit(t3).unwrap();
        let _ = store.read(&mut t2, y).unwrap();
        store.write(&mut t2, x, 20).unwrap();
        assert!(store.commit(t2).is_err());
        store.write(&mut t1, y, 10).unwrap();
        assert!(
            store.commit(t1).is_err(),
            "MVTO+ must exhibit the ghost abort"
        );
    }

    #[test]
    fn blind_writes_do_not_conflict() {
        let (store, clock) = manual_store();
        clock.script(ProcessId(1), vec![10]);
        clock.script(ProcessId(2), vec![11]);
        clock.script(ProcessId(3), vec![30]);
        let mut a = store.begin(ProcessId(1));
        let mut b = store.begin(ProcessId(2));
        store.write(&mut a, Key(1), 1).unwrap();
        store.write(&mut b, Key(1), 2).unwrap();
        store.commit(b).unwrap();
        store.commit(a).unwrap();
        let mut r = store.begin(ProcessId(3));
        assert_eq!(store.read(&mut r, Key(1)).unwrap(), Some(2));
        store.commit(r).unwrap();
    }

    #[test]
    fn readers_in_the_past_see_old_versions() {
        let (store, clock) = manual_store();
        clock.script(ProcessId(1), vec![10]);
        clock.script(ProcessId(2), vec![20]);
        clock.script(ProcessId(3), vec![15]);
        let mut w1 = store.begin(ProcessId(1));
        store.write(&mut w1, Key(1), 100).unwrap();
        store.commit(w1).unwrap();
        let mut w2 = store.begin(ProcessId(2));
        store.write(&mut w2, Key(1), 200).unwrap();
        store.commit(w2).unwrap();
        // A reader between the two versions sees the older one.
        let mut r = store.begin(ProcessId(3));
        assert_eq!(store.read(&mut r, Key(1)).unwrap(), Some(100));
        store.commit(r).unwrap();
    }

    #[test]
    fn watermark_tracks_active_transactions_for_gc() {
        let store: MvtoStore<u64> = MvtoStore::new(Arc::new(GlobalClock::new()));
        assert_eq!(store.low_watermark(), None);
        let t1 = store.begin(ProcessId(1));
        let t2 = store.begin(ProcessId(2));
        assert_eq!(store.low_watermark(), Some(t1.timestamp()));
        store.abort(t1);
        assert_eq!(store.low_watermark(), Some(t2.timestamp()));
        store.commit(t2).unwrap();
        assert_eq!(store.low_watermark(), None);
    }

    #[test]
    fn stats_report_versions_and_purges() {
        let store: MvtoStore<u64> = MvtoStore::new(Arc::new(GlobalClock::new()));
        for i in 0..4u64 {
            let mut tx = store.begin(ProcessId(0));
            store.write(&mut tx, Key(1), i).unwrap();
            store.commit(tx).unwrap();
        }
        let stats = TransactionalKV::stats(&store);
        assert_eq!(stats.keys, 1);
        assert_eq!(stats.versions, 4);
        assert_eq!(stats.lock_entries, 0, "MVTO+ has no interval locks");
        let (removed, locks) = TransactionalKV::purge_below(&store, Timestamp::MAX);
        assert_eq!((removed, locks), (3, 0));
        assert_eq!(TransactionalKV::stats(&store).purged_versions, 3);
    }

    #[test]
    fn purging_bounds_version_count() {
        let store: MvtoStore<u64> = MvtoStore::new(Arc::new(GlobalClock::new()));
        for i in 0..10u64 {
            let mut tx = store.begin(ProcessId(0));
            store.write(&mut tx, Key(1), i).unwrap();
            store.commit(tx).unwrap();
        }
        assert_eq!(store.version_count(), 10);
        let removed = store.purge_below(Timestamp::MAX);
        assert_eq!(removed, 9);
        assert_eq!(store.version_count(), 1);
        let mut tx = store.begin(ProcessId(0));
        assert_eq!(store.read(&mut tx, Key(1)).unwrap(), Some(9));
        store.commit(tx).unwrap();
    }
}
