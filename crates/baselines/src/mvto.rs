//! MVTO+ : multiversion timestamp ordering without cascading aborts (§3).

use mvtl_clock::ClockSource;
use mvtl_common::{
    AbortReason, ActiveTxnRegistry, CommitInfo, Key, ProcessId, StoreStats, Timestamp,
    TransactionalKV, TxError, TxId, TxStatus, TxnPin,
};
use mvtl_storage::{ArenaChain, ChainArena, StripeMap, StripedTable};
use parking_lot::Mutex;
use std::sync::Arc;

/// Number of stripes in the key table.
const STRIPES: usize = 64;

/// The state under one stripe latch: each key's version chain, and the
/// arena its spill buffers come from.
#[derive(Debug)]
struct MvtoStripe<V> {
    chains: StripeMap<ArenaChain<V>>,
    arena: ChainArena<V>,
}

impl<V> Default for MvtoStripe<V> {
    fn default() -> Self {
        MvtoStripe {
            chains: StripeMap::new(),
            arena: ChainArena::new(),
        }
    }
}

/// The MVTO write rule: a write at `ts` is allowed only if the version it
/// would supersede has not been read at a timestamp above `ts`.
///
/// A version's read timestamp `rts` is kept as its read high-water mark
/// `rts.pred()`, so `rts <= ts` reads `read_hw < ts`, and a transaction may
/// read a key and then write it at its own timestamp. Below the purge bound
/// with no stored version under it, the superseded version may be a purged
/// one whose read timestamp went with it: such a write is refused.
fn write_allowed<V: Clone>(chain: &ArenaChain<V>, ts: Timestamp) -> bool {
    match chain.latest_before(ts) {
        Ok((Timestamp::ZERO, _)) if ts < chain.purged_below() => false,
        Ok((version, _)) => chain.read_hw(version).is_some_and(|hw| hw < ts),
        Err(_) => false,
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
///
/// Keys live in the same [`StripedTable`] of [`ArenaChain`]s as the MVTL
/// engine's versions; a version's read-timestamp is its read high-water mark.
/// Cells are never reclaimed: a chain that holds no version still carries
/// `⊥`'s read-timestamp, which the write rule consults.
pub struct MvtoStore<V> {
    clock: Arc<dyn ClockSource>,
    keys: StripedTable<MvtoStripe<V>>,
    /// In-flight transactions, pinned at their begin timestamp; the minimum
    /// is the GC low watermark (reads anchor strictly below `txn.ts`).
    active: ActiveTxnRegistry,
}

impl<V> MvtoStore<V>
where
    V: Clone + Send + Sync + 'static,
{
    /// Creates an MVTO+ store reading timestamps from `clock`.
    #[must_use]
    pub fn new(clock: Arc<dyn ClockSource>) -> Self {
        MvtoStore {
            clock,
            // Commit latches several stripes at once (ascending): a group site.
            keys: StripedTable::build(STRIPES, |stripe| {
                Mutex::named_group("baselines.mvto.stripe", 54, stripe)
            }),
            active: ActiveTxnRegistry::new(),
        }
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
        // Claimed before the clock is read: no sweep purges past the reading.
        let gc_pin = self.active.register(process, || {
            let value = pinned.map_or_else(|| self.clock.now(process), |t| t.value);
            Timestamp::new(value, process.0)
        });
        MvtoTransaction {
            id: TxId::fresh(),
            ts: gc_pin.timestamp(),
            status: TxStatus::Active,
            read_set: Vec::new(),
            writes: Vec::new(),
            gc_pin: Some(gc_pin),
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
        let mut stripe = self.keys.stripe_for(key).data.lock();
        let chain = stripe.chains.get_or_insert_with(key, ArenaChain::new);
        match chain.latest_before(txn.ts) {
            Ok((version_ts, value)) => {
                chain.raise_read_hw(version_ts, txn.ts.pred());
                txn.read_set.push((key, version_ts));
                Ok(value)
            }
            Err(bound) => {
                drop(stripe);
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
        // Latch the stripes of every written key (in stripe order, to avoid
        // latch deadlocks), validate the MVTO write rule on all of them in
        // key order, then install atomically.
        txn.writes.sort_unstable_by_key(|(k, _)| *k);
        let write_keys: Vec<Key> = txn.writes.iter().map(|(k, _)| *k).collect();
        let mut latched: Vec<usize> = write_keys
            .iter()
            .map(|k| self.keys.stripe_index(*k))
            .collect();
        latched.sort_unstable();
        latched.dedup();
        let mut guards: Vec<_> = latched
            .iter()
            .map(|&i| self.keys.stripes()[i].data.lock())
            .collect();
        let slot = |key: Key| {
            latched
                .binary_search(&self.keys.stripe_index(key))
                .expect("stripe latched")
        };
        // Every written key gets a chain, as a read would give it.
        let mut conflict = None;
        for &key in &write_keys {
            let chain = guards[slot(key)]
                .chains
                .get_or_insert_with(key, ArenaChain::new);
            if conflict.is_none() && !write_allowed(chain, txn.ts) {
                conflict = Some(key);
            }
        }
        if let Some(key) = conflict {
            drop(guards);
            txn.status = TxStatus::Aborted;
            self.release_pin(&mut txn);
            return Err(TxError::aborted(AbortReason::WriteConflict { key }));
        }
        for (key, value) in txn.writes.drain(..) {
            let MvtoStripe { chains, arena } = &mut *guards[slot(key)];
            chains
                .get_or_insert_with(key, ArenaChain::new)
                .install(txn.ts, value, arena);
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
        for stripe in self.keys.stripes() {
            for (_, chain) in stripe.data.lock().chains.iter() {
                let chain = chain.stats();
                stats.keys += 1;
                stats.versions += chain.versions;
                stats.purged_versions += chain.purged;
            }
        }
        stats
    }

    /// Purges versions older than `bound` (keeping the most recent one per
    /// key), as triggered by the timestamp service (§8.1).
    fn purge_below(&self, bound: Timestamp) -> (usize, usize) {
        let mut removed = 0;
        for stripe in self.keys.stripes() {
            let MvtoStripe { chains, arena } = &mut *stripe.data.lock();
            for (_, chain) in chains.iter_mut() {
                removed += chain.purge_below(bound, arena);
            }
        }
        (removed, 0)
    }

    /// The smallest begin timestamp among in-flight transactions. Reads
    /// anchor strictly below the transaction's begin timestamp, so purging
    /// below this bound never aborts a live transaction.
    fn low_watermark(&self) -> Option<Timestamp> {
        self.active.low_watermark()
    }

    fn recover_install(&self, writes: Vec<(Key, V)>, commit_ts: Timestamp) -> Result<(), TxError> {
        // MVTO+ serializes by timestamp, so recovery re-installs each version
        // at the timestamp the pre-crash commit chose.
        for (key, value) in writes {
            let MvtoStripe { chains, arena } = &mut *self.keys.stripe_for(key).data.lock();
            chains
                .get_or_insert_with(key, ArenaChain::new)
                .install(commit_ts, value, arena);
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
    fn a_purge_that_removes_nothing_still_guards_reads_of_bottom() {
        // The purge keeps k@10, the newest version below its bound, but
        // drops `⊥`'s read timestamp: R's read of `⊥` at 8 must still
        // refuse W's write at 5.
        let store: MvtoStore<u64> = MvtoStore::new(Arc::new(GlobalClock::new()));
        let at = |v| Some(Timestamp::at(v));
        let mut t = store.begin_at(ProcessId(0), at(10));
        store.write(&mut t, Key(1), 1).unwrap();
        store.commit(t).unwrap();
        let mut r = store.begin_at(ProcessId(0), at(8));
        assert_eq!(store.read(&mut r, Key(1)).unwrap(), None);
        store.commit(r).unwrap();
        assert_eq!(store.purge_below(Timestamp::at(25)), (0, 0));
        let mut w = store.begin_at(ProcessId(0), at(5));
        store.write(&mut w, Key(1), 2).unwrap();
        let err = store.commit(w).unwrap_err();
        assert_eq!(
            err.abort_reason(),
            Some(&AbortReason::WriteConflict { key: Key(1) })
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
        assert_eq!(TransactionalKV::stats(&store).versions, 10);
        assert_eq!(store.purge_below(Timestamp::MAX), (9, 0));
        assert_eq!(TransactionalKV::stats(&store).versions, 1);
        let mut tx = store.begin(ProcessId(0));
        assert_eq!(store.read(&mut tx, Key(1)).unwrap(), Some(9));
        store.commit(tx).unwrap();
    }
}
