//! Strict two-phase locking (2PL) with timeouts, the lock-based baseline of §8.

use mvtl_clock::ClockSource;
use mvtl_common::{
    AbortReason, CommitInfo, Key, LockMode, ProcessId, Timestamp, TransactionalKV, TxError, TxId,
    TxStatus,
};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct TplKeyState<V> {
    readers: HashSet<TxId>,
    writer: Option<TxId>,
    /// Single committed version, tagged with a logical commit sequence number
    /// so that histories can still be checked for serializability.
    value: Option<(Timestamp, V)>,
}

impl<V> Default for TplKeyState<V> {
    fn default() -> Self {
        TplKeyState {
            readers: HashSet::new(),
            writer: None,
            value: None,
        }
    }
}

impl<V> TplKeyState<V> {
    fn can_lock(&self, tx: TxId, mode: LockMode) -> bool {
        match mode {
            LockMode::Read => self.writer.is_none() || self.writer == Some(tx),
            LockMode::Write => {
                (self.writer.is_none() || self.writer == Some(tx))
                    && self.readers.iter().all(|r| *r == tx)
            }
        }
    }

    fn lock(&mut self, tx: TxId, mode: LockMode) {
        match mode {
            LockMode::Read => {
                self.readers.insert(tx);
            }
            LockMode::Write => {
                self.readers.remove(&tx);
                self.writer = Some(tx);
            }
        }
    }

    fn unlock(&mut self, tx: TxId) {
        self.readers.remove(&tx);
        if self.writer == Some(tx) {
            self.writer = None;
        }
    }
}

#[derive(Debug)]
struct TplCell<V> {
    state: Mutex<TplKeyState<V>>,
    released: Condvar,
}

impl<V> Default for TplCell<V> {
    fn default() -> Self {
        TplCell {
            state: Mutex::named("baselines.tpl.key", 52, TplKeyState::default()),
            released: Condvar::new(),
        }
    }
}

/// A transaction handle of the 2PL engine.
#[derive(Debug)]
pub struct TplTransaction<V> {
    id: TxId,
    status: TxStatus,
    locked: Vec<Key>,
    read_set: Vec<(Key, Timestamp)>,
    writes: Vec<(Key, V)>,
}

/// Strict two-phase locking with a single reader-writer lock per key (§8.1).
///
/// Reads take shared locks, writes take exclusive locks at access time, and all
/// locks are held until commit or abort (strictness). Conflicting requests wait
/// up to a timeout; timing out aborts the transaction, which is both the
/// deadlock-resolution and the starvation-avoidance mechanism the paper's 2PL
/// baseline uses ("the commit rate for 2PL is not optimal because we use
/// timeouts", §8.4.1).
pub struct TwoPhaseLockingStore<V> {
    shards: Vec<RwLock<HashMap<Key, Arc<TplCell<V>>>>>,
    lock_timeout: Duration,
    commit_seq: AtomicU64,
    #[allow(dead_code)]
    clock: Arc<dyn ClockSource>,
}

impl<V> TwoPhaseLockingStore<V>
where
    V: Clone + Send + Sync + 'static,
{
    /// Creates a 2PL store. The clock is kept only so that all engines share a
    /// constructor shape; 2PL itself does not use timestamps.
    #[must_use]
    pub fn new(clock: Arc<dyn ClockSource>, lock_timeout: Duration) -> Self {
        TwoPhaseLockingStore {
            shards: (0..64)
                .map(|_| RwLock::named("baselines.tpl.shard", 50, HashMap::new()))
                .collect(),
            lock_timeout,
            commit_seq: AtomicU64::new(1),
            clock,
        }
    }

    fn cell(&self, key: Key) -> Arc<TplCell<V>> {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        let shard = &self.shards[(hasher.finish() as usize) % self.shards.len()];
        if let Some(cell) = shard.read().get(&key) {
            return Arc::clone(cell);
        }
        let mut map = shard.write();
        Arc::clone(map.entry(key).or_default())
    }

    fn acquire(
        &self,
        txn: &mut TplTransaction<V>,
        key: Key,
        mode: LockMode,
    ) -> Result<(), TxError> {
        let cell = self.cell(key);
        let deadline = Instant::now() + self.lock_timeout;
        let mut state = cell.state.lock();
        while !state.can_lock(txn.id, mode) {
            if cell.released.wait_until(&mut state, deadline).timed_out() {
                return Err(TxError::aborted(AbortReason::LockTimeout { key }));
            }
        }
        state.lock(txn.id, mode);
        if !txn.locked.contains(&key) {
            txn.locked.push(key);
        }
        Ok(())
    }

    fn release_all(&self, txn: &mut TplTransaction<V>) {
        for key in txn.locked.drain(..) {
            let cell = self.cell(key);
            {
                let mut state = cell.state.lock();
                state.unlock(txn.id);
            }
            cell.released.notify_all();
        }
    }
}

impl<V> TransactionalKV<V> for TwoPhaseLockingStore<V>
where
    V: Clone + Send + Sync + 'static,
{
    type Txn = TplTransaction<V>;

    fn begin_at(&self, _process: ProcessId, _pinned: Option<Timestamp>) -> Self::Txn {
        TplTransaction {
            id: TxId::fresh(),
            status: TxStatus::Active,
            locked: Vec::new(),
            read_set: Vec::new(),
            writes: Vec::new(),
        }
    }

    fn read(&self, txn: &mut Self::Txn, key: Key) -> Result<Option<V>, TxError> {
        if txn.status != TxStatus::Active {
            return Err(TxError::TransactionFinished);
        }
        if let Some((_, v)) = txn.writes.iter().rev().find(|(k, _)| *k == key) {
            return Ok(Some(v.clone()));
        }
        if let Err(e) = self.acquire(txn, key, LockMode::Read) {
            txn.status = TxStatus::Aborted;
            self.release_all(txn);
            return Err(e);
        }
        let cell = self.cell(key);
        let state = cell.state.lock();
        match &state.value {
            Some((version, v)) => {
                txn.read_set.push((key, *version));
                Ok(Some(v.clone()))
            }
            None => {
                txn.read_set.push((key, Timestamp::ZERO));
                Ok(None)
            }
        }
    }

    fn write(&self, txn: &mut Self::Txn, key: Key, value: V) -> Result<(), TxError> {
        if txn.status != TxStatus::Active {
            return Err(TxError::TransactionFinished);
        }
        if let Err(e) = self.acquire(txn, key, LockMode::Write) {
            txn.status = TxStatus::Aborted;
            self.release_all(txn);
            return Err(e);
        }
        if let Some(slot) = txn.writes.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            txn.writes.push((key, value));
        }
        Ok(())
    }

    /// The batch-native 2PL read: shared locks for the whole batch are taken
    /// in ascending key order, one acquisition per distinct key. The
    /// canonical order is the classic deadlock-avoidance discipline object
    /// locks need — two concurrent batches can no longer block on each
    /// other's keys in opposite orders, which under op-by-op execution shows
    /// up as timeout aborts.
    fn read_many(&self, txn: &mut Self::Txn, keys: &[Key]) -> Result<Vec<Option<V>>, TxError> {
        if txn.status != TxStatus::Active {
            return Err(TxError::TransactionFinished);
        }
        let mut need: Vec<Key> = keys
            .iter()
            .copied()
            .filter(|key| !txn.writes.iter().any(|(k, _)| k == key))
            .collect();
        need.sort_unstable();
        need.dedup();
        for key in &need {
            if let Err(e) = self.acquire(txn, *key, LockMode::Read) {
                txn.status = TxStatus::Aborted;
                self.release_all(txn);
                return Err(e);
            }
        }
        let mut fetched: HashMap<Key, Option<V>> = HashMap::with_capacity(need.len());
        for key in need {
            let cell = self.cell(key);
            let state = cell.state.lock();
            match &state.value {
                Some((version, v)) => {
                    txn.read_set.push((key, *version));
                    fetched.insert(key, Some(v.clone()));
                }
                None => {
                    txn.read_set.push((key, Timestamp::ZERO));
                    fetched.insert(key, None);
                }
            }
        }
        Ok(keys
            .iter()
            .map(|key| {
                txn.writes
                    .iter()
                    .rev()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.clone())
                    .or_else(|| fetched.get(key).cloned().flatten())
            })
            .collect())
    }

    /// The batch-native 2PL write: exclusive locks in ascending key order,
    /// one per distinct key (same deadlock-avoidance argument as
    /// [`read_many`](TransactionalKV::read_many)), then the buffered upserts.
    fn write_many(&self, txn: &mut Self::Txn, entries: Vec<(Key, V)>) -> Result<(), TxError> {
        if txn.status != TxStatus::Active {
            return Err(TxError::TransactionFinished);
        }
        let mut keys: Vec<Key> = entries.iter().map(|(key, _)| *key).collect();
        keys.sort_unstable();
        keys.dedup();
        for key in keys {
            if let Err(e) = self.acquire(txn, key, LockMode::Write) {
                txn.status = TxStatus::Aborted;
                self.release_all(txn);
                return Err(e);
            }
        }
        for (key, value) in entries {
            if let Some(slot) = txn.writes.iter_mut().find(|(k, _)| *k == key) {
                slot.1 = value;
            } else {
                txn.writes.push((key, value));
            }
        }
        Ok(())
    }

    fn commit(&self, mut txn: Self::Txn) -> Result<CommitInfo, TxError> {
        if txn.status != TxStatus::Active {
            return Err(TxError::TransactionFinished);
        }
        let commit_ts = Timestamp::new(self.commit_seq.fetch_add(1, Ordering::SeqCst), 0);
        let write_keys: Vec<Key> = txn.writes.iter().map(|(k, _)| *k).collect();
        for (key, value) in txn.writes.drain(..) {
            let cell = self.cell(key);
            let mut state = cell.state.lock();
            debug_assert_eq!(state.writer, Some(txn.id), "strictness violated");
            state.value = Some((commit_ts, value));
        }
        self.release_all(&mut txn);
        txn.status = TxStatus::Committed;
        Ok(CommitInfo {
            tx: txn.id,
            commit_ts: Some(commit_ts),
            reads: txn.read_set.clone(),
            writes: write_keys,
        })
    }

    fn abort(&self, mut txn: Self::Txn) {
        self.release_all(&mut txn);
        txn.status = TxStatus::Aborted;
    }

    fn name(&self) -> &'static str {
        "2pl"
    }

    fn recover_install(&self, writes: Vec<(Key, V)>, ts: Timestamp) -> Result<(), TxError> {
        // The single committed version per key is tagged with the commit
        // sequence number, and the log carries it, so recovery keeps the
        // newest committed value per key even if records were logged out of
        // commit order.
        for (key, value) in writes {
            let cell = self.cell(key);
            let mut state = cell.state.lock();
            if state.value.as_ref().is_none_or(|(have, _)| *have < ts) {
                state.value = Some((ts, value));
            }
        }
        self.commit_seq.fetch_max(ts.value + 1, Ordering::SeqCst);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvtl_clock::GlobalClock;

    fn store(timeout_ms: u64) -> TwoPhaseLockingStore<u64> {
        TwoPhaseLockingStore::new(
            Arc::new(GlobalClock::new()),
            Duration::from_millis(timeout_ms),
        )
    }

    #[test]
    fn read_write_roundtrip() {
        let s = store(100);
        let mut w = s.begin(ProcessId(0));
        s.write(&mut w, Key(1), 7).unwrap();
        s.commit(w).unwrap();
        let mut r = s.begin(ProcessId(1));
        assert_eq!(s.read(&mut r, Key(1)).unwrap(), Some(7));
        s.commit(r).unwrap();
    }

    #[test]
    fn batched_ops_roundtrip_with_pending_writes_and_duplicates() {
        let s = store(100);
        let mut setup = s.begin(ProcessId(0));
        s.write_many(&mut setup, vec![(Key(1), 10), (Key(2), 20), (Key(1), 11)])
            .unwrap();
        s.commit(setup).unwrap();

        let mut tx = s.begin(ProcessId(1));
        s.write(&mut tx, Key(2), 99).unwrap();
        assert_eq!(
            s.read_many(&mut tx, &[Key(2), Key(1), Key(3), Key(1)])
                .unwrap(),
            vec![Some(99), Some(11), None, Some(11)]
        );
        // The repeated Key(1) took one shared lock, Key(2) came from the
        // write buffer without locking again.
        assert_eq!(tx.read_set.iter().filter(|(k, _)| *k == Key(1)).count(), 1);
        s.commit(tx).unwrap();
    }

    #[test]
    fn writer_blocks_writer_until_timeout() {
        let s = store(20);
        let mut a = s.begin(ProcessId(0));
        s.write(&mut a, Key(1), 1).unwrap();
        let mut b = s.begin(ProcessId(1));
        let err = s.write(&mut b, Key(1), 2).unwrap_err();
        assert_eq!(
            err.abort_reason(),
            Some(&AbortReason::LockTimeout { key: Key(1) })
        );
        s.commit(a).unwrap();
        // After the first writer commits, a fresh transaction can write.
        let mut c = s.begin(ProcessId(1));
        s.write(&mut c, Key(1), 3).unwrap();
        s.commit(c).unwrap();
    }

    #[test]
    fn readers_share_and_block_writers() {
        let s = store(20);
        let mut r1 = s.begin(ProcessId(0));
        let mut r2 = s.begin(ProcessId(1));
        assert_eq!(s.read(&mut r1, Key(1)).unwrap(), None);
        assert_eq!(s.read(&mut r2, Key(1)).unwrap(), None);
        let mut w = s.begin(ProcessId(2));
        assert!(s.write(&mut w, Key(1), 1).is_err());
        s.commit(r1).unwrap();
        s.commit(r2).unwrap();
    }

    #[test]
    fn lock_upgrade_for_sole_reader() {
        let s = store(50);
        let mut tx = s.begin(ProcessId(0));
        assert_eq!(s.read(&mut tx, Key(1)).unwrap(), None);
        s.write(&mut tx, Key(1), 10).unwrap();
        assert_eq!(s.read(&mut tx, Key(1)).unwrap(), Some(10));
        s.commit(tx).unwrap();
    }

    #[test]
    fn aborted_transactions_release_their_locks() {
        let s = store(20);
        let mut a = s.begin(ProcessId(0));
        s.write(&mut a, Key(1), 1).unwrap();
        s.abort(a);
        let mut b = s.begin(ProcessId(1));
        s.write(&mut b, Key(1), 2).unwrap();
        s.commit(b).unwrap();
        let mut r = s.begin(ProcessId(2));
        assert_eq!(s.read(&mut r, Key(1)).unwrap(), Some(2));
        s.commit(r).unwrap();
    }

    #[test]
    fn commit_sequence_is_monotonic() {
        let s = store(100);
        let mut a = s.begin(ProcessId(0));
        s.write(&mut a, Key(1), 1).unwrap();
        let first = s.commit(a).unwrap().commit_ts.unwrap();
        let mut b = s.begin(ProcessId(0));
        s.write(&mut b, Key(2), 2).unwrap();
        let second = s.commit(b).unwrap().commit_ts.unwrap();
        assert!(second > first);
    }

    #[test]
    fn concurrent_transfers_preserve_totals() {
        let s = Arc::new(store(10));
        {
            let mut tx = s.begin(ProcessId(0));
            for k in 0..4u64 {
                s.write(&mut tx, Key(k), 100).unwrap();
            }
            s.commit(tx).unwrap();
        }
        std::thread::scope(|scope| {
            for w in 0..4usize {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for i in 0..100usize {
                        let from = Key(((w + i) % 4) as u64);
                        let to = Key(((w + i + 1) % 4) as u64);
                        let mut tx = s.begin(ProcessId(w as u32));
                        let ok = (|| -> Result<(), TxError> {
                            let a = s.read(&mut tx, from)?.unwrap_or(0);
                            let b = s.read(&mut tx, to)?.unwrap_or(0);
                            if a > 0 {
                                s.write(&mut tx, from, a - 1)?;
                                s.write(&mut tx, to, b + 1)?;
                            }
                            Ok(())
                        })();
                        match ok {
                            Ok(()) => {
                                let _ = s.commit(tx);
                            }
                            Err(_) => { /* aborted inside read/write */ }
                        }
                    }
                });
            }
        });
        let mut tx = s.begin(ProcessId(9));
        let mut total = 0;
        for k in 0..4u64 {
            total += s.read(&mut tx, Key(k)).unwrap().unwrap_or(0);
        }
        s.commit(tx).unwrap();
        assert_eq!(total, 400);
    }
}
