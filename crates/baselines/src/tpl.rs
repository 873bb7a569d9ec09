//! Strict two-phase locking (2PL) with timeouts, the lock-based baseline of §8.

use mvtl_common::{
    AbortReason, CommitInfo, Key, LockMode, ProcessId, Timestamp, TransactionalKV, TxError, TxId,
    TxStatus,
};
use mvtl_storage::{StripeMap, StripedTable};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of stripes in the key table.
const STRIPES: usize = 64;

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
///
/// Each key's lock and value live in a [`StripedTable`] of [`StripeMap`]s,
/// the MVTL engine's key layout; a blocked request waits on its stripe's
/// condition variable.
pub struct TwoPhaseLockingStore<V> {
    keys: StripedTable<StripeMap<TplKeyState<V>>>,
    lock_timeout: Duration,
    commit_seq: AtomicU64,
}

impl<V> TwoPhaseLockingStore<V>
where
    V: Clone + Send + Sync + 'static,
{
    /// Creates a 2PL store whose conflicting lock requests wait up to
    /// `lock_timeout`. 2PL takes no timestamps from a clock: its commit
    /// order is a sequence number.
    #[must_use]
    pub fn new(lock_timeout: Duration) -> Self {
        TwoPhaseLockingStore {
            keys: StripedTable::build(STRIPES, |stripe| {
                Mutex::named("baselines.tpl.stripe", 50, stripe)
            }),
            lock_timeout,
            commit_seq: AtomicU64::new(1),
        }
    }

    /// Takes `key`'s lock in `mode`, waiting on the key's stripe up to the
    /// lock timeout, and runs `then` on the key's state under the same latch.
    /// On a timeout the transaction aborts and releases its locks.
    fn acquire<R>(
        &self,
        txn: &mut TplTransaction<V>,
        key: Key,
        mode: LockMode,
        then: impl FnOnce(&TplKeyState<V>) -> R,
    ) -> Result<R, TxError> {
        let stripe = self.keys.stripe_for(key);
        let deadline = Instant::now() + self.lock_timeout;
        let mut map = stripe.data.lock();
        loop {
            let state = map.get_or_insert_with(key, TplKeyState::default);
            if state.can_lock(txn.id, mode) {
                state.lock(txn.id, mode);
                if !txn.locked.contains(&key) {
                    txn.locked.push(key);
                }
                return Ok(then(state));
            }
            if stripe.changed.wait_until(&mut map, deadline).timed_out() {
                drop(map);
                txn.status = TxStatus::Aborted;
                self.release_all(txn);
                return Err(TxError::aborted(AbortReason::LockTimeout { key }));
            }
        }
    }

    fn release_all(&self, txn: &mut TplTransaction<V>) {
        for key in txn.locked.drain(..) {
            let stripe = self.keys.stripe_for(key);
            stripe
                .data
                .lock()
                .get_mut(key)
                .expect("a locked key has a cell")
                .unlock(txn.id);
            stripe.notify();
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
        let value = self.acquire(txn, key, LockMode::Read, |state| state.value.clone())?;
        let version = value.as_ref().map_or(Timestamp::ZERO, |(ts, _)| *ts);
        txn.read_set.push((key, version));
        Ok(value.map(|(_, v)| v))
    }

    fn write(&self, txn: &mut Self::Txn, key: Key, value: V) -> Result<(), TxError> {
        if txn.status != TxStatus::Active {
            return Err(TxError::TransactionFinished);
        }
        self.acquire(txn, key, LockMode::Write, |_| ())?;
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
        let commit_ts = Timestamp::new(self.commit_seq.fetch_add(1, Ordering::SeqCst), 0);
        let write_keys: Vec<Key> = txn.writes.iter().map(|(k, _)| *k).collect();
        for (key, value) in txn.writes.drain(..) {
            let mut map = self.keys.stripe_for(key).data.lock();
            let state = map.get_mut(key).expect("a written key is write-locked");
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
            let mut map = self.keys.stripe_for(key).data.lock();
            let state = map.get_or_insert_with(key, TplKeyState::default);
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
    use std::sync::Arc;

    fn store(timeout_ms: u64) -> TwoPhaseLockingStore<u64> {
        TwoPhaseLockingStore::new(Duration::from_millis(timeout_ms))
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
