//! Per-transaction state.

use mvtl_common::{Key, ProcessId, Timestamp, TsSet, TxId, TxStatus, TxnPin};

/// Locks a transaction holds on one key, as recorded on the transaction side.
///
/// The authoritative lock state lives in the per-key cell; this mirror exists
/// so that commit (Algorithm 1 line 13) can compute the candidate timestamp set
/// without re-latching every key, and so that abort/GC know what to release.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeldLocks {
    /// Timestamps read-locked on the key.
    pub read: TsSet,
    /// Timestamps write-locked on the key.
    pub write: TsSet,
}

impl HeldLocks {
    /// Union of read- and write-locked timestamps.
    #[must_use]
    pub fn any(&self) -> TsSet {
        self.read.union(&self.write)
    }
}

/// The per-key lock mirror of one transaction: a small linear-scan vector.
///
/// Transactions touch a handful of keys (the benchmark's workloads run 4 to
/// 16 ops), so a `Vec` probe beats a `HashMap` — no hashing, no bucket
/// allocation, and the buffer's capacity is reused across the transaction's
/// operations.
#[derive(Debug, Clone, Default)]
pub struct HeldMap {
    entries: Vec<(Key, HeldLocks)>,
}

impl HeldMap {
    /// Locks recorded for `key`, if any.
    #[must_use]
    pub fn get(&self, key: Key) -> Option<&HeldLocks> {
        self.entries
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, held)| held)
    }

    /// Exclusive access to the locks recorded for `key`, inserting an empty
    /// record when absent.
    fn entry_mut(&mut self, key: Key) -> &mut HeldLocks {
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            return &mut self.entries[i].1;
        }
        self.entries.push((key, HeldLocks::default()));
        &mut self.entries.last_mut().expect("entry just pushed").1
    }

    /// Iterates over `(key, locks)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &HeldLocks)> {
        self.entries.iter().map(|(k, held)| (*k, held))
    }

    /// Number of keys with recorded locks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no locks are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The policy-visible state of a transaction.
///
/// This corresponds to the `tx` record of Algorithm 1 plus the per-policy
/// variables of §5 (`tx.TS`, `tx.PrefTS`, `tx.PossTS`, the priority flag).
#[derive(Debug, Clone)]
pub struct TxState {
    /// Unique transaction id (lock owner).
    pub id: TxId,
    /// Process executing the transaction (timestamp tie-breaker).
    pub process: ProcessId,
    /// Lifecycle status.
    pub status: TxStatus,
    /// `tx.readset`: keys read and the version timestamp each read returned.
    pub read_set: Vec<(Key, Timestamp)>,
    /// `tx.writeset` keys (values are kept by [`crate::MvtlTransaction`], which
    /// owns the value type).
    pub write_keys: Vec<Key>,
    /// Locks held per key, mirrored from the per-key cells.
    pub held: HeldMap,
    /// The candidate timestamps the policy is still considering
    /// (`tx.TS` for ε-clock/MVTIL, `PossTS` for MVTL-Pref).
    pub ts_set: TsSet,
    /// The timestamp obtained from the clock at begin, when the policy uses one
    /// (`tx.TS` for MVTL-TO, `tx.PrefTS` for MVTL-Pref).
    pub start_ts: Option<Timestamp>,
    /// The commit timestamp chosen by `commit-locks`, if the policy picks one
    /// before the generic candidate intersection.
    pub chosen_ts: Option<Timestamp>,
    /// Whether this transaction is critical (MVTL-Prio §5.2).
    pub priority: bool,
    /// Clock value pinned by the caller (used by the verifier to replay the
    /// paper's schedules); `None` means "read the engine clock".
    pub pinned: Option<Timestamp>,
    /// The commit timestamp assigned when the transaction committed.
    pub commit_ts: Option<Timestamp>,
    /// Ticket in the store's active-transaction registry; taken back by the
    /// store when the transaction ends, so the GC watermark can advance.
    pub(crate) gc_pin: Option<TxnPin>,
}

impl TxState {
    /// Creates the state of a freshly begun transaction.
    #[must_use]
    pub fn new(process: ProcessId, pinned: Option<Timestamp>) -> Self {
        TxState {
            id: TxId::fresh(),
            process,
            status: TxStatus::Active,
            read_set: Vec::with_capacity(8),
            write_keys: Vec::with_capacity(4),
            held: HeldMap::default(),
            ts_set: TsSet::new(),
            start_ts: None,
            chosen_ts: None,
            priority: false,
            pinned,
            commit_ts: None,
            gc_pin: None,
        }
    }

    /// Whether the transaction is still active.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.status == TxStatus::Active
    }

    /// Records a committed read of `key` that observed `version`.
    pub fn record_read(&mut self, key: Key, version: Timestamp) {
        self.read_set.push((key, version));
    }

    /// Records locks granted on `key`.
    pub fn record_read_locks(&mut self, key: Key, granted: &TsSet) {
        if granted.is_empty() {
            return;
        }
        let held = self.held.entry_mut(key);
        held.read = held.read.union(granted);
    }

    /// Records write locks granted on `key`.
    pub fn record_write_locks(&mut self, key: Key, granted: &TsSet) {
        if granted.is_empty() {
            return;
        }
        let held = self.held.entry_mut(key);
        held.write = held.write.union(granted);
    }

    /// Forgets the unfrozen write locks recorded for every key (mirror of a
    /// "release all write locks" step in a policy).
    pub fn clear_write_locks(&mut self) {
        for (_, held) in &mut self.held.entries {
            held.write = TsSet::new();
        }
    }

    /// Locks held on `key`, if any.
    #[must_use]
    pub fn locks_on(&self, key: Key) -> Option<&HeldLocks> {
        self.held.get(key)
    }

    /// Every key on which the transaction holds (or held) locks.
    #[must_use]
    pub fn locked_keys(&self) -> Vec<Key> {
        let mut keys: Vec<Key> = self.held.iter().map(|(k, _)| k).collect();
        keys.sort();
        keys
    }

    /// Adds `key` to the write set if not already present.
    pub fn note_write_key(&mut self, key: Key) {
        if !self.write_keys.contains(&key) {
            self.write_keys.push(key);
        }
    }
}

/// A transaction handle returned by the `begin` of [`crate::MvtlStore`]
/// (via [`mvtl_common::TransactionalKV::begin`]).
///
/// It owns the buffered writes ("the write is not visible to other transactions
/// until the transaction commits", §4.3) and the policy-visible [`TxState`].
#[derive(Debug)]
pub struct MvtlTransaction<V> {
    /// Policy-visible state.
    pub(crate) state: TxState,
    /// Buffered writes, last value per key wins.
    pub(crate) write_values: Vec<(Key, V)>,
}

impl<V> MvtlTransaction<V> {
    pub(crate) fn new(state: TxState) -> Self {
        MvtlTransaction {
            state,
            write_values: Vec::with_capacity(4),
        }
    }

    /// The transaction id.
    #[must_use]
    pub fn id(&self) -> TxId {
        self.state.id
    }

    /// The policy-visible state (for inspection and tests).
    #[must_use]
    pub fn state(&self) -> &TxState {
        &self.state
    }

    /// Marks the transaction as critical (MVTL-Prio). Must be called before the
    /// first operation to have any effect on locking behaviour.
    pub fn set_priority(&mut self, critical: bool) {
        self.state.priority = critical;
    }

    pub(crate) fn buffer_write(&mut self, key: Key, value: V) {
        if let Some(slot) = self.write_values.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.write_values.push((key, value));
        }
        self.state.note_write_key(key);
    }

    /// The value this transaction has buffered for `key`, if it wrote it.
    #[must_use]
    pub fn pending_write(&self, key: Key) -> Option<&V> {
        self.write_values
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvtl_common::TsRange;

    #[test]
    fn record_and_query_locks() {
        let mut tx = TxState::new(ProcessId(1), None);
        assert!(tx.is_active());
        let r = TsSet::from_range(TsRange::new(Timestamp::at(1), Timestamp::at(5)));
        tx.record_read_locks(Key(9), &r);
        tx.record_write_locks(Key(9), &TsSet::from_point(Timestamp::at(7)));
        let held = tx.locks_on(Key(9)).unwrap();
        assert!(held.read.contains(Timestamp::at(3)));
        assert!(held.write.contains(Timestamp::at(7)));
        assert!(held.any().contains(Timestamp::at(3)));
        assert!(held.any().contains(Timestamp::at(7)));
        assert_eq!(tx.locked_keys(), vec![Key(9)]);

        tx.clear_write_locks();
        assert!(tx.locks_on(Key(9)).unwrap().write.is_empty());
        assert!(!tx.locks_on(Key(9)).unwrap().read.is_empty());
    }

    #[test]
    fn empty_grants_are_not_recorded() {
        let mut tx = TxState::new(ProcessId(0), None);
        tx.record_read_locks(Key(1), &TsSet::new());
        assert!(tx.locks_on(Key(1)).is_none());
    }

    #[test]
    fn held_map_is_keyed_not_ordered() {
        let mut tx = TxState::new(ProcessId(0), None);
        let point = TsSet::from_point(Timestamp::at(2));
        tx.record_read_locks(Key(7), &point);
        tx.record_read_locks(Key(3), &point);
        tx.record_read_locks(Key(7), &TsSet::from_point(Timestamp::at(4)));
        assert_eq!(tx.held.len(), 2);
        assert_eq!(tx.locked_keys(), vec![Key(3), Key(7)]);
        assert!(tx.locks_on(Key(7)).unwrap().read.contains(Timestamp::at(4)));
    }

    #[test]
    fn write_buffer_upserts() {
        let mut tx: MvtlTransaction<u64> = MvtlTransaction::new(TxState::new(ProcessId(0), None));
        tx.buffer_write(Key(1), 10);
        tx.buffer_write(Key(2), 20);
        tx.buffer_write(Key(1), 11);
        assert_eq!(tx.pending_write(Key(1)), Some(&11));
        assert_eq!(tx.pending_write(Key(2)), Some(&20));
        assert_eq!(tx.pending_write(Key(3)), None);
        assert_eq!(tx.state().write_keys, vec![Key(1), Key(2)]);
        assert_eq!(tx.write_values.len(), 2);
    }

    #[test]
    fn note_write_key_deduplicates() {
        let mut tx = TxState::new(ProcessId(0), None);
        tx.note_write_key(Key(4));
        tx.note_write_key(Key(4));
        assert_eq!(tx.write_keys, vec![Key(4)]);
    }
}
