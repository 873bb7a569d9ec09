//! Per-transaction state: one record per touched key.

use mvtl_common::{Key, ProcessId, Timestamp, TsRange, TsSet, TxId, TxStatus, TxnPin};

/// What a transaction did to one key: the versions its reads anchored on,
/// the locks it holds there and whether it wrote the key.
///
/// The authoritative lock state lives in the per-key cell; this mirror
/// exists so that commit (Algorithm 1 line 13) can compute the candidate
/// timestamps without re-latching any key, and so that commit and abort
/// know what to freeze and release. The written value sits in the
/// [`MvtlTransaction`], at the record's index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRecord {
    key: Key,
    /// The lowest and the highest version a read of the key anchored on.
    versions: Option<(Timestamp, Timestamp)>,
    /// The read locks held on the key, one range (see
    /// [`TxState::record_read`]).
    read: Option<TsRange>,
    /// The write locks held on the key.
    write: TsSet,
    written: bool,
}

impl KeyRecord {
    fn new(key: Key) -> Self {
        KeyRecord {
            key,
            versions: None,
            read: None,
            write: TsSet::new(),
            written: false,
        }
    }

    /// The key.
    #[must_use]
    pub fn key(&self) -> Key {
        self.key
    }

    /// The lowest and the highest version the key's reads anchored on;
    /// `None` if the transaction never read the key from the store.
    #[must_use]
    pub fn versions_read(&self) -> Option<(Timestamp, Timestamp)> {
        self.versions
    }

    /// The read locks held on the key.
    #[must_use]
    pub fn read_locks(&self) -> Option<TsRange> {
        self.read
    }

    /// The write locks held on the key.
    #[must_use]
    pub fn write_locks(&self) -> &TsSet {
        &self.write
    }

    /// Whether the transaction wrote the key.
    #[must_use]
    pub fn is_written(&self) -> bool {
        self.written
    }

    /// Whether the record holds any lock.
    pub(crate) fn holds_locks(&self) -> bool {
        self.read.is_some() || !self.write.is_empty()
    }

    /// The timestamps this key lets the transaction commit at, as far as
    /// its reads decide: from just above the highest version read up to the
    /// end of the held run (read and write locks together) that starts just
    /// above the lowest one. `None` when no such timestamp exists.
    fn read_window(&self) -> Option<TsRange> {
        let (low, high) = self.versions?;
        let end = run_end(low.succ(), self.read, self.write.ranges())?;
        TsRange::checked(high.succ(), end)
    }
}

/// The end of the run of `read ∪ write` that contains `start`, with `write`
/// sorted, disjoint and non-touching. The one read range is merged in at
/// its place in start order.
fn run_end(start: Timestamp, mut read: Option<TsRange>, write: &[TsRange]) -> Option<Timestamp> {
    let mut writes = write.iter().copied().peekable();
    let mut end: Option<Timestamp> = None;
    loop {
        let next = match (read, writes.peek()) {
            (Some(r), Some(w)) if w.start < r.start => writes.next(),
            (Some(_), _) => read.take(),
            (None, _) => writes.next(),
        };
        let Some(range) = next else {
            break;
        };
        end = match end {
            None if range.contains(start) => Some(range.end),
            None if range.start > start => return None,
            None => None,
            Some(e) if range.start <= e.succ() => Some(e.max(range.end)),
            Some(e) => return Some(e),
        };
    }
    end
}

/// The policy-visible state of a transaction.
///
/// This corresponds to the `tx` record of Algorithm 1 plus the per-policy
/// variables of §5 (`tx.TS`, `tx.PrefTS`, `tx.PossTS`, the priority flag).
/// Its read set, write set and locks are one [`KeyRecord`] per key the
/// transaction touched, in the order it first touched them.
#[derive(Debug, Clone)]
pub struct TxState {
    /// Unique transaction id (lock owner).
    pub id: TxId,
    /// Process executing the transaction (timestamp tie-breaker).
    pub process: ProcessId,
    /// Lifecycle status.
    pub status: TxStatus,
    records: Vec<KeyRecord>,
    /// The written keys in the order first written: the order commit-time
    /// write locks are taken in, and `CommitInfo::writes`.
    writes: Vec<Key>,
    /// Every read and the version it returned, in the order made: what
    /// `CommitInfo::reads` reports, handed over at commit with no copy.
    reads: Vec<(Key, Timestamp)>,
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
            // Transactions touch a handful of keys (the benchmark's
            // workloads run 4 to 16 ops): a linear scan of one vector finds
            // a key without hashing, and its capacity is reused across the
            // transaction's operations.
            records: Vec::with_capacity(8),
            // Allocated by the first write: a read-only transaction never
            // needs it.
            writes: Vec::new(),
            reads: Vec::with_capacity(8),
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

    /// One record per key the transaction touched, in the order it first
    /// touched them.
    #[must_use]
    pub fn records(&self) -> &[KeyRecord] {
        &self.records
    }

    /// The record of `key`, if the transaction touched it.
    #[must_use]
    pub fn record(&self, key: Key) -> Option<&KeyRecord> {
        self.position(key).map(|index| &self.records[index])
    }

    /// The index of `key`'s record.
    pub(crate) fn position(&self, key: Key) -> Option<usize> {
        self.records.iter().position(|record| record.key == key)
    }

    /// The index of `key`'s record, pushing an empty one when absent.
    fn index_of(&mut self, key: Key) -> usize {
        self.position(key).unwrap_or_else(|| {
            self.records.push(KeyRecord::new(key));
            self.records.len() - 1
        })
    }

    /// The written keys, in the order first written. Policies walk them
    /// by index, since locking one needs `&mut self`.
    #[must_use]
    pub fn written_keys(&self) -> &[Key] {
        &self.writes
    }

    /// Whether the transaction wrote any key.
    #[must_use]
    pub fn has_writes(&self) -> bool {
        !self.writes.is_empty()
    }

    /// Records a read of `key` that anchored on `version` and was granted
    /// the read locks `granted`, which start at `version.succ()`.
    ///
    /// A key's read locks are one range. Every read of a key anchors on the
    /// same version: no other transaction installs a version inside a live
    /// read lock, and every policy's next read of the key anchors below a
    /// bound at most one past the end of its last grant there. So a key's
    /// grants all start at one timestamp, and their union is one range.
    /// Grants apart from each other need reads of one key anchored on
    /// different versions with a version between them; such a transaction
    /// has no commit timestamp, since no held run reaches from one
    /// version's successor past the other, and its record keeps the range
    /// it held first.
    pub fn record_read(&mut self, key: Key, version: Timestamp, granted: Option<TsRange>) {
        self.reads.push((key, version));
        let index = self.index_of(key);
        let record = &mut self.records[index];
        record.versions = Some(match record.versions {
            None => (version, version),
            Some((low, high)) => (low.min(version), high.max(version)),
        });
        let Some(granted) = granted else {
            return;
        };
        record.read = Some(match record.read {
            None => granted,
            Some(held) if held.touches(&granted) => {
                TsRange::new(held.start.min(granted.start), held.end.max(granted.end))
            }
            Some(held) => held,
        });
    }

    /// Records write locks granted on `key`. An empty grant records
    /// nothing.
    pub fn record_write_locks(&mut self, key: Key, granted: &TsSet) {
        if granted.is_empty() {
            return;
        }
        let index = self.index_of(key);
        let held = &mut self.records[index].write;
        *held = if held.is_empty() {
            granted.clone()
        } else {
            held.union(granted)
        };
    }

    /// Forgets the unfrozen write locks recorded for every key (mirror of a
    /// "release all write locks" step in a policy).
    pub fn clear_write_locks(&mut self) {
        for record in &mut self.records {
            record.write = TsSet::new();
        }
    }

    /// Adds `key` to the write set and returns its record's index.
    pub(crate) fn note_write(&mut self, key: Key) -> usize {
        let index = self.index_of(key);
        let record = &mut self.records[index];
        if !record.written {
            record.written = true;
            if self.writes.is_empty() {
                // Room for every record so far, so later writes rarely
                // grow it.
                self.writes.reserve_exact(self.records.capacity());
            }
            self.writes.push(key);
        }
        index
    }

    /// The candidate commit timestamps of Algorithm 1 line 13: timestamps `t`
    /// such that every read key is covered contiguously from the version read
    /// up to `t` by locks the transaction holds, and every written key is
    /// write-locked at `t`.
    ///
    /// The reads narrow one range, one record at a time, with no search:
    /// each record knows the versions it read and its locks. Only the
    /// written keys' write locks, which may be cut into many ranges, are
    /// intersected as sets.
    #[must_use]
    pub(crate) fn commit_candidates(&self) -> TsSet {
        // Timestamp::ZERO is reserved for the initial ⊥ version, so no
        // transaction may serialize there.
        let mut window = TsRange::new(Timestamp::ZERO.succ(), Timestamp::MAX);
        for record in &self.records {
            if record.versions.is_none() {
                continue;
            }
            let Some(narrowed) = record
                .read_window()
                .and_then(|read| window.intersection(&read))
            else {
                return TsSet::new();
            };
            window = narrowed;
        }
        let mut candidates = TsSet::from_range(window);
        for record in self.records.iter().filter(|record| record.written) {
            candidates = candidates.intersection(&record.write);
            if candidates.is_empty() {
                break;
            }
        }
        candidates
    }

    /// Every read and the version it returned, in the order made.
    #[must_use]
    pub fn reads(&self) -> &[(Key, Timestamp)] {
        &self.reads
    }

    /// `CommitInfo::reads`, moved out.
    pub(crate) fn take_reads(&mut self) -> Vec<(Key, Timestamp)> {
        std::mem::take(&mut self.reads)
    }

    /// `CommitInfo::writes`, moved out.
    pub(crate) fn take_written_keys(&mut self) -> Vec<Key> {
        std::mem::take(&mut self.writes)
    }
}

/// A transaction handle returned by the `begin` of [`crate::MvtlStore`]
/// (via [`mvtl_common::TransactionalKV::begin`]).
///
/// It owns the buffered writes ("the write is not visible to other transactions
/// until the transaction commits", §4.3) and the policy-visible [`TxState`].
///
/// It holds no reference to its store, so it cannot release its locks and
/// its GC pin by itself: every transaction must end in `commit` or `abort`.
/// Dropping one that is still active is a bug, which debug builds catch.
#[derive(Debug)]
#[must_use = "a transaction holds locks until it is committed or aborted"]
pub struct MvtlTransaction<V> {
    /// Policy-visible state.
    pub(crate) state: TxState,
    /// Buffered writes by record index: `values[i]` is the last value
    /// written to the key of record `i`. Allocated at the first write, and
    /// only as long as the last written record.
    pub(crate) values: Vec<Option<V>>,
}

impl<V> Drop for MvtlTransaction<V> {
    fn drop(&mut self) {
        debug_assert!(
            std::thread::panicking() || !self.state.is_active(),
            "transaction {} dropped while active: commit or abort it",
            self.state.id
        );
    }
}

impl<V> MvtlTransaction<V> {
    pub(crate) fn new(state: TxState) -> Self {
        MvtlTransaction {
            state,
            values: Vec::new(),
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
        let index = self.state.note_write(key);
        if self.values.is_empty() {
            // Room for every record so far, so later writes rarely grow it.
            self.values = Vec::with_capacity(self.state.records.capacity());
        }
        if self.values.len() <= index {
            self.values.resize_with(index + 1, || None);
        }
        self.values[index] = Some(value);
    }

    /// The value this transaction has buffered for `key`, if it wrote it.
    #[must_use]
    pub fn pending_write(&self, key: Key) -> Option<&V> {
        if self.values.is_empty() {
            return None;
        }
        self.values.get(self.state.position(key)?)?.as_ref()
    }
}

#[cfg(test)]
#[path = "txn_tests.rs"]
mod tests;
