//! The interval-compressed lock state of a single key.

use crate::{AcquireAnalysis, LockEntry};
use mvtl_common::{LockMode, Timestamp, TsRange, TsSet, TxId};
use serde::{Deserialize, Serialize};

/// Statistics about the lock state of a key (or, summed, of a whole store).
///
/// §8.4.5 of the paper measures "the number of locks ... as time passes"; these
/// counters are what the state-size experiment (Figure 6) reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LockStateStats {
    /// Number of interval lock entries currently stored.
    pub entries: usize,
    /// How many of those entries are frozen.
    pub frozen_entries: usize,
}

impl LockStateStats {
    /// Component-wise sum, for aggregating across keys.
    #[must_use]
    pub fn merge(self, other: LockStateStats) -> LockStateStats {
        LockStateStats {
            entries: self.entries + other.entries,
            frozen_entries: self.frozen_entries + other.frozen_entries,
        }
    }
}

/// The complete lock state of one key: a list of interval lock entries.
///
/// Conceptually this is one freezable lock per timestamp (an infinite family);
/// concretely it stores only the intervals that transactions actually locked,
/// which §6 argues is "at most one lock interval per committed transaction" for
/// the algorithms in the paper.
///
/// The structure is intentionally free of synchronization: engines wrap it in a
/// per-key latch (mutex) and, where the paper's algorithms *wait* for unfrozen
/// locks, use a condition variable around it.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyLockState {
    entries: Vec<LockEntry>,
}

impl KeyLockState {
    /// Creates an empty lock state (no timestamps locked).
    #[must_use]
    pub fn new() -> Self {
        KeyLockState::default()
    }

    /// Analyses what would happen if `owner` requested locks in `mode` on every
    /// timestamp of `desired`.
    ///
    /// The result partitions `desired` into grantable timestamps, timestamps
    /// blocked by unfrozen conflicting locks (waiting may help) and timestamps
    /// blocked by frozen conflicting locks (waiting can never help).
    #[must_use]
    pub fn analyze(&self, owner: TxId, mode: LockMode, desired: TsRange) -> AcquireAnalysis {
        let mut blocked_unfrozen = TsSet::new();
        let mut frozen_conflicts = TsSet::new();
        for entry in &self.entries {
            if !entry.conflicts_with(owner, mode, &desired) {
                continue;
            }
            // The conflict is limited to the overlap with the request.
            if let Some(overlap) = entry.overlap(&desired) {
                if entry.frozen {
                    frozen_conflicts.insert_range(overlap);
                } else {
                    blocked_unfrozen.insert_range(overlap);
                }
            }
        }
        let mut grantable = TsSet::from_range(desired);
        grantable = grantable.difference(&blocked_unfrozen);
        grantable = grantable.difference(&frozen_conflicts);
        AcquireAnalysis {
            grantable,
            blocked_unfrozen,
            frozen_conflicts,
        }
    }

    /// Records that `owner` now holds locks in `mode` on every timestamp of
    /// `granted`.
    ///
    /// The caller is responsible for having checked grantability (normally via
    /// [`KeyLockState::analyze`] under the same latch). Granting is idempotent:
    /// timestamps already held by `owner` in the same mode are not duplicated.
    pub fn acquire(&mut self, owner: TxId, mode: LockMode, granted: &TsSet) {
        if granted.is_empty() {
            return;
        }
        // Subtract what the owner already holds in this mode to keep entries disjoint.
        let already = self.held(owner, mode);
        let fresh = granted.difference(&already);
        for range in fresh.ranges() {
            self.entries.push(LockEntry::new(owner, mode, *range));
        }
        self.coalesce(owner, mode);
    }

    /// Convenience wrapper: analyse `desired` and immediately acquire whatever
    /// is grantable, returning the analysis.
    pub fn acquire_grantable(
        &mut self,
        owner: TxId,
        mode: LockMode,
        desired: TsRange,
    ) -> AcquireAnalysis {
        let analysis = self.analyze(owner, mode, desired);
        self.acquire(owner, mode, &analysis.grantable);
        analysis
    }

    /// Freezes the locks `owner` holds in `mode` on the timestamps of `range`.
    ///
    /// Entries partially covered by `range` are split so that only the covered
    /// part becomes frozen. Freezing timestamps the owner does not hold is a
    /// no-op (the generic algorithm only freezes what it acquired).
    pub fn freeze(&mut self, owner: TxId, mode: LockMode, range: TsRange) {
        // In place: overwrite the covered slice of each matching entry with
        // its frozen middle and append the unfrozen remainders at the end.
        // Entry order carries no meaning, and the appended remainders are
        // disjoint from `range` by construction, so they need no re-check.
        let n = self.entries.len();
        for i in 0..n {
            let entry = self.entries[i];
            if entry.owner != owner || entry.mode != mode || entry.frozen {
                continue;
            }
            let Some(mid) = entry.range.intersection(&range) else {
                continue;
            };
            self.entries[i] = LockEntry {
                owner,
                mode,
                range: mid,
                frozen: true,
            };
            if entry.range.start < mid.start {
                self.entries.push(LockEntry::new(
                    owner,
                    mode,
                    TsRange::new(entry.range.start, mid.start.pred()),
                ));
            }
            if entry.range.end > mid.end {
                self.entries.push(LockEntry::new(
                    owner,
                    mode,
                    TsRange::new(mid.end.succ(), entry.range.end),
                ));
            }
        }
    }

    /// Releases every unfrozen lock of `owner` (both modes). Frozen locks stay
    /// forever (until purged together with their versions).
    pub fn release_unfrozen(&mut self, owner: TxId) {
        self.entries.retain(|e| e.owner != owner || e.frozen);
    }

    /// Releases the unfrozen locks of `owner` in `mode` restricted to `range`,
    /// splitting entries as needed. Used e.g. when a read backs off after
    /// discovering a frozen write lock ("release read-locks acquired above").
    pub fn release_unfrozen_range(&mut self, owner: TxId, mode: LockMode, range: TsRange) {
        // In place: swap-remove each covered entry and append its unfrozen
        // remainders. After a removal the index is re-examined (it now holds
        // the swapped-in entry); appended remainders are disjoint from
        // `range`, so reaching them is a harmless no-op.
        let mut i = 0;
        while i < self.entries.len() {
            let entry = self.entries[i];
            if entry.owner != owner || entry.mode != mode || entry.frozen {
                i += 1;
                continue;
            }
            let Some(mid) = entry.range.intersection(&range) else {
                i += 1;
                continue;
            };
            self.entries.swap_remove(i);
            if entry.range.start < mid.start {
                self.entries.push(LockEntry::new(
                    owner,
                    mode,
                    TsRange::new(entry.range.start, mid.start.pred()),
                ));
            }
            if entry.range.end > mid.end {
                self.entries.push(LockEntry::new(
                    owner,
                    mode,
                    TsRange::new(mid.end.succ(), entry.range.end),
                ));
            }
        }
    }

    /// The set of timestamps `owner` holds in `mode` (frozen or not).
    #[must_use]
    pub fn held(&self, owner: TxId, mode: LockMode) -> TsSet {
        TsSet::from_ranges(
            self.entries
                .iter()
                .filter(|e| e.owner == owner && e.mode == mode)
                .map(|e| e.range),
        )
    }

    /// Removes lock entries that lie entirely below `bound`; called when the
    /// versions below `bound` are purged (§6: "this state can be discarded when
    /// the associated version of the object is purged").
    ///
    /// Returns the number of entries removed.
    pub fn purge_below(&mut self, bound: Timestamp) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.range.end >= bound);
        before - self.entries.len()
    }

    /// Current statistics for this key.
    #[must_use]
    pub fn stats(&self) -> LockStateStats {
        LockStateStats {
            entries: self.entries.len(),
            frozen_entries: self.entries.iter().filter(|e| e.frozen).count(),
        }
    }

    /// All entries, for inspection and debugging.
    #[must_use]
    pub fn entries(&self) -> &[LockEntry] {
        &self.entries
    }

    /// Whether no locks at all are recorded for this key.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merge adjacent unfrozen entries of the same owner and mode to keep the
    /// representation compact (the point of interval compression).
    fn coalesce(&mut self, owner: TxId, mode: LockMode) {
        let mut set = TsSet::new();
        let mut count = 0usize;
        for e in &self.entries {
            if e.owner == owner && e.mode == mode && !e.frozen {
                set.insert_range(e.range);
                count += 1;
            }
        }
        if count <= 1 || set.ranges().len() == count {
            // Already compact: `acquire` subtracts what the owner holds, so
            // entries of one owner/mode are disjoint; when none of them merge
            // (no two touch) the representation cannot shrink. This is the
            // common case and touches no entry.
            return;
        }
        self.entries
            .retain(|e| !(e.owner == owner && e.mode == mode && !e.frozen));
        for range in set.ranges() {
            self.entries.push(LockEntry::new(owner, mode, *range));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T1: TxId = TxId(1);
    const T2: TxId = TxId(2);
    const T3: TxId = TxId(3);

    fn ts(v: u64) -> Timestamp {
        Timestamp::at(v)
    }

    fn r(a: u64, b: u64) -> TsRange {
        TsRange::new(ts(a), ts(b))
    }

    #[test]
    fn read_locks_share_write_locks_exclude() {
        let mut s = KeyLockState::new();
        let a = s.acquire_grantable(T1, LockMode::Read, r(1, 10));
        assert!(a.fully_grantable());

        // Another reader can share the whole interval.
        let a2 = s.analyze(T2, LockMode::Read, r(5, 15));
        assert!(a2.fully_grantable());

        // A writer is blocked on the overlap but free above it.
        let a3 = s.analyze(T2, LockMode::Write, r(5, 15));
        assert!(a3.blocked_unfrozen.contains(ts(5)));
        assert!(a3.blocked_unfrozen.contains(ts(10)));
        assert!(a3.grantable.contains(ts(11)));
        assert!(!a3.grantable.contains(ts(10)));
        assert!(!a3.hit_frozen());
    }

    #[test]
    fn own_locks_do_not_block_upgrade() {
        let mut s = KeyLockState::new();
        s.acquire_grantable(T1, LockMode::Read, r(1, 10));
        let a = s.analyze(T1, LockMode::Write, r(1, 10));
        assert!(a.fully_grantable());
    }

    #[test]
    fn frozen_write_reported_separately() {
        let mut s = KeyLockState::new();
        s.acquire_grantable(T1, LockMode::Write, r(5, 5));
        s.freeze(T1, LockMode::Write, r(5, 5));
        let a = s.analyze(T2, LockMode::Read, r(1, 10));
        assert!(a.hit_frozen());
        assert!(a.frozen_conflicts.contains(ts(5)));
        assert!(a.grantable.contains(ts(4)));
        assert!(a.grantable.contains(ts(6)));
    }

    #[test]
    fn release_unfrozen_keeps_frozen() {
        let mut s = KeyLockState::new();
        s.acquire_grantable(T1, LockMode::Write, r(5, 9));
        s.freeze(T1, LockMode::Write, r(7, 7));
        s.release_unfrozen(T1);
        // Only the frozen point remains.
        assert_eq!(s.stats().entries, 1);
        assert_eq!(s.stats().frozen_entries, 1);
        let a = s.analyze(T2, LockMode::Write, r(5, 9));
        assert!(a.grantable.contains(ts(5)));
        assert!(a.grantable.contains(ts(9)));
        assert!(a.frozen_conflicts.contains(ts(7)));
    }

    #[test]
    fn freeze_splits_partial_ranges() {
        let mut s = KeyLockState::new();
        s.acquire_grantable(T1, LockMode::Read, r(1, 10));
        s.freeze(T1, LockMode::Read, r(4, 6));
        let stats = s.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.frozen_entries, 1);
        // The frozen middle still blocks writers even after releasing the rest.
        s.release_unfrozen(T1);
        let a = s.analyze(T2, LockMode::Write, r(1, 10));
        assert!(a.grantable.contains(ts(2)));
        assert!(a.frozen_conflicts.contains(ts(5)));
        assert!(a.grantable.contains(ts(8)));
    }

    #[test]
    fn release_range_splits() {
        let mut s = KeyLockState::new();
        s.acquire_grantable(T1, LockMode::Read, r(1, 10));
        s.release_unfrozen_range(T1, LockMode::Read, r(4, 6));
        let held = s.held(T1, LockMode::Read);
        assert!(held.contains(ts(3)));
        assert!(!held.contains(ts(5)));
        assert!(held.contains(ts(7)));
    }

    #[test]
    fn acquire_is_idempotent_and_coalesces() {
        let mut s = KeyLockState::new();
        s.acquire(T1, LockMode::Read, &TsSet::from_range(r(1, 5)));
        s.acquire(T1, LockMode::Read, &TsSet::from_range(r(3, 9)));
        s.acquire(T1, LockMode::Read, &TsSet::from_range(r(1, 9)));
        assert_eq!(s.stats().entries, 1);
        assert_eq!(s.held(T1, LockMode::Read).ranges(), &[r(1, 9)]);
    }

    #[test]
    fn multiple_writers_on_disjoint_timestamps() {
        let mut s = KeyLockState::new();
        let a1 = s.acquire_grantable(T1, LockMode::Write, r(5, 5));
        let a2 = s.acquire_grantable(T2, LockMode::Write, r(6, 6));
        assert!(a1.fully_grantable());
        assert!(a2.fully_grantable());
        // This is the essence of MVTL: two concurrent writers on the same key
        // can both hold write locks, on different timestamps.
        assert!(s.held(T1, LockMode::Write).contains(ts(5)));
        assert!(s.held(T2, LockMode::Write).contains(ts(6)));
    }

    #[test]
    fn unfrozen_conflict_predicate() {
        // `blocked_unfrozen` is non-empty exactly when another transaction
        // holds an unfrozen lock conflicting with the request.
        let blocked = |s: &KeyLockState, owner, range| {
            !s.analyze(owner, LockMode::Read, range)
                .blocked_unfrozen
                .is_empty()
        };
        let mut s = KeyLockState::new();
        s.acquire_grantable(T1, LockMode::Write, r(5, 9));
        assert!(blocked(&s, T2, r(7, 12)));
        assert!(!blocked(&s, T2, r(10, 12)));
        assert!(!blocked(&s, T1, r(5, 9)));
        s.freeze(T1, LockMode::Write, r(5, 9));
        assert!(!blocked(&s, T2, r(7, 12)));
    }

    #[test]
    fn purge_below_removes_old_entries() {
        let mut s = KeyLockState::new();
        s.acquire_grantable(T1, LockMode::Read, r(1, 3));
        s.acquire_grantable(T2, LockMode::Read, r(5, 9));
        s.freeze(T1, LockMode::Read, r(1, 3));
        let removed = s.purge_below(ts(4));
        assert_eq!(removed, 1);
        assert_eq!(s.stats().entries, 1);
        assert!(s.held(T2, LockMode::Read).contains(ts(6)));
    }

    #[test]
    fn three_way_interleaving() {
        let mut s = KeyLockState::new();
        // T1 read-locks [1,10]; T2 write-locks 12; T3 wants to read [1,15].
        s.acquire_grantable(T1, LockMode::Read, r(1, 10));
        s.acquire_grantable(T2, LockMode::Write, r(12, 12));
        let a = s.analyze(T3, LockMode::Read, r(1, 15));
        assert!(a.grantable.contains(ts(5))); // shares with T1's read lock
        assert!(a.blocked_unfrozen.contains(ts(12)));
        assert!(a.grantable.contains(ts(15)));
        assert_eq!(a.contiguous_grantable_end(ts(1)), Some(ts(12).pred())); // ends right before 12
    }

    #[test]
    fn stats_merge() {
        let a = LockStateStats {
            entries: 2,
            frozen_entries: 1,
        };
        let b = LockStateStats {
            entries: 3,
            frozen_entries: 0,
        };
        assert_eq!(
            a.merge(b),
            LockStateStats {
                entries: 5,
                frozen_entries: 1
            }
        );
    }
}
