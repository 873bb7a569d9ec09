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
    /// Number of interval lock entries currently stored: frozen runs plus
    /// live entries.
    pub entries: usize,
    /// How many of those entries are frozen runs.
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

/// The owner recorded on frozen runs, which belong to no transaction.
const NO_OWNER: TxId = TxId(0);

/// The complete lock state of one key: a list of interval lock entries.
///
/// Conceptually this is one freezable lock per timestamp (an infinite family);
/// concretely it stores only the intervals that transactions actually locked,
/// in two parts of one vector:
///
/// * `entries[..f]`, the **frozen prefix** (`f` is the number of entries
///   with `frozen` set): ownerless runs, sorted by start and pairwise
///   disjoint, each in one mode. Touching runs of the same mode are merged,
///   and where a frozen write meets a frozen read the write wins, because it
///   blocks a superset. So every committed reader of a version extends one
///   read run instead of leaving an entry of its own, and a lookup is a
///   binary search.
/// * `entries[f..]`, the **live suffix**: unfrozen entries, each owned by an
///   in-flight transaction (or, under policies without commit-time GC, by a
///   committed one), in no particular order.
///
/// Dropping the owner of a frozen lock relies on one precondition: **no
/// transaction acquires a lock after it freezes one** (every engine freezes
/// only while committing). So nobody asks who owns a frozen lock; a
/// transaction's own frozen locks would block it like anyone else's. Both
/// parts share the one vector on purpose: a key's lock state stays 24 bytes
/// inline, which matters for stores holding many mostly idle keys.
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
        let (frozen, live) = self.entries.split_at(self.frozen_len());
        let mut blocked_unfrozen = TsSet::new();
        for entry in live {
            if !entry.conflicts_with(owner, mode, &desired) {
                continue;
            }
            // The conflict is limited to the overlap with the request.
            if let Some(overlap) = entry.overlap(&desired) {
                blocked_unfrozen.insert_range(overlap);
            }
        }
        // The runs overlapping `desired` are consecutive in the prefix.
        let mut frozen_conflicts = TsSet::new();
        let first = frozen.partition_point(|run| run.range.end < desired.start);
        for run in frozen[first..]
            .iter()
            .take_while(|run| run.range.start <= desired.end)
        {
            if run.mode.conflicts_with(mode) {
                if let Some(overlap) = run.overlap(&desired) {
                    frozen_conflicts.insert_range(overlap);
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
    /// The covered part leaves the owner's live entries (split as needed) for
    /// the ownerless frozen prefix. Freezing timestamps the owner does not
    /// hold is a no-op (the generic algorithm only freezes what it acquired).
    /// The owner must not acquire anything afterwards (see [`KeyLockState`]).
    pub fn freeze(&mut self, owner: TxId, mode: LockMode, range: TsRange) {
        while let Some(taken) = self.take_live(owner, mode, range) {
            match mode {
                LockMode::Write => self.insert_run(mode, taken),
                LockMode::Read => self.insert_read_run(taken),
            }
        }
    }

    /// Releases every unfrozen lock of `owner` (both modes). Frozen locks stay
    /// forever (until purged together with their versions).
    pub fn release_unfrozen(&mut self, owner: TxId) {
        let mut i = self.frozen_len();
        while i < self.entries.len() {
            if self.entries[i].owner == owner {
                self.entries.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Releases the unfrozen locks of `owner` in `mode` restricted to `range`,
    /// splitting entries as needed. Used e.g. when a read backs off after
    /// discovering a frozen write lock ("release read-locks acquired above").
    pub fn release_unfrozen_range(&mut self, owner: TxId, mode: LockMode, range: TsRange) {
        while self.take_live(owner, mode, range).is_some() {}
    }

    /// The set of timestamps `owner` holds unfrozen in `mode`. What it froze
    /// is part of the ownerless frozen prefix and not reported.
    #[must_use]
    pub fn held(&self, owner: TxId, mode: LockMode) -> TsSet {
        TsSet::from_ranges(
            self.live()
                .iter()
                .filter(|e| e.owner == owner && e.mode == mode)
                .map(|e| e.range),
        )
    }

    /// Removes lock entries that lie entirely below `bound`; called when the
    /// versions below `bound` are purged (§6: "this state can be discarded when
    /// the associated version of the object is purged"). In the frozen prefix
    /// these are the leading runs; a run reaching `bound` stays whole.
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
            frozen_entries: self.frozen_len(),
        }
    }

    /// All entries, for inspection and debugging: the frozen prefix (sorted,
    /// ownerless) followed by the live entries.
    #[must_use]
    pub fn entries(&self) -> &[LockEntry] {
        &self.entries
    }

    /// Whether no locks at all are recorded for this key.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Length of the frozen prefix.
    fn frozen_len(&self) -> usize {
        self.entries.partition_point(|e| e.frozen)
    }

    fn live(&self) -> &[LockEntry] {
        &self.entries[self.frozen_len()..]
    }

    /// Removes the part inside `range` of one live entry of `owner` in `mode`
    /// and returns it; the entry's remainders stay live. `None` when no such
    /// entry overlaps `range`.
    fn take_live(&mut self, owner: TxId, mode: LockMode, range: TsRange) -> Option<TsRange> {
        let f = self.frozen_len();
        let i = f + self.entries[f..]
            .iter()
            .position(|e| e.owner == owner && e.mode == mode && e.range.overlaps(&range))?;
        // Live entries are unordered, and the last entry is live as well.
        let entry = self.entries.swap_remove(i);
        let taken = entry.range.intersection(&range)?;
        if entry.range.start < taken.start {
            self.entries.push(LockEntry::new(
                owner,
                mode,
                TsRange::new(entry.range.start, taken.start.pred()),
            ));
        }
        if entry.range.end > taken.end {
            self.entries.push(LockEntry::new(
                owner,
                mode,
                TsRange::new(taken.end.succ(), entry.range.end),
            ));
        }
        Some(taken)
    }

    /// Adds the frozen read `range` to the prefix wherever no frozen write run
    /// covers it: one [`KeyLockState::insert_run`] per uncovered piece.
    fn insert_read_run(&mut self, range: TsRange) {
        let mut from = range.start;
        loop {
            let frozen = &self.entries[..self.frozen_len()];
            let first = frozen.partition_point(|run| run.range.end < from);
            let write = frozen[first..]
                .iter()
                .take_while(|run| run.range.start <= range.end)
                .find(|run| run.mode == LockMode::Write)
                .map(|run| run.range);
            let Some(write) = write else {
                return self.insert_run(LockMode::Read, TsRange::new(from, range.end));
            };
            if from < write.start {
                self.insert_run(LockMode::Read, TsRange::new(from, write.start.pred()));
            }
            if write.end >= range.end {
                return;
            }
            from = write.end.succ();
        }
    }

    /// Adds the frozen run `range` in `mode` to the prefix: it merges with the
    /// runs of its mode that it overlaps or touches and is cut out of the
    /// other mode's runs. A read `range` must overlap no write run (see
    /// [`KeyLockState::insert_read_run`]), so only write runs ever cut.
    fn insert_run(&mut self, mode: LockMode, range: TsRange) {
        let f = self.frozen_len();
        // The window of runs overlapping or touching `range`.
        let lo = self.entries[..f].partition_point(|run| run.range.end.succ() < range.start);
        let hi =
            lo + self.entries[lo..f].partition_point(|run| run.range.start <= range.end.succ());
        let mut merged = range;
        let (mut before, mut after) = (None, None);
        for run in &self.entries[lo..hi] {
            if run.mode == mode {
                merged.start = merged.start.min(run.range.start);
                merged.end = merged.end.max(run.range.end);
                continue;
            }
            if run.range.start < range.start {
                let end = run.range.end.min(range.start.pred());
                before = Some(frozen_run(run.mode, TsRange::new(run.range.start, end)));
            }
            if run.range.end > range.end {
                let start = run.range.start.max(range.end.succ());
                after = Some(frozen_run(run.mode, TsRange::new(start, run.range.end)));
            }
        }
        let mut runs = [frozen_run(mode, merged); 3];
        let mut n = 0;
        for run in [before, Some(runs[0]), after].into_iter().flatten() {
            runs[n] = run;
            n += 1;
        }
        // A slice iterator reports its exact length, so the splice shifts the
        // live suffix once and allocates nothing beyond the vector itself.
        self.entries.splice(lo..hi, runs[..n].iter().copied());
    }

    /// Merge adjacent unfrozen entries of the same owner and mode to keep the
    /// representation compact (the point of interval compression).
    fn coalesce(&mut self, owner: TxId, mode: LockMode) {
        let mut set = TsSet::new();
        let mut count = 0usize;
        for e in self.live() {
            if e.owner == owner && e.mode == mode {
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

/// A run of the frozen prefix.
fn frozen_run(mode: LockMode, range: TsRange) -> LockEntry {
    LockEntry {
        owner: NO_OWNER,
        mode,
        range,
        frozen: true,
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

    /// The frozen prefix as `(mode, range)` pairs.
    fn runs(s: &KeyLockState) -> Vec<(LockMode, TsRange)> {
        s.entries()
            .iter()
            .take_while(|e| e.frozen)
            .map(|e| (e.mode, e.range))
            .collect()
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
        assert!(a3.frozen_conflicts.is_empty());
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
        assert!(!a.frozen_conflicts.is_empty());
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
    fn frozen_runs_of_different_readers_merge() {
        let mut s = KeyLockState::new();
        for (tx, end) in [(1, 9), (2, 12), (3, 20), (4, 5)] {
            s.acquire_grantable(TxId(tx), LockMode::Read, r(3, end));
            s.freeze(TxId(tx), LockMode::Read, r(3, end));
        }
        // A touching run merges as well; one past a gap does not.
        for range in [TsRange::new(ts(20).succ(), ts(22)), r(30, 31)] {
            s.acquire_grantable(T1, LockMode::Read, range);
            s.freeze(T1, LockMode::Read, range);
        }
        assert_eq!(
            runs(&s),
            [(LockMode::Read, r(3, 22)), (LockMode::Read, r(30, 31))]
        );
        assert_eq!(s.stats().entries, 2);
    }

    #[test]
    fn frozen_write_wins_over_frozen_read() {
        let below_8 = TsRange::new(ts(3), ts(8).pred());
        // A transaction that read version 2 and wrote at 8 freezes its write
        // point, then its read run [3, 8]: the run stops below the write.
        let mut s = KeyLockState::new();
        s.acquire_grantable(T1, LockMode::Read, r(3, 8));
        s.acquire_grantable(T1, LockMode::Write, r(8, 8));
        s.freeze(T1, LockMode::Write, r(8, 8));
        s.freeze(T1, LockMode::Read, r(3, 8));
        s.release_unfrozen(T1);
        assert_eq!(
            runs(&s),
            [(LockMode::Read, below_8), (LockMode::Write, r(8, 8))]
        );
        // In the other order, the write point is cut out of the read run.
        let mut s = KeyLockState::new();
        s.acquire_grantable(T1, LockMode::Read, r(3, 10));
        s.acquire_grantable(T1, LockMode::Write, r(8, 8));
        s.freeze(T1, LockMode::Read, r(3, 10));
        s.freeze(T1, LockMode::Write, r(8, 8));
        assert_eq!(
            runs(&s),
            [
                (LockMode::Read, below_8),
                (LockMode::Write, r(8, 8)),
                (LockMode::Read, TsRange::new(ts(8).succ(), ts(10))),
            ]
        );
        // Frozen reads block writers only; the frozen write blocks readers too.
        let read = s.analyze(T2, LockMode::Read, r(3, 10));
        assert_eq!(read.frozen_conflicts.ranges(), &[r(8, 8)]);
        let write = s.analyze(T2, LockMode::Write, r(3, 10));
        assert_eq!(write.frozen_conflicts.ranges(), &[r(3, 10)]);
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
