//! The interval-compressed lock state of a single key.

use crate::{AcquireAnalysis, LockEntry, ReadRequest};
use mvtl_common::{LockMode, Timestamp, TsRange, TsSet, TxId};

/// Statistics about the lock state of a key (or, summed, of a whole store).
///
/// §8.4.5 of the paper measures "the number of locks ... as time passes"; these
/// counters are what the state-size experiment (Figure 6) reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStateStats {
    /// Number of interval lock entries currently stored, frozen or not.
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

/// The smallest spill buffer: the smallest allocation a growing `Vec` of
/// entries makes anyway.
const MIN_SPILL: usize = 4;

/// A key's entries: none, one inline, or any number in a heap buffer.
///
/// `LockEntry`'s mode leaves a niche for the tag, so the inline entry costs
/// nothing over the entry itself: 48 bytes. A buffer, once spilled, stays
/// until [`KeyLockState::purge_below`] finds it empty.
#[derive(Debug, Clone, Default)]
enum Entries {
    #[default]
    Empty,
    One(LockEntry),
    Spilled(Vec<LockEntry>),
}

impl Entries {
    #[inline]
    fn as_slice(&self) -> &[LockEntry] {
        match self {
            Entries::Empty => &[],
            Entries::One(entry) => std::slice::from_ref(entry),
            Entries::Spilled(entries) => entries,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [LockEntry] {
        match self {
            Entries::Empty => &mut [],
            Entries::One(entry) => std::slice::from_mut(entry),
            Entries::Spilled(entries) => entries,
        }
    }

    /// Makes room for `additional` more entries: a key reaching two entries
    /// spills into one buffer sized for all of them.
    fn reserve(&mut self, additional: usize) {
        match self {
            Entries::Spilled(entries) => entries.reserve(additional),
            Entries::One(entry) if additional > 0 => {
                let mut entries = Vec::with_capacity((1 + additional).max(MIN_SPILL));
                entries.push(*entry);
                *self = Entries::Spilled(entries);
            }
            Entries::Empty if additional > 1 => {
                *self = Entries::Spilled(Vec::with_capacity(additional.max(MIN_SPILL)));
            }
            Entries::One(_) | Entries::Empty => {}
        }
    }

    fn push(&mut self, entry: LockEntry) {
        match self {
            Entries::Empty => *self = Entries::One(entry),
            Entries::One(_) => {
                self.reserve(1);
                self.push(entry);
            }
            Entries::Spilled(entries) => entries.push(entry),
        }
    }

    /// Removes the entry at `index`, moving the last one into its place.
    fn swap_remove(&mut self, index: usize) {
        match self {
            Entries::Spilled(entries) => {
                entries.swap_remove(index);
            }
            _ => {
                assert!(index < self.as_slice().len(), "entry index out of bounds");
                *self = Entries::Empty;
            }
        }
    }

    /// Keeps the entries `keep` accepts, which it may edit.
    fn retain(&mut self, mut keep: impl FnMut(&mut LockEntry) -> bool) {
        match self {
            Entries::Empty => {}
            Entries::One(entry) => {
                if !keep(entry) {
                    *self = Entries::Empty;
                }
            }
            Entries::Spilled(entries) => {
                entries.retain_mut(keep);
            }
        }
    }
}

/// The complete lock state of one key: a list of interval lock entries, in
/// no particular order.
///
/// Conceptually this is one freezable lock per timestamp (an infinite family);
/// concretely it stores only the intervals that transactions actually locked.
/// Each entry is owned by one transaction. An owner's unfrozen entries in one
/// mode are disjoint and merged wherever they touch.
///
/// A frozen entry blocks every request in a conflicting mode, its owner's
/// included. That relies on one precondition: **no transaction acquires a
/// lock after it freezes one**. The MVTL engine (`mvtl-core`) never freezes
/// here: a finished transaction's frozen locks live on the versions, so its
/// tables hold only entries of transactions in flight. [`KeyLockState::freeze`]
/// stays for callers that measure a table holding frozen entries.
///
/// A key's state is 48 bytes, the size of one entry: a key with no entry
/// or one entry — every idle key and most keys in use — keeps it inline
/// and owns no heap buffer. Only when a second entry arrives do the entries
/// spill to a `Vec`, reserved once per grant however many ranges the grant
/// holds. The buffer outlives the release that empties it and goes at the
/// key's next §6 purge ([`KeyLockState::purge_below`]), so a hot key
/// whose readers come and go does not allocate and free at every turn,
/// and an idle key owns no buffer after one sweep.
///
/// The structure is intentionally free of synchronization: engines wrap it in a
/// per-key latch (mutex) and, where the paper's algorithms *wait* for unfrozen
/// locks, use a condition variable around it.
#[derive(Debug, Clone, Default)]
pub struct KeyLockState {
    entries: Entries,
}

/// Equal when the entries are, in the same order, whether inline or spilled.
impl PartialEq for KeyLockState {
    fn eq(&self, other: &Self) -> bool {
        self.entries() == other.entries()
    }
}

impl Eq for KeyLockState {}

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
        let mut frozen_conflicts = TsSet::new();
        // One pass; the conflict is limited to the overlap with the request.
        let blocked_unfrozen = TsSet::from_ranges(
            self.entries()
                .iter()
                .filter(|entry| entry.mode.conflicts_with(mode))
                .filter_map(|entry| {
                    let overlap = entry.overlap(&desired)?;
                    if entry.frozen {
                        frozen_conflicts.insert_range(overlap);
                        return None;
                    }
                    (entry.owner != owner).then_some(overlap)
                }),
        );
        let mut grantable = TsSet::from_range(desired);
        if !blocked_unfrozen.is_empty() {
            grantable = grantable.difference(&blocked_unfrozen);
        }
        if !frozen_conflicts.is_empty() {
            grantable = grantable.difference(&frozen_conflicts);
        }
        AcquireAnalysis {
            grantable,
            blocked_unfrozen,
            frozen_conflicts,
        }
    }

    /// What a read lock request of `owner` on `window` gets, in one scan of
    /// the entries and with no set built: the lowest write lock of another
    /// owner inside the window decides.
    ///
    /// * Nothing blocks the window: [`ReadRequest::Whole`].
    /// * A blocker is unfrozen and `wait` is set: [`ReadRequest::Wait`].
    /// * Otherwise [`ReadRequest::Prefix`], the window below the lowest
    ///   blocker. A frozen write lock never goes away, so it blocks everyone,
    ///   its owner included, and nobody waits for it.
    ///
    /// Without `wait` this is [`KeyLockState::analyze`] in read mode followed
    /// by [`AcquireAnalysis::contiguous_grantable_end`] from the window's
    /// start. With `wait` it is the same on a table without frozen entries,
    /// the only tables `mvtl-core` keeps; where frozen write locks alone
    /// block the window, `analyze` grants around them and this grants the
    /// prefix below them.
    #[must_use]
    pub fn read_request(&self, owner: TxId, window: TsRange, wait: bool) -> ReadRequest {
        let mut lowest: Option<Timestamp> = None;
        let mut waitable = false;
        for entry in self.entries() {
            if !entry.mode.conflicts_with(LockMode::Read) || (!entry.frozen && entry.owner == owner)
            {
                continue;
            }
            let Some(overlap) = entry.overlap(&window) else {
                continue;
            };
            waitable |= !entry.frozen;
            lowest = Some(lowest.map_or(overlap.start, |low| low.min(overlap.start)));
        }
        match lowest {
            None => ReadRequest::Whole,
            Some(_) if wait && waitable => ReadRequest::Wait,
            Some(blocked) => ReadRequest::Prefix(
                (blocked > window.start).then(|| TsRange::new(window.start, blocked.pred())),
            ),
        }
    }

    /// Records that `owner` now holds locks in `mode` on `range`: the
    /// one-range [`KeyLockState::acquire`]. An owner holding no live entry in
    /// `mode` gets one pushed, and one whose entry already covers `range`
    /// changes nothing; only a grant meeting other entries of the owner
    /// builds a set.
    pub fn acquire_range(&mut self, owner: TxId, mode: LockMode, range: TsRange) {
        let mut live = self
            .entries()
            .iter()
            .filter(|entry| entry.is_live(owner, mode));
        match live.next() {
            None => self.entries.push(LockEntry::new(owner, mode, range)),
            Some(entry) if entry.range.contains_range(&range) => {}
            Some(_) => self.acquire(owner, mode, &TsSet::from_range(range)),
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
        if !self.entries().iter().any(|e| e.is_live(owner, mode)) {
            // Nothing of the owner's to overlap or merge with: the ranges of
            // a canonical set are already disjoint and non-touching. One
            // reservation, however many ranges the grant holds.
            self.entries.reserve(granted.range_count());
            for range in granted.ranges() {
                self.entries.push(LockEntry::new(owner, mode, *range));
            }
            return;
        }
        // Subtract what the owner already holds in this mode to keep entries disjoint.
        let already = self.held(owner, mode);
        let fresh = granted.difference(&already);
        self.entries.reserve(fresh.range_count());
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
    /// The covered part of each of the owner's live entries is split off and
    /// marked frozen in place. Freezing timestamps the owner does not hold is
    /// a no-op (the generic algorithm only freezes what it acquired). The
    /// owner must not acquire anything afterwards (see [`KeyLockState`]).
    pub fn freeze(&mut self, owner: TxId, mode: LockMode, range: TsRange) {
        while let Some(taken) = self.take_live(owner, mode, range) {
            self.entries.push(LockEntry {
                frozen: true,
                ..LockEntry::new(owner, mode, taken)
            });
        }
    }

    /// Releases every unfrozen lock of `owner` (both modes). Frozen locks stay
    /// forever (until purged together with their versions).
    pub fn release_unfrozen(&mut self, owner: TxId) {
        self.entries.retain(|e| e.frozen || e.owner != owner);
    }

    /// Releases the unfrozen locks of `owner` in `mode` restricted to `range`,
    /// splitting entries as needed. Used e.g. when a read backs off after
    /// discovering a frozen write lock ("release read-locks acquired above").
    pub fn release_unfrozen_range(&mut self, owner: TxId, mode: LockMode, range: TsRange) {
        while self.take_live(owner, mode, range).is_some() {}
    }

    /// The set of timestamps `owner` holds unfrozen in `mode`. What it froze
    /// is not reported.
    #[must_use]
    pub fn held(&self, owner: TxId, mode: LockMode) -> TsSet {
        TsSet::from_ranges(
            self.entries()
                .iter()
                .filter(|e| e.is_live(owner, mode))
                .map(|e| e.range),
        )
    }

    /// Removes lock entries that lie entirely below `bound`; called when the
    /// versions below `bound` are purged (§6: "this state can be discarded when
    /// the associated version of the object is purged"). An entry reaching
    /// `bound` stays whole.
    ///
    /// A key left without entries gives its spill buffer back here, not at
    /// the release that emptied it (see [`KeyLockState`]).
    ///
    /// Returns the number of entries removed.
    pub fn purge_below(&mut self, bound: Timestamp) -> usize {
        let before = self.entries().len();
        self.entries.retain(|e| e.range.end >= bound);
        if self.is_empty() {
            self.entries = Entries::Empty;
        }
        before - self.entries().len()
    }

    /// Current statistics for this key.
    #[must_use]
    pub fn stats(&self) -> LockStateStats {
        let entries = self.entries();
        LockStateStats {
            entries: entries.len(),
            frozen_entries: entries.iter().filter(|e| e.frozen).count(),
        }
    }

    /// All entries, for inspection and debugging, in no particular order.
    #[must_use]
    pub fn entries(&self) -> &[LockEntry] {
        self.entries.as_slice()
    }

    /// Whether no locks at all are recorded for this key.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }

    /// Removes the part inside `range` of one live entry of `owner` in `mode`
    /// and returns it; the entry's remainders stay live, the first in the
    /// entry's place. `None` when no such entry overlaps `range`.
    fn take_live(&mut self, owner: TxId, mode: LockMode, range: TsRange) -> Option<TsRange> {
        let i = self
            .entries()
            .iter()
            .position(|e| e.is_live(owner, mode) && e.range.overlaps(&range))?;
        let held = self.entries()[i].range;
        let taken = held.intersection(&range)?;
        let below =
            (held.start < taken.start).then(|| TsRange::new(held.start, taken.start.pred()));
        let above = (held.end > taken.end).then(|| TsRange::new(taken.end.succ(), held.end));
        let mut rest = below.into_iter().chain(above);
        match rest.next() {
            Some(first) => self.entries.as_mut_slice()[i].range = first,
            None => self.entries.swap_remove(i),
        }
        if let Some(second) = rest.next() {
            self.entries.push(LockEntry::new(owner, mode, second));
        }
        Some(taken)
    }

    /// Merge adjacent unfrozen entries of the same owner and mode to keep the
    /// representation compact (the point of interval compression).
    fn coalesce(&mut self, owner: TxId, mode: LockMode) {
        let count = self
            .entries()
            .iter()
            .filter(|e| e.is_live(owner, mode))
            .count();
        if count <= 1 {
            return;
        }
        let set = self.held(owner, mode);
        if set.range_count() == count {
            // Already compact: `acquire` subtracts what the owner holds, so
            // entries of one owner/mode are disjoint; when none of them merge
            // (no two touch) the representation cannot shrink. This is the
            // common case and touches no entry.
            return;
        }
        // Fewer merged ranges than entries: the first entries take the
        // ranges in place, the rest go.
        let mut merged = set.ranges().iter();
        self.entries.retain(|e| {
            if !e.is_live(owner, mode) {
                return true;
            }
            merged.next().map(|range| e.range = *range).is_some()
        });
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
    fn frozen_entries_block_by_mode_and_block_their_owner() {
        // A transaction that read [3, 10] and wrote at 8 freezes both.
        let mut s = KeyLockState::new();
        s.acquire_grantable(T1, LockMode::Read, r(3, 10));
        s.acquire_grantable(T1, LockMode::Write, r(8, 8));
        s.freeze(T1, LockMode::Read, r(3, 10));
        s.freeze(T1, LockMode::Write, r(8, 8));
        assert_eq!(s.stats().frozen_entries, 2);
        assert!(s.held(T1, LockMode::Read).is_empty());
        // Frozen reads block writers only; the frozen write blocks readers
        // too. Neither waits: both are frozen conflicts.
        let read = s.analyze(T2, LockMode::Read, r(1, 12));
        assert_eq!(read.frozen_conflicts.ranges(), &[r(8, 8)]);
        assert!(read.blocked_unfrozen.is_empty());
        let write = s.analyze(T2, LockMode::Write, r(1, 12));
        assert_eq!(write.frozen_conflicts.ranges(), &[r(3, 10)]);
        // The owner's own frozen locks block it like anyone else's.
        assert_eq!(s.analyze(T1, LockMode::Write, r(1, 12)), write);
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
    fn a_read_request_is_one_range_or_a_wait() {
        let mut s = KeyLockState::new();
        // T1 read-locks [1,10]; T2 write-locks 12; T3 reads from 1.
        s.acquire_range(T1, LockMode::Read, r(1, 10));
        s.acquire_range(T2, LockMode::Write, r(12, 12));
        assert_eq!(s.read_request(T3, r(1, 11), true), ReadRequest::Whole);
        assert_eq!(s.read_request(T3, r(1, 15), true), ReadRequest::Wait);
        assert_eq!(
            s.read_request(T3, r(1, 15), false),
            ReadRequest::Prefix(Some(TsRange::new(ts(1), ts(12).pred())))
        );
        assert_eq!(
            s.read_request(T3, r(12, 15), false),
            ReadRequest::Prefix(None)
        );
        // The writer reads its own lock; a frozen lock is never waited for.
        assert_eq!(s.read_request(T2, r(1, 15), true), ReadRequest::Whole);
        s.freeze(T2, LockMode::Write, r(12, 12));
        assert_eq!(
            s.read_request(T2, r(1, 15), true),
            ReadRequest::Prefix(Some(TsRange::new(ts(1), ts(12).pred())))
        );
        // A grant inside an owner's entry adds nothing; one touching it
        // merges into it.
        s.acquire_range(T1, LockMode::Read, r(3, 4));
        s.acquire_range(T1, LockMode::Read, TsRange::new(ts(10).succ(), ts(11)));
        assert_eq!(s.held(T1, LockMode::Read).ranges(), &[r(1, 11)]);
        assert_eq!(s.stats().entries, 2);
    }

    /// The buffer a spilled key holds: its capacity, or `None` inline.
    fn spill_capacity(s: &KeyLockState) -> Option<usize> {
        match &s.entries {
            Entries::Spilled(entries) => Some(entries.capacity()),
            Entries::Empty | Entries::One(_) => None,
        }
    }

    /// Every other timestamp of `[1, 2 * ranges]`: `ranges` disjoint ranges.
    fn fragmented(ranges: u64) -> TsSet {
        TsSet::from_ranges((0..ranges).map(|i| r(2 * i + 1, 2 * i + 1)))
    }

    #[test]
    fn a_key_state_is_one_entry_wide() {
        assert_eq!(std::mem::size_of::<KeyLockState>(), 48);
        assert_eq!(
            std::mem::size_of::<KeyLockState>(),
            std::mem::size_of::<LockEntry>()
        );
    }

    #[test]
    fn a_multi_range_grant_spills_once_into_a_buffer_of_its_size() {
        // An idle key: one buffer of exactly the grant's 32 ranges.
        let mut s = KeyLockState::new();
        s.acquire(T1, LockMode::Write, &fragmented(32));
        assert_eq!(s.stats().entries, 32);
        assert_eq!(spill_capacity(&s), Some(32));
        // A key holding one entry: 33, which no doubling reaches.
        let mut s = KeyLockState::new();
        s.acquire_grantable(T2, LockMode::Read, r(100, 110));
        assert_eq!(spill_capacity(&s), None, "one entry stays inline");
        s.acquire(T1, LockMode::Write, &fragmented(32));
        assert_eq!(spill_capacity(&s), Some(33));
        // A grant adding to the owner's entries reserves once as well.
        let mut s = KeyLockState::new();
        s.acquire_grantable(T1, LockMode::Write, r(200, 200));
        s.acquire(T1, LockMode::Write, &fragmented(32));
        assert_eq!(s.stats().entries, 33);
        assert_eq!(spill_capacity(&s), Some(33));
    }

    #[test]
    fn releasing_the_last_entry_returns_the_key_inline_at_the_next_purge() {
        let mut s = KeyLockState::new();
        s.acquire_grantable(T1, LockMode::Read, r(1, 10));
        s.acquire_grantable(T2, LockMode::Read, r(5, 15));
        s.acquire_grantable(T3, LockMode::Write, r(20, 20));
        assert_eq!(spill_capacity(&s), Some(MIN_SPILL));
        s.release_unfrozen(T1);
        s.release_unfrozen(T3);
        assert_eq!(s.entries(), &[LockEntry::new(T2, LockMode::Read, r(5, 15))]);
        s.release_unfrozen(T2);
        assert!(s.is_empty());
        assert_eq!(s, KeyLockState::new());
        // The buffer waits for the purge, and serves the next readers.
        assert_eq!(spill_capacity(&s), Some(MIN_SPILL));
        s.acquire_grantable(T1, LockMode::Read, r(1, 10));
        s.acquire_grantable(T2, LockMode::Read, r(5, 15));
        assert_eq!(spill_capacity(&s), Some(MIN_SPILL));
        // A purge that leaves entries keeps it.
        assert_eq!(s.purge_below(ts(3)), 0);
        assert_eq!(spill_capacity(&s), Some(MIN_SPILL));
        s.release_unfrozen(T1);
        s.release_unfrozen(T2);
        assert_eq!(s.purge_below(ts(3)), 0);
        assert_eq!(spill_capacity(&s), None, "an idle key owns no buffer");
        // The same through range releases and a purge that removes entries.
        s.acquire(T1, LockMode::Write, &fragmented(4));
        s.release_unfrozen_range(T1, LockMode::Write, r(1, 4));
        assert_eq!(s.purge_below(ts(100)), 2);
        assert!(s.is_empty());
        assert_eq!(spill_capacity(&s), None);
    }

    #[test]
    fn an_inline_frozen_entry_still_blocks_its_owner() {
        let mut s = KeyLockState::new();
        s.acquire_grantable(T1, LockMode::Write, r(5, 9));
        s.freeze(T1, LockMode::Write, r(5, 9));
        assert_eq!(spill_capacity(&s), None, "one frozen entry, inline");
        assert!(s.held(T1, LockMode::Write).is_empty());
        for owner in [T1, T2] {
            let a = s.analyze(owner, LockMode::Read, r(1, 12));
            assert_eq!(a.frozen_conflicts.ranges(), &[r(5, 9)]);
            assert!(a.blocked_unfrozen.is_empty());
            assert!(!a.grantable.contains(ts(7)));
        }
        s.release_unfrozen(T1);
        assert_eq!(
            s.stats().frozen_entries,
            1,
            "a release keeps frozen entries"
        );
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
