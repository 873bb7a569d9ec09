//! Per-stripe cell state: lock table + version chain, one dense record of
//! the stripe map.
// lint: hot-path
//!
//! The paper's implementation stores, per key, "two skip lists, one for
//! version state, one for lock state" under a per-entry latch (§8.1). Earlier
//! revisions of this crate mirrored that with a per-key `Arc<KeyCell>` (its
//! own mutex + condvar) inside sharded `HashMap`s; the hot path paid for a
//! shard rwlock, a map probe, an `Arc` clone and a second mutex on every
//! operation. Now a key's state is a plain [`KeyData`], one record in the
//! stripe's dense [`StripeMap`], guarded by the *stripe* latch, and spill
//! storage for version-heavy keys comes from the stripe's [`ChainArena`].
//!
//! Frozen locks live on the versions (§6: lock state "can be discarded when
//! the associated version of the object is purged"). A committed write's
//! frozen write lock *is* its version, and the frozen read locks of the
//! committed readers of a version are one run `[version+1, read_hw]`, kept
//! as the version's read high-water mark ([`ArenaChain::raise_read_hw`]) —
//! §3's reading of MVTO+'s per-version read timestamp as one frozen read
//! lock. A read run never spans a newer version, because no writer can
//! commit inside a live read lock, so the versions and their runs are
//! exactly the frozen part of one freezable lock per timestamp (§4.2).
//! Whatever read locks a policy keeps past the end of a transaction, on
//! commit or on abort, become read runs the same way. The [`KeyLockState`]
//! holds only live entries, each owned by a transaction in flight.

use mvtl_common::{LockMode, Timestamp, TsRange, TsSet, TxId};
use mvtl_locks::KeyLockState;
use mvtl_storage::{ArenaChain, ChainArena, StripeMap};

/// Per-key state: the live interval locks and the committed version chain,
/// which carries the frozen ones.
#[derive(Debug)]
pub(crate) struct KeyData<V> {
    pub locks: KeyLockState,
    pub versions: ArenaChain<V>,
}

impl<V> Default for KeyData<V> {
    fn default() -> Self {
        KeyData {
            locks: KeyLockState::new(),
            versions: ArenaChain::default(),
        }
    }
}

impl<V: Clone> KeyData<V> {
    /// The oldest frozen lock a read of `range` conflicts with: the oldest
    /// version inside it (frozen read runs never block readers).
    pub(crate) fn first_frozen_read_conflict(&self, range: TsRange) -> Option<Timestamp> {
        self.versions
            .first_at_or_after(range.start)
            .filter(|&version| version <= range.end)
    }

    /// The write locks `owner` can take on the timestamps of `desired`, in
    /// one pass: one [`KeyLockState::analyze`] over the set's hull, of which
    /// only the live conflicts inside `desired` count, then the versions and
    /// their read runs over the hull cut out in one merge. A lock in a gap
    /// between the set's ranges neither blocks nor makes a waiter wait.
    ///
    /// `None` when `wait` is set and another transaction holds an unfrozen
    /// lock on a timestamp of `desired`: the caller waits and asks again.
    pub(crate) fn write_grant(&self, owner: TxId, desired: &TsSet, wait: bool) -> Option<TsSet> {
        let (Some(start), Some(end)) = (desired.min(), desired.max()) else {
            return Some(TsSet::new());
        };
        let hull = TsRange::new(start, end);
        let live = self.locks.analyze(owner, LockMode::Write, hull);
        if wait && live.blocked_unfrozen.overlaps(desired) {
            return None;
        }
        let spans = self.versions.spans(hull);
        Some(
            if live.blocked_unfrozen.is_empty() && live.frozen_conflicts.is_empty() {
                desired.difference_sorted(spans)
            } else {
                desired
                    .intersection(&live.grantable)
                    .difference_sorted(spans)
            },
        )
    }

    /// The frozen conflicts of a request in `mode` on `range`.
    #[cfg(test)]
    pub(crate) fn frozen_conflicts(&self, mode: LockMode, range: TsRange) -> TsSet {
        let mut conflicts = TsSet::new();
        match mode {
            LockMode::Read => {
                let mut rest = Some(range);
                while let Some(version) = rest.and_then(|r| self.first_frozen_read_conflict(r)) {
                    conflicts.insert(version);
                    rest = (version < range.end).then(|| TsRange::new(version.succ(), range.end));
                }
            }
            LockMode::Write => {
                for span in self.versions.spans(range) {
                    conflicts.insert_range(span.intersection(&range).expect("spans overlap"));
                }
            }
        }
        conflicts
    }

    /// Algorithm 1 lines 17-21 on one key for `owner` committing at
    /// `commit_ts`. A written `value` becomes the version at `commit_ts`,
    /// which is the frozen write lock. The owner's `read_locks` on the key
    /// (sorted ranges, each starting just above the version it read) become
    /// read runs: with `gc` only their part up to `commit_ts`, without it
    /// all of them. Then the owner's live locks are released.
    pub(crate) fn commit(
        &mut self,
        owner: TxId,
        commit_ts: Timestamp,
        value: Option<V>,
        read_locks: &[TsRange],
        gc: bool,
        arena: &mut ChainArena<V>,
    ) {
        let written = value.is_some();
        if let Some(value) = value {
            self.versions.install(commit_ts, value, arena);
        }
        let kept_to = if gc { commit_ts } else { Timestamp::MAX };
        let split = written.then_some(commit_ts);
        for range in read_locks {
            if range.start <= kept_to {
                self.freeze_read(TsRange::new(range.start, range.end.min(kept_to)), split);
            }
        }
        self.locks.release_unfrozen(owner);
    }

    /// An abort of `owner` on one key: its `kept_reads` (MVTO+'s read
    /// timestamps, which an abort never lowers) become read runs, and its
    /// live locks are released.
    pub(crate) fn abort(&mut self, owner: TxId, kept_reads: &[TsRange]) {
        for range in kept_reads {
            self.freeze_read(*range, None);
        }
        self.locks.release_unfrozen(owner);
    }

    /// Freezes the read lock `range`, which starts just above the version it
    /// read: that version's read run is raised to `range.end`. No version
    /// lies inside a live read lock except possibly the owner's own, just
    /// installed at `split`; the lock then leaves two runs, `(v, split]` and
    /// `(split, end]`, since a run never passes the next version.
    fn freeze_read(&mut self, range: TsRange, split: Option<Timestamp>) {
        let mut from = range.start;
        if let Some(own) = split.filter(|&own| range.contains(own) && own < range.end) {
            self.versions.raise_read_hw(from.pred(), own);
            from = own.succ();
        }
        self.versions.raise_read_hw(from.pred(), range.end);
    }

    /// The §6 purge of one key: versions below `bound` except the newest one
    /// go, their read runs with them, and live entries that end below
    /// `bound`. Returns the versions and the lock entries (live entries and
    /// read runs) removed.
    pub(crate) fn purge_below(
        &mut self,
        bound: Timestamp,
        arena: &mut ChainArena<V>,
    ) -> (usize, usize) {
        let (versions, runs) = self.versions.purge(bound, arena);
        (versions, runs + self.locks.purge_below(bound))
    }

    /// Whether the cell holds no state worth keeping after a purge at
    /// `bound`: no live locks, no versions and no read run of `⊥` reaching
    /// the bound. Such cells are reclaimed by
    /// [`purge_below`](crate::MvtlStore::purge_below).
    ///
    /// A chain that has purged versions always retains at least the newest
    /// purged-below version, so reclaiming an idle cell never discards a
    /// purge bound a reader could still trip over.
    pub(crate) fn is_idle(&self, bound: Timestamp) -> bool {
        self.locks.is_empty()
            && self.versions.is_empty()
            && self
                .versions
                .read_hw(Timestamp::ZERO)
                .is_none_or(|hw| hw < bound)
    }
}

/// The state guarded by one stripe latch: the key → [`KeyData`] map, the
/// arena recycling spill buffers for the stripe's version chains, and the
/// stripe's purge floor.
#[derive(Debug)]
pub(crate) struct CoreStripe<V> {
    pub map: StripeMap<KeyData<V>>,
    pub arena: ChainArena<V>,
    /// The highest bound this stripe was purged at: no write lock is granted
    /// below it. It lives on the stripe, not the cell, so it survives cell
    /// reclamation.
    pub floor: Timestamp,
}

impl<V> Default for CoreStripe<V> {
    fn default() -> Self {
        CoreStripe {
            map: StripeMap::new(),
            arena: ChainArena::new(),
            floor: Timestamp::ZERO,
        }
    }
}

#[cfg(test)]
#[path = "cell_tests.rs"]
mod tests;
