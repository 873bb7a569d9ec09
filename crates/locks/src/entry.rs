//! A single interval lock entry.

use mvtl_common::{LockMode, TsRange, TxId};
use serde::{Deserialize, Serialize};

/// One interval lock held on a key: an owner, a mode, a closed timestamp range
/// and a frozen bit.
///
/// This is the unit of *interval compression* (§6): "rather than keeping a lock
/// state for each timestamp, an implementation can keep a single lock state for
/// an entire interval".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LockEntry {
    /// Transaction holding the lock. Meaningless on a frozen entry: frozen
    /// runs of different transactions merge, so they belong to no one (see
    /// [`crate::KeyLockState`]).
    pub owner: TxId,
    /// Read or write mode.
    pub mode: LockMode,
    /// Timestamps covered by the lock.
    pub range: TsRange,
    /// Whether the holder froze the lock (it will never be released).
    pub frozen: bool,
}

impl LockEntry {
    /// Creates a new, unfrozen lock entry.
    #[must_use]
    pub fn new(owner: TxId, mode: LockMode, range: TsRange) -> Self {
        LockEntry {
            owner,
            mode,
            range,
            frozen: false,
        }
    }

    /// Whether this entry conflicts with a request by `requester` in mode
    /// `mode` at any timestamp of `range`.
    ///
    /// Locks held by the requester itself never conflict (re-entrancy /
    /// read-to-write upgrade is resolved by the caller), and read locks do not
    /// conflict with read locks.
    #[must_use]
    pub fn conflicts_with(&self, requester: TxId, mode: LockMode, range: &TsRange) -> bool {
        self.owner != requester && self.mode.conflicts_with(mode) && self.range.overlaps(range)
    }

    /// The part of this entry's range overlapping `range`, if any.
    #[must_use]
    pub fn overlap(&self, range: &TsRange) -> Option<TsRange> {
        self.range.intersection(range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvtl_common::Timestamp;

    fn r(a: u64, b: u64) -> TsRange {
        TsRange::new(Timestamp::at(a), Timestamp::at(b))
    }

    #[test]
    fn own_locks_never_conflict() {
        let e = LockEntry::new(TxId(1), LockMode::Write, r(1, 10));
        assert!(!e.conflicts_with(TxId(1), LockMode::Write, &r(5, 6)));
        assert!(e.conflicts_with(TxId(2), LockMode::Write, &r(5, 6)));
        assert!(e.conflicts_with(TxId(2), LockMode::Read, &r(5, 6)));
    }

    #[test]
    fn read_read_sharing() {
        let e = LockEntry::new(TxId(1), LockMode::Read, r(1, 10));
        assert!(!e.conflicts_with(TxId(2), LockMode::Read, &r(5, 6)));
        assert!(e.conflicts_with(TxId(2), LockMode::Write, &r(5, 6)));
    }

    #[test]
    fn disjoint_ranges_do_not_conflict() {
        let e = LockEntry::new(TxId(1), LockMode::Write, r(1, 4));
        assert!(!e.conflicts_with(TxId(2), LockMode::Write, &r(5, 9)));
        assert_eq!(e.overlap(&r(3, 9)), Some(r(3, 4)));
        assert_eq!(e.overlap(&r(5, 9)), None);
    }
}
