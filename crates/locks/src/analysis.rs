//! Result of analysing a lock acquisition request against the current state.

use mvtl_common::{Timestamp, TsSet};

/// What would happen if a transaction tried to lock a set of timestamps.
///
/// Every MVTL policy in the paper expresses its behaviour in terms of three
/// possible situations per timestamp it wants to lock:
///
/// * the timestamp is free (or only compatibly locked) — it can be **granted**;
/// * the timestamp is locked by another transaction but **not frozen** — the
///   policy may *wait* (e.g. MVTL-TO reads, pessimistic locking) or *give up*
///   (e.g. MVTL-Pref commit-time write locking, MVTIL interval shrinking);
/// * the timestamp is covered by a **frozen** conflicting lock — waiting is
///   pointless ("freezing ... tells other processes that they should not wait
///   to acquire the lock", §4.2), so the policy must adapt (re-read a newer
///   version, pick a different timestamp, or abort).
///
/// [`AcquireAnalysis`] partitions the requested timestamps accordingly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AcquireAnalysis {
    /// Timestamps that can be granted right now.
    pub grantable: TsSet,
    /// Timestamps blocked by a conflicting lock that is not frozen; the owner
    /// may still release it, so waiting can make progress.
    pub blocked_unfrozen: TsSet,
    /// Timestamps covered by a frozen conflicting lock; these will never
    /// become available.
    pub frozen_conflicts: TsSet,
}

impl AcquireAnalysis {
    /// Whether the entire requested set can be granted immediately.
    #[must_use]
    pub fn fully_grantable(&self) -> bool {
        self.blocked_unfrozen.is_empty() && self.frozen_conflicts.is_empty()
    }

    /// Whether some timestamp of the request hit a frozen conflicting lock.
    #[must_use]
    pub fn hit_frozen(&self) -> bool {
        !self.frozen_conflicts.is_empty()
    }

    /// The smallest frozen-conflicting timestamp, if any; useful for policies
    /// that re-anchor a read below the first frozen write they encounter.
    #[must_use]
    pub fn first_frozen(&self) -> Option<Timestamp> {
        self.frozen_conflicts.min()
    }

    /// The largest timestamp grantable as a *prefix* of `from..`: i.e. the end
    /// of the contiguous grantable run starting at `from`. Policies that must
    /// lock a contiguous interval starting right after a version (every read in
    /// the paper) use this to find how far they can extend the read lock.
    #[must_use]
    pub fn contiguous_grantable_end(&self, from: Timestamp) -> Option<Timestamp> {
        for range in self.grantable.ranges() {
            if range.contains(from) {
                return Some(range.end);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvtl_common::TsRange;

    fn ts(v: u64) -> Timestamp {
        Timestamp::at(v)
    }

    #[test]
    fn predicates() {
        let mut a = AcquireAnalysis::default();
        assert!(a.fully_grantable());
        a.grantable.insert_range(TsRange::new(ts(1), ts(5)));
        assert!(a.fully_grantable());
        a.blocked_unfrozen.insert(ts(6));
        assert!(!a.fully_grantable());
        assert!(!a.hit_frozen());
        a.frozen_conflicts.insert(ts(9));
        assert!(a.hit_frozen());
        assert_eq!(a.first_frozen(), Some(ts(9)));
    }

    #[test]
    fn contiguous_prefix() {
        let mut a = AcquireAnalysis::default();
        a.grantable.insert_range(TsRange::new(ts(3), ts(7)));
        a.grantable.insert_range(TsRange::new(ts(10), ts(12)));
        assert_eq!(a.contiguous_grantable_end(ts(3)), Some(ts(7)));
        assert_eq!(a.contiguous_grantable_end(ts(5)), Some(ts(7)));
        assert_eq!(a.contiguous_grantable_end(ts(8)), None);
        assert_eq!(a.contiguous_grantable_end(ts(10)), Some(ts(12)));
    }
}
