//! Sets of timestamps represented as sorted disjoint closed intervals.

use crate::{Timestamp, TsRange};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Ranges stored inline before spilling to the heap. Nearly every set on the
/// hot path — a lock request, a grant, a candidate set — is one or two
/// contiguous intervals, so two inline slots make the common case
/// allocation-free.
const INLINE_RANGES: usize = 2;

/// Filler for unused inline slots; never observable through the public API.
const SLOT_FILLER: TsRange = TsRange {
    start: Timestamp::ZERO,
    end: Timestamp::ZERO,
};

/// The canonical range storage: a fixed inline array for small sets, a heap
/// vector only when a set exceeds [`INLINE_RANGES`] disjoint intervals.
///
/// Every mutation rebuilds through [`TsSet::push_canonical`], so a freshly
/// produced set is always in the smallest representation that fits — `Heap`
/// implies more than [`INLINE_RANGES`] ranges at some point during the
/// rebuild. Equality is defined on the range sequence, not the representation.
#[derive(Clone, Serialize, Deserialize)]
enum Repr {
    /// Up to [`INLINE_RANGES`] ranges stored by value; `len` counts the live
    /// prefix of `slots`.
    Inline {
        len: u8,
        slots: [TsRange; INLINE_RANGES],
    },
    /// Spilled storage for larger sets.
    Heap(Vec<TsRange>),
}

/// A set of timestamps stored as sorted, disjoint, non-adjacent closed ranges.
///
/// `TsSet` is the workhorse of the reproduction: it represents
///
/// * the per-transaction candidate timestamps (`tx.TS` in the ε-clock and MVTIL
///   algorithms, `PossTS` in MVTL-Pref),
/// * the set of timestamps a transaction has locked on a key, and
/// * the commit-time candidate set `T` of Algorithm 1 line 13, computed by
///   intersecting the locked sets across all keys of the transaction.
///
/// All operations keep the canonical representation (sorted, disjoint, merged
/// when adjacent), so equality is structural. Sets of up to two ranges — the
/// overwhelmingly common case on the lock-table hot path — are stored inline
/// and never touch the allocator.
#[derive(Clone, Serialize, Deserialize)]
pub struct TsSet {
    repr: Repr,
}

impl Default for TsSet {
    fn default() -> Self {
        TsSet::new()
    }
}

impl PartialEq for TsSet {
    fn eq(&self, other: &Self) -> bool {
        self.ranges() == other.ranges()
    }
}

impl Eq for TsSet {}

impl TsSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> Self {
        TsSet {
            repr: Repr::Inline {
                len: 0,
                slots: [SLOT_FILLER; INLINE_RANGES],
            },
        }
    }

    /// The empty set (alias, reads better in some call sites).
    #[must_use]
    pub fn empty() -> Self {
        Self::new()
    }

    /// A set containing a single closed range.
    #[must_use]
    pub fn from_range(range: TsRange) -> Self {
        let mut slots = [SLOT_FILLER; INLINE_RANGES];
        slots[0] = range;
        TsSet {
            repr: Repr::Inline { len: 1, slots },
        }
    }

    /// A set containing a single timestamp.
    #[must_use]
    pub fn from_point(t: Timestamp) -> Self {
        Self::from_range(TsRange::point(t))
    }

    /// Builds a set from arbitrary (possibly overlapping, unsorted) ranges.
    #[must_use]
    pub fn from_ranges<I: IntoIterator<Item = TsRange>>(iter: I) -> Self {
        let mut set = TsSet::new();
        for r in iter {
            set.insert_range(r);
        }
        set
    }

    /// Appends `range` after every range already stored. The caller guarantees
    /// canonical order (sorted, disjoint, non-adjacent); this is the single
    /// point where inline storage spills to the heap.
    fn push_canonical(&mut self, range: TsRange) {
        match &mut self.repr {
            Repr::Inline { len, slots } => {
                let n = usize::from(*len);
                if n < INLINE_RANGES {
                    slots[n] = range;
                    *len += 1;
                } else {
                    let mut spilled = Vec::with_capacity(INLINE_RANGES * 2);
                    spilled.extend_from_slice(&slots[..n]);
                    spilled.push(range);
                    self.repr = Repr::Heap(spilled);
                }
            }
            Repr::Heap(ranges) => ranges.push(range),
        }
    }

    /// Whether the set contains no timestamps.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ranges().is_empty()
    }

    /// Number of disjoint ranges in the canonical representation.
    #[must_use]
    pub fn range_count(&self) -> usize {
        self.ranges().len()
    }

    /// The ranges of the canonical representation, sorted and disjoint.
    #[must_use]
    pub fn ranges(&self) -> &[TsRange] {
        match &self.repr {
            Repr::Inline { len, slots } => &slots[..usize::from(*len)],
            Repr::Heap(ranges) => ranges,
        }
    }

    /// Whether `t` belongs to the set.
    #[must_use]
    pub fn contains(&self, t: Timestamp) -> bool {
        self.ranges()
            .binary_search_by(|r| {
                if r.end < t {
                    std::cmp::Ordering::Less
                } else if r.start > t {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Whether every timestamp of `range` belongs to the set.
    #[must_use]
    pub fn contains_range(&self, range: &TsRange) -> bool {
        self.ranges().iter().any(|r| r.contains_range(range))
    }

    /// The smallest timestamp in the set, if any.
    #[must_use]
    pub fn min(&self) -> Option<Timestamp> {
        self.ranges().first().map(|r| r.start)
    }

    /// The largest timestamp in the set, if any.
    #[must_use]
    pub fn max(&self) -> Option<Timestamp> {
        self.ranges().last().map(|r| r.end)
    }

    /// Inserts one closed range, merging as needed.
    pub fn insert_range(&mut self, range: TsRange) {
        let mut new_start = range.start;
        let mut new_end = range.end;
        let mut merged = TsSet::new();
        let mut placed = false;
        for r in self.ranges() {
            if r.touches(&TsRange::new(new_start, new_end)) {
                new_start = new_start.min(r.start);
                new_end = new_end.max(r.end);
            } else if r.end < new_start {
                merged.push_canonical(*r);
            } else {
                if !placed {
                    merged.push_canonical(TsRange::new(new_start, new_end));
                    placed = true;
                }
                merged.push_canonical(*r);
            }
        }
        if !placed {
            merged.push_canonical(TsRange::new(new_start, new_end));
        }
        *self = merged;
    }

    /// Inserts a single timestamp.
    pub fn insert(&mut self, t: Timestamp) {
        self.insert_range(TsRange::point(t));
    }

    /// Removes every timestamp of `range` from the set.
    pub fn remove_range(&mut self, range: TsRange) {
        if !self.ranges().iter().any(|r| r.overlaps(&range)) {
            return;
        }
        let mut out = TsSet::new();
        for r in self.ranges() {
            if !r.overlaps(&range) {
                out.push_canonical(*r);
                continue;
            }
            // Left remainder.
            if r.start < range.start {
                out.push_canonical(TsRange::new(r.start, range.start.pred()));
            }
            // Right remainder.
            if r.end > range.end {
                out.push_canonical(TsRange::new(range.end.succ(), r.end));
            }
        }
        *self = out;
    }

    /// Keeps only the timestamps also contained in `range`.
    pub fn intersect_range(&mut self, range: TsRange) {
        let mut out = TsSet::new();
        for r in self.ranges() {
            if let Some(i) = r.intersection(&range) {
                out.push_canonical(i);
            }
        }
        *self = out;
    }

    /// Set union.
    #[must_use]
    pub fn union(&self, other: &TsSet) -> TsSet {
        let mut out = self.clone();
        for r in other.ranges() {
            out.insert_range(*r);
        }
        out
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(&self, other: &TsSet) -> TsSet {
        let mut out = TsSet::new();
        let a_ranges = self.ranges();
        let b_ranges = other.ranges();
        let (mut i, mut j) = (0usize, 0usize);
        while i < a_ranges.len() && j < b_ranges.len() {
            let a = a_ranges[i];
            let b = b_ranges[j];
            if let Some(r) = a.intersection(&b) {
                out.push_canonical(r);
            }
            if a.end <= b.end {
                i += 1;
            } else {
                j += 1;
            }
        }
        out
    }

    /// Set difference (`self \ other`).
    #[must_use]
    pub fn difference(&self, other: &TsSet) -> TsSet {
        let mut out = self.clone();
        for r in other.ranges() {
            out.remove_range(*r);
        }
        out
    }

    /// Iterates over the individual timestamps of the set.
    ///
    /// Only useful in tests for small sets; production code always works on
    /// ranges.
    pub fn iter_points(&self) -> impl Iterator<Item = Timestamp> + '_ {
        self.ranges().iter().flat_map(|r| PointIter {
            next: Some(r.start),
            end: r.end,
        })
    }
}

struct PointIter {
    next: Option<Timestamp>,
    end: Timestamp,
}

impl Iterator for PointIter {
    type Item = Timestamp;

    fn next(&mut self) -> Option<Timestamp> {
        let cur = self.next?;
        if cur > self.end {
            return None;
        }
        self.next = if cur == self.end {
            None
        } else {
            Some(cur.succ())
        };
        Some(cur)
    }
}

impl fmt::Debug for TsSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.ranges().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<TsRange> for TsSet {
    fn from_iter<I: IntoIterator<Item = TsRange>>(iter: I) -> Self {
        TsSet::from_ranges(iter)
    }
}

impl FromIterator<Timestamp> for TsSet {
    fn from_iter<I: IntoIterator<Item = Timestamp>>(iter: I) -> Self {
        TsSet::from_ranges(iter.into_iter().map(TsRange::point))
    }
}

impl Extend<TsRange> for TsSet {
    fn extend<I: IntoIterator<Item = TsRange>>(&mut self, iter: I) {
        for r in iter {
            self.insert_range(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: u64) -> Timestamp {
        Timestamp::at(v)
    }

    fn r(a: u64, b: u64) -> TsRange {
        TsRange::new(ts(a), ts(b))
    }

    #[test]
    fn insert_merges_overlapping_ranges() {
        let mut s = TsSet::new();
        s.insert_range(r(1, 5));
        s.insert_range(r(10, 20));
        s.insert_range(r(4, 12));
        assert_eq!(s.ranges().len(), 1);
        assert_eq!(s.min(), Some(ts(1)));
        assert_eq!(s.max(), Some(ts(20)));
    }

    #[test]
    fn insert_merges_adjacent_ranges() {
        let mut s = TsSet::new();
        s.insert_range(r(1, 5));
        // [5.1 .. 9] is adjacent to nothing at value granularity but
        // touches [1,5] because 5.0.succ() == 5.1.
        s.insert_range(TsRange::new(ts(5).succ(), ts(9)));
        assert_eq!(s.range_count(), 1);
        assert!(s.contains(ts(7)));
    }

    #[test]
    fn disjoint_ranges_stay_disjoint() {
        let mut s = TsSet::new();
        s.insert_range(r(10, 20));
        s.insert_range(r(1, 3));
        s.insert_range(r(30, 40));
        assert_eq!(s.range_count(), 3);
        assert_eq!(s.ranges()[0], r(1, 3));
        assert_eq!(s.ranges()[2], r(30, 40));
    }

    #[test]
    fn contains_points() {
        let s = TsSet::from_ranges([r(1, 3), r(7, 9)]);
        assert!(s.contains(ts(1)));
        assert!(s.contains(ts(9)));
        assert!(!s.contains(ts(5)));
        assert!(!s.contains(ts(0)));
        assert!(!s.contains(ts(10)));
    }

    #[test]
    fn remove_splits_ranges() {
        let mut s = TsSet::from_range(r(1, 10));
        s.remove_range(r(4, 6));
        assert_eq!(s.range_count(), 2);
        assert!(s.contains(ts(3)));
        assert!(!s.contains(ts(5)));
        assert!(s.contains(ts(7)));
        // Boundaries at sub-value granularity.
        assert!(s.contains(ts(4).pred()));
        assert!(s.contains(ts(6).succ()));
    }

    #[test]
    fn remove_entire_range() {
        let mut s = TsSet::from_range(r(5, 9));
        s.remove_range(r(1, 20));
        assert!(s.is_empty());
    }

    #[test]
    fn intersection_of_sets() {
        let a = TsSet::from_ranges([r(1, 10), r(20, 30)]);
        let b = TsSet::from_ranges([r(5, 25)]);
        let i = a.intersection(&b);
        assert_eq!(i.ranges(), &[r(5, 10), r(20, 25)]);
        assert_eq!(i, b.intersection(&a));
    }

    #[test]
    fn union_and_difference() {
        let a = TsSet::from_ranges([r(1, 5)]);
        let b = TsSet::from_ranges([r(3, 8), r(10, 12)]);
        let u = a.union(&b);
        assert!(u.contains(ts(1)) && u.contains(ts(8)) && u.contains(ts(11)));
        let d = b.difference(&a);
        assert!(!d.contains(ts(4)));
        assert!(d.contains(ts(6)));
        assert!(d.contains(ts(10)));
    }

    #[test]
    fn min_max_and_iteration() {
        // Keep the ranges narrow (same clock value) so point iteration stays small.
        let s = TsSet::from_ranges([
            TsRange::new(Timestamp::new(2, 0), Timestamp::new(2, 3)),
            TsRange::new(Timestamp::new(7, 1), Timestamp::new(7, 1)),
        ]);
        assert_eq!(s.min(), Some(Timestamp::new(2, 0)));
        assert_eq!(s.max(), Some(Timestamp::new(7, 1)));
        let pts: Vec<Timestamp> = s.iter_points().collect();
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[0], Timestamp::new(2, 0));
        assert_eq!(pts[4], Timestamp::new(7, 1));
    }

    #[test]
    fn intersect_range_in_place() {
        let mut s = TsSet::from_ranges([r(1, 10), r(20, 30)]);
        s.intersect_range(r(8, 22));
        assert_eq!(s.ranges(), &[r(8, 10), r(20, 22)]);
    }

    #[test]
    fn empty_set_behaviour() {
        let s = TsSet::new();
        assert!(s.is_empty());
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert!(!s.contains(ts(0)));
        assert_eq!(s.intersection(&TsSet::from_range(r(1, 2))), TsSet::new());
    }

    #[test]
    fn from_iterators() {
        let s: TsSet = [ts(1), ts(2), ts(5)].into_iter().collect();
        assert!(s.contains(ts(1)));
        assert!(s.contains(ts(5)));
        assert!(!s.contains(ts(4)));
        let t: TsSet = [r(1, 2), r(4, 6)].into_iter().collect();
        assert_eq!(t.range_count(), 2);
    }

    #[test]
    fn inline_storage_spills_and_equality_ignores_representation() {
        // Grow past the inline capacity and shrink back down: the set must
        // behave identically to its small-set form at every step.
        let mut s = TsSet::new();
        for i in 0..6u64 {
            s.insert_range(r(i * 10 + 1, i * 10 + 3));
        }
        assert_eq!(s.range_count(), 6);
        for i in 0..6u64 {
            assert!(s.contains(ts(i * 10 + 2)));
            assert!(!s.contains(ts(i * 10 + 5)));
        }
        // Collapse every gap: the merged single-range set compares equal to a
        // freshly built inline one.
        s.insert_range(r(1, 53));
        assert_eq!(s.range_count(), 1);
        assert_eq!(s, TsSet::from_range(r(1, 53)));
        // Shrink a spilled set via intersection and compare against inline.
        let big = TsSet::from_ranges([r(1, 2), r(4, 5), r(7, 8), r(10, 11)]);
        let mut narrowed = big.clone();
        narrowed.intersect_range(r(4, 8));
        assert_eq!(narrowed, TsSet::from_ranges([r(4, 5), r(7, 8)]));
    }
}
