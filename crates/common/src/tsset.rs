//! Sets of timestamps represented as sorted disjoint closed intervals.

use crate::{Timestamp, TsRange};
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
#[derive(Clone)]
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
#[derive(Clone)]
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

    /// The set holding `range`, or the empty set.
    fn from_lone(range: Option<TsRange>) -> Self {
        range.map_or_else(TsSet::new, TsSet::from_range)
    }

    /// `Some(the one range, or None when empty)` when the set holds at most
    /// one range: the operand shape the branch-only fast paths of
    /// [`union`](TsSet::union), [`intersection`](TsSet::intersection) and
    /// [`difference`](TsSet::difference) take. Nearly every set MVTIL builds
    /// per operation — a request, a grant, the candidate interval — has it.
    fn lone(&self) -> Option<Option<TsRange>> {
        match &self.repr {
            Repr::Inline { len: 0, .. } => Some(None),
            Repr::Inline { len: 1, slots } => Some(Some(slots[0])),
            _ => None,
        }
    }

    /// A set containing a single timestamp.
    #[must_use]
    pub fn from_point(t: Timestamp) -> Self {
        Self::from_range(TsRange::point(t))
    }

    /// Builds a set from arbitrary (possibly overlapping, unsorted) ranges.
    ///
    /// Input in start order is merged in one pass; unsorted input is sorted
    /// once and then merged, so the cost is O(n log n) at worst.
    #[must_use]
    pub fn from_ranges<I: IntoIterator<Item = TsRange>>(iter: I) -> Self {
        let mut set = TsSet::new();
        set.extend(iter);
        set
    }

    /// The set of `ranges`, which are sorted by start but may overlap or
    /// touch: one merge, in place, reusing the vector as storage.
    fn from_sorted_vec(mut ranges: Vec<TsRange>) -> Self {
        let mut n = 0usize;
        for i in 0..ranges.len() {
            let range = ranges[i];
            match n.checked_sub(1).map(|last| &mut ranges[last]) {
                Some(last) if range.start <= last.end.succ() => last.end = last.end.max(range.end),
                _ => {
                    ranges[n] = range;
                    n += 1;
                }
            }
        }
        ranges.truncate(n);
        if n > INLINE_RANGES {
            return TsSet {
                repr: Repr::Heap(ranges),
            };
        }
        let mut set = TsSet::new();
        for range in ranges {
            set.push_canonical(range, INLINE_RANGES);
        }
        set
    }

    /// Appends `range` after every range already stored. The caller guarantees
    /// canonical order (sorted, disjoint, non-adjacent); this is the single
    /// point where inline storage spills to the heap. `bound` is an upper
    /// bound on the ranges the set will hold once built: the spill sizes the
    /// heap vector for it, so a merge allocates at most once.
    fn push_canonical(&mut self, range: TsRange, bound: usize) {
        match &mut self.repr {
            Repr::Inline { len, slots } => {
                let n = usize::from(*len);
                if n < INLINE_RANGES {
                    slots[n] = range;
                    *len += 1;
                } else {
                    let mut spilled = Vec::with_capacity(bound.max(INLINE_RANGES * 2));
                    spilled.extend_from_slice(&slots[..n]);
                    spilled.push(range);
                    self.repr = Repr::Heap(spilled);
                }
            }
            Repr::Heap(ranges) => ranges.push(range),
        }
    }

    /// Appends `range`, which starts no earlier than any stored range, merging
    /// it into the last range when the two overlap or touch. `bound` is as
    /// for [`TsSet::push_canonical`].
    fn push_sorted(&mut self, range: TsRange, bound: usize) {
        let last = match &mut self.repr {
            Repr::Inline { len, slots } => slots[..usize::from(*len)].last_mut(),
            Repr::Heap(ranges) => ranges.last_mut(),
        };
        match last {
            // `succ` saturates at `MAX`, where every range touches.
            Some(last) if range.start <= last.end.succ() => last.end = last.end.max(range.end),
            _ => self.push_canonical(range, bound),
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
        let bound = self.range_count() + 1;
        for r in self.ranges() {
            if r.touches(&TsRange::new(new_start, new_end)) {
                new_start = new_start.min(r.start);
                new_end = new_end.max(r.end);
            } else if r.end < new_start {
                merged.push_canonical(*r, bound);
            } else {
                if !placed {
                    merged.push_canonical(TsRange::new(new_start, new_end), bound);
                    placed = true;
                }
                merged.push_canonical(*r, bound);
            }
        }
        if !placed {
            merged.push_canonical(TsRange::new(new_start, new_end), bound);
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
        let bound = self.range_count() + 1;
        for r in self.ranges() {
            if !r.overlaps(&range) {
                out.push_canonical(*r, bound);
                continue;
            }
            // Left remainder.
            if r.start < range.start {
                out.push_canonical(TsRange::new(r.start, range.start.pred()), bound);
            }
            // Right remainder.
            if r.end > range.end {
                out.push_canonical(TsRange::new(range.end.succ(), r.end), bound);
            }
        }
        *self = out;
    }

    /// Keeps only the timestamps also contained in `range`.
    pub fn intersect_range(&mut self, range: TsRange) {
        let mut out = TsSet::new();
        for r in self.ranges() {
            if let Some(i) = r.intersection(&range) {
                out.push_canonical(i, self.range_count());
            }
        }
        *self = out;
    }

    /// Set union.
    #[must_use]
    pub fn union(&self, other: &TsSet) -> TsSet {
        if let (Some(a), Some(b)) = (self.lone(), other.lone()) {
            return match (a, b) {
                (None, one) | (one, None) => TsSet::from_lone(one),
                (Some(a), Some(b)) if a.touches(&b) => TsSet::from_range(TsRange {
                    start: a.start.min(b.start),
                    end: a.end.max(b.end),
                }),
                (Some(a), Some(b)) => {
                    let (lo, hi) = if a.start < b.start { (a, b) } else { (b, a) };
                    let mut out = TsSet::from_range(lo);
                    out.push_canonical(hi, INLINE_RANGES);
                    out
                }
            };
        }
        // One merge of the two start-ordered sequences.
        let (a, b) = (self.ranges(), other.ranges());
        let bound = a.len() + b.len();
        let mut out = TsSet::new();
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let next = if j == b.len() || (i < a.len() && a[i].start <= b[j].start) {
                i += 1;
                a[i - 1]
            } else {
                j += 1;
                b[j - 1]
            };
            out.push_sorted(next, bound);
        }
        out
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(&self, other: &TsSet) -> TsSet {
        if let (Some(a), Some(b)) = (self.lone(), other.lone()) {
            return TsSet::from_lone(a.zip(b).and_then(|(a, b)| a.intersection(&b)));
        }
        let mut out = TsSet::new();
        let a_ranges = self.ranges();
        let b_ranges = other.ranges();
        let bound = a_ranges.len() + b_ranges.len();
        let (mut i, mut j) = (0usize, 0usize);
        while i < a_ranges.len() && j < b_ranges.len() {
            let a = a_ranges[i];
            let b = b_ranges[j];
            if let Some(r) = a.intersection(&b) {
                out.push_canonical(r, bound);
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
        if let (Some(a), Some(b)) = (self.lone(), other.lone()) {
            let Some(a) = a else {
                return TsSet::new();
            };
            let Some(b) = b.filter(|b| b.overlaps(&a)) else {
                return TsSet::from_range(a);
            };
            // What is left of `a` on either side of `b`: `b.start` lies above
            // `a.start` and `b.end` below `a.end`, so neither step saturates.
            let mut out = TsSet::new();
            if a.start < b.start {
                out.push_canonical(
                    TsRange {
                        start: a.start,
                        end: b.start.pred(),
                    },
                    INLINE_RANGES,
                );
            }
            if b.end < a.end {
                out.push_canonical(
                    TsRange {
                        start: b.end.succ(),
                        end: a.end,
                    },
                    INLINE_RANGES,
                );
            }
            return out;
        }
        self.difference_sorted(other.ranges().iter().copied())
    }

    /// `self` minus the timestamps of `sorted`, ranges ordered by start and
    /// pairwise disjoint (they may touch), such as the spans of a version
    /// chain: one merge, and at most one allocation when the iterator's
    /// upper size bound is known.
    #[must_use]
    pub fn difference_sorted<I: IntoIterator<Item = TsRange>>(&self, sorted: I) -> TsSet {
        let mut cuts = sorted.into_iter().peekable();
        let (low, high) = cuts.size_hint();
        // Every cut adds at most one range.
        let bound = self.range_count() + high.unwrap_or(low);
        let mut out = TsSet::new();
        for &range in self.ranges() {
            let mut start = Some(range.start);
            while let (Some(from), Some(&cut)) = (start, cuts.peek()) {
                if cut.end < from {
                    cuts.next();
                    continue;
                }
                if cut.start > range.end {
                    break;
                }
                if cut.start > from {
                    out.push_canonical(TsRange::new(from, cut.start.pred()), bound);
                }
                // A cut reaching past `range` may cut the next range too.
                start = (cut.end < range.end).then(|| cut.end.succ());
                if start.is_some() {
                    cuts.next();
                }
            }
            if let Some(from) = start {
                out.push_canonical(TsRange::new(from, range.end), bound);
            }
        }
        out
    }

    /// Whether the two sets share a timestamp; one merge, no allocation.
    #[must_use]
    pub fn overlaps(&self, other: &TsSet) -> bool {
        let (a, b) = (self.ranges(), other.ranges());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i].overlaps(&b[j]) {
                return true;
            }
            if a[i].end < b[j].end {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
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
    /// Merges ranges in start order at the tail. An out-of-order range goes
    /// through [`TsSet::insert_range`] while the set is inline (constant
    /// work); once the set has spilled, the rest is sorted once and merged.
    fn extend<I: IntoIterator<Item = TsRange>>(&mut self, iter: I) {
        let mut iter = iter.into_iter();
        let bound = self.range_count() + iter.size_hint().0;
        while let Some(range) = iter.next() {
            let in_order = self
                .ranges()
                .last()
                .is_none_or(|last| last.start <= range.start);
            if in_order {
                self.push_sorted(range, bound);
            } else if matches!(self.repr, Repr::Inline { .. }) {
                self.insert_range(range);
            } else {
                let mut all = Vec::with_capacity(self.range_count() + 1 + iter.size_hint().0);
                all.extend_from_slice(self.ranges());
                all.push(range);
                all.extend(iter);
                all.sort_unstable_by_key(|r| r.start);
                *self = TsSet::from_sorted_vec(all);
                return;
            }
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
