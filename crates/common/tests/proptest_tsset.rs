//! Property-based tests of the `TsSet` interval-set algebra.
//!
//! The interval sets are the foundation of the whole reproduction (they encode
//! lock state and per-transaction candidate timestamps), so their algebra must
//! obey the usual set laws.

use mvtl_common::{Timestamp, TsRange, TsSet};
use proptest::prelude::*;

/// Strategy producing timestamps on a small grid so that collisions and
/// adjacency actually happen.
fn arb_ts() -> impl Strategy<Value = Timestamp> {
    (0u64..64, 0u32..4).prop_map(|(v, p)| Timestamp::new(v, p))
}

fn arb_range() -> impl Strategy<Value = TsRange> {
    (arb_ts(), arb_ts()).prop_map(|(a, b)| {
        if a <= b {
            TsRange::new(a, b)
        } else {
            TsRange::new(b, a)
        }
    })
}

fn arb_set() -> impl Strategy<Value = TsSet> {
    proptest::collection::vec(arb_range(), 0..8).prop_map(TsSet::from_ranges)
}

/// Timestamps for the operands of the single-range fast paths: the grid of
/// [`arb_ts`] (drawn twice as often), plus the boundaries they must get right — `process =
/// u32::MAX`, whose successor is the next value's process 0, and the two
/// ends of the order.
fn arb_edge_ts() -> impl Strategy<Value = Timestamp> {
    prop_oneof![
        arb_ts(),
        arb_ts(),
        (0u64..64).prop_map(|v| Timestamp::new(v, u32::MAX)),
        Just(Timestamp::ZERO),
        Just(Timestamp::MAX),
    ]
}

fn arb_edge_range() -> impl Strategy<Value = TsRange> {
    (arb_edge_ts(), arb_edge_ts()).prop_map(|(a, b)| TsRange::new(a.min(b), a.max(b)))
}

/// Sets weighted to the operand shapes the branch-only fast paths take —
/// zero, one or two ranges — with a larger set one time in four, so the
/// fast and the general paths also meet.
fn arb_small_set() -> impl Strategy<Value = TsSet> {
    prop_oneof![
        Just(TsSet::new()),
        arb_edge_range().prop_map(TsSet::from_range),
        (arb_edge_range(), arb_edge_range()).prop_map(|(a, b)| TsSet::from_ranges([a, b])),
        arb_set(),
    ]
}

/// A short range for the wide operands: it starts on the edge grid and ends
/// in the same clock value or, one time in four, the next; `shape` makes it touch (1) or overlap (2) the
/// `previous` range, start at `ZERO` (30) or run from near the top of the
/// grid to `MAX` (31).
fn piece(start: Timestamp, values: u64, process: u32, shape: u8, previous: TsRange) -> TsRange {
    let start = match shape {
        1 => previous.end.succ(),
        2 => previous.start,
        30 => Timestamp::ZERO,
        // A range up to `MAX` starts high, so it does not swallow the set.
        31 => start.max(Timestamp::new(60, process)),
        _ => start,
    };
    let end = match shape {
        31 => Timestamp::MAX,
        _ => Timestamp::new(start.value.saturating_add(values / 3), process).max(start),
    };
    TsRange::new(start, end)
}

/// The unsorted input ranges of a wide operand: 3 to 64 short ranges in
/// random order, many of them touching or overlapping their neighbour in
/// the list, some reaching `ZERO` or `MAX`. These operands take the general
/// merges, not the one-range fast paths.
fn arb_wide_ranges() -> impl Strategy<Value = Vec<TsRange>> {
    proptest::collection::vec((arb_edge_ts(), 0u64..4, 0u32..4, 0u8..32), 3..65).prop_map(
        |pieces| {
            let mut ranges: Vec<TsRange> = Vec::with_capacity(pieces.len());
            for (start, values, process, shape) in pieces {
                let previous = ranges.last().copied().unwrap_or(TsRange::point(start));
                ranges.push(piece(start, values, process, shape, previous));
            }
            ranges
        },
    )
}

/// [`grid`] plus the boundary timestamps of [`arb_edge_ts`].
fn edge_grid() -> Vec<Timestamp> {
    let mut pts = grid();
    pts.extend((0..64u64).map(|v| Timestamp::new(v, u32::MAX)));
    pts.push(Timestamp::MAX);
    pts
}

/// Whether `set` is in canonical form: sorted, disjoint and merged.
fn is_canonical(set: &TsSet) -> bool {
    set.ranges()
        .windows(2)
        .all(|w| w[0].end < w[1].start && !w[0].touches(&w[1]))
}

/// Union, intersection and difference computed range by range through
/// `insert_range`/`remove_range`, which take no fast path.
fn reference(a: &TsSet, b: &TsSet) -> [TsSet; 3] {
    let mut union = a.clone();
    let mut intersection = TsSet::new();
    let mut difference = a.clone();
    for r in b.ranges() {
        union.insert_range(*r);
        difference.remove_range(*r);
        for q in a.ranges() {
            if let Some(i) = q.intersection(r) {
                intersection.insert_range(i);
            }
        }
    }
    [union, intersection, difference]
}

/// Checks the three operations on `a` and `b` against [`reference`], and
/// their canonical form.
fn check_algebra(a: &TsSet, b: &TsSet) {
    let got = [a.union(b), a.intersection(b), a.difference(b)];
    let names = ["union", "intersection", "difference"];
    for ((name, got), want) in names.into_iter().zip(got).zip(reference(a, b)) {
        assert!(is_canonical(&got), "{a:?} {name} {b:?} = {got:?}");
        assert_eq!(got, want, "{a:?} {name} {b:?}");
    }
}

/// Reference membership check on a sampling grid.
fn grid() -> Vec<Timestamp> {
    let mut pts = Vec::new();
    for v in 0..64u64 {
        for p in 0..4u32 {
            pts.push(Timestamp::new(v, p));
        }
    }
    pts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn canonical_representation_is_sorted_and_disjoint(set in arb_set()) {
        let ranges = set.ranges();
        for w in ranges.windows(2) {
            prop_assert!(w[0].end < w[1].start, "ranges must be sorted and disjoint: {:?}", ranges);
            // Not even adjacent: adjacency must have been merged.
            prop_assert!(w[0].end.succ() < w[1].start || !w[0].touches(&w[1]),
                "adjacent ranges must be merged: {:?}", ranges);
        }
    }

    #[test]
    fn union_membership_matches(a in arb_set(), b in arb_set()) {
        let u = a.union(&b);
        for t in grid() {
            prop_assert_eq!(u.contains(t), a.contains(t) || b.contains(t));
        }
    }

    #[test]
    fn intersection_membership_matches(a in arb_set(), b in arb_set()) {
        let i = a.intersection(&b);
        for t in grid() {
            prop_assert_eq!(i.contains(t), a.contains(t) && b.contains(t));
        }
    }

    #[test]
    fn difference_membership_matches(a in arb_set(), b in arb_set()) {
        let d = a.difference(&b);
        for t in grid() {
            prop_assert_eq!(d.contains(t), a.contains(t) && !b.contains(t));
        }
    }

    #[test]
    fn small_operand_algebra_matches_membership_and_canonical_form(
        a in arb_small_set(),
        b in arb_small_set(),
    ) {
        let (u, i, d) = (a.union(&b), a.intersection(&b), a.difference(&b));
        for set in [&u, &i, &d] {
            prop_assert!(is_canonical(set), "not canonical: {:?}", set);
        }
        for t in edge_grid() {
            let (in_a, in_b) = (a.contains(t), b.contains(t));
            prop_assert_eq!(u.contains(t), in_a || in_b, "union at {:?}", t);
            prop_assert_eq!(i.contains(t), in_a && in_b, "intersection at {:?}", t);
            prop_assert_eq!(d.contains(t), in_a && !in_b, "difference at {:?}", t);
        }
        let [union, intersection, difference] = reference(&a, &b);
        prop_assert_eq!(u, union);
        prop_assert_eq!(i, intersection);
        prop_assert_eq!(d, difference);
    }

    #[test]
    fn wide_operand_merges_match_the_grid(
        a_ranges in arb_wide_ranges(),
        b_ranges in arb_wide_ranges(),
    ) {
        let (a, b) = (TsSet::from_ranges(a_ranges.clone()), TsSet::from_ranges(b_ranges.clone()));
        // Unsorted input: the same set as the sorted input, in canonical form,
        // holding exactly the timestamps some input range holds.
        for (set, input) in [(&a, &a_ranges), (&b, &b_ranges)] {
            prop_assert!(is_canonical(set), "not canonical: {:?} from {:?}", set, input);
            let mut sorted = input.clone();
            sorted.sort_by_key(|r| r.start);
            prop_assert_eq!(&TsSet::from_ranges(sorted), set);
            let mut extended = TsSet::from_range(input[0]);
            extended.extend(input[1..].iter().copied());
            prop_assert_eq!(&extended, set);
            for t in edge_grid() {
                prop_assert_eq!(set.contains(t), input.iter().any(|r| r.contains(t)), "{:?} at {:?}", input, t);
            }
        }
        let (u, i, d) = (a.union(&b), a.intersection(&b), a.difference(&b));
        let sorted_d = a.difference_sorted(b.ranges().iter().copied());
        for set in [&u, &i, &d] {
            prop_assert!(is_canonical(set), "not canonical: {:?}", set);
        }
        prop_assert_eq!(&sorted_d, &d);
        for t in edge_grid() {
            let (in_a, in_b) = (a.contains(t), b.contains(t));
            prop_assert_eq!(u.contains(t), in_a || in_b, "union at {:?}", t);
            prop_assert_eq!(i.contains(t), in_a && in_b, "intersection at {:?}", t);
            prop_assert_eq!(d.contains(t), in_a && !in_b, "difference at {:?}", t);
        }
        prop_assert_eq!(a.overlaps(&b), !i.is_empty());
        let [union, intersection, difference] = reference(&a, &b);
        prop_assert_eq!(u, union);
        prop_assert_eq!(i, intersection);
        prop_assert_eq!(d, difference);
    }

    #[test]
    fn intersection_is_commutative_and_idempotent(a in arb_set(), b in arb_set()) {
        prop_assert_eq!(a.intersection(&b), b.intersection(&a));
        prop_assert_eq!(a.intersection(&a), a.clone());
        prop_assert_eq!(a.union(&a), a.clone());
    }

    #[test]
    fn insert_then_remove_restores_membership_outside(a in arb_set(), r in arb_range()) {
        let mut with = a.clone();
        with.insert_range(r);
        let mut without = with.clone();
        without.remove_range(r);
        for t in grid() {
            if r.contains(t) {
                prop_assert!(with.contains(t));
                prop_assert!(!without.contains(t));
            } else {
                prop_assert_eq!(with.contains(t), a.contains(t));
                prop_assert_eq!(without.contains(t), a.contains(t));
            }
        }
    }

    #[test]
    fn min_max_are_extremes(a in arb_set()) {
        if let (Some(lo), Some(hi)) = (a.min(), a.max()) {
            prop_assert!(a.contains(lo));
            prop_assert!(a.contains(hi));
            for t in grid() {
                if a.contains(t) {
                    prop_assert!(lo <= t && t <= hi);
                }
            }
        } else {
            prop_assert!(a.is_empty());
        }
    }

    #[test]
    fn succ_pred_roundtrip(t in arb_ts()) {
        prop_assert_eq!(t.succ().pred(), t);
        prop_assert!(t.succ() > t);
        if t != Timestamp::ZERO {
            prop_assert!(t.pred() < t);
        }
    }

    #[test]
    fn range_intersection_consistent_with_contains(a in arb_range(), b in arb_range(), t in arb_ts()) {
        let i = a.intersection(&b);
        let both = a.contains(t) && b.contains(t);
        match i {
            Some(r) => prop_assert_eq!(both, r.contains(t)),
            None => prop_assert!(!both),
        }
    }
}

#[test]
fn adjacency_through_succ_across_the_process_boundary() {
    let below = TsRange::new(Timestamp::new(1, 0), Timestamp::new(5, u32::MAX));
    let above = TsRange::new(Timestamp::new(6, 0), Timestamp::new(9, 0));
    let (a, b) = (TsSet::from_range(below), TsSet::from_range(above));
    check_algebra(&a, &b);
    check_algebra(&b, &a);
    // (5, u32::MAX).succ() is (6, 0): the union is one range.
    assert_eq!(
        a.union(&b),
        TsSet::from_range(TsRange::new(Timestamp::new(1, 0), Timestamp::new(9, 0)))
    );
    assert!(a.intersection(&b).is_empty());
    // Cutting (6, 0) out of the union leaves (5, u32::MAX) as the end below
    // it and (6, 1) as the start above it.
    let cut = a
        .union(&b)
        .difference(&TsSet::from_point(Timestamp::new(6, 0)));
    assert_eq!(
        cut,
        TsSet::from_ranges([
            below,
            TsRange::new(Timestamp::new(6, 1), Timestamp::new(9, 0))
        ])
    );
    check_algebra(&a.union(&b), &TsSet::from_point(Timestamp::new(6, 0)));
    check_algebra(
        &a.union(&b),
        &TsSet::from_point(Timestamp::new(5, u32::MAX)),
    );
}

#[test]
fn point_ranges() {
    let p = TsSet::from_point(Timestamp::new(5, 3));
    let next = TsSet::from_point(Timestamp::new(5, 4));
    let wide = TsSet::from_range(TsRange::new(Timestamp::new(5, 0), Timestamp::new(5, 9)));
    for (a, b) in [
        (&p, &p),
        (&p, &next),
        (&p, &wide),
        (&wide, &p),
        (&next, &wide),
    ] {
        check_algebra(a, b);
    }
    assert_eq!(p.intersection(&p), p);
    assert!(p.difference(&p).is_empty());
    assert_eq!(
        p.union(&next),
        TsSet::from_range(TsRange::new(Timestamp::new(5, 3), Timestamp::new(5, 4)))
    );
    assert_eq!(
        wide.difference(&p),
        TsSet::from_ranges([
            TsRange::new(Timestamp::new(5, 0), Timestamp::new(5, 2)),
            TsRange::new(Timestamp::new(5, 4), Timestamp::new(5, 9)),
        ])
    );
}

#[test]
fn ranges_reaching_timestamp_max() {
    let all = TsSet::from_range(TsRange::all());
    let top = TsSet::from_point(Timestamp::MAX);
    let bottom = TsSet::from_point(Timestamp::ZERO);
    let upper = TsSet::from_range(TsRange::new(Timestamp::new(7, 0), Timestamp::MAX));
    let lower = TsSet::from_range(TsRange::new(Timestamp::ZERO, Timestamp::new(7, 0).pred()));
    for a in [&all, &top, &bottom, &upper, &lower] {
        for b in [&all, &top, &bottom, &upper, &lower] {
            check_algebra(a, b);
        }
    }
    assert_eq!(
        all.difference(&top),
        TsSet::from_range(TsRange::new(Timestamp::ZERO, Timestamp::MAX.pred()))
    );
    assert_eq!(
        all.difference(&bottom),
        TsSet::from_range(TsRange::new(Timestamp::ZERO.succ(), Timestamp::MAX))
    );
    assert_eq!(all.difference(&upper), lower);
    assert!(upper.difference(&all).is_empty());
    assert_eq!(lower.union(&upper), all);
    assert_eq!(upper.intersection(&top), top);
}
