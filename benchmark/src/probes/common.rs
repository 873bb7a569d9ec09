//! `mvtl-common`: the timestamp-set operations MVTIL runs on every access.
//! Operands are single intervals, which is what MVTIL's sets almost always
//! are.

use super::{loop_ns, Ctx};
use mvtl_common::{Timestamp, TsRange, TsSet};

fn interval(from: u64, to: u64) -> TsSet {
    TsSet::from_range(TsRange::new(
        Timestamp::new(from, 0),
        Timestamp::new(to, u32::MAX),
    ))
}

pub fn run(ctx: &mut Ctx<'_>) {
    // A transaction's candidate interval against a slightly shifted one.
    let sets: Vec<(TsSet, TsSet)> = (0..64)
        .map(|i| (interval(1000 + i, 2000 + i), interval(1400 + 3 * i, 2600)))
        .collect();
    let intersection = loop_ns(ctx.loop_budget(), |i| {
        let (a, b) = &sets[(i % 64) as usize];
        std::hint::black_box(a.intersection(b));
    });
    ctx.metric("common.tsset.intersection_ns", intersection);
    let difference = loop_ns(ctx.loop_budget(), |i| {
        let (a, b) = &sets[(i % 64) as usize];
        std::hint::black_box(a.difference(b));
    });
    ctx.metric("common.tsset.difference_ns", difference);
}
