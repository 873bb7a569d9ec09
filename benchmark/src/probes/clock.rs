//! `mvtl-clock`: one timestamp from the shared counter (what every spec in
//! the benchmark uses) and from the batched per-process blocks.

use super::{loop_ns, Ctx};
use mvtl_clock::{BatchedClock, ClockSource, GlobalClock};
use mvtl_common::ProcessId;

pub fn run(ctx: &mut Ctx<'_>) {
    let global = GlobalClock::starting_at(1);
    let ns = loop_ns(ctx.loop_budget(), |_| {
        std::hint::black_box(global.now(ProcessId(1)));
    });
    ctx.metric("clock.global_ns", ns);
    let batched = BatchedClock::starting_at(1, 64);
    let ns = loop_ns(ctx.loop_budget(), |_| {
        std::hint::black_box(batched.now(ProcessId(1)));
    });
    ctx.metric("clock.batched_ns", ns);
}
