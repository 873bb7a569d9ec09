//! `mvtl-locks`: one interval-lock negotiation on a key whose lock table
//! already holds 8 entries (a quiet key) or 512 (a hot key between purges —
//! `analyze` scans them all), and releasing what was acquired.

use super::{median_ns, Ctx};
use mvtl_common::{LockMode, Timestamp, TsRange, TxId};
use mvtl_locks::KeyLockState;
use std::time::{Duration, Instant};

const PROBE: TxId = TxId(u64::MAX);

fn range(from: u64, to: u64) -> TsRange {
    TsRange::new(Timestamp::new(from, 0), Timestamp::new(to, u32::MAX))
}

/// A lock table holding `entries` read locks of other transactions, every
/// second one frozen: owner `i` holds `[1000·i, 1000·i + 500]`.
fn table(entries: u64) -> KeyLockState {
    let mut state = KeyLockState::new();
    for i in 0..entries {
        let held = range(1000 * i, 1000 * i + 500);
        state.acquire_grantable(TxId(i), LockMode::Read, held);
        if i % 2 == 0 {
            state.freeze(TxId(i), LockMode::Read, held);
        }
    }
    state
}

/// `n` acquire/release pairs spread over `tables`; returns the time spent
/// acquiring and the time spent releasing.
fn cycle(tables: &mut [KeyLockState], mode: LockMode, n: u64) -> [Duration; 2] {
    let entries = tables[0].entries().len() as u64;
    // Reads overlap other readers (compatible); writes aim at a gap.
    let desired = match mode {
        LockMode::Read => range(1000 * (entries / 2), 1000 * (entries / 2) + 1500),
        LockMode::Write => range(1000 * (entries / 2) + 600, 1000 * (entries / 2) + 900),
    };
    let (mut acquire, mut release) = (Duration::ZERO, Duration::ZERO);
    for _ in 0..n.div_ceil(tables.len() as u64) {
        let started = Instant::now();
        for table in tables.iter_mut() {
            std::hint::black_box(table.acquire_grantable(PROBE, mode, desired));
        }
        let acquired = Instant::now();
        for table in tables.iter_mut() {
            table.release_unfrozen(PROBE);
        }
        acquire += acquired - started;
        release += acquired.elapsed();
    }
    [acquire, release]
}

pub fn run(ctx: &mut Ctx<'_>) {
    let budget = ctx.loop_budget();
    let mut quiet: Vec<KeyLockState> = (0..256).map(|_| table(8)).collect();
    let mut hot: Vec<KeyLockState> = (0..16).map(|_| table(512)).collect();
    let [acquire, release] = median_ns(budget, |n| cycle(&mut quiet, LockMode::Read, n));
    ctx.metric("locks.acquire_read_e8_ns", acquire);
    ctx.metric("locks.release_e8_ns", release);
    let [acquire, _] = median_ns(budget, |n| cycle(&mut hot, LockMode::Read, n));
    ctx.metric("locks.acquire_read_e512_ns", acquire);
    let [acquire, _] = median_ns(budget, |n| cycle(&mut quiet, LockMode::Write, n));
    ctx.metric("locks.acquire_write_e8_ns", acquire);
}
