//! `mvtl-storage`: the open-addressed stripe map at `mem_short`'s key count,
//! and the version chain — install and purge on the inline path (≤ 4
//! versions), lookup on a short chain and on one a hot key grows between
//! purges (256 versions).

use super::{loop_ns, median_ns, Ctx};
use crate::load::Rng;
use mvtl_common::{Key, Timestamp};
use mvtl_storage::{ArenaChain, ChainArena, StripeMap, INLINE_VERSIONS};
use std::time::{Duration, Instant};

const CHAINS: usize = 1024;

/// `n` installs spread over `CHAINS` chains, purging each chain back to one
/// version whenever it fills its inline slots. Returns the install time and
/// the purge time rescaled from the versions purged to `n` versions.
fn churn(
    chains: &mut [ArenaChain<u64>],
    arena: &mut ChainArena<u64>,
    next_ts: &mut u64,
    n: u64,
) -> [Duration; 2] {
    let (mut install, mut purge, mut purged) = (Duration::ZERO, Duration::ZERO, 0u64);
    for _ in 0..n.div_ceil(chains.len() as u64) {
        *next_ts += 1;
        let ts = Timestamp::at(*next_ts);
        let started = Instant::now();
        for chain in chains.iter_mut() {
            std::hint::black_box(chain.install(ts, *next_ts, arena));
        }
        install += started.elapsed();
        if chains[0].len() == INLINE_VERSIONS {
            let started = Instant::now();
            for chain in chains.iter_mut() {
                purged += chain.purge_below(ts, arena) as u64;
            }
            purge += started.elapsed();
        }
    }
    [install, purge.mul_f64(n as f64 / purged.max(1) as f64)]
}

fn lookup_ns(ctx: &Ctx<'_>, versions: u64) -> f64 {
    let mut arena = ChainArena::new();
    let mut chain = ArenaChain::new();
    for v in 1..=versions {
        chain.install(Timestamp::at(v * 10), v, &mut arena);
    }
    let mut rng = Rng::new(versions);
    let at: Vec<Timestamp> = (0..1024)
        .map(|_| Timestamp::at(11 + rng.next_u64() % (versions * 10)))
        .collect();
    loop_ns(ctx.loop_budget(), |i| {
        let _ = std::hint::black_box(chain.latest_before(at[(i % 1024) as usize]));
    })
}

pub fn run(ctx: &mut Ctx<'_>) {
    let budget = ctx.loop_budget();

    let mut map = StripeMap::new();
    for key in 0..100_000u64 {
        map.get_or_insert_with(Key(key), || key);
    }
    let mut rng = Rng::new(1);
    let keys: Vec<Key> = (0..4096).map(|_| Key(rng.next_u64() % 100_000)).collect();
    let ns = loop_ns(budget, |i| {
        std::hint::black_box(map.get(keys[(i % 4096) as usize]));
    });
    ctx.metric("storage.map.get_ns", ns);

    let mut arena = ChainArena::new();
    let mut chains: Vec<ArenaChain<u64>> = (0..CHAINS).map(|_| ArenaChain::new()).collect();
    let mut next_ts = 0;
    let [install, purge] = median_ns(budget, |n| churn(&mut chains, &mut arena, &mut next_ts, n));
    ctx.metric("storage.chain.install_ns", install);
    ctx.metric("storage.chain.purge_ns_per_version", purge);

    ctx.metric("storage.chain.latest_before_v4_ns", lookup_ns(ctx, 4));
    ctx.metric("storage.chain.latest_before_v256_ns", lookup_ns(ctx, 256));
}
