//! Multi-threaded cross-shard stress runs. The CI workflow runs these in
//! release mode via `cargo test --release -p mvtl-shard -- stress`.

use mvtl_clock::GlobalClock;
use mvtl_common::{Engine, EngineExt, Key, ProcessId, RetryOptions};
use mvtl_core::policy::MvtilPolicy;
use mvtl_core::{MvtlConfig, MvtlStore};
use mvtl_shard::{IntersectionPick, ShardedStore};
use mvtl_verify::{check_serializable, replay_concurrent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn store(shards: usize) -> ShardedStore<MvtlStore<u64, MvtilPolicy>> {
    ShardedStore::with_policy(
        shards,
        Arc::new(GlobalClock::new()),
        MvtlConfig::default(),
        IntersectionPick::Min,
        |_| MvtilPolicy::early(5_000),
    )
}

/// Bank transfers between accounts that live on different shards, from many
/// threads at once: money must be conserved, which fails if a cross-shard
/// commit ever lands its two writes at different timestamps or a partial
/// commit slips through.
#[test]
fn stress_cross_shard_transfers_conserve_total_balance() {
    const ACCOUNTS: u64 = 64;
    const INITIAL: u64 = 1_000;
    const THREADS: usize = 8;
    const TRANSFERS: usize = 200;

    let s = store(8);
    let engine: &dyn Engine<u64> = &s;

    // Seed all accounts in one transaction — itself a cross-shard commit
    // with (almost surely) all 8 shards participating.
    let mut tx = engine.begin(ProcessId(0));
    for account in 0..ACCOUNTS {
        tx.write(Key(account), INITIAL).unwrap();
    }
    tx.commit().expect("seeding commit");

    let committed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let committed = &committed;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(worker as u64);
                let process = ProcessId(worker as u32 + 1);
                let options = RetryOptions::default().with_seed(worker as u64);
                for _ in 0..TRANSFERS {
                    let from = Key(rng.gen_range(0..ACCOUNTS));
                    let to = Key(rng.gen_range(0..ACCOUNTS));
                    if from == to {
                        continue;
                    }
                    let amount = rng.gen_range(1..10u64);
                    let result = engine.run(process, &options, |tx| {
                        let a = tx.read(from)?.unwrap_or(0);
                        let b = tx.read(to)?.unwrap_or(0);
                        if a >= amount {
                            tx.write(from, a - amount)?;
                            tx.write(to, b + amount)?;
                        }
                        Ok(())
                    });
                    if result.is_ok() {
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    assert!(
        committed.load(Ordering::Relaxed) > 0,
        "some transfers must commit under contention"
    );

    let mut tx = engine.begin(ProcessId(99));
    let mut total = 0;
    for account in 0..ACCOUNTS {
        total += tx.read(Key(account)).unwrap().unwrap_or(0);
    }
    tx.commit().unwrap();
    assert_eq!(
        total,
        ACCOUNTS * INITIAL,
        "cross-shard transfers must conserve the total balance"
    );
}

/// Random mixed transactions over a small hot key space from real threads:
/// the committed history must be one-copy serializable (checked through the
/// MVSG of Appendix A).
#[test]
fn stress_concurrent_cross_shard_histories_are_serializable() {
    for shards in [2, 8] {
        let s = store(shards);
        let engine: &dyn Engine<u64> = &s;
        let history = replay_concurrent(engine, 4, 80, |thread, iter, txn| {
            let mut rng = StdRng::seed_from_u64((thread * 7_919 + iter) as u64);
            for _ in 0..rng.gen_range(2..6usize) {
                let key = Key(rng.gen_range(0..12u64));
                if rng.gen_bool(0.5) {
                    txn.read(key)?;
                } else {
                    txn.write(key, rng.gen_range(0..1_000))?;
                }
            }
            Ok(())
        });
        assert!(
            !history.is_empty(),
            "{shards} shards: some transactions must commit"
        );
        if let Err(violation) = check_serializable(&history) {
            panic!("{shards} shards: non-serializable history: {violation}");
        }
    }
}

/// Heavy write skew aimed at a single hot cross-shard pair, checking both
/// progress (commits happen) and isolation (final values come from real
/// committed transactions).
#[test]
fn stress_hot_pair_cross_shard_counter_increments_are_exact() {
    const THREADS: usize = 6;
    const INCREMENTS: usize = 150;

    let s = store(4);
    let hot_a = s.key_on_shard(0, 0);
    let hot_b = s.key_on_shard(1, hot_a.0 + 1);
    let engine: &dyn Engine<u64> = &s;

    let committed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let committed = &committed;
            scope.spawn(move || {
                let process = ProcessId(worker as u32 + 1);
                let options = RetryOptions::default()
                    .with_seed(worker as u64)
                    .with_max_attempts(64);
                for _ in 0..INCREMENTS {
                    let result = engine.run(process, &options, |tx| {
                        let a = tx.read(hot_a)?.unwrap_or(0);
                        let b = tx.read(hot_b)?.unwrap_or(0);
                        tx.write(hot_a, a + 1)?;
                        tx.write(hot_b, b + 1)?;
                        Ok(())
                    });
                    if result.is_ok() {
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let commits = committed.load(Ordering::Relaxed);
    assert!(commits > 0, "the hot pair must make progress");

    let mut tx = engine.begin(ProcessId(99));
    let a = tx.read(hot_a).unwrap().unwrap_or(0);
    let b = tx.read(hot_b).unwrap().unwrap_or(0);
    tx.commit().unwrap();
    assert_eq!(
        a, commits,
        "every committed increment is visible exactly once"
    );
    assert_eq!(b, commits, "both halves of the pair advance in lock step");
}
