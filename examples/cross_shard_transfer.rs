//! Bank transfers between accounts that live on **different shards** of the
//! partitioned `mvtl-shard` engine, under real concurrency.
//!
//! Every transfer is a cross-shard transaction, so each commit runs the
//! paper's §7 protocol for real: both shards freeze the interval of
//! timestamps the transfer may commit at, the coordinator intersects them
//! and commits at a common timestamp — or aborts (and the `EngineExt::run`
//! retry loop tries again) when the intersection is empty. Money must be
//! conserved throughout, which would break if the two halves of a transfer
//! ever committed at different timestamps.
//!
//! ```bash
//! cargo run --release --example cross_shard_transfer
//! ```

use mvtl::clock::GlobalClock;
use mvtl::common::{Engine, EngineExt, Key, ProcessId, RetryOptions};
use mvtl::core::policy::MvtilPolicy;
use mvtl::core::{MvtlConfig, MvtlStore};
use mvtl::shard::{IntersectionPick, ShardedStore};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SHARDS: usize = 8;
const ACCOUNTS_PER_SHARD: usize = 8;
const INITIAL_BALANCE: u64 = 1_000;
const THREADS: usize = 4;
const TRANSFERS_PER_THREAD: usize = 300;

fn main() {
    let store: ShardedStore<MvtlStore<u64, MvtilPolicy>> = ShardedStore::with_policy(
        SHARDS,
        Arc::new(GlobalClock::new()),
        MvtlConfig::default(),
        IntersectionPick::Min,
        |_shard| MvtilPolicy::early(5_000),
    );
    let engine: &dyn Engine<u64> = &store;

    // Pick accounts pinned to known shards, so we can guarantee transfers
    // cross shard boundaries.
    let mut accounts: Vec<Key> = Vec::new();
    let mut cursor = 0;
    for shard in 0..SHARDS {
        for _ in 0..ACCOUNTS_PER_SHARD {
            let key = store.key_on_shard(shard, cursor);
            cursor = key.0 + 1;
            accounts.push(key);
        }
    }

    // Seed all accounts in one transaction — itself a commit spanning all
    // eight shards.
    let mut tx = engine.begin(ProcessId(0));
    for &account in &accounts {
        tx.write(account, INITIAL_BALANCE).unwrap();
    }
    let info = tx.commit().expect("seeding commit");
    println!(
        "seeded {} accounts across {SHARDS} shards in one transaction (commit ts {:?})",
        accounts.len(),
        info.commit_ts.unwrap()
    );

    let transfers = AtomicU64::new(0);
    let cross_shard = AtomicU64::new(0);
    let attempts = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let transfers = &transfers;
            let cross_shard = &cross_shard;
            let attempts = &attempts;
            let accounts = &accounts;
            let store = &store;
            scope.spawn(move || {
                let process = ProcessId(worker as u32 + 1);
                let options = RetryOptions::default().with_seed(worker as u64);
                for i in 0..TRANSFERS_PER_THREAD {
                    // A deterministic pattern that always crosses shards:
                    // `from` and `to` sit ACCOUNTS_PER_SHARD apart, i.e. on
                    // neighbouring shards.
                    let from = accounts[(worker * 13 + i * 7) % accounts.len()];
                    let to = accounts[(worker * 13 + i * 7 + ACCOUNTS_PER_SHARD) % accounts.len()];
                    if store.shard_of(from) != store.shard_of(to) {
                        cross_shard.fetch_add(1, Ordering::Relaxed);
                    }
                    let engine: &dyn Engine<u64> = store;
                    match engine.run(process, &options, |tx| {
                        let a = tx.read(from)?.unwrap_or(0);
                        let b = tx.read(to)?.unwrap_or(0);
                        if a >= 10 {
                            tx.write(from, a - 10)?;
                            tx.write(to, b + 10)?;
                        }
                        Ok(())
                    }) {
                        Ok(report) => {
                            transfers.fetch_add(1, Ordering::Relaxed);
                            attempts.fetch_add(u64::from(report.attempts), Ordering::Relaxed);
                        }
                        Err(_) => {
                            attempts.fetch_add(u64::from(options.max_attempts), Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    // Audit: the total balance must be exactly conserved.
    let mut tx = engine.begin(ProcessId(99));
    let mut total = 0;
    for &account in &accounts {
        total += tx.read(account).unwrap().unwrap_or(0);
    }
    tx.commit().unwrap();

    let expected = accounts.len() as u64 * INITIAL_BALANCE;
    assert_eq!(
        total, expected,
        "isolation violated: money appeared or vanished across shards"
    );
    let done = transfers.load(Ordering::Relaxed);
    println!(
        "{done} transfers committed ({} cross-shard), avg attempts {:.2}",
        cross_shard.load(Ordering::Relaxed),
        attempts.load(Ordering::Relaxed) as f64 / done.max(1) as f64
    );
    println!("total balance conserved: {total} == {expected} ✓");
}
