//! Concurrency tests: drive every MVTL policy from many threads and check
//! basic integrity invariants (the full serializability check lives in
//! `mvtl-verify`, which builds the multiversion serialization graph).

use mvtl_clock::GlobalClock;
use mvtl_common::{AbortReason, Engine, Key, ProcessId, RetryOptions, TransactionalKV, TxError};
use mvtl_core::policy::{
    EpsilonPolicy, GhostbusterPolicy, LockingPolicy, MvtilPolicy, PessimisticPolicy, PrefPolicy,
    PrioPolicy, ToPolicy,
};
use mvtl_core::{MvtlConfig, MvtlStore};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Runs `threads` workers, each transferring between a pair of accounts in a
/// loop; the sum of all account balances is invariant under transfers, so any
/// isolation violation shows up as a broken total.
fn run_bank<P: LockingPolicy + Clone>(policy: P, threads: usize, iters: usize) {
    const ACCOUNTS: u64 = 8;
    const INITIAL: u64 = 1_000;

    let store: Arc<MvtlStore<u64, P>> = Arc::new(MvtlStore::new(
        policy,
        Arc::new(GlobalClock::new()),
        MvtlConfig::default().with_lock_wait_timeout(Duration::from_millis(10)),
    ));

    // Seed the accounts in one transaction.
    {
        let mut tx = store.begin(ProcessId(0));
        for a in 0..ACCOUNTS {
            store.write(&mut tx, Key(a), INITIAL).unwrap();
        }
        store.commit(tx).unwrap();
    }

    let commits = Arc::new(AtomicU64::new(0));
    let aborts = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        for worker in 0..threads {
            let store = Arc::clone(&store);
            let commits = Arc::clone(&commits);
            let aborts = Arc::clone(&aborts);
            scope.spawn(move || {
                let process = ProcessId(worker as u32 + 1);
                for i in 0..iters {
                    let from = Key(((worker + i) as u64) % ACCOUNTS);
                    let to = Key(((worker + i + 1) as u64) % ACCOUNTS);
                    if from == to {
                        continue;
                    }
                    let mut tx = store.begin(process);
                    let result = (|| -> Result<(), TxError> {
                        let a = store.read(&mut tx, from)?.unwrap_or(0);
                        let b = store.read(&mut tx, to)?.unwrap_or(0);
                        if a == 0 {
                            return Ok(());
                        }
                        store.write(&mut tx, from, a - 1)?;
                        store.write(&mut tx, to, b + 1)?;
                        Ok(())
                    })();
                    match result {
                        Ok(()) => match store.commit(tx) {
                            Ok(_) => {
                                commits.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                aborts.fetch_add(1, Ordering::Relaxed);
                            }
                        },
                        Err(_) => {
                            aborts.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    // Snapshot the final committed state and check the invariant.
    let mut tx = store.begin(ProcessId(99));
    let mut total = 0u64;
    for a in 0..ACCOUNTS {
        total += store.read(&mut tx, Key(a)).unwrap().unwrap_or(0);
    }
    // The snapshot transaction itself may abort under contention-free policies
    // only if versions were purged, which we never do here, so commit must work
    // for every policy when run after the workers have finished.
    store.commit(tx).unwrap();

    assert_eq!(
        total,
        ACCOUNTS * INITIAL,
        "balance total must be preserved (commits={}, aborts={})",
        commits.load(Ordering::Relaxed),
        aborts.load(Ordering::Relaxed)
    );
    assert!(
        commits.load(Ordering::Relaxed) > 0,
        "at least some transfers must commit"
    );
}

#[test]
fn mvtil_early_preserves_balance_invariant() {
    run_bank(MvtilPolicy::early(2_000), 4, 200);
}

#[test]
fn mvtil_late_preserves_balance_invariant() {
    run_bank(MvtilPolicy::late(2_000), 4, 200);
}

#[test]
fn to_policy_preserves_balance_invariant() {
    run_bank(ToPolicy::new(), 4, 150);
}

#[test]
fn ghostbuster_preserves_balance_invariant() {
    run_bank(GhostbusterPolicy::new(), 4, 150);
}

#[test]
fn epsilon_clock_preserves_balance_invariant() {
    run_bank(EpsilonPolicy::new(50), 4, 150);
}

#[test]
fn pessimistic_preserves_balance_invariant() {
    run_bank(PessimisticPolicy::new(), 3, 80);
}

#[test]
fn prio_preserves_balance_invariant() {
    run_bank(PrioPolicy::new(), 4, 150);
}

#[test]
fn pref_preserves_balance_invariant() {
    run_bank(PrefPolicy::new(), 4, 150);
}

#[test]
fn concurrent_blind_writers_all_commit_under_mvtil() {
    use mvtl_common::EngineExt as _;
    // Multiversion protocols commit blind writes without conflicts (§8.4.2).
    // A blind writer never conflicts on *values*, but MVTIL can still run out
    // of timestamps: its write lock must fit inside `[t, t + Δ]`, and an
    // earlier writer's locked interval plus a later one's can together cover
    // all of it. That is a legitimate `IntervalExhausted` abort (slow,
    // instrumented builds widen the overlap window), and a retry with a fresh
    // interval gets through. So every write must commit through the retry
    // loop, and every abort on the way must be an exhausted interval.
    let store: MvtlStore<u64, MvtilPolicy> = MvtlStore::new(
        MvtilPolicy::early(10_000),
        Arc::new(GlobalClock::new()),
        MvtlConfig::default(),
    );
    let engine: &dyn Engine<u64> = &store;
    std::thread::scope(|scope| {
        for w in 0..8u32 {
            scope.spawn(move || {
                let options = RetryOptions::default().with_seed(u64::from(w));
                for i in 0..100u64 {
                    let mut aborts = Vec::new();
                    let report = engine
                        .run(ProcessId(w + 1), &options, |tx| {
                            let result = tx.write(Key(i % 16), u64::from(w) * 1000 + i);
                            if let Err(err) = &result {
                                aborts.push(err.clone());
                            }
                            result
                        })
                        .unwrap_or_else(|e| panic!("blind write never committed: {e}"));
                    assert_eq!(
                        report.attempts as usize,
                        aborts.len() + 1,
                        "a blind writer's commit aborted"
                    );
                    for err in aborts {
                        assert!(
                            matches!(
                                err.abort_reason(),
                                Some(AbortReason::IntervalExhausted { .. })
                            ),
                            "unexpected blind-write abort: {err}"
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn store_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MvtlStore<u64, MvtilPolicy>>();
    assert_send_sync::<MvtlStore<String, ToPolicy>>();
    assert_send_sync::<MvtlStore<Vec<u8>, PessimisticPolicy>>();
}
