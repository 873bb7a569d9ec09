//! Deterministic §7 schedules: the cross-shard commit must use the interval
//! intersection — committing at a common timestamp when one exists, and
//! aborting (with every shard's locks released) when the shards' frozen
//! intervals are disjoint.

use mvtl_clock::GlobalClock;
use mvtl_common::{AbortReason, EngineExt, Key, ProcessId, Timestamp, TxError};
use mvtl_core::policy::MvtilPolicy;
use mvtl_core::MvtlConfig;
use mvtl_shard::{IntersectionPick, ShardedStore};
use std::sync::Arc;

const DELTA: u64 = 50;

fn store(pick: IntersectionPick) -> ShardedStore<u64> {
    ShardedStore::with_policy(
        2,
        Arc::new(GlobalClock::starting_at(1000)),
        MvtlConfig::default(),
        pick,
        |_| MvtilPolicy::early(DELTA),
    )
}

/// Keys on shard 0 and shard 1 respectively.
fn keys(s: &ShardedStore<u64>) -> (Key, Key) {
    let a = s.key_on_shard(0, 0);
    let b = s.key_on_shard(1, a.0 + 1);
    (a, b)
}

#[test]
fn cross_shard_commit_happens_at_the_intersection_minimum() {
    let s = store(IntersectionPick::Min);
    let (a, b) = keys(&s);
    // Pinned at 125 with Δ = 50: both shards freeze [125, 175]; the
    // intersection is the full interval and Min picks its bottom.
    let mut tx = s.begin_pinned(ProcessId(1), Timestamp::at(125));
    tx.write(a, 1).unwrap();
    tx.write(b, 2).unwrap();
    let info = tx.commit().unwrap();
    assert_eq!(info.commit_ts, Some(Timestamp::new(125, 0)));
}

#[test]
fn cross_shard_commit_happens_at_the_intersection_maximum_with_pick_max() {
    let s = store(IntersectionPick::Max);
    let (a, b) = keys(&s);
    let mut tx = s.begin_pinned(ProcessId(1), Timestamp::at(125));
    tx.write(a, 1).unwrap();
    tx.write(b, 2).unwrap();
    let info = tx.commit().unwrap();
    assert_eq!(info.commit_ts, Some(Timestamp::new(125 + DELTA, u32::MAX)));
}

/// The paper-schedule empty-intersection abort: both shards freeze a
/// *non-empty* interval, but the intervals are disjoint, so the coordinator
/// must abort and release every shard's locks.
///
/// Construction (Δ = 50, all clock readings pinned):
///
/// * `W0` (pinned 140) holds write locks `[140, 190]` on `a` (shard 0);
/// * `W1` (pinned 110) holds write locks `[110, 160]` on `b` (shard 1);
/// * `T`  (pinned 125, interval `[125, 175]`) writes both keys. MVTIL's
///   non-waiting lock acquisition shrinks its shard-0 interval to
///   `[125, 139]` and its shard-1 interval to `[161, 175]` — disjoint.
#[test]
fn disjoint_shard_intervals_abort_the_cross_shard_commit() {
    let s = store(IntersectionPick::Min);
    let (a, b) = keys(&s);

    let mut w0 = s.begin_pinned(ProcessId(1), Timestamp::at(140));
    w0.write(a, 100).unwrap();
    let mut w1 = s.begin_pinned(ProcessId(2), Timestamp::at(110));
    w1.write(b, 200).unwrap();

    // Lock footprint with only the two blockers in flight.
    let baseline: Vec<_> = s.shard_stats().iter().map(|st| st.lock_entries).collect();

    let mut t = s.begin_pinned(ProcessId(3), Timestamp::at(125));
    t.write(a, 1).unwrap();
    t.write(b, 2).unwrap();
    let err = t.commit().unwrap_err();
    assert_eq!(
        err,
        TxError::Aborted(AbortReason::NoCommonTimestamp),
        "disjoint frozen intervals must abort with NoCommonTimestamp"
    );

    // Every participating shard released T's locks: the footprint is back to
    // exactly the blockers'.
    let after: Vec<_> = s.shard_stats().iter().map(|st| st.lock_entries).collect();
    assert_eq!(after, baseline, "abort must release locks on every shard");

    // And T's writes are invisible.
    w0.abort();
    w1.abort();
    let mut check = s.begin_pinned(ProcessId(4), Timestamp::at(300));
    assert_eq!(check.read(a).unwrap(), None);
    assert_eq!(check.read(b).unwrap(), None);
    check.commit().unwrap();
}

/// Same schedule, but with the blockers released before the doomed commit
/// retries: the second attempt finds overlapping intervals and commits —
/// the retry story the paper tells for MVTIL.
#[test]
fn retrying_after_the_blockers_release_commits() {
    let s = store(IntersectionPick::Min);
    let (a, b) = keys(&s);

    let mut w0 = s.begin_pinned(ProcessId(1), Timestamp::at(140));
    w0.write(a, 100).unwrap();
    let mut w1 = s.begin_pinned(ProcessId(2), Timestamp::at(110));
    w1.write(b, 200).unwrap();

    let mut t = s.begin_pinned(ProcessId(3), Timestamp::at(125));
    t.write(a, 1).unwrap();
    t.write(b, 2).unwrap();
    assert!(t.commit().is_err());

    w0.abort();
    w1.abort();

    let mut t = s.begin_pinned(ProcessId(3), Timestamp::at(125));
    t.write(a, 1).unwrap();
    t.write(b, 2).unwrap();
    let info = t.commit().unwrap();
    assert_eq!(info.commit_ts, Some(Timestamp::new(125, 0)));
}
