//! Seeded fault-schedule regression tests for the cross-shard protocol.
//!
//! Every named schedule of `mvtl-faults` (delay-only, drop-prepare,
//! crash-mid-prepare, stall-timeout, skewed-clock) is replayed through
//! `mvtl-verify`'s MVSG checker over 2 and 8 shards, with the instrumented
//! probe of the phase-3 drain tests sandwiched *outside* the fault layer:
//!
//! ```text
//!   coordinator → Probed → Faulty → MvtlStore
//! ```
//!
//! so the probe observes exactly the decisions the coordinator (and its
//! presumed-abort recovery) hands to each prepared sub-transaction. The
//! invariants under every schedule: all committed histories are serializable,
//! no prepared sub-transaction is dropped undecided, and once the system
//! quiesces no shard still pins the GC watermark (no leaked sub-transaction).

mod support;

use mvtl_clock::GlobalClock;
use mvtl_common::ops::{Op, Workload};
use mvtl_common::{AbortReason, Engine, EngineExt, Key, ProcessId};
use mvtl_core::policy::MvtilPolicy;
use mvtl_core::{MvtlConfig, MvtlStore};
use mvtl_faults::{named_schedule, named_schedules, FaultKind, FaultPlan, FaultSpec};
use mvtl_shard::{Faulty, IntersectionPick, ShardedStore};
use mvtl_verify::{check_serializable, replay};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use support::{probed, Probe, Probed};

/// Probed, fault-injected MVTIL shards.
type Store = ShardedStore<Probed<Faulty<MvtlStore<u64, MvtilPolicy>>>>;

/// The probe-outside-fault sandwich over real MVTIL shards.
fn faulty_store(
    shards: usize,
    schedule: &str,
    fault_seed: u64,
) -> (Store, Arc<Probe>, Arc<FaultPlan>) {
    let clock: Arc<dyn mvtl_clock::ClockSource> = Arc::new(GlobalClock::starting_at(10_000));
    let probe = Arc::new(Probe::default());
    let plan = Arc::new(FaultPlan::new(
        FaultSpec::parse(schedule).expect("schedule parses"),
        fault_seed,
    ));
    let backends = (0..shards)
        .map(|shard| {
            let inner = Arc::new(MvtlStore::new(
                MvtilPolicy::early(100_000),
                Arc::clone(&clock),
                MvtlConfig::default(),
            ));
            probed(
                Arc::new(Faulty::new(inner, Arc::clone(&plan), shard)),
                &probe,
            )
        })
        .collect();
    let store = ShardedStore::new(backends, clock, IntersectionPick::Min);
    (store, probe, plan)
}

/// A deterministic multi-shard workload: `txns` transactions, each reading and
/// writing keys on (usually) two distinct shards, with the steps of adjacent
/// transaction pairs interleaved so the replay exercises concurrent intervals.
fn cross_shard_workload(store: &Store, txns: usize, seed: u64) -> Workload {
    let shards = store.shard_count();
    let keys: Vec<Key> = (0..shards).map(|s| store.key_on_shard(s, 0)).collect();
    let extra: Vec<Key> = (0..shards).map(|s| store.key_on_shard(s, 10_000)).collect();
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut per_tx: Vec<Vec<Op>> = Vec::with_capacity(txns);
    for tx in 0..txns {
        let a = (next() % shards as u64) as usize;
        let b = if shards > 1 {
            let mut b = (next() % shards as u64) as usize;
            if b == a {
                b = (b + 1) % shards;
            }
            b
        } else {
            a
        };
        let mut ops = vec![
            Op::Read(keys[a]),
            Op::Write(keys[a], tx as u64),
            Op::Write(extra[b], tx as u64 + 1_000),
        ];
        if next() % 3 == 0 {
            ops.push(Op::Read(extra[a]));
        }
        ops.push(Op::Commit);
        per_tx.push(ops);
    }
    // Interleave the steps of each adjacent pair of transactions.
    let mut workload = Workload::new();
    let mut tx = 0;
    while tx < txns {
        if tx + 1 < txns {
            let left = per_tx[tx].clone();
            let right = per_tx[tx + 1].clone();
            let mut l = left.into_iter();
            let mut r = right.into_iter();
            loop {
                match (l.next(), r.next()) {
                    (None, None) => break,
                    (op_l, op_r) => {
                        if let Some(op) = op_l {
                            workload.push(tx, op);
                        }
                        if let Some(op) = op_r {
                            workload.push(tx + 1, op);
                        }
                    }
                }
            }
            tx += 2;
        } else {
            for op in per_tx[tx].clone() {
                workload.push(tx, op);
            }
            tx += 1;
        }
    }
    workload
}

/// Waits for the store to quiesce: the shards behind withheld prepare
/// responses and stalls must resolve by presumed abort, releasing every
/// shard-level GC pin.
fn wait_for_quiesce(store: &Store) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while store.low_watermark().is_some() {
        assert!(
            Instant::now() < deadline,
            "store never quiesced: a sub-transaction leaked its pin \
             (low watermark {:?})",
            store.low_watermark()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Which fault counter a named schedule must visibly exercise.
fn primary_kind(name: &str) -> FaultKind {
    match name {
        "delay-only" => FaultKind::Delay,
        "drop-prepare" => FaultKind::DropPrepare,
        "crash-mid-prepare" => FaultKind::CrashMidPrepare,
        "stall-timeout" => FaultKind::Stall,
        "skewed-clock" => FaultKind::Skew,
        other => panic!("unknown schedule {other}"),
    }
}

#[test]
fn named_schedules_stay_serializable_and_leak_free() {
    for (name, schedule) in named_schedules() {
        for shards in [2usize, 8] {
            // Every drop/stall misses its deadline and forces the
            // presumed-abort path; delays never do.
            let (store, probe, plan) = faulty_store(shards, schedule, 0xFA01);
            let workload = cross_shard_workload(&store, 32, 0xC0FFEE ^ shards as u64);
            let report = replay(&store, &workload, |v| v);

            check_serializable(&report.history).unwrap_or_else(|violation| {
                panic!("{name}/{shards} shards: committed history not serializable: {violation}")
            });
            assert!(
                plan.count(primary_kind(name)) > 0,
                "{name}/{shards} shards: schedule never fired \
                 (injected {:?})",
                plan.trace()
            );
            wait_for_quiesce(&store);
            assert_eq!(
                probe.dropped_undecided.load(Ordering::Relaxed),
                0,
                "{name}/{shards} shards: prepared sub-transaction dropped undecided"
            );
            assert!(
                report.commits() + report.aborts() == 32,
                "{name}/{shards} shards: every transaction got an outcome"
            );
        }
    }
}

#[test]
fn fault_trace_is_byte_identical_across_runs() {
    // Single-threaded replay + per-(shard, seq) decisions ⇒ the fault trace
    // and the commit/abort split are exactly reproducible from the seeds,
    // for every fault kind. Phase 1 runs on the replay's thread, and a
    // dropped or stalled prepare fails there at once; the detached thread
    // that later aborts it draws no decision. Its 1 s hold outlasts the
    // replay, so the locks it keeps are held for the whole run, never
    // released mid-replay at the scheduler's whim.
    let run = |fault_seed: u64| {
        let (store, _probe, plan) = faulty_store(
            4,
            "delay:0.4:120|crash:0.2|skew:64|drop:0.1:1000|stall:0.1:1000",
            fault_seed,
        );
        let workload = cross_shard_workload(&store, 40, 7);
        let report = replay(&store, &workload, |v| v);
        wait_for_quiesce(&store);
        (plan.trace_string(), report.commits(), report.aborts())
    };
    let (trace_a, commits_a, aborts_a) = run(99);
    let (trace_b, commits_b, aborts_b) = run(99);
    assert_eq!(trace_a, trace_b, "fault trace must be byte-identical");
    for kind in FaultKind::ALL {
        assert!(
            trace_a.contains(&format!("{} shard=", kind.label())),
            "schedule must inject {kind:?}"
        );
    }
    assert_eq!(commits_a, commits_b);
    assert_eq!(aborts_a, aborts_b);
    // Skew draws from its own per-shard stream, so adding `skew:` to a
    // schedule shifts no delay or prepare decision: on every skewed shard
    // the begins are numbered 0, 1, 2, ... without a gap.
    for shard in 0..4 {
        let prefix = format!("skew shard={shard} seq=");
        let seqs: Vec<u64> = trace_a
            .lines()
            .filter_map(|line| line.strip_prefix(&prefix)?.split(' ').next()?.parse().ok())
            .collect();
        let contiguous: Vec<u64> = (0..seqs.len() as u64).collect();
        assert_eq!(seqs, contiguous, "shard {shard}'s skew sequence has gaps");
    }

    // A different fault seed draws a different schedule.
    let (trace_c, _, _) = run(100);
    assert_ne!(trace_a, trace_c, "fault seed must matter");
}

#[test]
fn stalled_shard_is_resolved_by_coordinator_timeout() {
    // Every prepare stalls 1.5 s. The commit must resolve by presumed abort
    // rather than hanging until the shard answers. The stall is deliberately
    // huge relative to the bound below: the assertion only has to
    // distinguish "timed out" from "waited out the stall", so a loaded CI
    // machine adding tens of milliseconds of scheduling noise cannot flip it.
    let (store, probe, plan) = faulty_store(2, "stall:1.0:1500", 1);
    let a = store.key_on_shard(0, 0);
    let b = store.key_on_shard(1, 0);
    let mut txn = store.begin(ProcessId(1));
    txn.write(a, 1).unwrap();
    txn.write(b, 2).unwrap();
    let started = Instant::now();
    let err = txn.commit().expect_err("stalled prepare cannot commit");
    let elapsed = started.elapsed();
    assert!(
        matches!(
            err.abort_reason(),
            Some(AbortReason::PrepareTimedOut { .. })
        ),
        "got {err:?}"
    );
    assert!(
        elapsed < Duration::from_millis(750),
        "coordinator waited out the stall instead of timing out ({elapsed:?})"
    );
    assert!(plan.count(FaultKind::Stall) > 0);
    // The stalled shards eventually prepare, hear no decision, and abort:
    // no pins, no undecided drops, no leftover locks.
    wait_for_quiesce(&store);
    assert_eq!(probe.dropped_undecided.load(Ordering::Relaxed), 0);
    assert_eq!(
        store.stats().lock_entries,
        0,
        "abandoned prepares leaked locks"
    );
}

#[test]
fn withheld_prepare_response_resolves_by_presumed_abort() {
    // The shard *does* prepare (frozen locks held!) but its response is
    // lost: the coordinator fails the commit at once, and the shard aborts
    // after its hold, hearing no decision. The 500 ms hold leaves a loaded
    // machine ample time to see the locks still held after the commit.
    let (store, probe, plan) = faulty_store(2, "drop:1.0:500", 2);
    let a = store.key_on_shard(0, 0);
    let b = store.key_on_shard(1, 0);
    let mut txn = store.begin(ProcessId(1));
    txn.write(a, 1).unwrap();
    txn.write(b, 2).unwrap();
    let err = txn.commit().expect_err("withheld prepares cannot commit");
    let Some(AbortReason::PrepareTimedOut { shard }) = err.abort_reason() else {
        panic!("got {err:?}");
    };
    // The timeout names a shard whose response the plan dropped.
    let dropped = format!("drop shard={shard} ");
    assert!(
        plan.trace().iter().any(|line| line.starts_with(&dropped)),
        "timeout names shard {shard}, whose prepare was not dropped: {:?}",
        plan.trace()
    );
    // The lost response's prepare still holds its frozen locks...
    assert!(
        store.stats().lock_entries > 0,
        "the withheld prepare released its frozen locks before its hold"
    );
    wait_for_quiesce(&store);
    assert_eq!(probe.dropped_undecided.load(Ordering::Relaxed), 0);
    assert_eq!(
        store.stats().lock_entries,
        0,
        "a withheld-then-abandoned prepare leaked its frozen locks"
    );
    // With the locks released, the same keys commit again through a
    // fault-free store sharing nothing with the failed attempt.
    let (clean, _, _) = faulty_store(2, "", 0);
    let mut txn = clean.begin(ProcessId(2));
    txn.write(a, 10).unwrap();
    txn.write(b, 20).unwrap();
    txn.commit().expect("fault-free cross-shard commit");
}

#[test]
fn crash_mid_prepare_aborts_the_whole_transaction() {
    // A certain crash: the participant loses its volatile lock state between
    // prepare and the decision, the coordinator learns in phase 1, and the
    // whole transaction aborts — atomically, with no partial installs.
    let (store, probe, plan) = faulty_store(2, "crash:1.0", 3);
    let a = store.key_on_shard(0, 0);
    let b = store.key_on_shard(1, 0);
    let baseline = store.stats();
    let mut txn = store.begin(ProcessId(1));
    txn.write(a, 1).unwrap();
    txn.write(b, 2).unwrap();
    let err = txn.commit().expect_err("crashed participant cannot commit");
    assert!(
        matches!(
            err.abort_reason(),
            Some(AbortReason::ParticipantCrashed { .. })
        ),
        "got {err:?}"
    );
    assert!(plan.count(FaultKind::CrashMidPrepare) > 0);
    wait_for_quiesce(&store);
    assert_eq!(probe.dropped_undecided.load(Ordering::Relaxed), 0);
    let after = store.stats();
    assert_eq!(after.lock_entries, baseline.lock_entries, "locks leaked");
    assert_eq!(after.versions, baseline.versions, "partial install leaked");
}

#[test]
fn skewed_clocks_still_intersect_to_one_timestamp() {
    // The ε-clock scenario: every shard reads a skewed clock, yet a committed
    // cross-shard transaction still installs one common timestamp everywhere.
    let schedule = named_schedule("skewed-clock").expect("named schedule");
    let (store, _probe, plan) = faulty_store(4, schedule, 5);
    let workload = cross_shard_workload(&store, 24, 11);
    let report = replay(&store, &workload, |v| v);
    check_serializable(&report.history).expect("serializable under skew");
    assert!(plan.count(FaultKind::Skew) > 0, "skew must be applied");
    assert!(report.commits() > 0, "skew must not abort everything");
    wait_for_quiesce(&store);
}

#[test]
#[should_panic(expected = "at least 1 shard")]
fn empty_shard_vector_panics() {
    let clock: Arc<dyn mvtl_clock::ClockSource> = Arc::new(GlobalClock::new());
    let _ = ShardedStore::<u64>::new(Vec::new(), clock, IntersectionPick::Min);
}
