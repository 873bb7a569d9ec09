//! Property-based serializability tests (Theorem 1 and friends).
//!
//! Two kinds of properties:
//!
//! 1. **Sequential replays** of randomly generated interleaved workloads: every
//!    engine must produce an acyclic multiversion serialization graph, and the
//!    committed values must match a reference serial execution in commit-
//!    timestamp order.
//! 2. **Concurrent executions** with real threads and randomized transaction
//!    bodies: the committed history must again be serializable.
//!
//! All engines are built from `mvtl-registry` string specs and driven through
//! the object-safe `dyn Engine` layer.

use mvtl_common::ops::{Op, Workload};
use mvtl_common::{Engine, Key};
use mvtl_verify::{check_serializable, replay, replay_concurrent};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KEYS: u64 = 6;

/// Random interleaved workload over a small key space.
fn arb_workload() -> impl Strategy<Value = Workload> {
    let step = (0usize..4, 0u64..KEYS, 0u64..100, 0u8..4);
    proptest::collection::vec(step, 4..40).prop_map(|steps| {
        let mut w = Workload::new();
        let mut finished = [false; 4];
        for (tx, key, value, kind) in steps {
            if finished[tx] {
                continue;
            }
            match kind {
                0 | 1 => {
                    w.push(tx, Op::Read(Key(key)));
                }
                2 => {
                    w.push(tx, Op::Write(Key(key), value));
                }
                _ => {
                    w.push(tx, Op::Commit);
                    finished[tx] = true;
                }
            }
        }
        for (tx, done) in finished.iter().enumerate() {
            if !done {
                w.push(tx, Op::Commit);
            }
        }
        for tx in 0..4usize {
            // Pin distinct timestamps so every engine sees the same clocks.
            w.pin_timestamp(tx, mvtl_common::Timestamp::at(10 + 10 * tx as u64));
        }
        w
    })
}

/// The sequential-replay engine fleet: every MVTL policy, the baselines and
/// the partitioned engine, each with a short lock-wait timeout and a clock
/// starting above the pinned timestamps, exactly like the paper's replay
/// setup.
fn sequential_specs() -> Vec<String> {
    mvtl_registry::all_specs()
        .into_iter()
        .map(|spec| {
            let params = match mvtl_registry::EngineSpec::base_name(spec) {
                "mvtil-early" | "mvtil-late" => "delta=25&clock_start=1000&timeout_ms=5",
                "mvtl-pref" => "offset=-5&clock_start=1000&timeout_ms=5",
                "mvtl-epsilon-clock" => "eps=7&clock_start=1000&timeout_ms=5",
                "2pl" => "timeout_ms=5",
                "mvto+" => "clock_start=1000",
                // The sharded entries carry MVTIL or TO inners; `delta` only
                // parses for the MVTIL ones.
                "sharded" if spec.contains("inner=mvtil") => {
                    "delta=25&clock_start=1000&timeout_ms=5"
                }
                _ => "clock_start=1000&timeout_ms=5",
            };
            mvtl_registry::EngineSpec::append_params(spec, params)
        })
        .collect()
}

fn build(spec: &str) -> Box<dyn Engine<u64>> {
    mvtl_registry::build(spec).unwrap_or_else(|e| panic!("spec {spec:?} must build: {e}"))
}

fn assert_serializable(engine: &dyn Engine<u64>, workload: &Workload) {
    let report = replay(engine, workload, |v| v);
    if let Err(violation) = check_serializable(&report.history) {
        panic!(
            "{} produced a non-serializable history on workload:\n{}\n{violation}",
            engine.name(),
            workload.render()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_engines_serializable_on_random_workloads(workload in arb_workload()) {
        for spec in sequential_specs() {
            if spec.starts_with("mvtl-pessimistic") {
                continue; // gets its own (smaller) case budget below
            }
            assert_serializable(build(&spec).as_ref(), &workload);
        }
    }

    #[test]
    fn pessimistic_engine_serializable_on_random_workloads(workload in arb_workload()) {
        // Pessimistic blocks more, so it gets its own (smaller) case budget by
        // virtue of living in a separate test.
        assert_serializable(
            build("mvtl-pessimistic?clock_start=1000&timeout_ms=5").as_ref(),
            &workload,
        );
    }

    #[test]
    fn mvtl_to_and_mvto_agree_on_serial_workloads(seed in any::<u64>()) {
        // Theorem 5 (behavioural check): on serial workloads with identical
        // pinned timestamps, MVTL-TO and MVTO+ commit exactly the same
        // transactions and expose the same final values.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = Workload::new();
        let txs = rng.gen_range(2..8usize);
        for tx in 0..txs {
            let ops = rng.gen_range(1..5usize);
            for _ in 0..ops {
                let key = Key(rng.gen_range(0..KEYS));
                if rng.gen_bool(0.5) {
                    w.push(tx, Op::Read(key));
                } else {
                    w.push(tx, Op::Write(key, rng.gen_range(0..100)));
                }
            }
            w.push(tx, Op::Commit);
            // Random (possibly non-monotonic) timestamps, all distinct.
            w.pin_timestamp(tx, mvtl_common::Timestamp::at(10 + rng.gen_range(0u64..1000) * 2 + tx as u64 % 2));
        }

        let to_engine = build("mvtl-to?clock_start=1000&timeout_ms=5");
        let mvto_engine = build("mvto+?clock_start=5000");
        let to_report = replay(to_engine.as_ref(), &w, |v| v);
        let mvto_report = replay(mvto_engine.as_ref(), &w, |v| v);

        let to_commits: Vec<bool> = (0..txs).map(|i| to_report.committed(i)).collect();
        let mvto_commits: Vec<bool> = (0..txs).map(|i| mvto_report.committed(i)).collect();
        prop_assert_eq!(&to_commits, &mvto_commits,
            "MVTL-TO and MVTO+ disagree on workload:\n{}", w.render());

        prop_assert!(check_serializable(&to_report.history).is_ok());
        prop_assert!(check_serializable(&mvto_report.history).is_ok());
    }
}

#[test]
fn concurrent_random_transactions_are_serializable_under_every_mvtl_policy() {
    for spec in [
        "mvtl-to?timeout_ms=5",
        "mvtl-ghostbuster?timeout_ms=5",
        "mvtl-epsilon-clock?eps=20&timeout_ms=5",
        "mvtil-early?delta=5000&timeout_ms=5",
        "mvtil-late?delta=5000&timeout_ms=5",
        "mvtl-pref?timeout_ms=5",
        "mvtl-pessimistic?timeout_ms=5",
        "mvtl-prio?timeout_ms=5",
        // A purge every millisecond with no lag races the frozen read runs;
        // MVTL-Pessimistic, which locks from 0, needs the purge floor.
        "mvtil-early?delta=5000&timeout_ms=5&gc_ms=1&gc_lag_ms=0",
        "mvtl-ghostbuster?timeout_ms=5&gc_ms=1&gc_lag_ms=0",
        "mvtl-pessimistic?timeout_ms=5&gc_ms=1&gc_lag_ms=0",
    ] {
        let engine = build(spec);
        let history = replay_concurrent(engine.as_ref(), 4, 60, |thread, iter, txn| {
            let mut rng = StdRng::seed_from_u64((thread * 1_000 + iter) as u64);
            for _ in 0..rng.gen_range(2..6usize) {
                let key = Key(rng.gen_range(0..KEYS));
                if rng.gen_bool(0.5) {
                    txn.read(key)?;
                } else {
                    txn.write(key, rng.gen_range(0..1_000))?;
                }
            }
            Ok(())
        });
        assert!(!history.is_empty(), "{spec}: some transactions must commit");
        if let Err(violation) = check_serializable(&history) {
            panic!("{spec}: non-serializable concurrent history: {violation}");
        }
    }
}

/// The partitioned engine's §7 cross-shard commit must preserve one-copy
/// serializability under real threads, for one, two and eight shards. The
/// small key space forces both heavy contention and (for > 1 shard) a high
/// fraction of cross-shard transactions whose commit runs the interval
/// intersection.
#[test]
fn concurrent_cross_shard_histories_are_serializable_for_1_2_and_8_shards() {
    for shards in [1usize, 2, 8] {
        for inner in ["mvtil-early", "mvtl-to"] {
            // `delta` only parses when the inner engine is MVTIL.
            let delta = if inner.starts_with("mvtil") {
                "&delta=5000"
            } else {
                ""
            };
            let spec = format!("sharded?shards={shards}&inner={inner}{delta}&timeout_ms=5");
            let engine = build(&spec);
            let history = replay_concurrent(engine.as_ref(), 4, 60, |thread, iter, txn| {
                let mut rng = StdRng::seed_from_u64((thread * 4_099 + iter) as u64);
                for _ in 0..rng.gen_range(2..6usize) {
                    let key = Key(rng.gen_range(0..KEYS));
                    if rng.gen_bool(0.5) {
                        txn.read(key)?;
                    } else {
                        txn.write(key, rng.gen_range(0..1_000))?;
                    }
                }
                Ok(())
            });
            assert!(!history.is_empty(), "{spec}: some transactions must commit");
            if let Err(violation) = check_serializable(&history) {
                panic!("{spec}: non-serializable concurrent history: {violation}");
            }
        }
    }
}

/// The baselines' concurrent histories are serializable, also with a round
/// trip before every operation (`fault=delay:`, which every spec accepts),
/// which widens the windows in which their transactions overlap.
#[test]
fn concurrent_random_transactions_are_serializable_under_the_baselines() {
    for (spec, seed, per_thread) in [
        ("mvto+", 7_777, 80),
        ("2pl?timeout_ms=5", 31, 80),
        ("mvto+?fault=delay:1:50", 313, 40),
        ("2pl?timeout_ms=5&fault=delay:1:50", 313, 40),
    ] {
        let engine = build(spec);
        let history = replay_concurrent(engine.as_ref(), 4, per_thread, |thread, iter, txn| {
            let mut rng = StdRng::seed_from_u64((thread * seed + iter) as u64);
            for _ in 0..rng.gen_range(2..6usize) {
                let key = Key(rng.gen_range(0..KEYS));
                if rng.gen_bool(0.5) {
                    txn.read(key)?;
                } else {
                    txn.write(key, rng.gen_range(0..1_000))?;
                }
            }
            Ok(())
        });
        if let Err(violation) = check_serializable(&history) {
            panic!("{spec}: non-serializable concurrent history: {violation}");
        }
    }
}
