//! Registry surface of the fault-injection layer: the `fault=` and
//! `fault_seed=` parameters of every engine — rejection of malformed specs,
//! composition with the background GC service, and deterministic behaviour
//! of spec-built engines.

use mvtl_common::{AbortReason, EngineExt, Key, ProcessId, TxError};
use mvtl_registry::{build, SpecError};
use std::time::{Duration, Instant};

#[test]
fn malformed_fault_specs_are_rejected() {
    // Unknown clause name.
    assert!(matches!(
        build("sharded?fault=fizzle:0.5").map(|_| ()),
        Err(SpecError::InvalidValue { ref param, .. }) if param == "fault"
    ));
    // Probability outside [0, 1].
    assert!(matches!(
        build("sharded?fault=drop:1.5:10").map(|_| ()),
        Err(SpecError::InvalidValue { ref param, .. }) if param == "fault"
    ));
    // Missing amount where one is required.
    assert!(matches!(
        build("sharded?fault=delay:0.5").map(|_| ()),
        Err(SpecError::InvalidValue { ref param, .. }) if param == "fault"
    ));
    // The parse error's detail is surfaced in the spec error.
    let msg = build("sharded?fault=fizzle:0.5")
        .map(|_| ())
        .unwrap_err()
        .to_string();
    assert!(msg.contains("fizzle"), "detail lost: {msg}");
}

#[test]
fn fault_seed_requires_a_schedule() {
    assert!(matches!(
        build("sharded?fault_seed=7").map(|_| ()),
        Err(SpecError::Malformed { .. })
    ));
    assert!(matches!(
        build("sharded?fault_seed=banana&fault=delay:0.5:100").map(|_| ()),
        Err(SpecError::InvalidValue { ref param, .. }) if param == "fault_seed"
    ));
}

#[test]
fn delay_applies_to_every_engine_and_prepare_faults_need_two_shards() {
    // A round trip is a per-operation delay, which every engine has.
    for spec in [
        "mvtil-early?delta=1000&fault=delay:1:50",
        "mvto+?fault=delay:1:50",
        "2pl?fault=delay:1:50&fault_seed=3",
    ] {
        let engine = build(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
        let mut tx = engine.begin(ProcessId(1));
        tx.write(Key(1), 7).unwrap();
        tx.commit().unwrap();
        let mut tx = engine.begin(ProcessId(2));
        assert_eq!(tx.read(Key(1)).unwrap(), Some(7), "{spec}");
        tx.commit().unwrap();
    }
    // A one-shard commit never prepares and never pins a begin timestamp, so
    // the prepare and skew clauses would be silently ignored there.
    for spec in [
        "mvtil-early?fault=drop:0.5",
        "mvto+?fault=crash:0.5",
        "2pl?fault=stall:0.5:10",
        "mvtil-late?fault=delay:1:50|skew:8",
        "sharded?shards=1&fault=crash:0.5",
    ] {
        assert!(
            matches!(build(spec).map(|_| ()), Err(SpecError::InvalidValue { ref param, .. }) if param == "fault"),
            "{spec} must be rejected"
        );
    }
    // The seed still needs a schedule, and no engine has a coordinator
    // timeout to set: a dropped or stalled prepare misses its deadline by
    // itself.
    assert!(matches!(
        build("2pl?fault_seed=7").map(|_| ()),
        Err(SpecError::Malformed { .. })
    ));
    for spec in [
        "mvtil-late?commit_timeout_ms=10",
        "sharded?commit_timeout_ms=100",
    ] {
        assert!(
            matches!(build(spec).map(|_| ()), Err(SpecError::UnknownParam { .. })),
            "{spec} must be rejected"
        );
    }
}

#[test]
fn faulty_engine_still_commits_under_a_delay_schedule() {
    // Pure delays slow operations down but never change outcomes.
    let engine = build("sharded?shards=2&fault=delay:1.0:200&fault_seed=3").unwrap();
    assert_eq!(engine.name(), "sharded");
    for round in 0..4u64 {
        let mut tx = engine.begin(ProcessId(1));
        for k in 0..6u64 {
            tx.write(Key(k), round * 100 + k).unwrap();
        }
        tx.commit().unwrap();
    }
    let mut tx = engine.begin(ProcessId(2));
    assert_eq!(tx.read(Key(0)).unwrap(), Some(300));
    tx.commit().unwrap();
}

#[test]
fn crash_schedule_outcomes_are_deterministic_across_builds() {
    // Two engines built from the same spec replay the same client sequence
    // with identical commit/abort outcomes: the fault plan draws from
    // (fault_seed, shard, seq) only.
    let run = |spec: &str| {
        let engine = build(spec).unwrap();
        let mut outcomes = Vec::new();
        for round in 0..12u64 {
            let mut tx = engine.begin(ProcessId(1));
            let mut failed = false;
            for k in 0..6u64 {
                if tx.write(Key(k), round).is_err() {
                    failed = true;
                    break;
                }
            }
            let committed = !failed && tx.commit().is_ok();
            outcomes.push(committed);
        }
        outcomes
    };
    let spec = "sharded?shards=2&fault=crash:0.4&fault_seed=11";
    let a = run(spec);
    let b = run(spec);
    assert_eq!(a, b, "same spec, same client sequence, same outcomes");
    assert!(
        a.iter().any(|c| !c),
        "a 0.4 crash rate over 12 cross-shard commits must abort something"
    );
    assert!(
        run("sharded?shards=2&fault=crash:0.4&fault_seed=12") != a
            || run("sharded?shards=2&fault=crash:0.4&fault_seed=13") != a,
        "different fault seeds must be able to draw different schedules"
    );
}

#[test]
fn stalled_prepares_time_out_through_the_registry_engine() {
    // A spec-built engine inherits presumed-abort recovery: with every
    // prepare stalled for 40 ms, a cross-shard commit resolves quickly by
    // PrepareTimedOut rather than waiting out the stall.
    let engine = build("sharded?shards=2&fault=stall:1.0:40&fault_seed=5").unwrap();
    let mut tx = engine.begin(ProcessId(1));
    for k in 0..6u64 {
        tx.write(Key(k), k).unwrap();
    }
    let started = Instant::now();
    let err = tx.commit().expect_err("stalled prepares cannot commit");
    assert!(
        matches!(err, TxError::Aborted(AbortReason::PrepareTimedOut { .. })),
        "got {err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_millis(35),
        "commit waited out the stall: {:?}",
        started.elapsed()
    );
}

/// Fault-matrix workload shared by the GC-composition test and its no-GC
/// control: single-shard version churn on `Key(7)` around a long-lived
/// pinned reader, plus one stalled cross-shard commit resolved by presumed
/// abort. Asserts the reader's anchored version survives throughout.
fn churn_with_pinned_reader(engine: &dyn mvtl_common::Engine<u64>) {
    // Build up versions with single-shard transactions (one participant — the
    // fast path never prepares, so stalls cannot touch it).
    for round in 0..8u64 {
        let mut tx = engine.begin(ProcessId(1));
        tx.write(Key(7), round).unwrap();
        tx.commit().unwrap();
    }

    // A long-lived reader anchors on the current state...
    let mut reader = engine.begin(ProcessId(2));
    let anchored = reader.read(Key(7)).unwrap();
    assert_eq!(anchored, Some(7));

    // ...while new versions pile up, GC (when attached) sweeps every 2 ms,
    // and a stalled cross-shard commit resolves by presumed abort.
    for round in 8..24u64 {
        let mut tx = engine.begin(ProcessId(1));
        tx.write(Key(7), round).unwrap();
        tx.commit().unwrap();
    }
    let mut doomed = engine.begin(ProcessId(3));
    for k in 0..6u64 {
        doomed.write(Key(k), 1).unwrap();
    }
    assert!(doomed.commit().is_err(), "stalled commit must abort");
    std::thread::sleep(Duration::from_millis(30));

    // The reader's anchored version was never purged out from under it.
    assert_eq!(
        reader.read(Key(7)).unwrap(),
        anchored,
        "GC purged a version below the pinned watermark"
    );
}

#[test]
fn gc_respects_the_watermark_pin_under_stalls() {
    // GC service + fault wrapper compose: the sweeper keeps reclaiming
    // versions while stalled prepares are resolved by presumed abort, yet a
    // pinned reader's anchored state survives. The no-GC control fixes the
    // yardstick: same faults, same workload, nothing reclaimed.
    let fault = "sharded?shards=2&fault=stall:1.0:20&fault_seed=9";
    let control = build(fault).unwrap();
    churn_with_pinned_reader(control.as_ref());
    let unreclaimed = control.stats().versions;

    let gc = build(&format!("{fault}&gc_ms=2&gc_lag_ms=0")).unwrap();
    churn_with_pinned_reader(gc.as_ref());
    let reclaimed = (0..500).any(|_| {
        if gc.stats().versions < unreclaimed {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
        false
    });
    assert!(
        reclaimed,
        "GC reclaimed nothing under faults: {} versions vs {} without GC",
        gc.stats().versions,
        unreclaimed
    );
}
