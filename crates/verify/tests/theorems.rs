//! Executable versions of the paper's theorems, replayed through the shared
//! workload machinery so that every engine sees the identical schedule.
//!
//! Engines are built from `mvtl-registry` string specs and driven through the
//! object-safe `dyn Engine` layer — no per-engine generic plumbing.

use mvtl_common::{AbortReason, Engine, EngineExt, Key, ProcessId, Timestamp};
use mvtl_verify::schedules::{
    ghost_abort_schedule, serial_abort_schedule, serial_counter_workload, theorem2_workload,
    update_concurrency_schedule, GHOST_ABORT_MIDDLE, GHOST_ABORT_VICTIM, SERIAL_ABORT_VICTIM,
    THEOREM2_VICTIM,
};
use mvtl_verify::{check_serializable, replay, History, ReplayReport};

/// Builds a registry engine with the short lock-wait timeout the schedule
/// replays use (for 2PL the parameter doubles as the deadlock timeout).
fn engine(spec: &str) -> Box<dyn Engine<u64>> {
    // MVTO+ has no lock waits, hence no timeout knob.
    let spec = if spec.starts_with("mvto+") {
        spec.to_string()
    } else if spec.contains('?') {
        format!("{spec}&timeout_ms=20")
    } else {
        format!("{spec}?timeout_ms=20")
    };
    mvtl_registry::build(&spec).unwrap_or_else(|e| panic!("spec {spec:?} must build: {e}"))
}

fn run(engine: &dyn Engine<u64>, workload: &mvtl_common::ops::Workload) -> ReplayReport {
    let report = replay(engine, workload, |v| v);
    check_serializable(&report.history)
        .unwrap_or_else(|e| panic!("{} produced a non-serializable history: {e}", engine.name()));
    report
}

// ---------------------------------------------------------------- Theorem 4

#[test]
fn serial_abort_happens_under_mvto_and_mvtl_to_but_not_epsilon_clock() {
    let schedule = serial_abort_schedule();

    assert!(
        !run(engine("mvto+").as_ref(), &schedule).committed(SERIAL_ABORT_VICTIM),
        "MVTO+ must abort the small-timestamp writer"
    );

    assert!(
        !run(engine("mvtl-to").as_ref(), &schedule).committed(SERIAL_ABORT_VICTIM),
        "MVTL-TO must behave like MVTO+ here"
    );

    // ε = 5 covers the 1-tick "skew" encoded in the pinned timestamps.
    let report = run(engine("mvtl-epsilon-clock?eps=5").as_ref(), &schedule);
    assert!(
        report.committed(SERIAL_ABORT_VICTIM),
        "MVTL-ε-clock must not abort in a serial execution (Theorem 4)"
    );
    assert_eq!(report.commits(), 2);
}

#[test]
fn epsilon_clock_commits_long_serial_histories() {
    let schedule = serial_counter_workload(30);
    let report = run(engine("mvtl-epsilon-clock?eps=16").as_ref(), &schedule);
    assert_eq!(report.commits(), 30, "no serial aborts allowed");
}

// ---------------------------------------------------------------- Theorem 7

#[test]
fn ghost_abort_happens_under_mvto_but_not_ghostbuster() {
    let schedule = ghost_abort_schedule();

    let report = run(engine("mvto+").as_ref(), &schedule);
    assert!(!report.committed(GHOST_ABORT_MIDDLE), "T2 must abort");
    assert!(
        !report.committed(GHOST_ABORT_VICTIM),
        "MVTO+ must exhibit the ghost abort of T1"
    );

    let report = run(engine("mvtl-to").as_ref(), &schedule);
    assert!(
        !report.committed(GHOST_ABORT_VICTIM),
        "MVTL-TO emulates MVTO+ and also ghost-aborts T1"
    );

    let report = run(engine("mvtl-ghostbuster").as_ref(), &schedule);
    assert!(!report.committed(GHOST_ABORT_MIDDLE), "T2 still aborts");
    assert!(
        report.committed(GHOST_ABORT_VICTIM),
        "MVTL-Ghostbuster must commit T1 (no ghost aborts, Theorem 7)"
    );
}

// ---------------------------------------------------------------- Theorem 2

#[test]
fn pref_commits_strictly_more_than_mvto() {
    let schedule = theorem2_workload();

    assert!(
        !run(engine("mvto+").as_ref(), &schedule).committed(THEOREM2_VICTIM),
        "MVTO+ must abort T2 on the Theorem 2 workload"
    );

    // Alternatives must lie below t1 = 5: A(t) = {t - 28} gives 2 for T2.
    let report = run(engine("mvtl-pref?offset=-28").as_ref(), &schedule);
    assert!(
        report.committed(THEOREM2_VICTIM),
        "MVTL-Pref must commit T2 via its alternative timestamp"
    );
    assert_eq!(report.commits(), 3);
}

#[test]
fn pref_does_not_abort_workloads_that_mvto_commits() {
    // Theorem 2(a) spot-check: a workload MVTO+ commits entirely is also
    // committed entirely by MVTL-Pref (alternatives smaller than preferential).
    let schedule = update_concurrency_schedule();
    let mvto_report = run(engine("mvto+").as_ref(), &schedule);
    assert_eq!(mvto_report.commits(), 2);

    let pref_report = run(engine("mvtl-pref?offset=-3").as_ref(), &schedule);
    assert_eq!(pref_report.commits(), 2);
}

// ------------------------------------------------- §9 comparison schedule

#[test]
fn full_multiversion_schemes_commit_concurrent_updates() {
    let schedule = update_concurrency_schedule();
    // All multiversion engines commit both transactions.
    for spec in ["mvtl-to", "mvtil-early?delta=1000", "mvto+"] {
        assert_eq!(
            run(engine(spec).as_ref(), &schedule).commits(),
            2,
            "{spec} must commit both concurrent updates"
        );
    }
}

// ------------------------------------------------------------ §6 purge

/// MVTL-Pessimistic commits at the smallest free timestamp, far below any
/// clock reading, so a purge at the clock-derived bound covers every commit
/// below. A history that closed a cycle when such a purge dropped all lock
/// state below its bound: the purge must leave the newest version of each
/// key its frozen read run, so W cannot commit under R's read of k1.
#[test]
fn pessimistic_commits_stay_serializable_across_a_purge_at_the_clock() {
    let engine = engine("mvtl-pessimistic");
    let (k1, k2, k3, k4) = (Key(1), Key(2), Key(3), Key(4));
    let mut commits = Vec::new();
    let mut t1 = engine.begin(ProcessId(0));
    t1.write(k1, 1).unwrap();
    commits.push(t1.commit().unwrap());
    let mut t2 = engine.begin(ProcessId(0));
    assert_eq!(t2.read(k1).unwrap(), Some(1));
    t2.write(k3, 2).unwrap();
    commits.push(t2.commit().unwrap());
    let mut t3 = engine.begin(ProcessId(0));
    assert_eq!(t3.read(k3).unwrap(), Some(2));
    t3.write(k4, 3).unwrap();
    commits.push(t3.commit().unwrap());
    let mut r = engine.begin(ProcessId(0));
    assert_eq!(r.read(k1).unwrap(), Some(1));
    assert_eq!(r.read(k4).unwrap(), Some(3));
    r.write(k2, 4).unwrap();
    let r_info = r.commit().unwrap();
    let r_ts = r_info.commit_ts.unwrap();
    commits.push(r_info);
    // Four begins have read the global clock; purge where the GC would
    // with no transaction in flight and no lag.
    assert_eq!(engine.low_watermark(), None);
    engine.purge_below(Timestamp::at(4));
    let mut w = engine.begin(ProcessId(0));
    let attempt = w
        .read(k3)
        .and_then(|_| w.write(k1, 5))
        .and_then(|()| w.write(k2, 5))
        .and_then(|()| w.commit());
    if let Ok(info) = attempt {
        let w_ts = info.commit_ts.unwrap();
        assert!(w_ts > r_ts, "W committed at {w_ts}, below R at {r_ts}");
        commits.push(info);
    }
    check_serializable(&History::from_commits(commits))
        .unwrap_or_else(|e| panic!("purge let a cycle through: {e}"));
}

/// The purge leaves a floor: a purge below `b` reclaims the cell of a key
/// that holds only `⊥` and its read run, and with it the one lock that kept
/// a MVTL-Pessimistic writer, which locks from 0, out from under the reader.
/// The stripe's floor must refuse W every timestamp below `b`, so W commits
/// above R instead of writing k1 under R's read of `⊥`.
#[test]
fn pessimistic_writer_commits_above_the_floor_of_a_reclaimed_cell() {
    let engine = engine("mvtl-pessimistic");
    let (k0, k1, k2) = (Key(0), Key(1), Key(2));
    let mut commits = Vec::new();
    let mut t0 = engine.begin(ProcessId(0));
    t0.write(k0, 1).unwrap();
    commits.push(t0.commit().unwrap());
    let mut r = engine.begin(ProcessId(0));
    assert_eq!(r.read(k1).unwrap(), None);
    assert_eq!(r.read(k0).unwrap(), Some(1));
    r.write(k2, 2).unwrap();
    let r_info = r.commit().unwrap();
    let r_ts = r_info.commit_ts.unwrap();
    commits.push(r_info);
    assert_eq!(engine.low_watermark(), None);
    let keys = engine.stats().keys;
    engine.purge_below(Timestamp::at(4));
    assert_eq!(engine.stats().keys, keys - 1, "k1's cell is reclaimed");
    let mut w = engine.begin(ProcessId(0));
    w.write(k1, 3).unwrap();
    w.write(k2, 3).unwrap();
    let w_info = w.commit().unwrap();
    let w_ts = w_info.commit_ts.unwrap();
    commits.push(w_info);
    let mut x = engine.begin(ProcessId(0));
    x.read(k2).unwrap();
    commits.push(x.commit().unwrap());
    check_serializable(&History::from_commits(commits))
        .unwrap_or_else(|e| panic!("W committed at {w_ts} and R at {r_ts}: {e}"));
    assert!(w_ts > r_ts, "W committed at {w_ts}, below R at {r_ts}");
}

/// MVTO+ checks a write against the read timestamp of the version it would
/// supersede, but a purge discards that timestamp with the version. Here R
/// at 18 reads k@10, a purge at 25 removes k@10, and W at 15 finds no
/// stored version of k below it: the read timestamp that W's write must
/// not pass is gone, so the write is refused instead of being checked
/// against `⊥`'s.
#[test]
fn mvto_refuses_a_write_whose_read_timestamp_was_purged() {
    let engine = engine("mvto+");
    let (j, k) = (Key(1), Key(2));
    let mut commits = Vec::new();
    let mut t1 = engine.begin_pinned(ProcessId(0), Timestamp::at(10));
    t1.write(k, 1).unwrap();
    commits.push(t1.commit().unwrap());
    let mut r = engine.begin_pinned(ProcessId(0), Timestamp::at(18));
    assert_eq!(r.read(k).unwrap(), Some(1));
    r.write(j, 2).unwrap();
    commits.push(r.commit().unwrap());
    let mut t2 = engine.begin_pinned(ProcessId(0), Timestamp::at(20));
    t2.write(k, 3).unwrap();
    commits.push(t2.commit().unwrap());
    assert_eq!(engine.purge_below(Timestamp::at(25)), (1, 0), "k@10 goes");
    let mut w = engine.begin_pinned(ProcessId(0), Timestamp::at(15));
    assert_eq!(w.read(j).unwrap(), None);
    w.write(k, 4).unwrap();
    let attempt = w.commit();
    if let Ok(info) = &attempt {
        commits.push(info.clone());
    }
    check_serializable(&History::from_commits(commits))
        .unwrap_or_else(|e| panic!("W committed under R's purged read: {e}"));
    let err = attempt.expect_err("W's write must be refused");
    assert_eq!(
        err.abort_reason(),
        Some(&AbortReason::WriteConflict { key: k })
    );
}

// ------------------------------------------------------ cross-engine sanity

#[test]
fn every_engine_produces_serializable_histories_on_the_paper_schedules() {
    let schedules = [
        serial_abort_schedule(),
        ghost_abort_schedule(),
        theorem2_workload(),
        update_concurrency_schedule(),
        serial_counter_workload(10),
    ];
    // Every registered engine, straight from the registry enumeration: a new
    // engine is enrolled into this theorem sanity check automatically.
    for spec in mvtl_registry::all_specs() {
        let tuned = match spec {
            "mvtil-early" | "mvtil-late" => format!("{spec}?delta=100"),
            other => other.to_string(),
        };
        for schedule in &schedules {
            run(engine(&tuned).as_ref(), schedule);
        }
    }
}
