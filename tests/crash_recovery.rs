//! Kill-and-recover integration tests for the durability subsystem: engines
//! built from `wal=` registry specs are killed (dropped, losing all in-memory
//! state) and rebuilt from their log, and the histories from before and after
//! the crash are checked through the MVSG verifier **as one serializable
//! history** — possible because recovery re-installs committed write sets at
//! their original commit timestamps and restarts the clock past them.

use mvtl::common::{CommitInfo, Engine, EngineExt, Key, ProcessId, TempDir, TxId};
use mvtl::verify::{check_serializable, History};
use std::collections::HashMap;

const KEYS: u64 = 16;

/// SplitMix64: a tiny deterministic stream so the workload needs no RNG crate.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `txns` seeded read-modify-write transactions sequentially, folding the
/// writes of every *committed* transaction into `expected` (the state a
/// correct recovery must reproduce) and returning their [`CommitInfo`]s.
fn run_workload(
    engine: &dyn Engine<u64>,
    seed: u64,
    txns: usize,
    tag: u64,
    expected: &mut HashMap<Key, u64>,
) -> Vec<CommitInfo> {
    let mut rng = seed;
    let mut infos = Vec::new();
    for i in 0..txns {
        let mut tx = engine.begin(ProcessId((i % 4) as u32));
        let mut writes = Vec::new();
        let body = (|| {
            for _ in 0..2 {
                tx.read(Key(splitmix(&mut rng) % KEYS))?;
            }
            for w in 0..2u64 {
                let key = Key(splitmix(&mut rng) % KEYS);
                let value = tag * 1_000_000 + (i as u64) * 10 + w;
                tx.write(key, value)?;
                writes.push((key, value));
            }
            Ok::<(), mvtl::common::TxError>(())
        })();
        if body.is_err() {
            continue; // the guard aborts on drop
        }
        if let Ok(info) = tx.commit() {
            for (key, value) in writes {
                expected.insert(key, value);
            }
            infos.push(info);
        }
    }
    infos
}

/// Shifts a commit's transaction id into a disjoint range, so the post-crash
/// run's ids (which restart with the rebuilt engine) cannot collide with
/// pre-crash ids in the combined history.
fn offset_ids(mut info: CommitInfo, offset: u64) -> CommitInfo {
    info.tx = TxId(info.tx.0 + offset);
    info
}

/// Asserts the engine's visible state matches `expected` exactly over the key
/// space (committed writes present, everything else absent).
fn assert_state_matches(engine: &dyn Engine<u64>, expected: &HashMap<Key, u64>) {
    let mut tx = engine.begin(ProcessId(63));
    for k in 0..KEYS {
        let key = Key(k);
        assert_eq!(
            tx.read(key).unwrap(),
            expected.get(&key).copied(),
            "key {k} diverged after recovery"
        );
    }
    tx.commit().unwrap();
}

#[test]
fn committed_state_survives_kill_and_recover_serializably() {
    let dir = TempDir::new("crash-recovery");
    let spec = format!("mvtil-early?wal={}&fsync=always", dir.path().display());
    let mut history = History::new();
    let mut expected = HashMap::new();

    let engine = mvtl::registry::build(&spec).expect("wal spec builds");
    for info in run_workload(engine.as_ref(), 42, 40, 1, &mut expected) {
        history.record(info);
    }
    // Leave an uncommitted transaction behind, then "crash".
    {
        let mut tx = engine.begin(ProcessId(9));
        tx.write(Key(0), 999_999_999).unwrap();
    }
    drop(engine); // every in-memory version is gone; only the log remains

    let engine = mvtl::registry::build(&spec).expect("recovery rebuild");
    // Committed state is back, the uncommitted write did not resurrect.
    assert_state_matches(engine.as_ref(), &expected);
    // Post-crash traffic serializes after the recovered state...
    for info in run_workload(engine.as_ref(), 43, 40, 2, &mut expected) {
        history.record(offset_ids(info, 1_000_000));
    }
    assert_state_matches(engine.as_ref(), &expected);
    // ...and the combined pre+post-crash history is one serializable history.
    check_serializable(&history).expect("combined history must be MVSG-serializable");
}

#[test]
fn recovery_chains_across_repeated_crashes() {
    let dir = TempDir::new("crash-recovery-chain");
    let spec = format!("mvtil-early?wal={}", dir.path().display());
    let mut history = History::new();
    let mut expected = HashMap::new();
    for round in 0..4u64 {
        let engine = mvtl::registry::build(&spec).expect("rebuild");
        assert_state_matches(engine.as_ref(), &expected);
        for info in run_workload(engine.as_ref(), 100 + round, 15, round + 1, &mut expected) {
            history.record(offset_ids(info, round * 1_000_000));
        }
    }
    check_serializable(&history).expect("history spanning three crashes must be serializable");
}

#[test]
fn cross_shard_recovery_composes_with_injected_participant_crashes() {
    let dir = TempDir::new("crash-recovery-sharded");
    let shared = format!(
        "sharded?shards=2&inner=mvtil-early&wal={}",
        dir.path().display()
    );
    // Pre-crash run: ~30% of prepares crash their participant, so a good
    // fraction of the cross-shard commits abort before reaching the log.
    let faulty_spec = format!("{shared}&fault=crash:0.3&fault_seed=7");
    let mut history = History::new();
    let mut expected = HashMap::new();

    let engine = mvtl::registry::build(&faulty_spec).expect("faulty wal spec builds");
    let committed = run_workload(engine.as_ref(), 7, 60, 1, &mut expected);
    assert!(
        !committed.is_empty(),
        "the crash schedule must let some transactions through"
    );
    for info in committed {
        history.record(info);
    }
    drop(engine); // kill the whole cluster

    // Recover without faults: exactly the committed transactions reappear —
    // crashed-prepare victims got their one (abort) decision, not a commit.
    let engine = mvtl::registry::build(&shared).expect("recovery rebuild");
    assert_state_matches(engine.as_ref(), &expected);
    for info in run_workload(engine.as_ref(), 8, 60, 2, &mut expected) {
        history.record(offset_ids(info, 1_000_000));
    }
    assert_state_matches(engine.as_ref(), &expected);
    check_serializable(&history).expect("cross-shard crash history must be serializable");
}

#[test]
fn torn_log_tails_recover_to_the_last_complete_record() {
    let dir = TempDir::new("crash-recovery-torn");
    let spec = format!("mvtil-early?wal={}", dir.path().display());

    let engine = mvtl::registry::build(&spec).unwrap();
    let mut tx = engine.begin(ProcessId(0));
    tx.write(Key(1), 11).unwrap();
    tx.commit().unwrap();
    let mut tx = engine.begin(ProcessId(0));
    tx.write(Key(2), 22).unwrap();
    tx.commit().unwrap();
    drop(engine);

    let segment = newest_segment(dir.path());

    // A crash mid-write leaves garbage after the last complete record:
    // recovery must stop at the last valid frame and keep everything before.
    {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&segment)
            .unwrap();
        file.write_all(&[0xAB; 13]).unwrap();
    }
    let engine = mvtl::registry::build(&spec).expect("torn tail must not fail recovery");
    let mut tx = engine.begin(ProcessId(1));
    assert_eq!(tx.read(Key(1)).unwrap(), Some(11));
    assert_eq!(tx.read(Key(2)).unwrap(), Some(22));
    tx.commit().unwrap();
    drop(engine); // the reopen above also truncated the garbage tail

    // A tear *inside* the final record: that record is discarded, every
    // record before it survives, and recovery still does not error.
    let valid_len = std::fs::metadata(&segment).unwrap().len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .unwrap();
    file.set_len(valid_len - 5).unwrap();
    drop(file);
    let engine = mvtl::registry::build(&spec).expect("mid-record tear must not fail recovery");
    let mut tx = engine.begin(ProcessId(2));
    assert_eq!(
        tx.read(Key(1)).unwrap(),
        Some(11),
        "earlier record survives"
    );
    assert_eq!(tx.read(Key(2)).unwrap(), None, "torn record is discarded");
    tx.commit().unwrap();
}

/// The lexicographically last `wal-*.log` segment in `dir` (segment indices
/// are zero-padded, so name order is index order).
fn newest_segment(dir: &std::path::Path) -> std::path::PathBuf {
    let mut segments: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|entry| {
            let path = entry.unwrap().path();
            (path.extension().is_some_and(|e| e == "log")).then_some(path)
        })
        .collect();
    segments.sort();
    segments.pop().expect("the log has at least one segment")
}
