//! Kill-and-recover integration tests for the durability subsystem: engines
//! built from `wal=` registry specs are killed (dropped, losing all in-memory
//! state) and rebuilt from their log, and the histories from before and after
//! the crash are checked through the MVSG verifier **as one serializable
//! history** — possible because recovery re-installs committed write sets at
//! their original commit timestamps and restarts the clock past them.

use mvtl::clock::GlobalClock;
use mvtl::common::{CommitInfo, Engine, EngineExt, Key, ProcessId, TempDir, Timestamp, TxId};
use mvtl::core::policy::MvtilPolicy;
use mvtl::core::{MvtlConfig, MvtlStore};
use mvtl::registry::SpecError;
use mvtl::shard::{IntersectionPick, ShardedStore};
use mvtl::verify::{check_serializable, History};
use mvtl::wal::record::decode_frame;
use mvtl::wal::{Wal, WalOptions, WalRecord};
use std::collections::HashMap;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

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
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .unwrap();
    file.set_len(valid_end(&segment) - 5).unwrap();
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

/// Where the frames of the segment at `path` end: past the 8-byte header,
/// at the first bytes that do not decode. A segment is zero from there to
/// its preallocated end.
fn valid_end(path: &Path) -> u64 {
    let bytes = std::fs::read(path).unwrap();
    let mut offset = 8;
    while let Some((_, consumed)) = decode_frame::<u64>(&bytes[offset..]).unwrap() {
        offset += consumed;
    }
    offset as u64
}

/// Every `*.log` file under `dir`, at any depth, with its valid end.
fn log_files(dir: &Path) -> Vec<(PathBuf, u64)> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(log_files(&path));
        } else if path.extension().is_some_and(|e| e == "log") {
            let end = valid_end(&path);
            files.push((path, end));
        }
    }
    files.sort();
    files
}

/// Copies the tree under `from` into `to`.
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        let target = to.join(path.file_name().unwrap());
        if path.is_dir() {
            copy_tree(&path, &target);
        } else {
            std::fs::copy(&path, &target).unwrap();
        }
    }
}

/// Reads `keys` in one transaction: their values, and the version each read
/// returned, in key order.
fn read_back(engine: &dyn Engine<u64>, keys: &[Key]) -> (Vec<Option<u64>>, Vec<(Key, Timestamp)>) {
    let mut tx = engine.begin(ProcessId(63));
    let values = keys.iter().map(|key| tx.read(*key).unwrap()).collect();
    let mut reads = tx.commit().unwrap().reads;
    reads.sort();
    (values, reads)
}

#[test]
fn a_cross_shard_commit_recovers_whole_or_not_at_all_at_every_crash_point() {
    let dir = TempDir::new("crash-sweep");
    let spec = |dir: &Path| format!("sharded?shards=2&inner=mvtil-early&wal={}", dir.display());
    let keys: Vec<Key> = (0..8).map(Key).collect();
    let router: ShardedStore<MvtlStore<u64, MvtilPolicy>> = ShardedStore::with_policy(
        2,
        Arc::new(GlobalClock::new()),
        MvtlConfig::default(),
        IntersectionPick::Min,
        |_| MvtilPolicy::early(1000),
    );
    assert!(
        (0..2).all(|shard| keys.iter().any(|key| router.shard_of(*key) == shard)),
        "the transaction must write on both shards"
    );
    let before: Vec<Option<u64>> = keys.iter().map(|key| Some(key.0)).collect();
    let after: Vec<Option<u64>> = keys.iter().map(|key| Some(key.0 + 1000)).collect();

    let engine = mvtl::registry::build(&spec(dir.path())).unwrap();
    for key in &keys {
        let mut tx = engine.begin(ProcessId(1));
        tx.write(*key, key.0).unwrap();
        tx.commit().unwrap();
    }
    let earlier = log_files(dir.path());
    let mut tx = engine.begin(ProcessId(2));
    for key in &keys {
        tx.write(*key, key.0 + 1000).unwrap();
    }
    tx.commit().unwrap();
    drop(engine);

    // Crash each log the commit grew at every frame boundary and every byte
    // of what it appended, in the two states a crash leaves behind: the rest
    // of a preallocated segment zero, and an older build's segment cut short.
    // The other logs keep everything.
    let mut cuts = 0;
    let mut split = Vec::new();
    for (path, end) in log_files(dir.path()) {
        let start = earlier
            .iter()
            .find(|(p, _)| *p == path)
            .map_or(0, |(_, end)| *end);
        for cut in start..=end {
            for zeroed in [true, false] {
                let copy = TempDir::new("crash-sweep-cut");
                copy_tree(dir.path(), copy.path());
                let cut_path = copy.path().join(path.strip_prefix(dir.path()).unwrap());
                let file = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&cut_path)
                    .unwrap();
                if zeroed {
                    let len = file.metadata().unwrap().len();
                    file.write_all_at(&vec![0; (len - cut) as usize], cut)
                        .unwrap();
                } else {
                    file.set_len(cut).unwrap();
                }
                drop(file);
                let engine = mvtl::registry::build(&spec(copy.path())).expect("rebuild");
                let (values, _) = read_back(engine.as_ref(), &keys);
                if values != before && values != after {
                    let state = if zeroed { "zeroed" } else { "truncated" };
                    split.push(format!("{} {state} from {cut}: {values:?}", path.display()));
                }
                cuts += 1;
            }
        }
    }
    assert!(cuts > 2, "the commit appended nothing");
    assert!(
        split.is_empty(),
        "{} of {cuts} crash points split the transaction, e.g. {:?}",
        split.len(),
        &split[..split.len().min(3)]
    );
}

#[test]
fn a_log_reopens_under_any_shard_layout() {
    let dir = TempDir::new("crash-relayout");
    let spec = |layout: &str| format!("{layout}wal={}", dir.path().display());
    let written = spec("sharded?shards=2&inner=mvtil-early&");
    let keys: Vec<Key> = (0..KEYS).map(Key).collect();
    let mut expected = HashMap::new();
    let engine = mvtl::registry::build(&written).unwrap();
    assert!(!run_workload(engine.as_ref(), 5, 40, 1, &mut expected).is_empty());
    drop(engine);

    let on_two = read_back(mvtl::registry::build(&written).unwrap().as_ref(), &keys);
    let values: Vec<Option<u64>> = keys.iter().map(|key| expected.get(key).copied()).collect();
    assert_eq!(on_two.0, values);
    for layout in ["sharded?shards=3&inner=mvtil-early&", "mvtil-early?"] {
        let engine = mvtl::registry::build(&spec(layout)).unwrap();
        assert_eq!(read_back(engine.as_ref(), &keys), on_two, "{layout}");
    }
}

#[test]
fn an_older_per_shard_log_directory_is_refused_untouched() {
    // Older builds logged shard `i` of a `sharded` spec in `<dir>/shard-<i>`.
    let dir = TempDir::new("crash-per-shard");
    let (wal, _) = Wal::open::<u64>(&dir.path().join("shard-1"), WalOptions::default()).unwrap();
    wal.append(&WalRecord::Commit {
        id: 1,
        commit_ts: Some(Timestamp::at(5)),
        writes: vec![(Key(1), 1)],
    })
    .unwrap();
    drop(wal);
    let bytes = |dir: &Path| -> Vec<Vec<u8>> {
        log_files(dir)
            .into_iter()
            .map(|(path, _)| std::fs::read(path).unwrap())
            .collect()
    };
    let before = bytes(dir.path());
    for layout in ["sharded?shards=2&", "mvtil-early?"] {
        let spec = format!("{layout}wal={}", dir.path().display());
        let err = mvtl::registry::build(&spec).map(|_| ()).unwrap_err();
        assert!(
            matches!(err, SpecError::InvalidValue { .. }),
            "{spec}: {err}"
        );
    }
    assert_eq!(bytes(dir.path()), before);
    assert_eq!(
        std::fs::read_dir(dir.path()).unwrap().count(),
        1,
        "a log opened in <dir>"
    );
}
