//! Tests of [`KeyData`]: its size, and an oracle test of the frozen state it
//! keeps on the versions against §4.2 read literally — one freezable
//! readers-writer lock per timestamp.
//!
//! The model records, for every timestamp, which transactions hold it per
//! mode and whether it is frozen per mode. Random histories run on the model
//! and a [`KeyData`] side by side:
//!
//! * reads anchor on the newest version below a random point and read-lock
//!   from there, shrinking below a newer version exactly as the engine does;
//! * writes lock a random range;
//! * commits pick a timestamp every read is read-locked up to (and every
//!   write is write-locked at); the model freezes the write point and the
//!   read locks, with commit-time GC only the read runs `[version+1,
//!   commit_ts]`, without it all of them, then releases; the cell installs
//!   a version, raises read high-water marks and releases;
//! * aborts release, or, as MVTL-TO's do, first freeze the read locks;
//!   purges use a bound that never passes a held lock, like the engine's
//!   watermark, and an idle cell is reclaimed as the store does.
//!
//! After every step, the lock table holds no entry of a finished
//! transaction.
//!
//! The model's purge is the one the versions carry: below the newest version
//! under the bound, all frozen state goes; from it on, all of it stays.
//!
//! Timestamps are `(value, process)` pairs on a 64-point grid `(i / 4, i %
//! 4)`, as in `mvtl-locks`' frozen-prefix oracle; the gap after each `(v, 3)`
//! is a cell of its own.

use super::KeyData;
use mvtl_common::{Key, LockMode, Timestamp, TsRange, TsSet, TxId};
use mvtl_locks::{AcquireAnalysis, ReadRequest};
use mvtl_storage::ChainArena;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A key is one dense record of the stripe map: the key, 48 bytes of lock
/// state (one entry inline) and a 160-byte version chain.
#[test]
fn a_key_slot_is_no_larger_than_before_frozen_state_moved_to_the_versions() {
    assert!(std::mem::size_of::<(Key, KeyData<u64>)>() <= 216);
}

const GRID: usize = 64;
const PROCESSES: usize = 4;
const SLOTS: usize = 4;

fn point(i: usize) -> Timestamp {
    Timestamp::new((i / PROCESSES) as u64, (i % PROCESSES) as u32)
}

fn range(start: usize, len: usize) -> TsRange {
    TsRange::new(point(start), point((start + len).min(GRID - 1)))
}

fn mode(write: bool) -> LockMode {
    if write {
        LockMode::Write
    } else {
        LockMode::Read
    }
}

fn idx(mode: LockMode) -> usize {
    match mode {
        LockMode::Read => 0,
        LockMode::Write => 1,
    }
}

/// The modes a request in `mode` conflicts with (§4.2: readers share).
fn conflicting(mode: LockMode) -> &'static [usize] {
    match mode {
        LockMode::Read => &[1],
        LockMode::Write => &[0, 1],
    }
}

/// One freezable lock: its unfrozen holders per mode and whether it is
/// frozen per mode. Nobody acquires after freezing, so frozen locks need no
/// owner: they conflict with every request.
#[derive(Debug, Clone, Default)]
struct Lock {
    held: [BTreeSet<TxId>; 2],
    frozen: [bool; 2],
}

struct Model {
    cells: Vec<(TsRange, Lock)>,
    versions: Vec<Timestamp>,
}

impl Model {
    fn new() -> Model {
        let mut cells = Vec::new();
        for i in 0..GRID {
            cells.push((TsRange::point(point(i)), Lock::default()));
            if i % PROCESSES == PROCESSES - 1 {
                let v = (i / PROCESSES) as u64;
                let gap = TsRange::new(
                    Timestamp::new(v, PROCESSES as u32),
                    Timestamp::new(v, u32::MAX),
                );
                cells.push((gap, Lock::default()));
            }
        }
        Model {
            cells,
            versions: Vec::new(),
        }
    }

    fn set(&self, pred: impl Fn(&TsRange, &Lock) -> bool) -> TsSet {
        TsSet::from_ranges(
            self.cells
                .iter()
                .filter(|(cell, lock)| pred(cell, lock))
                .map(|(cell, _)| *cell),
        )
    }

    fn within(&mut self, range: TsRange) -> impl Iterator<Item = &mut Lock> {
        self.cells
            .iter_mut()
            .filter(move |(cell, _)| range.contains_range(cell))
            .map(|(_, lock)| lock)
    }

    fn analyze(&self, tx: TxId, mode: LockMode, desired: TsRange) -> AcquireAnalysis {
        let held = |l: &Lock| {
            conflicting(mode)
                .iter()
                .any(|&m| l.held[m].iter().any(|&o| o != tx))
        };
        let frozen = |l: &Lock| conflicting(mode).iter().any(|&m| l.frozen[m]);
        let inside = |cell: &TsRange| desired.contains_range(cell);
        AcquireAnalysis {
            grantable: self.set(|c, l| inside(c) && !held(l) && !frozen(l)),
            blocked_unfrozen: self.set(|c, l| inside(c) && held(l)),
            frozen_conflicts: self.set(|c, l| inside(c) && frozen(l)),
        }
    }

    fn acquire(&mut self, tx: TxId, mode: LockMode, granted: &TsSet) {
        for (cell, lock) in &mut self.cells {
            if granted.contains(cell.start) {
                lock.held[idx(mode)].insert(tx);
            }
        }
    }

    fn held(&self, tx: TxId, mode: LockMode) -> TsSet {
        self.set(|_, l| l.held[idx(mode)].contains(&tx))
    }

    fn freeze(&mut self, tx: TxId, mode: LockMode, range: TsRange) {
        for lock in self.within(range) {
            if lock.held[idx(mode)].remove(&tx) {
                lock.frozen[idx(mode)] = true;
            }
        }
    }

    fn release(&mut self, tx: TxId) {
        for lock in self.within(TsRange::all()) {
            lock.held[0].remove(&tx);
            lock.held[1].remove(&tx);
        }
    }

    fn commit(
        &mut self,
        tx: TxId,
        commit_ts: Timestamp,
        wrote: bool,
        reads: &[Timestamp],
        gc: bool,
    ) {
        if wrote {
            self.freeze(tx, LockMode::Write, TsRange::point(commit_ts));
            let at = self.versions.partition_point(|&v| v < commit_ts);
            self.versions.insert(at, commit_ts);
        }
        if gc {
            for &version in reads.iter().filter(|&&v| v < commit_ts) {
                self.freeze(tx, LockMode::Read, TsRange::new(version.succ(), commit_ts));
            }
        } else {
            self.freeze(tx, LockMode::Read, TsRange::all());
        }
        self.release(tx);
    }

    /// Keeps the newest version below `bound` and everything from it on.
    fn purge(&mut self, bound: Timestamp) {
        let below = self.versions.partition_point(|&v| v < bound);
        if below == 0 {
            return;
        }
        let keep = self.versions[below - 1];
        self.versions.drain(..below - 1);
        for (cell, lock) in &mut self.cells {
            if cell.end < keep {
                lock.frozen = [false; 2];
            }
        }
    }

    fn min_live(&self) -> Option<Timestamp> {
        self.cells
            .iter()
            .find(|(_, l)| l.held.iter().any(|h| !h.is_empty()))
            .map(|(cell, _)| cell.start)
    }
}

/// A transaction in one of the history's slots.
#[derive(Debug, Default)]
struct Txn {
    reads: Vec<Timestamp>,
    wrote: bool,
}

#[derive(Debug, Clone)]
enum Step {
    Read {
        slot: usize,
        below: usize,
        len: usize,
    },
    Write {
        slot: usize,
        start: usize,
        len: usize,
    },
    Commit {
        slot: usize,
        pick: usize,
        gc: bool,
    },
    /// An abort; with `keep_reads`, MVTL-TO's, whose read locks stay.
    Abort {
        slot: usize,
        keep_reads: bool,
    },
    Purge {
        to: usize,
    },
    /// A write of a multi-range candidate set, as MVTIL's shrunk interval
    /// `I`: the one-pass grant against the per-range grants.
    WriteSet {
        slot: usize,
        ranges: Vec<(usize, usize)>,
    },
    /// A request with no effect; slot `SLOTS` is a transaction holding
    /// nothing.
    Probe {
        slot: usize,
        write: bool,
        start: usize,
        len: usize,
    },
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..SLOTS, 1..GRID, 0usize..16).prop_map(|(slot, below, len)| Step::Read {
            slot,
            below,
            len
        }),
        (0..SLOTS, 1..GRID, 0usize..16).prop_map(|(slot, below, len)| Step::Read {
            slot,
            below,
            len
        }),
        (0..SLOTS, 1..GRID, 0usize..8).prop_map(|(slot, start, len)| Step::Write {
            slot,
            start,
            len
        }),
        (0..SLOTS, 0usize..64, any::<bool>()).prop_map(|(slot, pick, gc)| Step::Commit {
            slot,
            pick,
            gc: gc || pick % 4 != 0,
        }),
        (0..SLOTS, 0usize..64, any::<bool>()).prop_map(|(slot, pick, gc)| Step::Commit {
            slot,
            pick,
            gc: gc || pick % 4 != 0,
        }),
        (0..SLOTS, any::<bool>()).prop_map(|(slot, keep_reads)| Step::Abort { slot, keep_reads }),
        (0..GRID).prop_map(|to| Step::Purge { to }),
        (0..=SLOTS, any::<bool>(), 0..GRID, 0usize..24).prop_map(|(slot, write, start, len)| {
            Step::Probe {
                slot,
                write,
                start,
                len,
            }
        }),
    ]
}

/// [`arb_step`]'s histories with a multi-range write one step in three.
fn arb_grant_step() -> impl Strategy<Value = Step> {
    let ranges = proptest::collection::vec((1..GRID, 0usize..6), 2..8);
    prop_oneof![
        arb_step(),
        arb_step(),
        (0..SLOTS, ranges).prop_map(|(slot, ranges)| Step::WriteSet { slot, ranges }),
    ]
}

/// What the cell reports for a request: live conflicts from the lock table,
/// frozen ones from the chain.
fn cell_analysis(
    data: &KeyData<u64>,
    tx: TxId,
    mode: LockMode,
    desired: TsRange,
) -> AcquireAnalysis {
    let live = data.locks.analyze(tx, mode, desired);
    let frozen = data.frozen_conflicts(mode, desired);
    AcquireAnalysis {
        grantable: live.grantable.difference(&frozen),
        blocked_unfrozen: live.blocked_unfrozen,
        frozen_conflicts: frozen,
    }
}

/// The timestamps `tx` can commit at: each read is read-locked from just
/// above its version up to there, and each write is write-locked there.
fn candidates(model: &Model, id: TxId, txn: &Txn) -> TsSet {
    let mut out = TsSet::from_range(TsRange::new(Timestamp::ZERO.succ(), Timestamp::MAX));
    let read = model.held(id, LockMode::Read);
    for version in &txn.reads {
        let run = read
            .ranges()
            .iter()
            .find(|r| r.contains(version.succ()))
            .map_or_else(TsSet::new, |r| {
                TsSet::from_range(TsRange::new(version.succ(), r.end))
            });
        out = out.intersection(&run);
    }
    if txn.wrote {
        out = out.intersection(&model.held(id, LockMode::Write));
    }
    out
}

/// Runs `steps` on a [`KeyData`] and the model side by side, checking every
/// analysis and grant against the model.
fn run_history(steps: &[Step]) -> Result<(), TestCaseError> {
    let mut arena = ChainArena::new();
    let mut data = KeyData::<u64>::default();
    let mut model = Model::new();
    let mut ids: Vec<TxId> = (1..=SLOTS as u64).map(TxId).collect();
    let mut txns: Vec<Txn> = (0..SLOTS).map(|_| Txn::default()).collect();
    let mut next = SLOTS as u64 + 1;
    let mut bound = Timestamp::ZERO;
    for (n, step) in steps.iter().enumerate() {
        let mut restart = None;
        match *step {
            Step::Read { slot, below, len } => {
                let Ok((anchor, _)) = data.versions.latest_before(point(below)) else {
                    continue;
                };
                let tx = ids[slot];
                let mut upper = point(below + len).min(point(GRID - 1));
                // The engine's non-waiting read: shrink below a newer
                // version, then lock the free prefix above the anchor.
                let granted = loop {
                    if upper < anchor.succ() {
                        break None;
                    }
                    let desired = TsRange::new(anchor.succ(), upper);
                    let expected = model.analyze(tx, LockMode::Read, desired);
                    let got = cell_analysis(&data, tx, LockMode::Read, desired);
                    prop_assert_eq!(&got, &expected, "{:?} by {:?}", step, tx);
                    if let Some(version) = data.first_frozen_read_conflict(desired) {
                        prop_assert_eq!(Some(version), expected.frozen_conflicts.min());
                        if version <= anchor.succ() {
                            break None;
                        }
                        upper = version.pred();
                        continue;
                    }
                    // The lock table's one-pass answer is the model's
                    // contiguous grantable prefix, and it waits exactly
                    // when the model sees an unfrozen blocker.
                    let prefix = expected
                        .contiguous_grantable_end(anchor.succ())
                        .map(|end| TsRange::new(anchor.succ(), end));
                    let waits = data.locks.read_request(tx, desired, true) == ReadRequest::Wait;
                    prop_assert_eq!(waits, !expected.blocked_unfrozen.is_empty());
                    let granted = match data.locks.read_request(tx, desired, false) {
                        ReadRequest::Whole => Some(desired),
                        ReadRequest::Prefix(prefix) => prefix,
                        ReadRequest::Wait => unreachable!("a request that does not wait"),
                    };
                    prop_assert_eq!(granted, prefix, "{:?} by {:?}", step, tx);
                    break granted;
                };
                if let Some(range) = granted {
                    data.locks.acquire_range(tx, LockMode::Read, range);
                }
                model.acquire(tx, LockMode::Read, &TsSet::from_ranges(granted));
                txns[slot].reads.push(anchor);
            }
            Step::Write { slot, start, len } => {
                let (tx, desired) = (ids[slot], range(start, len));
                if desired.start < bound {
                    continue;
                }
                let expected = model.analyze(tx, LockMode::Write, desired);
                let granted = data
                    .write_grant(tx, &TsSet::from_range(desired), false)
                    .expect("a grant that does not wait");
                prop_assert_eq!(&granted, &expected.grantable, "{:?} by {:?}", step, tx);
                data.locks.acquire(tx, LockMode::Write, &granted);
                model.acquire(tx, LockMode::Write, &granted);
                txns[slot].wrote |= !granted.is_empty();
            }
            Step::WriteSet { slot, ref ranges } => {
                let tx = ids[slot];
                // The store clips a request at its purge floor.
                let mut desired =
                    TsSet::from_ranges(ranges.iter().map(|&(start, len)| range(start, len)));
                desired.intersect_range(TsRange::new(bound, Timestamp::MAX));
                // What the ranges get one at a time, and what the model
                // grants and blocks on them.
                let before = data.locks.clone();
                let (mut per_range, mut expected) = (TsSet::new(), TsSet::new());
                let mut blocked = false;
                for &one in desired.ranges() {
                    let granted = data
                        .write_grant(tx, &TsSet::from_range(one), false)
                        .expect("a grant that does not wait");
                    data.locks.acquire(tx, LockMode::Write, &granted);
                    per_range = per_range.union(&granted);
                    let model_one = model.analyze(tx, LockMode::Write, one);
                    expected = expected.union(&model_one.grantable);
                    blocked |= !model_one.blocked_unfrozen.is_empty();
                }
                let held_per_range = data.locks.clone();
                data.locks = before;
                prop_assert_eq!(
                    data.write_grant(tx, &desired, true).is_none(),
                    blocked,
                    "waiting on {:?} by {:?}",
                    desired,
                    tx
                );
                let granted = data
                    .write_grant(tx, &desired, false)
                    .expect("a grant that does not wait");
                prop_assert_eq!(&granted, &per_range, "{:?} by {:?}", desired, tx);
                prop_assert_eq!(&granted, &expected, "{:?} by {:?}", desired, tx);
                data.locks.acquire(tx, LockMode::Write, &granted);
                for mode in [LockMode::Read, LockMode::Write] {
                    prop_assert_eq!(
                        data.locks.held(tx, mode),
                        held_per_range.held(tx, mode),
                        "{:?} held by {:?}",
                        mode,
                        tx
                    );
                }
                model.acquire(tx, LockMode::Write, &granted);
                txns[slot].wrote |= !granted.is_empty();
            }
            Step::Commit { slot, pick, gc } => {
                let tx = ids[slot];
                let txn = &txns[slot];
                let set = candidates(&model, tx, txn);
                let points: Vec<Timestamp> =
                    (0..GRID).map(point).filter(|&p| set.contains(p)).collect();
                if points.is_empty() || (txn.reads.is_empty() && !txn.wrote) {
                    data.abort(tx, &[]);
                    model.release(tx);
                } else {
                    let commit_ts = points[pick % points.len()];
                    let value = txn.wrote.then_some(n as u64);
                    let read_locks = model.held(tx, LockMode::Read);
                    data.commit(tx, commit_ts, value, read_locks.ranges(), gc, &mut arena);
                    model.commit(tx, commit_ts, txn.wrote, &txn.reads, gc);
                }
                restart = Some(slot);
            }
            Step::Abort { slot, keep_reads } => {
                let tx = ids[slot];
                let kept = if keep_reads {
                    model.held(tx, LockMode::Read)
                } else {
                    TsSet::new()
                };
                data.abort(tx, kept.ranges());
                if keep_reads {
                    model.freeze(tx, LockMode::Read, TsRange::all());
                }
                model.release(tx);
                restart = Some(slot);
            }
            Step::Purge { to } => {
                let to = model
                    .min_live()
                    .map_or(point(to), |live| live.min(point(to)));
                if to > bound {
                    bound = to;
                    data.purge_below(bound, &mut arena);
                    model.purge(bound);
                    if data.is_idle(bound) {
                        data.versions.release(&mut arena);
                        data = KeyData::default();
                        model = Model::new();
                    }
                }
            }
            Step::Probe {
                slot,
                write,
                start,
                len,
            } => {
                let tx = if slot < SLOTS { ids[slot] } else { TxId(next) };
                let desired = range(start, len);
                let expected = model.analyze(tx, mode(write), desired);
                let got = cell_analysis(&data, tx, mode(write), desired);
                prop_assert_eq!(&got, &expected, "{:?} by {:?}", step, tx);
            }
        }
        if let Some(slot) = restart {
            ids[slot] = TxId(next);
            txns[slot] = Txn::default();
            next += 1;
        }
        prop_assert!(
            data.locks
                .entries()
                .iter()
                .all(|e| !e.frozen && ids.contains(&e.owner)),
            "the lock table holds a frozen entry or one of a finished transaction after {:?}: {:?}",
            step,
            data.locks.entries()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frozen_versions_match_one_lock_per_timestamp(
        steps in proptest::collection::vec(arb_step(), 1..100)
    ) {
        run_history(&steps)?;
    }

    #[test]
    fn one_pass_write_grant_is_the_union_of_per_range_grants(
        steps in proptest::collection::vec(arb_grant_step(), 1..100)
    ) {
        run_history(&steps)?;
    }
}
