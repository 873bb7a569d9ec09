//! Oracle test of the frozen-prefix lock table against §4.2 read literally:
//! one freezable readers-writer lock per timestamp.
//!
//! The model records, for every timestamp, which transactions hold it and
//! which froze it, per mode. Random histories of acquire, freeze, release,
//! release-range and purge (with a non-decreasing bound) run against the
//! model and [`KeyLockState`] side by side. In none of them does a
//! transaction acquire after its first freeze: that is the precondition
//! under which the table may forget who owns a frozen lock.
//!
//! Timestamps are `(value, process)` pairs as in `proptest_tsset.rs`. The
//! grid's 64 points are `(i / 4, i % 4)`, so between `(v, 3)` and `(v + 1, 0)`
//! lies the gap `(v, 4)..=(v, u32::MAX)`, which ranges cover too.

use mvtl_common::{LockMode, Timestamp, TsRange, TsSet, TxId};
use mvtl_locks::{AcquireAnalysis, KeyLockState};
use proptest::prelude::*;
use std::collections::BTreeSet;

const GRID: usize = 64;
const PROCESSES: usize = 4;
/// Concurrent transactions; a slot starts a fresh transaction once its
/// current one releases everything.
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

/// Index of a mode in a [`Lock`]'s per-mode arrays.
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

/// One freezable lock: its holders per mode, unfrozen and frozen.
#[derive(Debug, Clone, Default)]
struct Lock {
    held: [BTreeSet<TxId>; 2],
    frozen: [BTreeSet<TxId>; 2],
}

/// One lock per timestamp. Every range in the test starts and ends on a grid
/// point, so all timestamps of a cell — a grid point, or the gap after a
/// `(v, 3)` point — are always locked alike, and one lock stands for them.
struct Model {
    cells: Vec<(TsRange, Lock)>,
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
        Model { cells }
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
        let others = |holders: &[BTreeSet<TxId>; 2]| {
            conflicting(mode)
                .iter()
                .any(|&m| holders[m].iter().any(|&o| o != tx))
        };
        let inside = |cell: &TsRange| desired.contains_range(cell);
        AcquireAnalysis {
            grantable: self.set(|c, l| inside(c) && !others(&l.held) && !others(&l.frozen)),
            blocked_unfrozen: self.set(|c, l| inside(c) && others(&l.held)),
            frozen_conflicts: self.set(|c, l| inside(c) && others(&l.frozen)),
        }
    }

    fn acquire(&mut self, tx: TxId, mode: LockMode, granted: &TsSet) {
        for (cell, lock) in &mut self.cells {
            if granted.contains(cell.start) {
                lock.held[idx(mode)].insert(tx);
            }
        }
    }

    fn freeze(&mut self, tx: TxId, mode: LockMode, range: TsRange) {
        for lock in self.within(range) {
            if lock.held[idx(mode)].remove(&tx) {
                lock.frozen[idx(mode)].insert(tx);
            }
        }
    }

    fn release(&mut self, tx: TxId) {
        for lock in self.within(TsRange::all()) {
            lock.held[0].remove(&tx);
            lock.held[1].remove(&tx);
        }
    }

    fn release_range(&mut self, tx: TxId, mode: LockMode, range: TsRange) {
        for lock in self.within(range) {
            lock.held[idx(mode)].remove(&tx);
        }
    }

    /// Drops the frozen state of every timestamp below `bound`.
    fn purge(&mut self, bound: Timestamp) {
        for (cell, lock) in &mut self.cells {
            if cell.end < bound {
                lock.frozen = Default::default();
            }
        }
    }

    fn held(&self, tx: TxId, mode: LockMode) -> TsSet {
        self.set(|_, l| l.held[idx(mode)].contains(&tx))
    }

    /// The smallest timestamp any transaction holds unfrozen.
    fn min_live(&self) -> Option<Timestamp> {
        self.cells
            .iter()
            .find(|(_, l)| l.held.iter().any(|h| !h.is_empty()))
            .map(|(cell, _)| cell.start)
    }
}

#[derive(Debug, Clone)]
enum Step {
    Acquire {
        slot: usize,
        write: bool,
        start: usize,
        len: usize,
    },
    Freeze {
        slot: usize,
        write: bool,
        start: usize,
        len: usize,
    },
    /// `release_unfrozen`; the slot then starts a fresh transaction.
    Release {
        slot: usize,
    },
    ReleaseRange {
        slot: usize,
        write: bool,
        start: usize,
        len: usize,
    },
    Purge {
        to: usize,
    },
    /// An `analyze` with no effect; slot `SLOTS` is a transaction holding
    /// nothing.
    Probe {
        slot: usize,
        write: bool,
        start: usize,
        len: usize,
    },
}

fn arb_step() -> impl Strategy<Value = Step> {
    let request = || (0..SLOTS, any::<bool>(), 0..GRID, 0usize..12);
    prop_oneof![
        request().prop_map(|(slot, write, start, len)| Step::Acquire {
            slot,
            write,
            start,
            len
        }),
        request().prop_map(|(slot, write, start, len)| Step::Acquire {
            slot,
            write,
            start,
            len
        }),
        request().prop_map(|(slot, write, start, len)| Step::Freeze {
            slot,
            write,
            start,
            len
        }),
        (0..SLOTS).prop_map(|slot| Step::Release { slot }),
        request().prop_map(|(slot, write, start, len)| Step::ReleaseRange {
            slot,
            write,
            start,
            len
        }),
        (0..GRID).prop_map(|to| Step::Purge { to }),
        (0..=SLOTS, any::<bool>(), 0..GRID, 0usize..12).prop_map(|(slot, write, start, len)| {
            Step::Probe {
                slot,
                write,
                start,
                len,
            }
        }),
    ]
}

/// The prefix invariant: frozen entries first, then live ones; frozen runs
/// sorted, disjoint, and touching only where their modes differ.
fn prefix_is_canonical(table: &KeyLockState) -> bool {
    let entries = table.entries();
    let f = entries.iter().take_while(|e| e.frozen).count();
    entries[f..].iter().all(|e| !e.frozen)
        && entries[..f].windows(2).all(|w| {
            w[0].range.end < w[1].range.start
                && (w[0].mode != w[1].mode || !w[0].range.touches(&w[1].range))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frozen_prefix_matches_one_lock_per_timestamp(
        steps in proptest::collection::vec(arb_step(), 1..80)
    ) {
        let mut table = KeyLockState::new();
        let mut model = Model::new();
        let mut txs: Vec<TxId> = (1..=SLOTS as u64).map(TxId).collect();
        let mut froze = [false; SLOTS];
        let mut next = SLOTS as u64 + 1;
        let mut bound = Timestamp::ZERO;
        for step in steps {
            match step {
                Step::Acquire { slot, write, start, len } => {
                    // Like the engines: no acquisition after a freeze, and
                    // none below the purge bound.
                    if froze[slot] || point(start) < bound {
                        continue;
                    }
                    let (tx, desired) = (txs[slot], range(start, len));
                    let expected = model.analyze(tx, mode(write), desired);
                    let got = table.acquire_grantable(tx, mode(write), desired);
                    prop_assert_eq!(&got, &expected, "{:?} by {:?}", step, tx);
                    model.acquire(tx, mode(write), &got.grantable);
                }
                Step::Freeze { slot, write, start, len } => {
                    froze[slot] = true;
                    table.freeze(txs[slot], mode(write), range(start, len));
                    model.freeze(txs[slot], mode(write), range(start, len));
                }
                Step::Release { slot } => {
                    table.release_unfrozen(txs[slot]);
                    model.release(txs[slot]);
                    txs[slot] = TxId(next);
                    next += 1;
                    froze[slot] = false;
                }
                Step::ReleaseRange { slot, write, start, len } => {
                    table.release_unfrozen_range(txs[slot], mode(write), range(start, len));
                    model.release_range(txs[slot], mode(write), range(start, len));
                }
                Step::Purge { to } => {
                    // Like the engines' watermark, the bound never passes a
                    // lock that is still held.
                    let to = model.min_live().map_or(point(to), |live| live.min(point(to)));
                    if to > bound {
                        bound = to;
                        table.purge_below(bound);
                        model.purge(bound);
                    }
                }
                Step::Probe { slot, write, start, len } => {
                    let tx = if slot < SLOTS && !froze[slot] { txs[slot] } else { TxId(next) };
                    let desired = range(start, len);
                    let got = table.analyze(tx, mode(write), desired);
                    let expected = model.analyze(tx, mode(write), desired);
                    if desired.start >= bound {
                        prop_assert_eq!(&got, &expected, "{:?} by {:?}", step, tx);
                    } else {
                        // Below the bound a purge keeps a run that reaches
                        // the bound whole: more frozen, never less.
                        prop_assert_eq!(&got.blocked_unfrozen, &expected.blocked_unfrozen);
                        prop_assert!(
                            expected.frozen_conflicts.difference(&got.frozen_conflicts).is_empty(),
                            "{:?}: frozen {:?} misses {:?}", step, got, expected
                        );
                    }
                }
            }
            for &tx in &txs {
                for m in [LockMode::Read, LockMode::Write] {
                    prop_assert_eq!(table.held(tx, m), model.held(tx, m), "held {:?} {:?}", tx, m);
                }
            }
            prop_assert!(prefix_is_canonical(&table), "{:?}", table.entries());
        }
    }
}
