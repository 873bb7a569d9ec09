//! Property-based tests of the interval lock table invariants.
//!
//! The central safety property of freezable timestamp locks: the table never
//! grants two conflicting locks on the same timestamp, and freezing is
//! permanent. These invariants are what the serializability proof of the paper
//! (Appendix A) relies on.

use mvtl_common::{LockMode, Timestamp, TsRange, TsSet, TxId};
use mvtl_locks::KeyLockState;
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Action {
    Acquire {
        tx: u8,
        write: bool,
        start: u64,
        len: u64,
    },
    Freeze {
        tx: u8,
        write: bool,
        start: u64,
        len: u64,
    },
    ReleaseUnfrozen {
        tx: u8,
    },
    PurgeBelow {
        bound: u64,
    },
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0u8..4, any::<bool>(), 0u64..32, 0u64..8).prop_map(|(tx, write, start, len)| {
            Action::Acquire {
                tx,
                write,
                start,
                len,
            }
        }),
        (0u8..4, any::<bool>(), 0u64..32, 0u64..8).prop_map(|(tx, write, start, len)| {
            Action::Freeze {
                tx,
                write,
                start,
                len,
            }
        }),
        (0u8..4).prop_map(|tx| Action::ReleaseUnfrozen { tx }),
        (0u64..32).prop_map(|bound| Action::PurgeBelow { bound }),
    ]
}

fn mode(write: bool) -> LockMode {
    if write {
        LockMode::Write
    } else {
        LockMode::Read
    }
}

fn range(start: u64, len: u64) -> TsRange {
    TsRange::new(Timestamp::at(start), Timestamp::at(start + len))
}

/// Check that no two live entries of different owners conflict on an
/// overlapping range, and that a live entry overlaps a conflicting frozen
/// run only where its own owner froze that mode (`froze[tx][mode]`).
fn no_conflicting_grants(state: &KeyLockState, froze: &HashMap<TxId, [TsSet; 2]>) -> bool {
    let entries = state.entries();
    let f = entries.iter().take_while(|e| e.frozen).count();
    let (prefix, live) = entries.split_at(f);
    for (i, a) in live.iter().enumerate() {
        for b in live.iter().skip(i + 1) {
            if a.owner != b.owner && a.mode.conflicts_with(b.mode) && a.range.overlaps(&b.range) {
                return false;
            }
        }
        for run in prefix {
            let Some(overlap) = run.range.intersection(&a.range) else {
                continue;
            };
            let own = froze
                .get(&a.owner)
                .map(|sets| sets[usize::from(run.mode == LockMode::Write)].clone())
                .unwrap_or_default();
            if a.mode.conflicts_with(run.mode) && !own.contains_range(&overlap) {
                return false;
            }
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn never_grants_conflicting_locks(actions in proptest::collection::vec(arb_action(), 1..60)) {
        let mut state = KeyLockState::new();
        // What each transaction froze, per mode: no transaction acquires
        // after its first freeze, as in the engines.
        let mut froze: HashMap<TxId, [TsSet; 2]> = HashMap::new();
        for action in actions {
            match action {
                Action::Acquire { tx, write, start, len } => {
                    if froze.contains_key(&TxId(tx as u64)) {
                        continue;
                    }
                    // Only grant what analyze says is grantable — exactly what engines do.
                    state.acquire_grantable(TxId(tx as u64), mode(write), range(start, len));
                }
                Action::Freeze { tx, write, start, len } => {
                    let tx = TxId(tx as u64);
                    let taken = state.held(tx, mode(write)).intersection(&TsSet::from_range(range(start, len)));
                    state.freeze(tx, mode(write), range(start, len));
                    let sets = froze.entry(tx).or_default();
                    sets[usize::from(write)] = sets[usize::from(write)].union(&taken);
                }
                Action::ReleaseUnfrozen { tx } => {
                    state.release_unfrozen(TxId(tx as u64));
                }
                Action::PurgeBelow { bound } => {
                    state.purge_below(Timestamp::at(bound));
                }
            }
            prop_assert!(no_conflicting_grants(&state, &froze),
                "conflicting grants present: {:?}", state.entries());
        }
    }

    #[test]
    fn frozen_locks_survive_release(
        start in 0u64..32, len in 0u64..8,
        fstart in 0u64..32, flen in 0u64..8,
    ) {
        let mut state = KeyLockState::new();
        let tx = TxId(1);
        state.acquire_grantable(tx, LockMode::Write, range(start, len));
        let freeze_range = range(fstart, flen);
        state.freeze(tx, LockMode::Write, freeze_range);
        let frozen_before: Vec<_> = state
            .entries()
            .iter()
            .filter(|e| e.frozen)
            .map(|e| e.range)
            .collect();
        state.release_unfrozen(tx);
        let frozen_after: Vec<_> = state
            .entries()
            .iter()
            .filter(|e| e.frozen)
            .map(|e| e.range)
            .collect();
        prop_assert_eq!(frozen_before, frozen_after);
        // Nothing unfrozen remains.
        prop_assert!(state.entries().iter().all(|e| e.frozen));
    }

    #[test]
    fn held_reflects_grants(
        grants in proptest::collection::vec((0u8..3, any::<bool>(), 0u64..32, 0u64..6), 1..12)
    ) {
        let mut state = KeyLockState::new();
        let mut granted: Vec<(TxId, LockMode, TsRange)> = Vec::new();
        for (tx, write, start, len) in grants {
            let tx = TxId(tx as u64);
            let m = mode(write);
            let r = range(start, len);
            let analysis = state.acquire_grantable(tx, m, r);
            for g in analysis.grantable.ranges() {
                granted.push((tx, m, *g));
            }
        }
        // Everything granted must be reported as held.
        for (tx, m, r) in granted {
            prop_assert!(state.held(tx, m).contains_range(&r),
                "grant {:?} {:?} {:?} not reported as held", tx, m, r);
        }
    }

    #[test]
    fn analysis_partitions_the_request(
        setup in proptest::collection::vec((0u8..3, any::<bool>(), 0u64..32, 0u64..6), 0..10),
        req_tx in 3u8..5, req_write in any::<bool>(), req_start in 0u64..32, req_len in 0u64..6,
    ) {
        let mut state = KeyLockState::new();
        for (tx, write, start, len) in setup {
            let tx = TxId(tx as u64);
            state.acquire_grantable(tx, mode(write), range(start, len));
            // Freeze a prefix of whatever was acquired to create frozen conflicts.
            if start % 2 == 0 {
                state.freeze(tx, mode(write), range(start, len / 2));
            }
        }
        let req = range(req_start, req_len);
        let analysis = state.analyze(TxId(req_tx as u64), mode(req_write), req);
        // The three buckets jointly cover the request and the grantable bucket
        // is disjoint from the other two.
        let mut covered = analysis.grantable.union(&analysis.blocked_unfrozen);
        covered = covered.union(&analysis.frozen_conflicts);
        prop_assert!(covered.contains_range(&req));
        prop_assert!(analysis.grantable.intersection(&analysis.blocked_unfrozen).is_empty());
        prop_assert!(analysis.grantable.intersection(&analysis.frozen_conflicts).is_empty());
    }
}
