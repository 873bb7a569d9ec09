//! Property-based equivalence of [`ArenaChain`] against a reference model.
//!
//! The arena chain keeps versions inline (with arena-pooled spill buffers)
//! instead of in a per-key `Vec`. Its observable behaviour must be exactly
//! the model's under any interleaving of `install` and `purge_below` —
//! including the purged-read contract (`latest_before` below the purge
//! bound must report the bound) and duplicate-timestamp replacement.

use mvtl_common::Timestamp;
use mvtl_storage::{ArenaChain, ChainArena, Version, VersionStats};
use proptest::prelude::*;

/// The reference chain: the §4.1 version store and §6 purge written as
/// plainly as possible, over a sorted `Vec`.
#[derive(Debug, Default)]
struct Model {
    versions: Vec<(Timestamp, u64)>,
    purged_below: Timestamp,
    purged: usize,
}

impl Model {
    fn install(&mut self, ts: Timestamp, value: u64) -> Option<u64> {
        match self.versions.binary_search_by_key(&ts, |&(t, _)| t) {
            Ok(i) => Some(std::mem::replace(&mut self.versions[i].1, value)),
            Err(i) => {
                self.versions.insert(i, (ts, value));
                None
            }
        }
    }

    /// Removes every version below `bound` except the newest one.
    fn purge_below(&mut self, bound: Timestamp) -> usize {
        let below = self.versions.iter().filter(|&&(t, _)| t < bound).count();
        let removed = below.saturating_sub(1);
        self.versions.drain(..removed);
        self.purged_below = self.purged_below.max(bound);
        self.purged += removed;
        removed
    }

    /// The newest version strictly before `ts`; `⊥` at `ZERO` when there is
    /// none, unless versions were purged below `ts`.
    fn latest_before(&self, ts: Timestamp) -> Result<(Timestamp, Option<u64>), Timestamp> {
        match self.versions.iter().rev().find(|&&(t, _)| t < ts) {
            Some(&(t, v)) => Ok((t, Some(v))),
            None if self.purged > 0 && ts <= self.purged_below => Err(self.purged_below),
            None => Ok((Timestamp::ZERO, None)),
        }
    }

    fn latest(&self) -> Option<(Timestamp, u64)> {
        self.versions.last().copied()
    }

    fn iter(&self) -> Vec<Version<u64>> {
        self.versions
            .iter()
            .map(|&(timestamp, value)| Version { timestamp, value })
            .collect()
    }

    fn stats(&self) -> VersionStats {
        VersionStats {
            versions: self.versions.len(),
            purged: self.purged,
            read_runs: 0,
        }
    }
}

/// One step of an interleaved history.
#[derive(Debug, Clone)]
enum Op {
    /// Commit a version at the timestamp.
    Install(Timestamp, u64),
    /// GC everything below the timestamp (keeping the newest version below).
    Purge(Timestamp),
}

/// Timestamps on a small grid so duplicate installs, purge boundaries and
/// adjacent versions actually collide.
fn arb_ts() -> impl Strategy<Value = Timestamp> {
    (1u64..32, 0u32..3).prop_map(|(v, p)| Timestamp::new(v, p))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_ts(), 0u64..1_000).prop_map(|(t, v)| Op::Install(t, v)),
        // Three install arms to one purge arm: the shim's choice is uniform,
        // and histories should mostly grow so purges have something to cut.
        (arb_ts(), 0u64..1_000).prop_map(|(t, v)| Op::Install(t, v)),
        (arb_ts(), 0u64..1_000).prop_map(|(t, v)| Op::Install(t, v)),
        arb_ts().prop_map(Op::Purge),
    ]
}

fn arb_history() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(arb_op(), 0..48)
}

/// Every timestamp worth probing, including `ZERO` and points past the grid.
fn probe_grid() -> Vec<Timestamp> {
    let mut pts = vec![Timestamp::ZERO];
    for v in 1..34u64 {
        for p in 0..3u32 {
            pts.push(Timestamp::new(v, p));
        }
    }
    pts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arena_chain_matches_the_reference_chain(history in arb_history()) {
        let mut arena = ChainArena::new();
        let mut fast: ArenaChain<u64> = ArenaChain::new();
        let mut reference = Model::default();

        for op in &history {
            match *op {
                Op::Install(ts, value) => {
                    let replaced = fast.install(ts, value, &mut arena);
                    prop_assert_eq!(replaced, reference.install(ts, value),
                        "install({:?}) replaced different values", ts);
                }
                Op::Purge(bound) => {
                    let removed = fast.purge_below(bound, &mut arena);
                    prop_assert_eq!(removed, reference.purge_below(bound),
                        "purge_below({:?}) removed different counts", bound);
                }
            }

            // After every step, the chains must be observationally identical.
            prop_assert_eq!(fast.len(), reference.versions.len());
            prop_assert_eq!(fast.is_empty(), reference.versions.is_empty());
            prop_assert_eq!(fast.purged_below(), reference.purged_below);
            prop_assert_eq!(fast.latest().map(|(t, v)| (t, *v)), reference.latest());
            let fast_versions: Vec<Version<u64>> = fast.iter().collect();
            prop_assert_eq!(fast_versions, reference.iter());
        }

        // Full read sweep at the end: every probe point agrees on the
        // snapshot read, including purged-read errors carrying the same bound.
        for ts in probe_grid() {
            prop_assert_eq!(fast.latest_before(ts), reference.latest_before(ts),
                "latest_before({:?})", ts);
        }
        prop_assert_eq!(fast.stats(), reference.stats());
    }

    #[test]
    fn spill_and_shrink_round_trips_through_the_arena(extra in 0usize..24) {
        // Grow one chain past its inline capacity, purge it back under, and
        // grow again: the spill buffer must round-trip through the arena pool
        // with the reference model agreeing at every point.
        let mut arena = ChainArena::new();
        let mut fast: ArenaChain<u64> = ArenaChain::new();
        let mut reference = Model::default();
        let total = mvtl_storage::INLINE_VERSIONS + extra;
        for i in 0..total {
            let ts = Timestamp::new(i as u64 + 1, 0);
            fast.install(ts, i as u64, &mut arena);
            reference.install(ts, i as u64);
        }
        let bound = Timestamp::new(total as u64, 0);
        prop_assert_eq!(fast.purge_below(bound, &mut arena), reference.purge_below(bound));
        for i in 0..total {
            let ts = Timestamp::new((total + i) as u64 + 1, 0);
            prop_assert_eq!(fast.install(ts, i as u64, &mut arena),
                reference.install(ts, i as u64));
        }
        prop_assert_eq!(fast.len(), reference.versions.len());
        for ts in probe_grid() {
            prop_assert_eq!(fast.latest_before(ts), reference.latest_before(ts),
                "latest_before({:?})", ts);
        }
    }
}
