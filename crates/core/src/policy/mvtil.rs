//! MVTIL: the interval-locking variant evaluated in §8 of the paper.

use crate::policy::{acquire_within_ts_set, LockingPolicy, PolicyCtx};
use crate::txn::TxState;
use mvtl_common::{AbortReason, Key, Timestamp, TsRange, TsSet, TxError};

/// Which commit timestamp MVTIL picks from its remaining interval (§8:
/// "MVTIL-early, which at commit time picks the smallest timestamp in I to
/// commit, and MVTIL-late, which picks the largest").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPick {
    /// Pick the smallest locked timestamp.
    Early,
    /// Pick the largest locked timestamp.
    Late,
}

/// The MVTIL policy (§8.1): a practical ε-clock variant that assumes nothing
/// about clock synchronization.
///
/// A transaction associates the interval `I = [t, t+Δ]` with itself (Δ is a
/// small constant; the paper uses 5 ms). When accessing a key it tries to lock
/// the timestamps in `I` **without waiting**; if only a sub-interval could be
/// locked, `I` shrinks to that sub-interval, reducing the amount of locking on
/// subsequent keys. If `I` becomes empty the transaction aborts (the client may
/// then retry with a fresh interval). Commit picks the smallest
/// ([`CommitPick::Early`]) or largest ([`CommitPick::Late`]) remaining locked
/// timestamp and garbage collects.
#[derive(Debug, Clone, Copy)]
pub struct MvtilPolicy {
    delta: u64,
    pick: CommitPick,
}

impl MvtilPolicy {
    /// Creates an MVTIL policy with interval width Δ and the given commit pick.
    #[must_use]
    pub fn new(delta: u64, pick: CommitPick) -> Self {
        MvtilPolicy { delta, pick }
    }

    /// MVTIL-early with interval width Δ.
    #[must_use]
    pub fn early(delta: u64) -> Self {
        MvtilPolicy::new(delta, CommitPick::Early)
    }

    /// MVTIL-late with interval width Δ.
    #[must_use]
    pub fn late(delta: u64) -> Self {
        MvtilPolicy::new(delta, CommitPick::Late)
    }

    /// The interval width Δ.
    #[must_use]
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// The commit-timestamp choice.
    #[must_use]
    pub fn pick(&self) -> CommitPick {
        self.pick
    }
}

impl LockingPolicy for MvtilPolicy {
    fn init(&self, ctx: &dyn PolicyCtx, tx: &mut TxState) {
        let now = ctx.clock_value(tx, tx.process).max(1);
        tx.start_ts = Some(Timestamp::new(now, tx.process.0));
        let interval = TsRange::new(
            Timestamp::new(now, 0),
            Timestamp::new(now.saturating_add(self.delta), u32::MAX),
        );
        tx.ts_set = TsSet::from_range(interval);
    }

    fn write_locks(&self, ctx: &dyn PolicyCtx, tx: &mut TxState, key: Key) -> Result<(), TxError> {
        if tx.ts_set.is_empty() {
            return Err(TxError::aborted(AbortReason::IntervalExhausted { key }));
        }
        // Lock the whole of I in one grant; what it grants lies inside I,
        // so it is the shrunk interval.
        tx.ts_set = acquire_within_ts_set(ctx, tx, key, false)?;
        if tx.ts_set.is_empty() {
            return Err(TxError::aborted(AbortReason::IntervalExhausted { key }));
        }
        Ok(())
    }

    fn read_locks(
        &self,
        ctx: &dyn PolicyCtx,
        tx: &mut TxState,
        key: Key,
    ) -> Result<Timestamp, TxError> {
        let Some(upper) = tx.ts_set.max() else {
            return Err(TxError::aborted(AbortReason::IntervalExhausted { key }));
        };
        let grant = ctx.acquire_read_interval(tx, key, upper, upper, false)?;
        tx.ts_set = tx.ts_set.intersection(&grant.granted);
        if tx.ts_set.is_empty() {
            return Err(TxError::aborted(AbortReason::IntervalExhausted { key }));
        }
        Ok(grant.version)
    }

    fn commit_locks(&self, _ctx: &dyn PolicyCtx, _tx: &mut TxState) -> Result<(), TxError> {
        Ok(())
    }

    fn commit_ts(&self, tx: &TxState, candidates: &TsSet) -> Option<Timestamp> {
        let viable = candidates.intersection(&tx.ts_set);
        match self.pick {
            CommitPick::Early => viable.min(),
            CommitPick::Late => viable.max(),
        }
    }

    fn prepared_interval(&self, tx: &TxState, candidates: &TsSet) -> TsSet {
        // Freeze only the remaining interval I: a coordinator must not commit
        // an MVTIL transaction at a timestamp the interval has shrunk past.
        candidates.intersection(&tx.ts_set)
    }

    fn commit_gc(&self, _tx: &TxState) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        match self.pick {
            CommitPick::Early => "mvtil-early",
            CommitPick::Late => "mvtil-late",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MvtlConfig, MvtlStore};
    use mvtl_clock::{ClockSource, GlobalClock, ManualClock};
    use mvtl_common::{ProcessId, TransactionalKV};
    use std::sync::Arc;

    fn store(pick: CommitPick) -> MvtlStore<u64, MvtilPolicy> {
        MvtlStore::new(
            MvtilPolicy::new(100, pick),
            Arc::new(GlobalClock::starting_at(10)),
            MvtlConfig::default(),
        )
    }

    #[test]
    fn early_and_late_pick_opposite_ends() {
        for (pick, is_early) in [(CommitPick::Early, true), (CommitPick::Late, false)] {
            let s = store(pick);
            let mut tx = s.begin(ProcessId(0));
            s.write(&mut tx, Key(1), 1).unwrap();
            let start = tx.state().start_ts.unwrap().value;
            let cts = s.commit(tx).unwrap().commit_ts.unwrap();
            if is_early {
                assert!(cts.value <= start, "early must pick the bottom of I");
            } else {
                assert!(
                    cts.value >= start + 100,
                    "late must pick the top of I (got {cts:?})"
                );
            }
        }
    }

    #[test]
    fn interval_shrinks_on_partial_conflicts() {
        // Two concurrent writers with overlapping intervals on the same key
        // both commit: each locks a disjoint part of the timeline.
        let clock = Arc::new(ManualClock::new());
        clock.script(ProcessId(0), vec![100]);
        clock.script(ProcessId(1), vec![150]);
        let s: MvtlStore<u64, MvtilPolicy> = MvtlStore::new(
            MvtilPolicy::early(100),
            clock as Arc<dyn ClockSource>,
            MvtlConfig::default(),
        );
        let mut a = s.begin(ProcessId(0));
        let mut b = s.begin(ProcessId(1));
        s.write(&mut a, Key(1), 10).unwrap();
        s.write(&mut b, Key(1), 20).unwrap();
        let a_info = s.commit(a).unwrap();
        let b_info = s.commit(b).unwrap();
        assert_ne!(a_info.commit_ts, b_info.commit_ts);
    }

    #[test]
    fn conflicting_read_then_write_interval_exhausts() {
        // A committed reader freezes read locks over a writer's whole interval.
        let clock = Arc::new(ManualClock::new());
        clock.script(ProcessId(0), vec![200]); // reader, above the writer
        clock.script(ProcessId(1), vec![100]); // writer, entirely below
        let s: MvtlStore<u64, MvtilPolicy> = MvtlStore::new(
            MvtilPolicy::late(50),
            clock as Arc<dyn ClockSource>,
            MvtlConfig::default(),
        );
        let mut reader = s.begin(ProcessId(0));
        let _ = s.read(&mut reader, Key(5)).unwrap();
        s.commit(reader).unwrap();

        let mut writer = s.begin(ProcessId(1));
        let err = s.write(&mut writer, Key(5), 1).unwrap_err();
        assert_eq!(
            err.abort_reason(),
            Some(&AbortReason::IntervalExhausted { key: Key(5) })
        );
    }

    #[test]
    fn read_write_cycle_roundtrips_values() {
        let s = store(CommitPick::Early);
        let mut w = s.begin(ProcessId(0));
        s.write(&mut w, Key(9), 123).unwrap();
        s.commit(w).unwrap();
        let mut r = s.begin(ProcessId(1));
        assert_eq!(s.read(&mut r, Key(9)).unwrap(), Some(123));
        s.commit(r).unwrap();
    }

    #[test]
    fn reads_never_wait_for_uncommitted_writers() {
        // A writer holds unfrozen write locks; a non-waiting MVTIL reader with
        // an overlapping interval shrinks below them or aborts, but never
        // blocks. Here the reader's interval lies below the writer's locks, so
        // it can still commit.
        let clock = Arc::new(ManualClock::new());
        clock.script(ProcessId(0), vec![300]); // writer
        clock.script(ProcessId(1), vec![250]); // reader below the writer
        let s: MvtlStore<u64, MvtilPolicy> = MvtlStore::new(
            MvtilPolicy::early(100),
            clock as Arc<dyn ClockSource>,
            MvtlConfig::default(),
        );
        let mut w = s.begin(ProcessId(0));
        s.write(&mut w, Key(2), 1).unwrap();

        let mut r = s.begin(ProcessId(1));
        // The reader's interval is [250, 350]; the writer locked [300, 400], so
        // the reader keeps [250, 299...] and commits.
        assert_eq!(s.read(&mut r, Key(2)).unwrap(), None);
        s.commit(r).unwrap();
        s.commit(w).unwrap();
    }

    #[test]
    fn accessors() {
        let p = MvtilPolicy::late(42);
        assert_eq!(p.delta(), 42);
        assert_eq!(p.pick(), CommitPick::Late);
        assert_eq!(p.name(), "mvtil-late");
        assert_eq!(MvtilPolicy::early(1).name(), "mvtil-early");
    }
}
