//! MVTIL: the interval-locking variant evaluated in §8 of the paper.

use crate::policy::{acquire_within_ts_set, LockingPolicy, PolicyCtx};
use crate::txn::TxState;
use mvtl_common::{AbortReason, Key, ProcessId, Timestamp, TsRange, TsSet, TxError};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// How many clock strides an [`MvtilPolicy`] keeps: processes share a
/// stride modulo this count, as they share the GC pin slots.
const STRIDE_SLOTS: usize = 64;

/// One process's clock stride, alone on its pair of cache lines (the
/// adjacent-line prefetcher pulls 128 bytes). Read and written `Relaxed`:
/// it publishes no other data, and an update lost between two processes
/// that share the slot only mis-sizes one later stride.
#[derive(Debug)]
#[repr(align(128))]
struct Stride(AtomicU64);

/// The MVTIL policy (§8.1): a practical ε-clock variant that assumes nothing
/// about clock synchronization.
///
/// A transaction associates the interval `I = [t, t+Δ]` with itself. The
/// paper's Δ is a wall-clock width (5 ms); here `t` is a clock reading, so
/// Δ counts clock readings, not milliseconds: on a [`GlobalClock`] that
/// ticks once per begin, `Δ = 1000` spans the next thousand begins. When
/// accessing a key it tries to lock the timestamps in `I` **without
/// waiting**; if only a sub-interval could be locked, `I` shrinks to that
/// sub-interval, reducing the amount of locking on subsequent keys. If `I`
/// becomes empty the transaction aborts (the client may then retry with a
/// fresh interval). Commit picks the smallest ([`CommitPick::Early`]) or
/// largest ([`CommitPick::Late`]) remaining locked timestamp and garbage
/// collects.
///
/// **Stride.** Each process (modulo 64) keeps a clock stride `s`, and its
/// begin reads the clock with [`ClockSource::now_by`]`(process, s)`, which
/// moves a [`GlobalClock`] `s` ticks instead of one. An
/// [`AbortReason::IntervalExhausted`] doubles the aborting process's stride,
/// capped at Δ; a commit lowers it by one, down to 1. Under contention the
/// clock thus runs ahead, and an interval of width Δ spans fewer of the
/// transactions that begin after it; uncontended, every stride is 1 and a
/// process's back-to-back transactions read consecutive values. The width
/// stays Δ and every reading lies above every earlier one, so each interval
/// ends strictly above every interval begun before it. A pinned transaction
/// (the verifier's schedules) neither reads nor moves a stride. A clone
/// starts with every stride at 1.
///
/// [`GlobalClock`]: mvtl_clock::GlobalClock
/// [`ClockSource::now_by`]: mvtl_clock::ClockSource::now_by
#[derive(Debug)]
pub struct MvtilPolicy {
    delta: u64,
    pick: CommitPick,
    strides: Box<[Stride]>,
}

impl Clone for MvtilPolicy {
    fn clone(&self) -> Self {
        MvtilPolicy::new(self.delta, self.pick)
    }
}

impl MvtilPolicy {
    /// Creates an MVTIL policy with interval width Δ and the given commit pick.
    #[must_use]
    pub fn new(delta: u64, pick: CommitPick) -> Self {
        MvtilPolicy {
            delta,
            pick,
            strides: (0..STRIDE_SLOTS)
                .map(|_| Stride(AtomicU64::new(1)))
                .collect(),
        }
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

    /// The clock stride `process`'s next begin reads with.
    fn stride(&self, process: ProcessId) -> u64 {
        self.slot(process).load(Ordering::Relaxed)
    }

    fn slot(&self, process: ProcessId) -> &AtomicU64 {
        &self.strides[process.0 as usize % STRIDE_SLOTS].0
    }

    /// The abort of `tx` for an exhausted interval; doubles the stride of
    /// `tx`'s process, capped at Δ, unless `tx` is pinned.
    fn exhausted(&self, tx: &TxState, key: Key) -> TxError {
        if tx.pinned.is_none() {
            let slot = self.slot(tx.process);
            let doubled = slot.load(Ordering::Relaxed).saturating_mul(2);
            slot.store(doubled.min(self.delta).max(1), Ordering::Relaxed);
        }
        TxError::aborted(AbortReason::IntervalExhausted { key })
    }
}

impl LockingPolicy for MvtilPolicy {
    fn init(&self, ctx: &dyn PolicyCtx, tx: &mut TxState) {
        let stride = if tx.pinned.is_some() {
            1
        } else {
            self.stride(tx.process)
        };
        let now = ctx.clock_value(tx, tx.process, stride).max(1);
        tx.start_ts = Some(Timestamp::new(now, tx.process.0));
        let interval = TsRange::new(
            Timestamp::new(now, 0),
            Timestamp::new(now.saturating_add(self.delta), u32::MAX),
        );
        tx.ts_set = TsSet::from_range(interval);
    }

    fn write_locks(&self, ctx: &dyn PolicyCtx, tx: &mut TxState, key: Key) -> Result<(), TxError> {
        if tx.ts_set.is_empty() {
            return Err(self.exhausted(tx, key));
        }
        // Lock the whole of I in one grant; what it grants lies inside I,
        // so it is the shrunk interval.
        tx.ts_set = acquire_within_ts_set(ctx, tx, key, false)?;
        if tx.ts_set.is_empty() {
            return Err(self.exhausted(tx, key));
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
            return Err(self.exhausted(tx, key));
        };
        let grant = ctx.acquire_read_interval(tx, key, upper, upper, false)?;
        match grant.granted {
            Some(granted) => tx.ts_set.intersect_range(granted),
            None => tx.ts_set = TsSet::new(),
        }
        if tx.ts_set.is_empty() {
            return Err(self.exhausted(tx, key));
        }
        Ok(grant.version)
    }

    fn commit_locks(&self, _ctx: &dyn PolicyCtx, _tx: &mut TxState) -> Result<(), TxError> {
        Ok(())
    }

    fn commit_ts(&self, tx: &TxState, candidates: &TsSet) -> Option<Timestamp> {
        let viable = candidates.intersection(&tx.ts_set);
        let picked = match self.pick {
            CommitPick::Early => viable.min(),
            CommitPick::Late => viable.max(),
        };
        if picked.is_some() && tx.pinned.is_none() {
            let slot = self.slot(tx.process);
            let stride = slot.load(Ordering::Relaxed);
            if stride > 1 {
                slot.store(stride - 1, Ordering::Relaxed);
            }
        }
        picked
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
    use mvtl_common::TransactionalKV;
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

    /// A store whose process 0 committed a late read of `Key(5)` at 205, so
    /// that process 1, whose clock always reads 100, exhausts its interval
    /// `[100, 100+Δ]` (Δ ≤ 100) at every write of the key.
    fn exhausting_store(delta: u64) -> MvtlStore<u64, MvtilPolicy> {
        let clock = Arc::new(ManualClock::new());
        clock.script(ProcessId(0), vec![205 - delta]);
        clock.script(ProcessId(1), vec![100]);
        let s: MvtlStore<u64, MvtilPolicy> = MvtlStore::new(
            MvtilPolicy::late(delta),
            clock as Arc<dyn ClockSource>,
            MvtlConfig::default(),
        );
        let mut reader = s.begin(ProcessId(0));
        s.read(&mut reader, Key(5)).unwrap();
        s.commit(reader).unwrap();
        s
    }

    fn exhaust(s: &MvtlStore<u64, MvtilPolicy>, pinned: Option<Timestamp>) {
        let mut writer = s.begin_at(ProcessId(1), pinned);
        let err = s.write(&mut writer, Key(5), 1).unwrap_err();
        assert_eq!(
            err.abort_reason(),
            Some(&AbortReason::IntervalExhausted { key: Key(5) })
        );
    }

    fn commit_read(s: &MvtlStore<u64, MvtilPolicy>, pinned: Option<Timestamp>) {
        let mut tx = s.begin_at(ProcessId(1), pinned);
        s.read(&mut tx, Key(9)).unwrap();
        s.commit(tx).unwrap();
    }

    fn strides(s: &MvtlStore<u64, MvtilPolicy>) -> Vec<u64> {
        (0..STRIDE_SLOTS as u32)
            .map(|p| s.policy().stride(ProcessId(p)))
            .collect()
    }

    #[test]
    fn uncontended_transactions_read_consecutive_clock_values() {
        let s = store(CommitPick::Early);
        for now in 10..15 {
            let mut tx = s.begin(ProcessId(3));
            let expected = TsSet::from_range(TsRange::new(
                Timestamp::new(now, 0),
                Timestamp::new(now + 100, u32::MAX),
            ));
            assert_eq!(tx.state().ts_set, expected, "today's [now, now+Δ]");
            s.write(&mut tx, Key(now), now).unwrap();
            s.commit(tx).unwrap();
        }
        assert!(strides(&s).iter().all(|&stride| stride == 1));
    }

    #[test]
    fn exhaustion_doubles_its_own_stride_up_to_delta_and_commits_lower_it() {
        let s = exhausting_store(5);
        assert_eq!(s.policy().stride(ProcessId(1)), 1);
        let mut seen = Vec::new();
        for _ in 0..4 {
            exhaust(&s, None);
            seen.push(s.policy().stride(ProcessId(1)));
        }
        assert_eq!(seen, [2, 4, 5, 5], "doubled, capped at Δ");
        let others = strides(&s);
        assert!(
            others
                .iter()
                .enumerate()
                .all(|(p, &stride)| stride == if p == 1 { 5 } else { 1 }),
            "only the aborting process's stride moves: {others:?}"
        );
        let mut seen = Vec::new();
        for _ in 0..6 {
            commit_read(&s, None);
            seen.push(s.policy().stride(ProcessId(1)));
        }
        assert_eq!(
            seen,
            [4, 3, 2, 1, 1, 1],
            "one lower per commit, never below 1"
        );
    }

    #[test]
    fn interval_ends_strictly_increase_across_differing_strides() {
        let s = store(CommitPick::Early);
        for (process, stride) in [(1u32, 2u64), (2, 7), (3, 100)] {
            s.policy()
                .slot(ProcessId(process))
                .store(stride, Ordering::Relaxed);
        }
        let mut last_end = Timestamp::ZERO;
        for round in 0..20u32 {
            let process = ProcessId(round * 7 % 4);
            let tx = s.begin(process);
            let end = tx.state().ts_set.max().expect("a fresh interval");
            assert!(
                end > last_end,
                "{process:?} ends at {end:?} after {last_end:?}"
            );
            last_end = end;
            s.abort(tx);
        }
    }

    #[test]
    fn pinned_transactions_leave_every_stride_alone() {
        let s = exhausting_store(5);
        exhaust(&s, None);
        exhaust(&s, None);
        let before = strides(&s);
        assert_eq!(before[1], 4);
        exhaust(&s, Some(Timestamp::at(100)));
        commit_read(&s, Some(Timestamp::at(100)));
        assert_eq!(strides(&s), before);

        // Nor does a pinned begin move the clock.
        let clock = Arc::new(GlobalClock::starting_at(10));
        let s: MvtlStore<u64, MvtilPolicy> = MvtlStore::new(
            MvtilPolicy::early(100),
            Arc::clone(&clock) as Arc<dyn ClockSource>,
            MvtlConfig::default(),
        );
        s.policy().slot(ProcessId(0)).store(8, Ordering::Relaxed);
        let tx = s.begin_at(ProcessId(0), Some(Timestamp::at(3)));
        assert_eq!(tx.state().ts_set.min(), Some(Timestamp::new(3, 0)));
        s.commit(tx).unwrap();
        assert_eq!(clock.peek(), 10);
        assert_eq!(s.policy().stride(ProcessId(0)), 8);
    }

    #[test]
    fn a_begin_moves_the_global_clock_by_its_stride() {
        let clock = Arc::new(GlobalClock::starting_at(10));
        let s: MvtlStore<u64, MvtilPolicy> = MvtlStore::new(
            MvtilPolicy::early(100),
            Arc::clone(&clock) as Arc<dyn ClockSource>,
            MvtlConfig::default(),
        );
        s.policy().slot(ProcessId(2)).store(8, Ordering::Relaxed);
        let tx = s.begin(ProcessId(2));
        assert_eq!(tx.state().ts_set.min(), Some(Timestamp::new(10, 0)));
        assert_eq!(clock.peek(), 18);
        s.abort(tx);
        assert_eq!(
            s.policy().clone().stride(ProcessId(2)),
            1,
            "a clone starts afresh"
        );
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
