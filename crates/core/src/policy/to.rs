//! MVTL-TO (Algorithm 8): the policy that makes MVTL behave exactly like MVTO+.

use crate::policy::{write_lock_point, LockingPolicy, PolicyCtx};
use crate::txn::TxState;
use mvtl_common::{AbortReason, Key, Timestamp, TsSet, TxError};

/// The MVTL-TO policy (§5.4, Algorithm 8).
///
/// Each transaction chooses a serialization timestamp at the beginning and
/// attempts to serialize every operation at it:
///
/// * reads lock `[tr+1, ts]` (waiting on unfrozen write locks), which is the
///   timestamp-lock reading of MVTO+'s read-timestamps;
/// * writes lock nothing until commit, where the single timestamp `ts` is
///   write-locked without waiting — failure means an MVTO+-style write
///   rejection;
/// * no garbage collection is performed on commit, and aborting transactions
///   keep their read locks, mirroring MVTO+'s policy of never lowering
///   read-timestamps. This faithfully reproduces MVTO+'s *ghost aborts*
///   (Theorem 7 is about removing them — see
///   [`GhostbusterPolicy`](crate::policy::GhostbusterPolicy)).
///
/// A finished transaction's read lock `[tr+1, ts]` stays as the read run of
/// the version at `tr`: its read high-water mark is raised to `ts`, which is
/// exactly MVTO+'s read timestamp (Theorem 5). The lock table keeps no entry
/// of it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ToPolicy;

impl ToPolicy {
    /// Creates the MVTL-TO policy.
    #[must_use]
    pub fn new() -> Self {
        ToPolicy
    }
}

impl LockingPolicy for ToPolicy {
    fn init(&self, ctx: &dyn PolicyCtx, tx: &mut TxState) {
        let value = ctx.clock_value(tx, tx.process, 1);
        let ts = Timestamp::new(value, tx.process.0);
        tx.start_ts = Some(ts);
        tx.chosen_ts = Some(ts);
        tx.ts_set = TsSet::from_point(ts);
    }

    fn write_locks(
        &self,
        _ctx: &dyn PolicyCtx,
        _tx: &mut TxState,
        _key: Key,
    ) -> Result<(), TxError> {
        // Writes lock nothing until commit time.
        Ok(())
    }

    fn read_locks(
        &self,
        ctx: &dyn PolicyCtx,
        tx: &mut TxState,
        key: Key,
    ) -> Result<Timestamp, TxError> {
        let ts = tx.start_ts.expect("init sets the start timestamp");
        let grant = ctx.acquire_read_interval(tx, key, ts, ts, true)?;
        Ok(grant.version)
    }

    fn commit_locks(&self, ctx: &dyn PolicyCtx, tx: &mut TxState) -> Result<(), TxError> {
        let ts = tx.start_ts.expect("init sets the start timestamp");
        // "if write-lock not acquired then release all write locks and abort"
        if let Some(key) = write_lock_point(ctx, tx, ts, false)? {
            tx.chosen_ts = None;
            return Err(TxError::aborted(AbortReason::WriteConflict { key }));
        }
        Ok(())
    }

    fn commit_ts(&self, tx: &TxState, candidates: &TsSet) -> Option<Timestamp> {
        tx.chosen_ts.filter(|t| candidates.contains(*t))
    }

    fn commit_gc(&self, _tx: &TxState) -> bool {
        false
    }

    fn release_read_locks_on_abort(&self) -> bool {
        // MVTO+ never lowers a read-timestamp; keeping the read locks of
        // aborted transactions reproduces exactly that behaviour (and its ghost
        // aborts).
        false
    }

    fn name(&self) -> &'static str {
        "mvtl-to"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MvtlConfig, MvtlStore};
    use mvtl_clock::{ClockSource, ManualClock};
    use mvtl_common::{ProcessId, TransactionalKV};
    use std::sync::Arc;

    fn store_with_manual() -> (MvtlStore<u64, ToPolicy>, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let store = MvtlStore::new(
            ToPolicy::new(),
            Arc::clone(&clock) as Arc<dyn ClockSource>,
            MvtlConfig::default(),
        );
        (store, clock)
    }

    #[test]
    fn serializes_at_the_start_timestamp() {
        let (s, clock) = store_with_manual();
        clock.script(ProcessId(0), vec![10]);
        let mut tx = s.begin(ProcessId(0));
        s.write(&mut tx, Key(1), 5).unwrap();
        let info = s.commit(tx).unwrap();
        assert_eq!(info.commit_ts, Some(Timestamp::new(10, 0)));
    }

    #[test]
    fn reproduces_the_serial_abort_of_section_5_3() {
        // T2 gets timestamp 2, reads X and commits; then T1 gets the *smaller*
        // timestamp 1, writes X and must abort — a serial abort.
        let (s, clock) = store_with_manual();
        clock.script(ProcessId(2), vec![2]);
        clock.script(ProcessId(1), vec![1]);

        let mut t2 = s.begin(ProcessId(2));
        assert_eq!(s.read(&mut t2, Key(7)).unwrap(), None);
        s.commit(t2).unwrap();
        // T2's read lock outlives it as a read run on `⊥`, not as a live
        // entry of a finished transaction.
        let stats = s.stats();
        assert_eq!((stats.lock_entries, stats.frozen_lock_entries), (1, 1));

        let mut t1 = s.begin(ProcessId(1));
        s.write(&mut t1, Key(7), 11).unwrap();
        let err = s.commit(t1).unwrap_err();
        assert!(err.is_abort(), "T1 must abort: {err:?}");
    }

    #[test]
    fn reproduces_the_ghost_abort_of_section_5_5_from_read_runs() {
        // T3 reads X and commits; T2 reads Y, writes X and aborts on T3's
        // read; T1 then writes Y below T2's timestamp and aborts on the read
        // lock T2 left behind, though T2 never committed.
        let (s, clock) = store_with_manual();
        for process in 1..=3 {
            clock.script(ProcessId(process), vec![u64::from(process)]);
        }
        let (x, y) = (Key(1), Key(2));
        let mut t3 = s.begin(ProcessId(3));
        assert_eq!(s.read(&mut t3, x).unwrap(), None);
        s.commit(t3).unwrap();

        let mut t2 = s.begin(ProcessId(2));
        assert_eq!(s.read(&mut t2, y).unwrap(), None);
        s.write(&mut t2, x, 20).unwrap();
        assert!(s.commit(t2).unwrap_err().is_abort(), "T2 must abort");
        // Both read locks outlive their owners as read runs only.
        let stats = s.stats();
        assert_eq!((stats.lock_entries, stats.frozen_lock_entries), (2, 2));

        let mut t1 = s.begin(ProcessId(1));
        s.write(&mut t1, y, 10).unwrap();
        let err = s.commit(t1).unwrap_err();
        assert_eq!(
            err.abort_reason(),
            Some(&AbortReason::WriteConflict { key: y }),
            "T1 must ghost-abort"
        );
    }

    #[test]
    fn later_writer_does_not_conflict_with_earlier_reader() {
        let (s, clock) = store_with_manual();
        clock.script(ProcessId(2), vec![2]);
        clock.script(ProcessId(5), vec![5]);

        let mut t2 = s.begin(ProcessId(2));
        assert_eq!(s.read(&mut t2, Key(7)).unwrap(), None);
        s.commit(t2).unwrap();

        // A writer with a *larger* timestamp is fine.
        let mut t5 = s.begin(ProcessId(5));
        s.write(&mut t5, Key(7), 1).unwrap();
        s.commit(t5).unwrap();
    }

    #[test]
    fn write_write_conflicts_do_not_abort() {
        // Blind writes at distinct timestamps never conflict in multiversion
        // protocols (§8.4.2).
        let (s, clock) = store_with_manual();
        clock.script(ProcessId(1), vec![10]);
        clock.script(ProcessId(2), vec![11]);
        clock.script(ProcessId(3), vec![20]);
        let mut a = s.begin(ProcessId(1));
        let mut b = s.begin(ProcessId(2));
        s.write(&mut a, Key(3), 1).unwrap();
        s.write(&mut b, Key(3), 2).unwrap();
        s.commit(a).unwrap();
        s.commit(b).unwrap();
        // The version with the larger timestamp wins for future readers.
        let mut r = s.begin(ProcessId(3));
        assert_eq!(s.read(&mut r, Key(3)).unwrap(), Some(2));
        s.commit(r).unwrap();
    }
}
