//! MVTL-Prio (Algorithm 6): prioritizing critical transactions.

use crate::policy::{write_lock_point, LockingPolicy, PolicyCtx};
use crate::txn::TxState;
use mvtl_common::{AbortReason, Key, Timestamp, TsRange, TsSet, TxError};

/// The MVTL-Prio policy (§5.2, Algorithm 6, Theorem 3).
///
/// Transactions carry a priority flag (set with
/// [`MvtlTransaction::set_priority`](crate::MvtlTransaction::set_priority) or
/// [`MvtlStore::begin_critical`](crate::MvtlStore::begin_critical)):
///
/// * **normal** transactions behave exactly like MVTL-TO / MVTO+ — they pick a
///   clock timestamp and serialize everything there;
/// * **critical** transactions lock aggressively, like pessimistic concurrency
///   control: writes lock all timestamps and reads lock `[tr+1, +∞]`. Because
///   a normal transaction only ever holds locks at or below its own (finite)
///   clock timestamp, it can never deny a critical transaction the upper part
///   of the timeline — so "transactions labeled critical are never aborted by
///   transactions labeled normal".
///
/// Critical transactions may deadlock among themselves (resolved by the lock
/// timeout); normal transactions never cause deadlocks.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrioPolicy;

impl PrioPolicy {
    /// Creates the MVTL-Prio policy.
    #[must_use]
    pub fn new() -> Self {
        PrioPolicy
    }
}

impl LockingPolicy for PrioPolicy {
    fn init(&self, ctx: &dyn PolicyCtx, tx: &mut TxState) {
        let value = ctx.clock_value(tx, tx.process, 1);
        let ts = Timestamp::new(value, tx.process.0);
        tx.start_ts = Some(ts);
        if !tx.priority {
            tx.chosen_ts = Some(ts);
            tx.ts_set = TsSet::from_point(ts);
        }
    }

    fn write_locks(&self, ctx: &dyn PolicyCtx, tx: &mut TxState, key: Key) -> Result<(), TxError> {
        if tx.priority {
            // Critical: write-lock all the possible timestamps (blocking on
            // unfrozen conflicts).
            ctx.acquire_write_range(tx, key, &TsSet::from_range(TsRange::all()), true)?;
        }
        Ok(())
    }

    fn read_locks(
        &self,
        ctx: &dyn PolicyCtx,
        tx: &mut TxState,
        key: Key,
    ) -> Result<Timestamp, TxError> {
        if tx.priority {
            let grant = ctx.acquire_read_interval(tx, key, Timestamp::MAX, Timestamp::MAX, true)?;
            Ok(grant.version)
        } else {
            let ts = tx.start_ts.expect("init sets the start timestamp");
            let grant = ctx.acquire_read_interval(tx, key, ts, ts, true)?;
            Ok(grant.version)
        }
    }

    fn commit_locks(&self, ctx: &dyn PolicyCtx, tx: &mut TxState) -> Result<(), TxError> {
        if tx.priority {
            return Ok(());
        }
        let ts = tx.start_ts.expect("init sets the start timestamp");
        if let Some(key) = write_lock_point(ctx, tx, ts, false)? {
            tx.chosen_ts = None;
            return Err(TxError::aborted(AbortReason::WriteConflict { key }));
        }
        Ok(())
    }

    fn commit_ts(&self, tx: &TxState, candidates: &TsSet) -> Option<Timestamp> {
        if tx.priority {
            candidates.min()
        } else {
            tx.chosen_ts.filter(|t| candidates.contains(*t))
        }
    }

    fn commit_gc(&self, _tx: &TxState) -> bool {
        // §5.2: "Both types of transactions garbage collect on commit." This is
        // also what Theorem 3's proof relies on: once a normal transaction
        // finishes, only its frozen locks (which end at its commit timestamp)
        // remain, so it can never deny a critical transaction the upper part of
        // the timeline. (Algorithm 6 in the appendix returns false for normal
        // transactions, which contradicts the section text; we follow the text.)
        true
    }

    fn name(&self) -> &'static str {
        "mvtl-prio"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MvtlConfig, MvtlStore};
    use mvtl_clock::{ClockSource, GlobalClock, ManualClock};
    use mvtl_common::{ProcessId, TransactionalKV};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn normal_transactions_behave_like_to() {
        let store: MvtlStore<u64, PrioPolicy> = MvtlStore::new(
            PrioPolicy::new(),
            Arc::new(GlobalClock::new()),
            MvtlConfig::default(),
        );
        let mut tx = store.begin(ProcessId(0));
        store.write(&mut tx, Key(1), 1).unwrap();
        store.commit(tx).unwrap();
        let mut tx = store.begin(ProcessId(1));
        assert_eq!(store.read(&mut tx, Key(1)).unwrap(), Some(1));
        store.commit(tx).unwrap();
    }

    #[test]
    fn critical_transaction_survives_conflicting_normal_reader() {
        // Theorem 3: a critical writer is never aborted because of normal
        // transactions. A normal reader with a *later* timestamp would abort a
        // plain MVTO+/MVTL-TO writer (serializing in the past); the critical
        // writer instead commits above the reader's locks.
        let clock = Arc::new(ManualClock::new());
        clock.script(ProcessId(1), vec![1]);
        clock.script(ProcessId(9), vec![9]);
        let store: MvtlStore<u64, PrioPolicy> = MvtlStore::new(
            PrioPolicy::new(),
            Arc::clone(&clock) as Arc<dyn ClockSource>,
            MvtlConfig::default().with_lock_wait_timeout(Duration::from_millis(30)),
        );
        let x = Key(7);

        // Normal reader at timestamp 9 reads X and commits (no GC for normal
        // transactions, so its read locks up to timestamp 9 stay behind).
        let mut reader = store.begin(ProcessId(9));
        assert_eq!(store.read(&mut reader, x).unwrap(), None);
        store.commit(reader).unwrap();

        // A critical writer whose clock says 1 still commits: it locks the
        // whole timeline and serializes after the reader.
        let mut critical = store.begin_critical(ProcessId(1));
        store.write(&mut critical, x, 42).unwrap();
        let info = store.commit(critical).unwrap();
        assert!(info.commit_ts.unwrap() > Timestamp::new(9, 9));

        // For contrast, a *normal* writer with timestamp 1 aborts on the same
        // schedule (that is the serial-abort behaviour of MVTO+).
        clock.script(ProcessId(2), vec![1]);
        let mut normal = store.begin(ProcessId(2));
        store.write(&mut normal, x, 43).unwrap();
        assert!(store.commit(normal).is_err());
    }

    #[test]
    fn critical_transactions_read_latest_committed_state() {
        let store: MvtlStore<u64, PrioPolicy> = MvtlStore::new(
            PrioPolicy::new(),
            Arc::new(GlobalClock::new()),
            MvtlConfig::default(),
        );
        let mut setup = store.begin(ProcessId(0));
        store.write(&mut setup, Key(2), 5).unwrap();
        store.commit(setup).unwrap();

        let mut critical = store.begin_critical(ProcessId(1));
        assert_eq!(store.read(&mut critical, Key(2)).unwrap(), Some(5));
        store.write(&mut critical, Key(2), 6).unwrap();
        store.commit(critical).unwrap();

        let mut after = store.begin(ProcessId(2));
        assert_eq!(store.read(&mut after, Key(2)).unwrap(), Some(6));
        store.commit(after).unwrap();
    }

    #[test]
    fn two_critical_writers_serialize_by_blocking_or_timeout() {
        let store: MvtlStore<u64, PrioPolicy> = MvtlStore::new(
            PrioPolicy::new(),
            Arc::new(GlobalClock::new()),
            MvtlConfig::default().with_lock_wait_timeout(Duration::from_millis(20)),
        );
        let mut a = store.begin_critical(ProcessId(0));
        store.write(&mut a, Key(3), 1).unwrap();
        // The second critical writer cannot acquire the timeline while `a`
        // holds it; it times out (pessimistic behaviour).
        let mut b = store.begin_critical(ProcessId(1));
        assert!(store.write(&mut b, Key(3), 2).is_err());
        store.commit(a).unwrap();
    }
}
