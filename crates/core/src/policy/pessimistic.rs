//! MVTL-Pessimistic (Algorithm 9): pessimistic concurrency control as a
//! special case of MVTL.

use crate::policy::{LockingPolicy, PolicyCtx};
use crate::txn::TxState;
use mvtl_common::{Key, Timestamp, TsRange, TsSet, TxError};

/// The MVTL-Pessimistic policy (§5.4, Algorithm 9, Theorem 6).
///
/// Writes try to lock **all** timestamps (the range `[0, +∞]`), and reads lock
/// `[tr+1, +∞]`, both waiting on unfrozen conflicting locks. Holding the upper
/// end of the timeline is what makes the behaviour identical to object-level
/// pessimistic locking: at most one writer (or several readers) can hold `+∞`
/// for a key at a time, so conflicting transactions serialize by blocking
/// rather than aborting. The transaction commits at the smallest timestamp
/// locked for all its data and then garbage collects, releasing the upper part
/// of the timeline for the next transaction.
///
/// Like its object-locking counterpart, this policy can deadlock; the engine's
/// lock-wait timeout doubles as deadlock resolution.
#[derive(Debug, Clone, Copy, Default)]
pub struct PessimisticPolicy;

impl PessimisticPolicy {
    /// Creates the MVTL-Pessimistic policy.
    #[must_use]
    pub fn new() -> Self {
        PessimisticPolicy
    }
}

impl LockingPolicy for PessimisticPolicy {
    fn init(&self, ctx: &dyn PolicyCtx, tx: &mut TxState) {
        // The clock is not needed for locking decisions, but remembering the
        // begin time keeps reports informative.
        let value = ctx.clock_value(tx, tx.process, 1);
        tx.start_ts = Some(Timestamp::new(value, tx.process.0));
    }

    fn write_locks(&self, ctx: &dyn PolicyCtx, tx: &mut TxState, key: Key) -> Result<(), TxError> {
        // Write-lock all the possible timestamps, waiting if a timestamp is
        // read- or write-locked but not frozen.
        ctx.acquire_write_range(tx, key, &TsSet::from_range(TsRange::all()), true)?;
        Ok(())
    }

    fn read_locks(
        &self,
        ctx: &dyn PolicyCtx,
        tx: &mut TxState,
        key: Key,
    ) -> Result<Timestamp, TxError> {
        let grant = ctx.acquire_read_interval(tx, key, Timestamp::MAX, Timestamp::MAX, true)?;
        Ok(grant.version)
    }

    fn commit_locks(&self, _ctx: &dyn PolicyCtx, _tx: &mut TxState) -> Result<(), TxError> {
        Ok(())
    }

    fn commit_ts(&self, _tx: &TxState, candidates: &TsSet) -> Option<Timestamp> {
        candidates.min()
    }

    fn commit_gc(&self, _tx: &TxState) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "mvtl-pessimistic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MvtlConfig, MvtlStore};
    use mvtl_clock::GlobalClock;
    use mvtl_common::{AbortReason, ProcessId, TransactionalKV};
    use std::sync::Arc;
    use std::time::Duration;

    fn store() -> MvtlStore<u64, PessimisticPolicy> {
        MvtlStore::new(
            PessimisticPolicy::new(),
            Arc::new(GlobalClock::new()),
            MvtlConfig::default().with_lock_wait_timeout(Duration::from_millis(30)),
        )
    }

    #[test]
    fn sequential_transactions_never_abort() {
        let s = store();
        for i in 0..20u64 {
            let mut tx = s.begin(ProcessId(0));
            let prev = s.read(&mut tx, Key(1)).unwrap().unwrap_or(0);
            s.write(&mut tx, Key(1), prev + i).unwrap();
            s.commit(tx).unwrap();
        }
        let mut tx = s.begin(ProcessId(0));
        assert!(s.read(&mut tx, Key(1)).unwrap().is_some());
        s.commit(tx).unwrap();
    }

    #[test]
    fn conflicting_writer_blocks_until_timeout() {
        // A second writer on the same key cannot proceed while the first holds
        // the +inf write lock; with the short timeout it aborts (deadlock /
        // starvation resolution), exactly like blocking 2PL with timeouts.
        let s = store();
        let mut t1 = s.begin(ProcessId(0));
        s.write(&mut t1, Key(5), 1).unwrap();

        let mut t2 = s.begin(ProcessId(1));
        let err = s.write(&mut t2, Key(5), 2).unwrap_err();
        assert_eq!(
            err.abort_reason(),
            Some(&AbortReason::LockTimeout { key: Key(5) })
        );

        // The first transaction is unaffected and commits.
        s.commit(t1).unwrap();
    }

    #[test]
    fn readers_share_access() {
        let s = store();
        let mut w = s.begin(ProcessId(0));
        s.write(&mut w, Key(3), 9).unwrap();
        s.commit(w).unwrap();

        let mut r1 = s.begin(ProcessId(1));
        let mut r2 = s.begin(ProcessId(2));
        assert_eq!(s.read(&mut r1, Key(3)).unwrap(), Some(9));
        assert_eq!(s.read(&mut r2, Key(3)).unwrap(), Some(9));
        s.commit(r1).unwrap();
        s.commit(r2).unwrap();
    }

    #[test]
    fn reader_blocks_writer_then_proceeds_after_commit() {
        let s = store();
        let mut r = s.begin(ProcessId(1));
        assert_eq!(s.read(&mut r, Key(4)).unwrap(), None);
        // Writer cannot get the lock while the reader holds [1, +inf].
        let mut w = s.begin(ProcessId(2));
        assert!(s.write(&mut w, Key(4), 1).is_err());
        // After the reader commits (and GC releases its locks), writing works.
        s.commit(r).unwrap();
        let mut w2 = s.begin(ProcessId(2));
        s.write(&mut w2, Key(4), 1).unwrap();
        s.commit(w2).unwrap();
    }

    #[test]
    fn commits_at_smallest_locked_timestamp() {
        let s = store();
        let mut w = s.begin(ProcessId(0));
        s.write(&mut w, Key(8), 1).unwrap();
        let first = s.commit(w).unwrap().commit_ts.unwrap();

        let mut w2 = s.begin(ProcessId(0));
        s.write(&mut w2, Key(8), 2).unwrap();
        let second = s.commit(w2).unwrap().commit_ts.unwrap();
        assert!(second > first, "{second:?} must follow {first:?}");
    }
}
