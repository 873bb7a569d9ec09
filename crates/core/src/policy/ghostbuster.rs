//! MVTL-Ghostbuster (Algorithm 10): MVTL-TO plus garbage collection, which
//! removes ghost aborts.

use crate::policy::{LockingPolicy, PolicyCtx};
use crate::txn::TxState;
use mvtl_common::{AbortReason, Key, Timestamp, TsRange, TsSet, TxError};

/// The MVTL-Ghostbuster policy (§5.5, Algorithm 10, Theorem 7).
///
/// Identical to [`ToPolicy`](crate::policy::ToPolicy) except that garbage
/// collection always runs when a transaction ends (commit *or* abort), so an
/// aborted transaction "only holds any locks while it is executing"; therefore
/// a write can never conflict with a transaction that already aborted, and
/// ghost aborts disappear.
///
/// A second difference from MVTL-TO, per Algorithm 10 line 15: commit-time
/// write locking *waits* for unfrozen conflicting locks instead of giving up
/// immediately.
#[derive(Debug, Clone, Copy, Default)]
pub struct GhostbusterPolicy;

impl GhostbusterPolicy {
    /// Creates the MVTL-Ghostbuster policy.
    #[must_use]
    pub fn new() -> Self {
        GhostbusterPolicy
    }
}

impl LockingPolicy for GhostbusterPolicy {
    fn init(&self, ctx: &dyn PolicyCtx, tx: &mut TxState) {
        let value = ctx.clock_value(tx, tx.process);
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
        let write_keys = tx.write_keys.clone();
        for key in write_keys {
            // Waits for unfrozen conflicting locks (Algorithm 10 line 15); a
            // frozen conflicting read lock can never go away, so a missing
            // grant after waiting means the write must be rejected.
            let granted = ctx.acquire_write_range(tx, key, TsRange::point(ts), true)?;
            if !granted.contains(ts) {
                ctx.release_unfrozen_write_locks(tx);
                tx.chosen_ts = None;
                return Err(TxError::aborted(AbortReason::WriteConflict { key }));
            }
        }
        Ok(())
    }

    fn commit_ts(&self, tx: &TxState, candidates: &TsSet) -> Option<Timestamp> {
        tx.chosen_ts.filter(|t| candidates.contains(*t))
    }

    fn commit_gc(&self, _tx: &TxState) -> bool {
        true
    }

    fn release_read_locks_on_abort(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "mvtl-ghostbuster"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ToPolicy;
    use crate::{MvtlConfig, MvtlStore};
    use mvtl_clock::{ClockSource, ManualClock};
    use mvtl_common::{ProcessId, TransactionalKV};
    use std::sync::Arc;
    use std::time::Duration;

    /// Runs the ghost-abort schedule of §5.5 against an engine and reports
    /// whether T1 (the last writer) aborted.
    ///
    /// Schedule: T3 reads X and commits; T2 reads Y, writes X and aborts
    /// (because of T3's read); then T1 writes Y and tries to commit. Under
    /// MVTO+/MVTL-TO, T1 aborts even though its only conflict is with the
    /// already-aborted T2 — a ghost abort.
    fn ghost_schedule<P: crate::policy::LockingPolicy>(policy: P) -> bool {
        let clock = Arc::new(ManualClock::new());
        clock.script(ProcessId(1), vec![1]);
        clock.script(ProcessId(2), vec![2]);
        clock.script(ProcessId(3), vec![3]);
        let store: MvtlStore<u64, P> = MvtlStore::new(
            policy,
            Arc::clone(&clock) as Arc<dyn ClockSource>,
            MvtlConfig::default().with_lock_wait_timeout(Duration::from_millis(20)),
        );
        let x = Key(1);
        let y = Key(2);

        let mut t1 = store.begin(ProcessId(1));
        let mut t2 = store.begin(ProcessId(2));
        let mut t3 = store.begin(ProcessId(3));

        // T3: R(X) C
        let _ = store.read(&mut t3, x).unwrap();
        store.commit(t3).unwrap();

        // T2: R(Y) W(X) then abort at commit because T3 read X at timestamp 3.
        let _ = store.read(&mut t2, y).unwrap();
        store.write(&mut t2, x, 20).unwrap();
        assert!(store.commit(t2).is_err(), "T2 must abort in this schedule");

        // T1: W(Y) C?
        store.write(&mut t1, y, 10).unwrap();
        store.commit(t1).is_err()
    }

    #[test]
    fn mvtl_to_suffers_ghost_aborts() {
        assert!(
            ghost_schedule(ToPolicy::new()),
            "MVTL-TO should ghost-abort T1"
        );
    }

    #[test]
    fn ghostbuster_avoids_ghost_aborts() {
        assert!(
            !ghost_schedule(GhostbusterPolicy::new()),
            "MVTL-Ghostbuster must commit T1"
        );
    }

    #[test]
    fn basic_read_write_cycle() {
        let store: MvtlStore<u64, GhostbusterPolicy> = MvtlStore::new(
            GhostbusterPolicy::new(),
            Arc::new(mvtl_clock::GlobalClock::new()),
            MvtlConfig::default(),
        );
        let mut tx = store.begin(ProcessId(0));
        store.write(&mut tx, Key(9), 1).unwrap();
        store.commit(tx).unwrap();
        let mut tx = store.begin(ProcessId(1));
        assert_eq!(store.read(&mut tx, Key(9)).unwrap(), Some(1));
        store.commit(tx).unwrap();
        // GC on commit releases every live lock: what remains is the version
        // (the frozen write lock) and its one frozen read run.
        let stats = store.stats();
        assert_eq!(stats.versions, 1);
        assert_eq!((stats.lock_entries, stats.frozen_lock_entries), (1, 1));
    }
}
