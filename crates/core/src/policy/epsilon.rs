//! MVTL-ε-clock (Algorithms 4/7): no serial aborts with ε-synchronized clocks.

use crate::policy::{acquire_within_ts_set, LockingPolicy, PolicyCtx};
use crate::txn::TxState;
use mvtl_common::{AbortReason, Key, Timestamp, TsRange, TsSet, TxError};

/// The MVTL-ε-clock policy (§5.3, Algorithm 4/7, Theorem 4).
///
/// On begin, a transaction reads its (possibly skewed, but ε-synchronized)
/// local clock `t` and sets its candidate interval `tx.TS = [t−ε, t+ε]`, which
/// is guaranteed to contain the true real time. Writes lock as much of `tx.TS`
/// as they can (waiting on unfrozen conflicts), reads lock from the version
/// read up to `max tx.TS`, and the transaction commits at the **smallest**
/// locked timestamp, garbage collecting as it commits. In a serial execution
/// each transaction therefore commits at or below its own real start time and
/// releases everything above it, so the next transaction always finds its own
/// real time unlocked — no serial aborts.
#[derive(Debug, Clone, Copy)]
pub struct EpsilonPolicy {
    epsilon: u64,
}

impl EpsilonPolicy {
    /// Creates the policy for clocks that are ε-synchronized.
    #[must_use]
    pub fn new(epsilon: u64) -> Self {
        EpsilonPolicy { epsilon }
    }

    /// The synchronization bound ε.
    #[must_use]
    pub fn epsilon(&self) -> u64 {
        self.epsilon
    }

    fn interval(&self, tx: &TxState, now: u64) -> TsRange {
        let low = now.saturating_sub(self.epsilon).max(1);
        let high = now.saturating_add(self.epsilon);
        TsRange::new(Timestamp::new(low, 0), Timestamp::new(high, u32::MAX))
            .intersection(&TsRange::all())
            .unwrap_or_else(|| TsRange::point(Timestamp::new(now.max(1), tx.process.0)))
    }
}

impl LockingPolicy for EpsilonPolicy {
    fn init(&self, ctx: &dyn PolicyCtx, tx: &mut TxState) {
        let now = ctx.clock_value(tx, tx.process, 1);
        tx.start_ts = Some(Timestamp::new(now, tx.process.0));
        tx.ts_set = TsSet::from_range(self.interval(tx, now));
    }

    fn write_locks(&self, ctx: &dyn PolicyCtx, tx: &mut TxState, key: Key) -> Result<(), TxError> {
        if tx.ts_set.is_empty() {
            return Err(TxError::aborted(AbortReason::IntervalExhausted { key }));
        }
        // Try to write-lock tx.TS, waiting on unfrozen conflicts; then shrink
        // tx.TS to what was actually acquired.
        tx.ts_set = acquire_within_ts_set(ctx, tx, key, true)?;
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
        let grant = ctx.acquire_read_interval(tx, key, upper, upper, true)?;
        // tx.TS <- tx.TS ∩ [tr+1, m]
        tx.ts_set
            .intersect_range(TsRange::new(grant.version.succ(), upper));
        if tx.ts_set.is_empty() {
            return Err(TxError::aborted(AbortReason::IntervalExhausted { key }));
        }
        Ok(grant.version)
    }

    fn commit_locks(&self, _ctx: &dyn PolicyCtx, _tx: &mut TxState) -> Result<(), TxError> {
        Ok(())
    }

    fn commit_ts(&self, tx: &TxState, candidates: &TsSet) -> Option<Timestamp> {
        candidates.intersection(&tx.ts_set).min()
    }

    fn prepared_interval(&self, tx: &TxState, candidates: &TsSet) -> TsSet {
        // Freeze only what is left of tx.TS: committing outside the ε-window
        // would void the real-time guarantee of Theorem 4.
        candidates.intersection(&tx.ts_set)
    }

    fn commit_gc(&self, _tx: &TxState) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "mvtl-epsilon-clock"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ToPolicy;
    use crate::{MvtlConfig, MvtlStore};
    use mvtl_clock::{ClockSource, GlobalClock, SkewedClock};
    use mvtl_common::{ProcessId, TransactionalKV};
    use std::collections::HashMap;
    use std::sync::Arc;

    /// A skewed clock where process 1 lags 3 ticks behind process 2.
    fn skewed() -> Arc<dyn ClockSource> {
        let mut offsets = HashMap::new();
        offsets.insert(1u32, -3i64);
        Arc::new(SkewedClock::new(GlobalClock::starting_at(100), offsets))
    }

    #[test]
    fn serial_schedule_aborts_under_to_but_not_under_epsilon_clock() {
        // The §5.3 schedule: T2 reads X and commits, then T1 (whose local
        // clock is behind) writes X. Serial execution, so no real conflict.
        let to_store: MvtlStore<u64, ToPolicy> =
            MvtlStore::new(ToPolicy::new(), skewed(), MvtlConfig::default());
        let mut t2 = to_store.begin(ProcessId(2));
        let _ = to_store.read(&mut t2, Key(1)).unwrap();
        to_store.commit(t2).unwrap();
        let mut t1 = to_store.begin(ProcessId(1));
        to_store.write(&mut t1, Key(1), 5).unwrap();
        assert!(
            to_store.commit(t1).is_err(),
            "MVTL-TO suffers a serial abort under skewed clocks"
        );

        // With ε = 5 ≥ the skew, the ε-clock policy commits both.
        let eps_store: MvtlStore<u64, EpsilonPolicy> =
            MvtlStore::new(EpsilonPolicy::new(5), skewed(), MvtlConfig::default());
        let mut t2 = eps_store.begin(ProcessId(2));
        let _ = eps_store.read(&mut t2, Key(1)).unwrap();
        eps_store.commit(t2).unwrap();
        let mut t1 = eps_store.begin(ProcessId(1));
        eps_store.write(&mut t1, Key(1), 5).unwrap();
        eps_store.commit(t1).unwrap();
    }

    #[test]
    fn long_serial_history_never_aborts() {
        // Theorem 4 exercised over a longer serial history with alternating
        // fast/slow processes.
        let mut offsets = HashMap::new();
        offsets.insert(0u32, 4i64);
        offsets.insert(1u32, -4i64);
        let clock: Arc<dyn ClockSource> =
            Arc::new(SkewedClock::new(GlobalClock::starting_at(50), offsets));
        let store: MvtlStore<u64, EpsilonPolicy> =
            MvtlStore::new(EpsilonPolicy::new(4), clock, MvtlConfig::default());
        for i in 0..60u64 {
            let p = ProcessId((i % 2) as u32);
            let mut tx = store.begin(p);
            let prev = store.read(&mut tx, Key(1)).unwrap().unwrap_or(0);
            store.write(&mut tx, Key(1), prev + 1).unwrap();
            store
                .commit(tx)
                .unwrap_or_else(|e| panic!("serial transaction {i} aborted: {e}"));
        }
        let mut check = store.begin(ProcessId(0));
        assert_eq!(store.read(&mut check, Key(1)).unwrap(), Some(60));
        store.commit(check).unwrap();
    }

    #[test]
    fn commit_timestamp_is_within_the_interval() {
        let store: MvtlStore<u64, EpsilonPolicy> = MvtlStore::new(
            EpsilonPolicy::new(10),
            Arc::new(GlobalClock::starting_at(1000)),
            MvtlConfig::default(),
        );
        let mut tx = store.begin(ProcessId(0));
        store.write(&mut tx, Key(1), 1).unwrap();
        let start = tx.state().start_ts.unwrap();
        let info = store.commit(tx).unwrap();
        let cts = info.commit_ts.unwrap();
        assert!(cts.value + 10 >= start.value && cts.value <= start.value + 10);
    }

    #[test]
    fn skew_beyond_epsilon_still_aborts() {
        // Theorem 4 only protects serial executions when the skew is within ε.
        // With ε = 0 and a 1-tick skew, the old serial abort reappears: the
        // slow writer's whole interval is covered by the reader's frozen read
        // locks and its candidate interval exhausts.
        let clock = Arc::new(mvtl_clock::ManualClock::new());
        clock.script(ProcessId(0), vec![11]);
        clock.script(ProcessId(1), vec![10]);
        let store: MvtlStore<u64, EpsilonPolicy> = MvtlStore::new(
            EpsilonPolicy::new(0),
            clock as Arc<dyn ClockSource>,
            MvtlConfig::default(),
        );
        let mut a = store.begin(ProcessId(0));
        let _ = store.read(&mut a, Key(1)).unwrap();
        store.commit(a).unwrap();
        let mut b = store.begin(ProcessId(1));
        let err = store.write(&mut b, Key(1), 2).unwrap_err();
        assert!(err.is_abort());
    }
}
