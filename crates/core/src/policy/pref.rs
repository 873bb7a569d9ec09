//! MVTL-Pref (Algorithms 3/5): preferential + alternative timestamps.

use crate::policy::{LockingPolicy, PolicyCtx};
use crate::txn::TxState;
use mvtl_common::{Key, Timestamp, TsRange, TsSet, TxError};

/// The MVTL-Pref policy (§5.1, Algorithm 3/5, Theorem 2).
///
/// Each transaction gets a *preferential* timestamp from the clock plus a set
/// of *alternative* timestamps `A(t)`. The transaction tries to commit at the
/// preferential timestamp; if the commit-time write locks cannot be obtained
/// there, it falls back to an alternative. Reads lock as much of the window
/// covering the alternatives as possible so that the alternatives remain
/// viable.
///
/// When every alternative is smaller than the preferential timestamp
/// (`∀t' ∈ A(t), t' < t`), Theorem 2 shows MVTL-Pref aborts strictly fewer
/// workloads than MVTO+: any workload MVTO+ commits is also committed, and
/// infinitely many workloads abort under MVTO+ but commit here.
///
/// The alternative set is configured as value offsets relative to the
/// preferential timestamp; the default is `A(t) = {t − 10}`.
#[derive(Debug, Clone)]
pub struct PrefPolicy {
    offsets: Vec<i64>,
}

impl Default for PrefPolicy {
    fn default() -> Self {
        PrefPolicy { offsets: vec![-10] }
    }
}

impl PrefPolicy {
    /// Creates the policy with the default alternatives `A(t) = {t − 10}`.
    #[must_use]
    pub fn new() -> Self {
        PrefPolicy::default()
    }

    /// Creates the policy with alternatives at the given value offsets
    /// (negative offsets give alternatives in the past, which is what
    /// Theorem 2 requires).
    #[must_use]
    pub fn with_offsets(offsets: Vec<i64>) -> Self {
        PrefPolicy { offsets }
    }

    /// The configured offsets.
    #[must_use]
    pub fn offsets(&self) -> &[i64] {
        &self.offsets
    }

    fn alternatives(&self, pref: Timestamp) -> Vec<Timestamp> {
        self.offsets
            .iter()
            .filter_map(|off| {
                let value = if *off >= 0 {
                    pref.value.checked_add(*off as u64)?
                } else {
                    pref.value.checked_sub(off.unsigned_abs())?
                };
                if value == 0 || value == pref.value {
                    None
                } else {
                    Some(Timestamp::new(value, pref.process))
                }
            })
            .collect()
    }

    /// The candidate commit timestamps in the order they are tried:
    /// preferential first, then alternatives from largest to smallest.
    fn ordered_candidates(&self, tx: &TxState) -> Vec<Timestamp> {
        let pref = tx.start_ts.expect("init sets the preferential timestamp");
        let mut rest: Vec<Timestamp> = tx
            .ts_set
            .ranges()
            .iter()
            .flat_map(|r| [r.start, r.end])
            .filter(|t| *t != pref)
            .collect();
        rest.sort();
        rest.dedup();
        rest.reverse();
        let mut out = Vec::with_capacity(rest.len() + 1);
        if tx.ts_set.contains(pref) {
            out.push(pref);
        }
        out.extend(rest);
        out
    }
}

impl LockingPolicy for PrefPolicy {
    fn init(&self, ctx: &dyn PolicyCtx, tx: &mut TxState) {
        let value = ctx.clock_value(tx, tx.process).max(1);
        let pref = Timestamp::new(value, tx.process.0);
        tx.start_ts = Some(pref);
        let mut poss = TsSet::from_point(pref);
        for alt in self.alternatives(pref) {
            poss.insert(alt);
        }
        tx.ts_set = poss;
    }

    fn write_locks(
        &self,
        _ctx: &dyn PolicyCtx,
        _tx: &mut TxState,
        _key: Key,
    ) -> Result<(), TxError> {
        // The write set is locked only at commit time (Algorithm 3 line 4).
        Ok(())
    }

    fn read_locks(
        &self,
        ctx: &dyn PolicyCtx,
        tx: &mut TxState,
        key: Key,
    ) -> Result<Timestamp, TxError> {
        let pref = tx.start_ts.expect("init sets the preferential timestamp");
        let upper = tx.ts_set.max().unwrap_or(pref).max(pref);
        // Anchor on the version preceding the preferential timestamp, then lock
        // as far up as possible to keep alternatives viable.
        let grant = ctx.acquire_read_interval(tx, key, pref, upper, true)?;
        // PossTS <- PossTS ∩ [tr+1, tmax]; alternatives at or below the version
        // read are no longer viable because no read lock can cover them.
        let tmax = grant.granted.max().unwrap_or(grant.version);
        tx.ts_set.intersect_range(TsRange::new(
            grant.version.succ(),
            tmax.max(grant.version.succ()),
        ));
        Ok(grant.version)
    }

    fn commit_locks(&self, ctx: &dyn PolicyCtx, tx: &mut TxState) -> Result<(), TxError> {
        if tx.write_keys.is_empty() {
            // Read-only: commit at the preferential timestamp if still viable,
            // otherwise any remaining candidate (resolved by commit_ts).
            tx.chosen_ts = None;
            return Ok(());
        }
        let write_keys = tx.write_keys.clone();
        for t in self.ordered_candidates(tx) {
            let mut got_all = true;
            for key in &write_keys {
                let granted = ctx.acquire_write_range(tx, *key, &TsSet::from_point(t), false)?;
                if !granted.contains(t) {
                    got_all = false;
                    ctx.release_unfrozen_write_locks(tx);
                    break;
                }
            }
            if got_all {
                tx.chosen_ts = Some(t);
                return Ok(());
            }
        }
        tx.chosen_ts = None;
        Ok(())
    }

    fn commit_ts(&self, tx: &TxState, candidates: &TsSet) -> Option<Timestamp> {
        if tx.write_keys.is_empty() {
            // Read-only transactions: preferential timestamp if covered,
            // otherwise the largest candidate still covered by read locks.
            let pref = tx.start_ts?;
            if candidates.contains(pref) {
                return Some(pref);
            }
            return candidates
                .intersection(&tx.ts_set)
                .max()
                .or_else(|| candidates.max());
        }
        tx.chosen_ts.filter(|t| candidates.contains(*t))
    }

    fn commit_gc(&self, _tx: &TxState) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "mvtl-pref"
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

    /// The Theorem 2(b) workload: W1(Y) C1  R2(X) R3(Y) C3  W2(Y) C2 with
    /// timestamps t1 < maxA(t2) < t2 < t3. MVTO+ aborts T2 (it wants to write Y
    /// between T1's version and T3's read); MVTL-Pref commits T2 at the
    /// alternative timestamp.
    fn theorem2_schedule<P: crate::policy::LockingPolicy>(policy: P) -> bool {
        let clock = Arc::new(ManualClock::new());
        clock.script(ProcessId(1), vec![5]);
        clock.script(ProcessId(2), vec![30]);
        clock.script(ProcessId(3), vec![40]);
        let store: MvtlStore<u64, P> = MvtlStore::new(
            policy,
            Arc::clone(&clock) as Arc<dyn ClockSource>,
            MvtlConfig::default(),
        );
        let x = Key(1);
        let y = Key(2);

        let mut t1 = store.begin(ProcessId(1));
        store.write(&mut t1, y, 100).unwrap();
        store.commit(t1).unwrap();

        let mut t2 = store.begin(ProcessId(2));
        let mut t3 = store.begin(ProcessId(3));
        let _ = store.read(&mut t2, x).unwrap();
        assert_eq!(store.read(&mut t3, y).unwrap(), Some(100));
        store.commit(t3).unwrap();

        if store.write(&mut t2, y, 200).is_err() {
            return false;
        }
        store.commit(t2).is_ok()
    }

    #[test]
    fn mvto_plus_aborts_the_theorem2_workload() {
        assert!(
            !theorem2_schedule(ToPolicy::new()),
            "MVTL-TO (MVTO+) must abort T2"
        );
    }

    #[test]
    fn pref_commits_the_theorem2_workload_via_an_alternative() {
        // Theorem 2(b) requires max A(t2) < t1: with A(t) = { t - 28 }, T2's
        // alternative is 2, below T1's version of Y at 5 and therefore below
        // the read locks T3 holds on Y ([6, 40]). T2 commits there.
        assert!(
            theorem2_schedule(PrefPolicy::with_offsets(vec![-28])),
            "MVTL-Pref must commit T2 using its alternative timestamp"
        );
    }

    #[test]
    fn pref_prefers_the_preferential_timestamp_when_possible() {
        let clock = Arc::new(ManualClock::new());
        clock.script(ProcessId(0), vec![50]);
        let store: MvtlStore<u64, PrefPolicy> = MvtlStore::new(
            PrefPolicy::with_offsets(vec![-20]),
            clock as Arc<dyn ClockSource>,
            MvtlConfig::default(),
        );
        let mut tx = store.begin(ProcessId(0));
        store.write(&mut tx, Key(1), 1).unwrap();
        let info = store.commit(tx).unwrap();
        assert_eq!(info.commit_ts, Some(Timestamp::new(50, 0)));
    }

    #[test]
    fn a_commit_at_an_alternative_splits_its_read_run_at_its_own_version() {
        let clock = Arc::new(ManualClock::new());
        for (process, value) in [(0, 44), (1, 50), (2, 60), (3, 45), (4, 55)] {
            clock.script(ProcessId(process), vec![value]);
        }
        let store: MvtlStore<u64, PrefPolicy> = MvtlStore::new(
            PrefPolicy::with_offsets(vec![-10]),
            clock as Arc<dyn ClockSource>,
            MvtlConfig::default(),
        );
        let (k, j) = (Key(1), Key(2));
        let mut w = store.begin(ProcessId(0));
        store.write(&mut w, j, 1).unwrap();
        store.commit(w).unwrap();
        // A reader at 60 keeps T off its preferential 50 on J.
        let mut reader = store.begin(ProcessId(2));
        assert_eq!(store.read(&mut reader, j).unwrap(), Some(1));
        // T read-locks K up to 50, writes K and J, and commits at its
        // alternative 40, inside its own read lock on K.
        let mut t = store.begin(ProcessId(1));
        assert_eq!(store.read(&mut t, k).unwrap(), None);
        store.write(&mut t, k, 2).unwrap();
        store.write(&mut t, j, 2).unwrap();
        let info = store.commit(t).unwrap();
        assert_eq!(info.commit_ts, Some(Timestamp::new(40, 1)));
        store.commit(reader).unwrap();
        // K's read lock left two runs, (⊥, 40] and (40, 50]; J holds the
        // reader's run above 44. No entry of a finished transaction stays.
        let stats = store.stats();
        assert_eq!((stats.lock_entries, stats.frozen_lock_entries), (3, 3));
        // A writer inside (40, 50] is refused there and at its alternative
        // 35 below 40; one at 55 commits.
        let mut inside = store.begin(ProcessId(3));
        store.write(&mut inside, k, 3).unwrap();
        assert!(store.commit(inside).unwrap_err().is_abort());
        let mut above = store.begin(ProcessId(4));
        store.write(&mut above, k, 4).unwrap();
        let info = store.commit(above).unwrap();
        assert_eq!(info.commit_ts, Some(Timestamp::new(55, 4)));
    }

    #[test]
    fn read_only_transactions_commit() {
        let clock = Arc::new(ManualClock::new());
        clock.script(ProcessId(0), vec![10]);
        clock.script(ProcessId(1), vec![20]);
        let store: MvtlStore<u64, PrefPolicy> = MvtlStore::new(
            PrefPolicy::new(),
            clock as Arc<dyn ClockSource>,
            MvtlConfig::default(),
        );
        let mut w = store.begin(ProcessId(0));
        store.write(&mut w, Key(4), 9).unwrap();
        store.commit(w).unwrap();
        let mut r = store.begin(ProcessId(1));
        assert_eq!(store.read(&mut r, Key(4)).unwrap(), Some(9));
        store.commit(r).unwrap();
    }

    #[test]
    fn alternatives_are_clamped_and_unique() {
        let p = PrefPolicy::with_offsets(vec![-5, 0, 5, -1_000_000]);
        let alts = p.alternatives(Timestamp::new(10, 3));
        // offset 0 collides with the preferential timestamp and is dropped;
        // -1_000_000 underflows and is dropped.
        assert_eq!(alts.len(), 2);
        assert!(alts.contains(&Timestamp::new(5, 3)));
        assert!(alts.contains(&Timestamp::new(15, 3)));
        assert_eq!(p.offsets(), &[-5, 0, 5, -1_000_000]);
    }
}
