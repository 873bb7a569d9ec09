//! [`WalBackend`]: per-shard durability, for single-shard commits and the
//! §7 cross-shard protocol alike.
//!
//! Each shard of a [`ShardedStore`](mvtl_shard::ShardedStore) wears its own
//! `WalBackend`, so shards log (and fsync) independently — exactly as
//! separate servers would. A single-shard commit is logged after the shard
//! commits and acknowledged only once its record is durable (per the log's
//! [`FsyncMode`](crate::FsyncMode)); recovery re-installs each committed
//! write set *at its original commit timestamp*, so histories spanning the
//! crash stay one serializable multiversion history. The protocol-critical
//! ordering rules of the cross-shard commit live here too:
//!
//! * a **prepare** is logged durably *before* it is acknowledged to the
//!   coordinator — a promise the shard must remember across a crash;
//! * the coordinator's **commit decision** is logged durably *before* the
//!   versions are installed — once decided, the outcome must not flip;
//! * **aborts log a decision record** too (best effort: a failed append is
//!   ignored), but a missing decision already means abort: that is the
//!   presumed-abort rule,
//!   and it is what [`WalBackend::attach`] applies to any prepare whose
//!   decision never reached the log — the recovered prepared state gets
//!   exactly one decision (an abort), which is then logged.

use crate::log::{Recovery, Wal, WalError, WalOptions};
use crate::record::{WalRecord, WalValue};
use mvtl_common::{
    CommitInfo, Key, PreparedTxn, ProcessId, StoreStats, Timestamp, TsSet, TxError, TxHandle,
};
use mvtl_shard::ShardBackend;
use std::path::Path;
use std::sync::Arc;

/// What attaching a log to a shard found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed transactions replayed into the shard.
    pub committed: usize,
    /// Prepares with no logged decision, resolved by presumed abort (each
    /// got exactly one decision: an abort, now in the log).
    pub aborted_prepares: usize,
    /// Bytes of torn or corrupted tail discarded by the scan.
    pub discarded_bytes: u64,
}

/// Buffers a `(key, value)` into `writes`, last value per key winning —
/// mirroring how engines buffer transactional writes.
fn buffer_write<V>(writes: &mut Vec<(Key, V)>, key: Key, value: V) {
    if let Some(slot) = writes.iter_mut().find(|(k, _)| *k == key) {
        slot.1 = value;
    } else {
        writes.push((key, value));
    }
}

/// A write-ahead-logged shard: decorates any [`ShardBackend`] with durable
/// commit, prepare and decision records.
pub struct WalBackend<V> {
    inner: Arc<dyn ShardBackend<V>>,
    wal: Arc<Wal>,
}

impl<V> WalBackend<V>
where
    V: WalValue + Clone + Send + Sync + 'static,
{
    /// Opens (or creates) this shard's log in `dir`, replays committed
    /// transactions into `inner` (which must be freshly built), resolves
    /// undecided prepares by presumed abort, and returns the decorated
    /// shard.
    ///
    /// # Errors
    ///
    /// Returns an error when the log cannot be opened or the shard rejects a
    /// replay.
    pub fn attach(
        inner: Arc<dyn ShardBackend<V>>,
        dir: &Path,
        options: WalOptions,
    ) -> Result<(Arc<dyn ShardBackend<V>>, RecoveryReport), WalError> {
        let (wal, recovery) = Wal::open::<V>(dir, options)?;
        Self::with_recovery(inner, wal, recovery)
    }

    /// Like [`WalBackend::attach`], but over a log the caller already opened
    /// (the registry opens every shard's log first to learn the recovered
    /// clock watermark).
    ///
    /// # Errors
    ///
    /// Returns an error when the shard rejects a replay.
    pub fn with_recovery(
        inner: Arc<dyn ShardBackend<V>>,
        wal: Wal,
        recovery: Recovery<V>,
    ) -> Result<(Arc<dyn ShardBackend<V>>, RecoveryReport), WalError> {
        let resolved = recovery.resolve();
        let mut report = RecoveryReport {
            committed: resolved.committed.len(),
            aborted_prepares: 0,
            discarded_bytes: resolved.discarded_bytes,
        };
        for commit in resolved.committed {
            let ts = commit.commit_ts.ok_or_else(|| {
                WalError(format!(
                    "commit record {} in a shard log has no timestamp",
                    commit.id
                ))
            })?;
            inner
                .recover_commit(commit.writes, ts)
                .map_err(|e| WalError(format!("replaying commit {}: {e}", commit.id)))?;
        }
        for prepare in resolved.unresolved {
            // Presumed abort: the coordinator that could still decide this
            // prepare died with the crash, so the re-created prepared state
            // gets its one decision — an abort — and the decision is logged
            // so the next recovery sees the prepare as settled.
            if let Ok(recovered) = inner.recover_prepared(prepare.writes, &prepare.interval) {
                recovered.abort();
            }
            wal.append::<V>(&WalRecord::Decision {
                id: prepare.id,
                outcome: None,
            })?;
            report.aborted_prepares += 1;
        }
        Ok((
            Arc::new(WalBackend {
                inner,
                wal: Arc::new(wal),
            }),
            report,
        ))
    }
}

impl<V> ShardBackend<V> for WalBackend<V>
where
    V: WalValue + Clone + Send + Sync + 'static,
{
    fn begin(&self, process: ProcessId, pinned: Option<Timestamp>) -> Box<dyn TxHandle<V>> {
        Box::new(WalShardTxn {
            inner: self.inner.begin(process, pinned),
            wal: Arc::clone(&self.wal),
            writes: Vec::new(),
        })
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn purge_below(&self, bound: Timestamp) -> (usize, usize) {
        self.inner.purge_below(bound)
    }

    fn low_watermark(&self) -> Option<Timestamp> {
        self.inner.low_watermark()
    }

    fn recover_commit(&self, writes: Vec<(Key, V)>, commit_ts: Timestamp) -> Result<(), TxError> {
        // State recovered from elsewhere must survive this log's next crash
        // too, so it is logged here as well.
        self.inner.recover_commit(writes.clone(), commit_ts)?;
        self.wal
            .append(&WalRecord::Commit {
                id: self.wal.fresh_id(),
                commit_ts: Some(commit_ts),
                writes,
            })
            .map_err(|e| TxError::Internal(format!("recovery applied but not logged: {e}")))?;
        Ok(())
    }

    fn recover_prepared(
        &self,
        writes: Vec<(Key, V)>,
        interval: &TsSet,
    ) -> Result<Box<dyn PreparedTxn<V>>, TxError> {
        let prepared = self.inner.recover_prepared(writes.clone(), interval)?;
        let id = self.wal.fresh_id();
        if let Err(e) = self.wal.append(&WalRecord::Prepare {
            id,
            interval: prepared.interval().clone(),
            writes,
        }) {
            prepared.abort();
            return Err(TxError::Internal(format!("prepare not logged: {e}")));
        }
        Ok(Box::new(WalPrepared {
            inner: prepared,
            wal: Arc::clone(&self.wal),
            id,
        }))
    }
}

/// [`TxHandle`] decorator: captures the write set and logs the outcome.
struct WalShardTxn<V> {
    inner: Box<dyn TxHandle<V>>,
    wal: Arc<Wal>,
    writes: Vec<(Key, V)>,
}

impl<V> TxHandle<V> for WalShardTxn<V>
where
    V: WalValue + Clone + Send + Sync + 'static,
{
    fn read(&mut self, key: Key) -> Result<Option<V>, TxError> {
        self.inner.read(key)
    }

    fn write(&mut self, key: Key, value: V) -> Result<(), TxError> {
        self.inner.write(key, value.clone())?;
        buffer_write(&mut self.writes, key, value);
        Ok(())
    }

    fn read_many(&mut self, keys: &[Key]) -> Result<Vec<Option<V>>, TxError> {
        self.inner.read_many(keys)
    }

    fn write_many(&mut self, entries: Vec<(Key, V)>) -> Result<(), TxError> {
        self.inner.write_many(entries.clone())?;
        for (key, value) in entries {
            buffer_write(&mut self.writes, key, value);
        }
        Ok(())
    }

    fn commit(self: Box<Self>) -> Result<CommitInfo, TxError> {
        let WalShardTxn { inner, wal, writes } = *self;
        let info = inner.commit()?;
        if !writes.is_empty() {
            wal.append(&WalRecord::Commit {
                id: wal.fresh_id(),
                commit_ts: info.commit_ts,
                writes,
            })
            .map_err(|e| TxError::Internal(format!("commit applied but not logged: {e}")))?;
        }
        Ok(info)
    }

    fn prepare(self: Box<Self>) -> Result<Box<dyn PreparedTxn<V>>, TxError> {
        let WalShardTxn { inner, wal, writes } = *self;
        let prepared = inner.prepare()?;
        let id = wal.fresh_id();
        // The promise must be durable before the coordinator hears it: a
        // shard that answers "prepared" and then forgets would let the
        // coordinator commit a transaction some participant lost.
        if let Err(e) = wal.append(&WalRecord::Prepare {
            id,
            interval: prepared.interval().clone(),
            writes,
        }) {
            prepared.abort();
            return Err(TxError::Internal(format!("prepare not logged: {e}")));
        }
        Ok(Box::new(WalPrepared {
            inner: prepared,
            wal,
            id,
        }))
    }

    fn abort(self: Box<Self>) {
        // Nothing to log: absent from the log means aborted.
        self.inner.abort();
    }
}

/// [`PreparedTxn`] decorator: the decision is durable before it takes
/// effect.
struct WalPrepared<V> {
    inner: Box<dyn PreparedTxn<V>>,
    wal: Arc<Wal>,
    id: u64,
}

impl<V> PreparedTxn<V> for WalPrepared<V>
where
    V: WalValue + Clone + Send + Sync + 'static,
{
    fn interval(&self) -> &TsSet {
        self.inner.interval()
    }

    fn commit_at(self: Box<Self>, ts: Timestamp) -> Result<CommitInfo, TxError> {
        let WalPrepared { inner, wal, id } = *self;
        if !inner.interval().contains(ts) {
            // A coordinator bug: let the inner shard produce its abort-and-
            // error path, and log nothing — presumed abort covers it.
            return inner.commit_at(ts);
        }
        // Decision before effect: once the commit record is durable the
        // outcome cannot flip, even if the crash lands between here and the
        // install (recovery replays prepare + decision as a commit).
        wal.append::<V>(&WalRecord::Decision {
            id,
            outcome: Some(ts),
        })
        .map_err(|e| TxError::Internal(format!("commit decision not logged: {e}")))?;
        inner.commit_at(ts)
    }

    fn abort(self: Box<Self>) {
        // Best effort: a logged abort lets recovery skip re-preparing, but a
        // missing one is still an abort (presumed abort).
        let _ = self.wal.append::<V>(&WalRecord::Decision {
            id: self.id,
            outcome: None,
        });
        self.inner.abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvtl_clock::GlobalClock;
    use mvtl_common::{TempDir, TsRange};
    use mvtl_core::policy::MvtilPolicy;
    use mvtl_core::MvtlConfig;
    use mvtl_shard::MvtlBackend;

    fn fresh_inner() -> Arc<dyn ShardBackend<u64>> {
        MvtlBackend::build(
            MvtilPolicy::early(1000),
            Arc::new(GlobalClock::new()),
            MvtlConfig::default(),
        )
    }

    fn attach(dir: &Path) -> (Arc<dyn ShardBackend<u64>>, RecoveryReport) {
        WalBackend::attach(fresh_inner(), dir, WalOptions::default()).expect("attach")
    }

    fn read_committed(shard: &Arc<dyn ShardBackend<u64>>, key: Key) -> Option<u64> {
        let mut txn = shard.begin(ProcessId(9), None);
        let value = txn.read(key).expect("read");
        txn.commit().expect("read-only commit");
        value
    }

    #[test]
    fn committed_writes_survive_a_crash() {
        let dir = TempDir::new("backend-crash");
        let (shard, report) = attach(dir.path());
        assert_eq!(report, RecoveryReport::default());
        let mut txn = shard.begin(ProcessId(0), None);
        txn.write(Key(1), 11).unwrap();
        txn.write(Key(2), 22).unwrap();
        let info = txn.commit().unwrap();
        let pre_crash_ts = info.commit_ts.expect("mvtl commits carry a timestamp");
        drop(shard); // crash: all in-memory versions are gone

        let (shard, report) = attach(dir.path());
        assert_eq!(report.committed, 1);
        assert_eq!(report.discarded_bytes, 0);
        let mut txn = shard.begin(ProcessId(0), None);
        assert_eq!(txn.read(Key(1)).unwrap(), Some(11));
        assert_eq!(txn.read(Key(2)).unwrap(), Some(22));
        let info = txn.commit().unwrap();
        // The recovered versions kept their original timestamp.
        assert_eq!(info.reads.len(), 2);
        assert!(info.reads.iter().all(|(_, ts)| *ts == pre_crash_ts));
    }

    #[test]
    fn aborted_and_uncommitted_transactions_do_not_resurrect() {
        let dir = TempDir::new("backend-abort");
        let (shard, _) = attach(dir.path());
        let mut committed = shard.begin(ProcessId(0), None);
        committed.write(Key(1), 1).unwrap();
        committed.commit().unwrap();
        let mut aborted = shard.begin(ProcessId(0), None);
        aborted.write(Key(2), 2).unwrap();
        aborted.abort();
        let mut in_flight = shard.begin(ProcessId(0), None);
        in_flight.write(Key(3), 3).unwrap();
        drop(in_flight);
        drop(shard);

        let (shard, report) = attach(dir.path());
        assert_eq!(report.committed, 1);
        assert_eq!(read_committed(&shard, Key(1)), Some(1));
        assert_eq!(read_committed(&shard, Key(2)), None);
        assert_eq!(read_committed(&shard, Key(3)), None);
    }

    #[test]
    fn last_write_per_key_wins_within_a_transaction() {
        let dir = TempDir::new("backend-upsert");
        let (shard, _) = attach(dir.path());
        let mut txn = shard.begin(ProcessId(0), None);
        txn.write(Key(1), 1).unwrap();
        txn.write_many(vec![(Key(1), 2), (Key(4), 40)]).unwrap();
        txn.write(Key(1), 3).unwrap();
        txn.commit().unwrap();
        drop(shard);

        let (shard, _) = attach(dir.path());
        assert_eq!(read_committed(&shard, Key(1)), Some(3));
        assert_eq!(read_committed(&shard, Key(4)), Some(40));
    }

    #[test]
    fn read_only_commits_log_nothing() {
        let dir = TempDir::new("backend-ro");
        let (shard, _) = attach(dir.path());
        assert_eq!(read_committed(&shard, Key(1)), None);
        drop(shard);
        let (_shard, report) = attach(dir.path());
        assert_eq!(report.committed, 0);
    }

    #[test]
    fn decided_prepare_commits_across_a_crash() {
        let dir = TempDir::new("backend-decided");
        let (shard, _) = attach(dir.path());
        let mut txn = shard.begin(ProcessId(0), None);
        txn.write(Key(1), 10).unwrap();
        let prepared = txn.prepare().unwrap();
        let ts = prepared.interval().min().unwrap();
        prepared.commit_at(ts).unwrap();
        drop(shard); // crash after the decision was logged

        let (shard, report) = attach(dir.path());
        assert_eq!(report.committed, 1);
        assert_eq!(report.aborted_prepares, 0);
        assert_eq!(read_committed(&shard, Key(1)), Some(10));
    }

    #[test]
    fn undecided_prepare_resolves_to_exactly_one_abort() {
        let dir = TempDir::new("backend-undecided");
        let (shard, _) = attach(dir.path());
        let mut txn = shard.begin(ProcessId(0), None);
        txn.write(Key(1), 10).unwrap();
        let prepared = txn.prepare().unwrap();
        // Crash between prepare and decision: the coordinator never answers.
        std::mem::forget(prepared);
        drop(shard);

        let (shard, report) = attach(dir.path());
        assert_eq!(report.committed, 0);
        assert_eq!(report.aborted_prepares, 1, "presumed abort, once");
        assert_eq!(read_committed(&shard, Key(1)), None);
        drop(shard);

        // The abort decision reached the log: a third open has nothing left
        // to resolve.
        let (shard, report) = attach(dir.path());
        assert_eq!(report.aborted_prepares, 0);
        assert_eq!(read_committed(&shard, Key(1)), None);
    }

    #[test]
    fn logged_abort_decision_settles_the_prepare() {
        let dir = TempDir::new("backend-aborted");
        let (shard, _) = attach(dir.path());
        let mut txn = shard.begin(ProcessId(0), None);
        txn.write(Key(1), 10).unwrap();
        let prepared = txn.prepare().unwrap();
        prepared.abort();
        drop(shard);

        let (shard, report) = attach(dir.path());
        assert_eq!(report.committed, 0);
        assert_eq!(
            report.aborted_prepares, 0,
            "the decision was already logged"
        );
        assert_eq!(read_committed(&shard, Key(1)), None);
    }

    #[test]
    fn recovered_prepared_state_holds_its_locks() {
        let dir = TempDir::new("backend-holds");
        let (shard, _) = attach(dir.path());
        let recovered = shard
            .recover_prepared(
                vec![(Key(1), 10)],
                &TsSet::from_range(TsRange::new(Timestamp::at(5), Timestamp::at(9))),
            )
            .unwrap();
        // While the recovered prepare is live, its interval is frozen: a
        // second prepare over the same key cannot intersect it.
        let mut rival = shard.begin(ProcessId(1), Some(Timestamp::at(5)));
        rival.write(Key(1), 99).unwrap();
        // An outright prepare failure (fully blocked) is fine too.
        if let Ok(prepared) = rival.prepare() {
            assert!(
                prepared.interval().min().unwrap() > Timestamp::at(9),
                "rival may only prepare above the recovered interval"
            );
            prepared.abort();
        }
        recovered.commit_at(Timestamp::at(7)).unwrap();
        drop(shard);

        let (shard, report) = attach(dir.path());
        assert_eq!(report.committed, 1);
        assert_eq!(read_committed(&shard, Key(1)), Some(10));
    }
}
