//! Fault-injecting decorators over the shard participant traits.
//!
//! [`FaultyBackend`] wraps any [`ShardBackend`] and consults a seeded
//! [`FaultPlan`] (`mvtl-faults`) before forwarding each call, injecting the
//! schedule's per-operation delays, dropped/late prepare responses, shard
//! stalls, crashes mid-prepare, and per-shard clock skew. The wrapped shard
//! never knows: every fault is expressed through the ordinary participant
//! interface, so the coordinator's timeout + presumed-abort recovery path is
//! exercised against a *real* engine, not a mock.
//!
//! Fault semantics (one decision per sequence number, drawn from the plan):
//!
//! * **Delay** — sleep a deterministic number of microseconds before serving a
//!   read/write/batch round or a prepared commit.
//! * **Stall** — sleep the schedule's stall time before even serving
//!   `prepare`; with a stall longer than the coordinator's commit timeout this
//!   forces the presumed-abort path.
//! * **Drop** — the prepare *succeeds* and the shard holds its frozen locks,
//!   but the response is withheld for the schedule's hold time. The
//!   coordinator only learns of the prepare by timing out; when the late
//!   response finally lands, the coordinator has already abandoned the slot
//!   and the prepared sub-transaction aborts itself (presumed abort).
//! * **Crash** — the shard "dies" between `prepare` and the decision: its
//!   volatile lock state is released (a restarted shard recovers by presumed
//!   abort) and the coordinator sees the prepare fail with
//!   [`AbortReason::ParticipantCrashed`].
//! * **Skew** — the pinned begin timestamp is offset by a constant per-shard
//!   tick count, the ε-clock scenario of the skewed-clock schedule.

use crate::backend::{PreparedShardTxn, ShardBackend, ShardTxn};
use mvtl_common::{AbortReason, CommitInfo, Key, ProcessId, StoreStats, Timestamp, TsSet, TxError};
use mvtl_faults::{FaultPlan, PrepareFault};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

/// A [`ShardBackend`] decorator that injects the faults of a seeded
/// [`FaultPlan`] between the cross-shard coordinator and the wrapped shard.
pub struct FaultyBackend<V> {
    inner: Arc<dyn ShardBackend<V>>,
    plan: Arc<FaultPlan>,
    shard: usize,
    /// Per-shard operation sequence: each fault decision consumes one number,
    /// so a single-threaded replay draws an identical fault schedule each run.
    seq: Arc<AtomicU64>,
    /// Separate stream for `begin` skew events, so adding `skew:` to a spec
    /// does not shift the delay/prepare decision sequence.
    begin_seq: AtomicU64,
}

impl<V> FaultyBackend<V>
where
    V: Clone + Send + Sync + 'static,
{
    /// Wraps `inner` as shard `shard` of `plan`, type-erased — the form
    /// [`ShardedStore::new`](crate::ShardedStore::new) consumes.
    #[must_use]
    pub fn wrap(
        inner: Arc<dyn ShardBackend<V>>,
        plan: Arc<FaultPlan>,
        shard: usize,
    ) -> Arc<dyn ShardBackend<V>> {
        Arc::new(FaultyBackend {
            inner,
            plan,
            shard,
            seq: Arc::new(AtomicU64::new(0)),
            begin_seq: AtomicU64::new(0),
        })
    }
}

impl<V> ShardBackend<V> for FaultyBackend<V>
where
    V: Clone + Send + Sync + 'static,
{
    fn begin(&self, process: ProcessId, pinned: Option<Timestamp>) -> Box<dyn ShardTxn<V>> {
        let offset = self.plan.shard_skew(self.shard);
        let pinned = match (pinned, offset) {
            (Some(ts), skew) if skew != 0 => {
                let seq = self.begin_seq.fetch_add(1, Ordering::Relaxed);
                self.plan.note_skew(self.shard, seq, skew);
                let value = if skew >= 0 {
                    ts.value.saturating_add(skew.unsigned_abs())
                } else {
                    ts.value.saturating_sub(skew.unsigned_abs())
                };
                Some(Timestamp::new(value.max(1), ts.process))
            }
            (pinned, _) => pinned,
        };
        Box::new(FaultyTxn {
            inner: Some(self.inner.begin(process, pinned)),
            plan: Arc::clone(&self.plan),
            shard: self.shard,
            seq: Arc::clone(&self.seq),
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
        // Recovery runs before the workload restarts; faults apply to live
        // traffic only.
        self.inner.recover_commit(writes, commit_ts)
    }

    fn recover_prepared(
        &self,
        writes: Vec<(Key, V)>,
        interval: &TsSet,
    ) -> Result<Box<dyn PreparedShardTxn<V>>, TxError> {
        self.inner.recover_prepared(writes, interval)
    }
}

/// [`ShardTxn`] decorator: delays operations and perturbs `prepare` per the
/// plan's decisions.
struct FaultyTxn<V> {
    inner: Option<Box<dyn ShardTxn<V>>>,
    plan: Arc<FaultPlan>,
    shard: usize,
    seq: Arc<AtomicU64>,
}

impl<V> FaultyTxn<V> {
    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    fn maybe_delay(&self) {
        if let Some(delay) = self.plan.op_delay(self.shard, self.next_seq()) {
            thread::sleep(delay);
        }
    }

    fn inner_mut(&mut self) -> &mut Box<dyn ShardTxn<V>> {
        self.inner
            .as_mut()
            .expect("faulty txn present until finished")
    }
}

impl<V> ShardTxn<V> for FaultyTxn<V>
where
    V: Clone + Send + Sync + 'static,
{
    fn read(&mut self, key: Key) -> Result<Option<V>, TxError> {
        self.maybe_delay();
        self.inner_mut().read(key)
    }

    fn write(&mut self, key: Key, value: V) -> Result<(), TxError> {
        self.maybe_delay();
        self.inner_mut().write(key, value)
    }

    fn read_many(&mut self, keys: &[Key]) -> Result<Vec<Option<V>>, TxError> {
        self.maybe_delay();
        self.inner_mut().read_many(keys)
    }

    fn write_many(&mut self, entries: Vec<(Key, V)>) -> Result<(), TxError> {
        self.maybe_delay();
        self.inner_mut().write_many(entries)
    }

    fn commit(mut self: Box<Self>) -> Result<CommitInfo, TxError> {
        self.maybe_delay();
        self.inner.take().expect("faulty txn present").commit()
    }

    fn prepare(mut self: Box<Self>) -> Result<Box<dyn PreparedShardTxn<V>>, TxError> {
        let fault = self.plan.prepare_fault(self.shard, self.next_seq());
        let inner = self.inner.take().expect("faulty txn present");
        match fault {
            Some(PrepareFault::Crash) => {
                // The shard dies between `prepare` and the decision: whatever
                // volatile lock state the prepare built is lost, and the
                // restarted shard recovers by presumed abort. The coordinator
                // observes the prepare failing.
                if let Ok(prepared) = inner.prepare() {
                    prepared.abort();
                }
                return Err(TxError::aborted(AbortReason::ParticipantCrashed {
                    shard: self.shard as u32,
                }));
            }
            Some(PrepareFault::Stall(stall)) => thread::sleep(stall),
            Some(PrepareFault::DropResponse(_)) | None => {}
        }
        let prepared = inner.prepare()?;
        if let Some(PrepareFault::DropResponse(hold)) = fault {
            // The prepare succeeded and the shard holds its frozen locks, but
            // the response is withheld: the coordinator only learns by timing
            // out, and this late response resolves by presumed abort (the
            // coordinator's slot sweep aborts it on arrival).
            thread::sleep(hold);
        }
        Ok(Box::new(FaultyPrepared {
            inner: Some(prepared),
            plan: Arc::clone(&self.plan),
            shard: self.shard,
            seq: Arc::clone(&self.seq),
        }))
    }

    fn abort(mut self: Box<Self>) {
        if let Some(inner) = self.inner.take() {
            inner.abort();
        }
    }
}

/// [`PreparedShardTxn`] decorator: delays the coordinated commit (aborts stay
/// prompt so recovery drains fast).
struct FaultyPrepared<V> {
    inner: Option<Box<dyn PreparedShardTxn<V>>>,
    plan: Arc<FaultPlan>,
    shard: usize,
    seq: Arc<AtomicU64>,
}

impl<V> PreparedShardTxn<V> for FaultyPrepared<V>
where
    V: Clone + Send + Sync + 'static,
{
    fn interval(&self) -> &TsSet {
        self.inner
            .as_ref()
            .expect("faulty prepared present until decided")
            .interval()
    }

    fn commit_at(mut self: Box<Self>, ts: Timestamp) -> Result<CommitInfo, TxError> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if let Some(delay) = self.plan.op_delay(self.shard, seq) {
            thread::sleep(delay);
        }
        self.inner
            .take()
            .expect("faulty prepared present")
            .commit_at(ts)
    }

    fn abort(mut self: Box<Self>) {
        if let Some(inner) = self.inner.take() {
            inner.abort();
        }
    }
}
