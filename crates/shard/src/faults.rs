//! Fault-injecting decorators over the shard participant seam.
//!
//! [`FaultyBackend`] wraps any [`ShardBackend`] and consults a seeded
//! [`FaultPlan`] (`mvtl-faults`) before forwarding each call, injecting the
//! schedule's per-operation delays, dropped/late prepare responses, shard
//! stalls, crashes mid-prepare, and per-shard clock skew. The wrapped shard
//! never knows: every fault is expressed through the ordinary participant
//! interface, so presumed abort is exercised against a *real* engine, not a
//! mock. The decorator plays the network between coordinator and shard, so
//! it is also what notices a prepare response that misses its deadline: it
//! fails the prepare with [`AbortReason::PrepareTimedOut`] at once, and the
//! coordinator needs no timer of its own.
//!
//! Fault semantics (one decision per sequence number, drawn from the plan):
//!
//! * **Delay** — sleep a deterministic number of microseconds before serving a
//!   read/write or a prepared commit.
//! * **Stall** — the shard does not serve `prepare` for the schedule's stall
//!   time. The coordinator sees the deadline missed; a detached thread
//!   stands in for the slow shard, which prepares once the stall ends, hears
//!   no decision and aborts (presumed abort).
//! * **Drop** — the prepare *succeeds* and the shard holds its frozen locks,
//!   but the response never arrives: the coordinator sees the deadline
//!   missed, while a detached thread keeps the prepared sub-transaction for
//!   the schedule's hold time and then aborts it (presumed abort).
//! * **Crash** — the shard "dies" between `prepare` and the decision: its
//!   volatile lock state is released (a restarted shard recovers by presumed
//!   abort) and the coordinator sees the prepare fail with
//!   [`AbortReason::ParticipantCrashed`].
//! * **Skew** — the pinned begin timestamp is offset by a constant per-shard
//!   tick count, the ε-clock scenario of the skewed-clock schedule.

use crate::backend::ShardBackend;
use mvtl_common::{
    AbortReason, CommitInfo, Key, PreparedTxn, ProcessId, StoreStats, Timestamp, TsSet, TxError,
    TxHandle,
};
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
    fn begin(&self, process: ProcessId, pinned: Option<Timestamp>) -> Box<dyn TxHandle<V>> {
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
            inner: self.inner.begin(process, pinned),
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
}

/// [`TxHandle`] decorator: delays operations and perturbs `prepare` per the
/// plan's decisions.
struct FaultyTxn<V> {
    inner: Box<dyn TxHandle<V>>,
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
}

impl<V> TxHandle<V> for FaultyTxn<V>
where
    V: Clone + Send + Sync + 'static,
{
    fn read(&mut self, key: Key) -> Result<Option<V>, TxError> {
        self.maybe_delay();
        self.inner.read(key)
    }

    fn write(&mut self, key: Key, value: V) -> Result<(), TxError> {
        self.maybe_delay();
        self.inner.write(key, value)
    }

    fn commit(self: Box<Self>) -> Result<CommitInfo, TxError> {
        self.maybe_delay();
        let FaultyTxn { inner, .. } = *self;
        inner.commit()
    }

    fn prepare(self: Box<Self>) -> Result<Box<dyn PreparedTxn<V>>, TxError> {
        let fault = self.plan.prepare_fault(self.shard, self.next_seq());
        let FaultyTxn {
            inner,
            plan,
            shard,
            seq,
        } = *self;
        match fault {
            None => Ok(Box::new(FaultyPrepared {
                inner: inner.prepare()?,
                plan,
                shard,
                seq,
            })),
            Some(PrepareFault::Crash) => {
                // The shard dies between `prepare` and the decision: whatever
                // volatile lock state the prepare built is lost, and the
                // restarted shard recovers by presumed abort. The coordinator
                // observes the prepare failing.
                if let Ok(prepared) = inner.prepare() {
                    prepared.abort();
                }
                Err(TxError::aborted(AbortReason::ParticipantCrashed {
                    shard: shard as u32,
                }))
            }
            Some(PrepareFault::DropResponse(hold)) => {
                // The shard prepares and holds its frozen locks, but the
                // response is lost. The participant side of presumed abort:
                // hear no decision for `hold`, then abort.
                if let Ok(prepared) = inner.prepare() {
                    thread::spawn(move || {
                        thread::sleep(hold);
                        prepared.abort();
                    });
                }
                Err(TxError::aborted(AbortReason::PrepareTimedOut {
                    shard: shard as u32,
                }))
            }
            Some(PrepareFault::Stall(stall)) => {
                // The shard serves the prepare only after `stall`, long past
                // the deadline, and then finds no decision: it aborts.
                thread::spawn(move || {
                    thread::sleep(stall);
                    if let Ok(prepared) = inner.prepare() {
                        prepared.abort();
                    }
                });
                Err(TxError::aborted(AbortReason::PrepareTimedOut {
                    shard: shard as u32,
                }))
            }
        }
    }

    fn abort(self: Box<Self>) {
        self.inner.abort();
    }
}

/// [`PreparedTxn`] decorator: delays the coordinated commit (aborts stay
/// prompt so recovery drains fast).
struct FaultyPrepared<V> {
    inner: Box<dyn PreparedTxn<V>>,
    plan: Arc<FaultPlan>,
    shard: usize,
    seq: Arc<AtomicU64>,
}

impl<V> PreparedTxn<V> for FaultyPrepared<V>
where
    V: Clone + Send + Sync + 'static,
{
    fn interval(&self) -> &TsSet {
        self.inner.interval()
    }

    fn commit_at(self: Box<Self>, ts: Timestamp) -> Result<CommitInfo, TxError> {
        let FaultyPrepared {
            inner,
            plan,
            shard,
            seq,
        } = *self;
        if let Some(delay) = plan.op_delay(shard, seq.fetch_add(1, Ordering::Relaxed)) {
            thread::sleep(delay);
        }
        inner.commit_at(ts)
    }

    fn abort(self: Box<Self>) {
        self.inner.abort();
    }
}
