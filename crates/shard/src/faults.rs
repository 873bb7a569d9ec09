//! A fault-injecting store decorator.
//!
//! [`Faulty`] wraps one shard's store and consults a seeded [`FaultPlan`]
//! (`mvtl-faults`) before forwarding each call, injecting the schedule's
//! per-operation delays, dropped/late prepare responses, shard stalls,
//! crashes mid-prepare, and per-shard clock skew. It is itself a
//! [`TransactionalKV`] whose transactions are the wrapped store's own, so
//! the store never knows: every fault is expressed through the ordinary
//! storage interface, and presumed abort is exercised against a *real*
//! engine, not a mock. The decorator plays the network between coordinator
//! and shard, so it is also what notices a prepare response that misses its
//! deadline: it fails the prepare with [`AbortReason::PrepareTimedOut`] at
//! once, and the coordinator needs no timer of its own.
//!
//! Fault semantics (one decision per sequence number, drawn from the plan):
//!
//! * **Delay** — sleep a deterministic number of microseconds before serving a
//!   read/write, a one-shard commit or a prepared commit.
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

use mvtl_common::{
    AbortReason, CommitInfo, Key, PreparedTxn, ProcessId, StoreStats, Timestamp, TransactionalKV,
    TsSet, TxError,
};
use mvtl_faults::{FaultPlan, PrepareFault};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

/// A [`TransactionalKV`] decorator that injects the faults of a seeded
/// [`FaultPlan`] between the cross-shard coordinator and the wrapped shard.
pub struct Faulty<S> {
    inner: Arc<S>,
    plan: Arc<FaultPlan>,
    shard: usize,
    /// Per-shard operation sequence: each fault decision consumes one number,
    /// so a single-threaded replay draws an identical fault schedule each run.
    seq: AtomicU64,
    /// Separate stream for `begin` skew events, so adding `skew:` to a spec
    /// does not shift the delay/prepare decision sequence.
    begin_seq: AtomicU64,
}

impl<S> Faulty<S> {
    /// Wraps `inner` as shard `shard` of `plan`.
    #[must_use]
    pub fn new(inner: Arc<S>, plan: Arc<FaultPlan>, shard: usize) -> Self {
        Faulty {
            inner,
            plan,
            shard,
            seq: AtomicU64::new(0),
            begin_seq: AtomicU64::new(0),
        }
    }

    /// Sleeps for the plan's delay at the next sequence number, if any.
    fn maybe_delay(&self) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if let Some(delay) = self.plan.op_delay(self.shard, seq) {
            thread::sleep(delay);
        }
    }
}

impl<V, S> TransactionalKV<V> for Faulty<S>
where
    V: Clone + Send + Sync + 'static,
    S: TransactionalKV<V> + 'static,
{
    type Txn = S::Txn;

    fn begin_at(&self, process: ProcessId, pinned: Option<Timestamp>) -> Self::Txn {
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
        self.inner.begin_at(process, pinned)
    }

    fn read(&self, txn: &mut Self::Txn, key: Key) -> Result<Option<V>, TxError> {
        self.maybe_delay();
        self.inner.read(txn, key)
    }

    fn write(&self, txn: &mut Self::Txn, key: Key, value: V) -> Result<(), TxError> {
        self.maybe_delay();
        self.inner.write(txn, key, value)
    }

    fn commit(&self, txn: Self::Txn) -> Result<CommitInfo, TxError> {
        self.maybe_delay();
        self.inner.commit(txn)
    }

    fn abort(&self, txn: Self::Txn) {
        self.inner.abort(txn);
    }

    fn prepare(store: &Arc<Self>, txn: Self::Txn) -> Result<Box<dyn PreparedTxn<V>>, TxError> {
        let seq = store.seq.fetch_add(1, Ordering::Relaxed);
        let (shard, inner) = (store.shard, &store.inner);
        match store.plan.prepare_fault(shard, seq) {
            None => Ok(Box::new(FaultyPrepared {
                inner: S::prepare(inner, txn)?,
                store: Arc::clone(store),
            })),
            Some(PrepareFault::Crash) => {
                // The shard dies between `prepare` and the decision: whatever
                // volatile lock state the prepare built is lost, and the
                // restarted shard recovers by presumed abort. The coordinator
                // observes the prepare failing.
                if let Ok(prepared) = S::prepare(inner, txn) {
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
                if let Ok(prepared) = S::prepare(inner, txn) {
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
                let inner = Arc::clone(inner);
                thread::spawn(move || {
                    thread::sleep(stall);
                    if let Ok(prepared) = S::prepare(&inner, txn) {
                        prepared.abort();
                    }
                });
                Err(TxError::aborted(AbortReason::PrepareTimedOut {
                    shard: shard as u32,
                }))
            }
        }
    }

    fn name(&self) -> &'static str {
        self.inner.name()
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

    fn recover_install(&self, writes: Vec<(Key, V)>, commit_ts: Timestamp) -> Result<(), TxError> {
        // Recovery runs before the workload restarts; faults apply to live
        // traffic only.
        self.inner.recover_install(writes, commit_ts)
    }
}

/// [`PreparedTxn`] decorator: delays the coordinated commit (aborts stay
/// prompt so recovery drains fast).
struct FaultyPrepared<V, S> {
    inner: Box<dyn PreparedTxn<V>>,
    store: Arc<Faulty<S>>,
}

impl<V, S> PreparedTxn<V> for FaultyPrepared<V, S>
where
    V: Send,
    S: Send + Sync,
{
    fn interval(&self) -> &TsSet {
        self.inner.interval()
    }

    fn commit_at(self: Box<Self>, ts: Timestamp) -> Result<CommitInfo, TxError> {
        self.store.maybe_delay();
        self.inner.commit_at(ts)
    }

    fn abort(self: Box<Self>) {
        self.inner.abort();
    }
}
