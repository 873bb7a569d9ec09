//! The locking-policy interface (Algorithm 2) and the specialized policies of §5.
//!
//! The generic MVTL algorithm "depends on a policy of what locks to acquire,
//! how to pick one of many possible commit timestamps, and whether to garbage
//! collect during commit" (§4.3). [`LockingPolicy`] captures exactly those
//! choices; [`PolicyCtx`] is the window a policy gets onto the store (acquire
//! locks with or without waiting, consult the version chains, read the clock).

mod epsilon;
mod ghostbuster;
mod mvtil;
mod pessimistic;
mod pref;
mod prio;
mod to;

pub use epsilon::EpsilonPolicy;
pub use ghostbuster::GhostbusterPolicy;
pub use mvtil::{CommitPick, MvtilPolicy};
pub use pessimistic::PessimisticPolicy;
pub use pref::PrefPolicy;
pub use prio::PrioPolicy;
pub use to::ToPolicy;

use crate::txn::TxState;
use mvtl_common::{Key, ProcessId, Timestamp, TsRange, TsSet, TxError};

/// The result of a read-lock acquisition.
///
/// A read locks one interval starting just above the version it read
/// (Algorithm 1's `read`); once the reader commits, what survives of it is
/// that version's read mark (§3). So a grant is one range, never a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadGrant {
    /// Timestamp of the version the read will return (`tr` in Algorithm 1);
    /// [`Timestamp::ZERO`] denotes the initial `⊥` version.
    pub version: Timestamp,
    /// The timestamps actually read-locked: an interval starting at
    /// `version.succ()`, or `None` when nothing could be locked.
    pub granted: Option<TsRange>,
}

/// The store operations a policy may use to implement Algorithm 2.
///
/// Each method performs its work under the relevant per-key latch and keeps the
/// transaction's per-key records in [`TxState`] up to date.
pub trait PolicyCtx {
    /// Reads the clock as seen by `process` (respecting a pinned value for the
    /// transaction when one was supplied at begin), advancing it by `stride`
    /// ticks ([`ClockSource::now_by`](mvtl_clock::ClockSource::now_by)).
    /// Every policy but MVTIL passes 1; a pinned reading moves nothing.
    fn clock_value(&self, tx: &TxState, process: ProcessId, stride: u64) -> u64;

    /// Acquires read locks on `key` for the interval starting immediately after
    /// the latest committed version below `anchor_below` and extending up to
    /// `upper`.
    ///
    /// * With `wait = true` the call blocks (up to the configured timeout)
    ///   while timestamps in the interval are write-locked but not frozen,
    ///   exactly like the `repeat`/`wait` loops of Algorithms 4, 7, 8 and 10.
    /// * With `wait = false` it locks only the contiguous prefix that is
    ///   immediately grantable (MVTIL's interval shrinking).
    ///
    /// When a frozen write lock (i.e. a newly committed version) is discovered
    /// inside the interval, the acquisition re-anchors on the new version and
    /// retries, as in the paper's `repeat ... until found no frozen locks`.
    ///
    /// The lock table answers with one range in one scan of the key's live
    /// entries ([`KeyLockState::read_request`](mvtl_locks::KeyLockState::read_request)),
    /// and the grant and the version it anchored on go into the key's
    /// [`KeyRecord`](crate::KeyRecord) on `tx`, with no set built.
    ///
    /// A policy's `read_locks` calls this exactly once and returns the
    /// granted [`ReadGrant::version`]: the store clones that version's value
    /// under the same stripe latch, so a read takes one latch. The lock-wait
    /// deadline is computed at the first actual wait, so a grant that never
    /// waits reads no clock.
    ///
    /// # Errors
    ///
    /// * [`TxError::Aborted`] with `LockTimeout` if waiting exceeded the
    ///   configured bound;
    /// * [`TxError::Aborted`] with `VersionPurged` if the anchor version has
    ///   been purged.
    fn acquire_read_interval(
        &self,
        tx: &mut TxState,
        key: Key,
        anchor_below: Timestamp,
        upper: Timestamp,
        wait: bool,
    ) -> Result<ReadGrant, TxError>;

    /// Acquires write locks for `tx` on as many timestamps of `desired` as
    /// possible.
    ///
    /// * With `wait = true` the call blocks while any timestamp of `desired` is
    ///   locked (read or write) but not frozen by another transaction, then
    ///   grants everything except frozen conflicts (Algorithms 4, 6, 9).
    /// * With `wait = false` it grants exactly what is free right now
    ///   (Algorithms 3, 8 and MVTIL).
    ///
    /// The whole set is negotiated in one pass under one latch, however many
    /// ranges it holds, and the grant is the union of what each range would
    /// get on its own; a lock in a gap between the ranges does not count.
    /// Returns the set actually granted (possibly empty), a subset of
    /// `desired`.
    ///
    /// # Errors
    ///
    /// [`TxError::Aborted`] with `LockTimeout` if waiting exceeded the bound.
    fn acquire_write_range(
        &self,
        tx: &mut TxState,
        key: Key,
        desired: &TsSet,
        wait: bool,
    ) -> Result<TsSet, TxError>;

    /// Releases every unfrozen write lock the transaction holds, on all keys
    /// ("release all write locks for tx" in Algorithms 3, 8 and 10).
    fn release_unfrozen_write_locks(&self, tx: &mut TxState);

    /// The latest committed version of `key` strictly below `below`, without
    /// acquiring any lock. Used by policies that only need to inspect state.
    ///
    /// # Errors
    ///
    /// [`TxError::Aborted`] with `VersionPurged` if that version was purged.
    fn latest_version_before(&self, key: Key, below: Timestamp) -> Result<Timestamp, TxError>;
}

/// Write-locks as much of `tx.ts_set` on `key` as
/// [`PolicyCtx::acquire_write_range`] grants, and returns the grant: a subset
/// of `tx.ts_set`, which a policy that shrinks its candidates to what it
/// locked (ε-clock, MVTIL) takes as the new set.
pub(crate) fn acquire_within_ts_set(
    ctx: &dyn PolicyCtx,
    tx: &mut TxState,
    key: Key,
    wait: bool,
) -> Result<TsSet, TxError> {
    // The set leaves `tx` for the call, which records the grant on `tx`.
    let desired = std::mem::take(&mut tx.ts_set);
    let granted = ctx.acquire_write_range(tx, key, &desired, wait);
    tx.ts_set = desired;
    granted
}

/// Write-locks the single timestamp `ts` on every key `tx` wrote, in the
/// order it first wrote them, without cloning the write set. At the first
/// key refused, every unfrozen write lock `tx` holds is released and that
/// key returned ("if write-lock not acquired then release all write locks"
/// in Algorithms 3, 8 and 10).
pub(crate) fn write_lock_point(
    ctx: &dyn PolicyCtx,
    tx: &mut TxState,
    ts: Timestamp,
    wait: bool,
) -> Result<Option<Key>, TxError> {
    for index in 0..tx.written_keys().len() {
        let key = tx.written_keys()[index];
        let granted = ctx.acquire_write_range(tx, key, &TsSet::from_point(ts), wait)?;
        if !granted.contains(ts) {
            ctx.release_unfrozen_write_locks(tx);
            return Ok(Some(key));
        }
    }
    Ok(None)
}

/// A specialization of the generic MVTL algorithm: the five policy functions of
/// Algorithm 2 plus initialization and abort behaviour.
pub trait LockingPolicy: Send + Sync + 'static {
    /// Called by `begin`; corresponds to the `Initialization` functions of the
    /// specialized algorithms (obtain a clock value, set up `tx.TS`/`PossTS`).
    fn init(&self, ctx: &dyn PolicyCtx, tx: &mut TxState);

    /// `write-locks(tx, k)`: locks (or does not lock) timestamps when a write
    /// is executed.
    ///
    /// # Errors
    ///
    /// Returning an abort error aborts the transaction.
    fn write_locks(&self, ctx: &dyn PolicyCtx, tx: &mut TxState, key: Key) -> Result<(), TxError>;

    /// `read-locks(tx, k)`: selects the version to read and locks an interval
    /// immediately following it. Returns the version timestamp (`tr`),
    /// [`Timestamp::ZERO`] for the initial `⊥` version.
    ///
    /// The version must come from the one
    /// [`PolicyCtx::acquire_read_interval`] call the read makes: the store
    /// returns the value it cloned there, and refuses a read whose version
    /// differs with [`TxError::Internal`].
    ///
    /// # Errors
    ///
    /// Returning an abort error aborts the transaction.
    fn read_locks(
        &self,
        ctx: &dyn PolicyCtx,
        tx: &mut TxState,
        key: Key,
    ) -> Result<Timestamp, TxError>;

    /// `commit-locks(tx)`: locks acquired at commit time (e.g. write locks for
    /// policies that defer write locking).
    ///
    /// # Errors
    ///
    /// Returning an abort error aborts the transaction.
    fn commit_locks(&self, ctx: &dyn PolicyCtx, tx: &mut TxState) -> Result<(), TxError>;

    /// `commit-ts(T)`: picks the commit timestamp among the candidates `T`
    /// computed by the generic algorithm (Algorithm 1 line 13). Returning
    /// `None`, or a timestamp outside `candidates`, aborts the transaction.
    fn commit_ts(&self, tx: &TxState, candidates: &TsSet) -> Option<Timestamp>;

    /// The interval a participant *freezes* and reports to a cross-shard
    /// commit coordinator (§7): the subset of the lock-derived candidates `T`
    /// this policy is willing to commit at when it does not get to pick the
    /// timestamp itself.
    ///
    /// Every timestamp in `candidates` is covered by locks the transaction
    /// holds, so any subset is *safe*; the choice is about policy fidelity,
    /// not correctness. The default reports the full candidate set, which
    /// maximizes the chance that the coordinator finds a non-empty
    /// intersection across shards. Policies whose single-store pick is
    /// constrained to a window they maintain during execution (MVTIL's
    /// interval `I`, ε-clock's `tx.TS`) override this to narrow to that
    /// window, so a coordinator never serializes them outside their own
    /// discipline.
    fn prepared_interval(&self, tx: &TxState, candidates: &TsSet) -> TsSet {
        let _ = tx;
        candidates.clone()
    }

    /// `commit-gc(tx)`: whether to garbage collect the transaction's locks as
    /// part of commit. With it, a read lock survives the commit only up to
    /// the commit timestamp; without it, whole. Either way the surviving
    /// part becomes a frozen read run on the version read, and every live
    /// lock is released: this decides *which* timestamps stay locked, not
    /// where that state lives.
    fn commit_gc(&self, tx: &TxState) -> bool;

    /// Whether an *aborting* transaction releases its read locks.
    ///
    /// Timestamp locks make releasing on abort the natural choice ("if tx
    /// aborts, its read-locks are removed but the read-locks of other
    /// transactions remain", §3), and every policy does so — except
    /// [`ToPolicy`], which keeps them to faithfully emulate MVTO+'s
    /// read-timestamps and therefore exhibits MVTO+'s ghost aborts (§5.5).
    /// Kept read locks become frozen read runs on the versions read, as on
    /// a commit without [`commit_gc`](LockingPolicy::commit_gc).
    fn release_read_locks_on_abort(&self) -> bool {
        true
    }

    /// Short name used in reports and benchmarks.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_grant_shape() {
        let g = ReadGrant {
            version: Timestamp::at(3),
            granted: Some(TsRange::new(Timestamp::at(3).succ(), Timestamp::at(9))),
        };
        assert_eq!(g.version, Timestamp::at(3));
        let granted = g.granted.expect("a grant");
        assert!(granted.contains(Timestamp::at(5)));
        assert!(!granted.contains(Timestamp::at(3)));
    }
}
