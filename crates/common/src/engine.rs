//! The object-safe engine layer: `dyn`-friendly handles over any
//! [`TransactionalKV`] engine.
//!
//! [`TransactionalKV`] has an associated `Txn` type, which makes it precise but
//! not object-safe: every consumer (workload runner, verifier, benchmarks) had
//! to be monomorphized per engine. This module adds the uniform surface the
//! paper's comparisons call for:
//!
//! * [`Engine`] — an object-safe trait whose `begin_handle` returns a boxed
//!   [`TxHandle`]. A blanket impl derives it for **every** `TransactionalKV`
//!   engine, so the MVTL policies, MVTO+ and 2PL all become `Box<dyn Engine<V>>`
//!   for free.
//! * [`Transaction`] — an owned RAII guard around a handle: `read`/`write`/
//!   `commit` methods, and **abort on drop**. Forgetting to abort can no longer
//!   leak lock-table entries.
//! * [`EngineExt`] — ergonomic helpers on any engine (including trait
//!   objects): [`EngineExt::begin`] and the [`EngineExt::run`] retry loop with
//!   seeded exponential backoff that records how many attempts a transaction
//!   needed.
//!
//! The string-spec registry in the `mvtl-registry` crate builds
//! `Box<dyn Engine<V>>` values from specs like `"mvtil-early?delta=1000"`.

use crate::kv::{CommitInfo, StoreStats};
use crate::{Key, ProcessId, Timestamp, TransactionalKV, TxError};
use std::marker::PhantomData;
use std::time::Duration;

/// An in-flight transaction, detached from the engine's concrete `Txn` type.
///
/// Handles are produced by [`Engine::begin_handle`] and are usually consumed
/// through the [`Transaction`] RAII guard rather than directly; `commit` and
/// `abort` take `self: Box<Self>` so that a finished handle cannot be reused.
pub trait TxHandle<V>: Send {
    /// Reads `key` within the transaction. `Ok(None)` is the initial `⊥`
    /// version.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Aborted`] when the engine aborts the transaction;
    /// the handle must then be dropped or passed to [`TxHandle::abort`].
    fn read(&mut self, key: Key) -> Result<Option<V>, TxError>;

    /// Writes `value` to `key` within the transaction.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Aborted`] when eager lock acquisition fails.
    fn write(&mut self, key: Key, value: V) -> Result<(), TxError>;

    /// Reads every key of `keys`, returning values in input order.
    ///
    /// The default loops over [`TxHandle::read`]; the blanket impl over
    /// [`TransactionalKV`] forwards to the engine's native
    /// [`read_many`](TransactionalKV::read_many), so batch-aware engines keep
    /// their fast path through the object-safe layer.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Aborted`] when the engine aborts the transaction.
    fn read_many(&mut self, keys: &[Key]) -> Result<Vec<Option<V>>, TxError> {
        keys.iter().map(|key| self.read(*key)).collect()
    }

    /// Writes every `(key, value)` pair of `entries`, in order (last value
    /// wins for repeated keys).
    ///
    /// The default loops over [`TxHandle::write`]; the blanket impl forwards
    /// to the engine's native [`write_many`](TransactionalKV::write_many).
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Aborted`] when eager lock acquisition fails.
    fn write_many(&mut self, entries: Vec<(Key, V)>) -> Result<(), TxError> {
        for (key, value) in entries {
            self.write(key, value)?;
        }
        Ok(())
    }

    /// Attempts to commit the transaction, consuming the handle.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Aborted`] when no serialization point was found; the
    /// transaction is fully cleaned up in that case.
    fn commit(self: Box<Self>) -> Result<CommitInfo, TxError>;

    /// Aborts the transaction, releasing any engine state it holds.
    fn abort(self: Box<Self>);
}

/// An object-safe transactional key-value engine.
///
/// Unlike [`TransactionalKV`] this trait has no associated types, so
/// `Box<dyn Engine<V>>` works and one call site can drive every protocol in
/// the workspace. A blanket impl covers all `TransactionalKV` engines; the
/// convenience methods ([`begin`](EngineExt::begin), [`run`](EngineExt::run))
/// live on [`EngineExt`] so this trait stays object-safe.
///
/// # Example
///
/// The `transfer` pattern, written once against `dyn Engine` and retried
/// through [`EngineExt::run`] until it commits:
///
/// ```
/// # use mvtl_common::{CommitInfo, Key, ProcessId, Timestamp, TransactionalKV, TxError, TxId};
/// # use std::collections::HashMap;
/// # use parking_lot::Mutex;
/// # #[derive(Default)]
/// # struct Toy { data: Mutex<HashMap<Key, u64>> }
/// # struct ToyTxn { reads: Vec<(Key, Timestamp)>, writes: Vec<(Key, u64)> }
/// # impl TransactionalKV<u64> for Toy {
/// #     type Txn = ToyTxn;
/// #     fn begin_at(&self, _p: ProcessId, _t: Option<Timestamp>) -> ToyTxn {
/// #         ToyTxn { reads: Vec::new(), writes: Vec::new() }
/// #     }
/// #     fn read(&self, txn: &mut ToyTxn, key: Key) -> Result<Option<u64>, TxError> {
/// #         txn.reads.push((key, Timestamp::ZERO));
/// #         Ok(txn.writes.iter().rev().find(|(k, _)| *k == key).map(|(_, v)| *v)
/// #             .or_else(|| self.data.lock().get(&key).copied()))
/// #     }
/// #     fn write(&self, txn: &mut ToyTxn, key: Key, value: u64) -> Result<(), TxError> {
/// #         txn.writes.push((key, value));
/// #         Ok(())
/// #     }
/// #     fn commit(&self, txn: ToyTxn) -> Result<CommitInfo, TxError> {
/// #         let mut data = self.data.lock();
/// #         let writes: Vec<Key> = txn.writes.iter().map(|(k, _)| *k).collect();
/// #         for (k, v) in txn.writes { data.insert(k, v); }
/// #         Ok(CommitInfo { tx: TxId(0), commit_ts: None, reads: txn.reads, writes })
/// #     }
/// #     fn abort(&self, _txn: ToyTxn) {}
/// #     fn name(&self) -> &'static str { "toy" }
/// # }
/// use mvtl_common::{Engine, EngineExt, RetryOptions};
///
/// fn transfer(
///     engine: &dyn Engine<u64>,
///     from: Key,
///     to: Key,
///     amount: u64,
/// ) -> Result<u32, TxError> {
///     let report = engine.run(ProcessId(0), &RetryOptions::default(), |tx| {
///         let a = tx.read(from)?.unwrap_or(0);
///         let b = tx.read(to)?.unwrap_or(0);
///         tx.write(from, a.saturating_sub(amount))?;
///         tx.write(to, b + amount)?;
///         Ok(())
///     })?;
///     Ok(report.attempts) // how many tries the retry loop needed
/// }
///
/// let store = Toy::default();
/// let engine: &dyn Engine<u64> = &store; // blanket impl: any TransactionalKV
/// let attempts = transfer(engine, Key(1), Key(2), 10)?;
/// assert_eq!(attempts, 1);
///
/// // A dropped (uncommitted) transaction aborts automatically — RAII.
/// let tx = engine.begin(ProcessId(1));
/// drop(tx);
/// # Ok::<(), TxError>(())
/// ```
pub trait Engine<V>: Send + Sync {
    /// Begins a transaction on behalf of `process`, optionally pinning the
    /// clock value it observes (used by the verifier to replay the paper's
    /// pinned-timestamp schedules).
    fn begin_handle(
        &self,
        process: ProcessId,
        pinned: Option<Timestamp>,
    ) -> Box<dyn TxHandle<V> + '_>;

    /// A short human-readable engine name ("mvtil-early", "mvto+", "2pl", ...).
    ///
    /// The `mvtl-registry` crate guarantees that this matches the base name of
    /// the spec the engine was built from.
    fn name(&self) -> &'static str;

    // --- Maintenance surface (§6 / §8.1) ------------------------------------
    //
    // Mirrors [`TransactionalKV`]'s maintenance methods through the
    // object-safe layer, so a garbage collector (`mvtl-gc`) can drive any
    // `dyn Engine<V>` without knowing the concrete store type. The blanket
    // impl forwards to the engine's `TransactionalKV` implementation.

    /// Aggregate state-size statistics (keys, versions, lock entries).
    fn stats(&self) -> StoreStats {
        StoreStats::default()
    }

    /// Purges versions and lock state older than `bound` (§6). Returns
    /// `(versions_removed, lock_entries_removed)`. Safe only at or below
    /// [`Engine::low_watermark`] (plus caller-maintained slack); transactions
    /// that still need purged state abort with `VersionPurged`.
    fn purge_below(&self, bound: Timestamp) -> (usize, usize) {
        let _ = bound;
        (0, 0)
    }

    /// The smallest timestamp any in-flight transaction may still anchor a
    /// read on, or `None` when no transaction is active (or untracked).
    fn low_watermark(&self) -> Option<Timestamp> {
        None
    }
}

/// Adapter giving every [`TransactionalKV`] engine the object-safe [`Engine`]
/// surface: the handle pairs the store reference with the concrete `Txn`.
struct KvHandle<'a, V, S: TransactionalKV<V>> {
    store: &'a S,
    txn: S::Txn,
    _values: PhantomData<fn() -> V>,
}

impl<V, S: TransactionalKV<V>> TxHandle<V> for KvHandle<'_, V, S> {
    fn read(&mut self, key: Key) -> Result<Option<V>, TxError> {
        self.store.read(&mut self.txn, key)
    }

    fn write(&mut self, key: Key, value: V) -> Result<(), TxError> {
        self.store.write(&mut self.txn, key, value)
    }

    fn read_many(&mut self, keys: &[Key]) -> Result<Vec<Option<V>>, TxError> {
        self.store.read_many(&mut self.txn, keys)
    }

    fn write_many(&mut self, entries: Vec<(Key, V)>) -> Result<(), TxError> {
        self.store.write_many(&mut self.txn, entries)
    }

    fn commit(self: Box<Self>) -> Result<CommitInfo, TxError> {
        self.store.commit(self.txn)
    }

    fn abort(self: Box<Self>) {
        self.store.abort(self.txn);
    }
}

impl<V, S> Engine<V> for S
where
    V: 'static,
    S: TransactionalKV<V>,
    S::Txn: 'static,
{
    fn begin_handle(
        &self,
        process: ProcessId,
        pinned: Option<Timestamp>,
    ) -> Box<dyn TxHandle<V> + '_> {
        Box::new(KvHandle {
            store: self,
            txn: self.begin_at(process, pinned),
            _values: PhantomData,
        })
    }

    fn name(&self) -> &'static str {
        TransactionalKV::name(self)
    }

    fn stats(&self) -> StoreStats {
        TransactionalKV::stats(self)
    }

    fn purge_below(&self, bound: Timestamp) -> (usize, usize) {
        TransactionalKV::purge_below(self, bound)
    }

    fn low_watermark(&self) -> Option<Timestamp> {
        TransactionalKV::low_watermark(self)
    }
}

/// An owned transaction guard that **aborts on drop**.
///
/// Obtained from [`EngineExt::begin`] (or [`Transaction::from_handle`]).
/// Dropping a guard that was neither committed nor explicitly aborted calls
/// the engine's abort path, releasing lock-table entries — a forgotten abort
/// can no longer leak engine state.
pub struct Transaction<'e, V> {
    handle: Option<Box<dyn TxHandle<V> + 'e>>,
}

impl<'e, V> Transaction<'e, V> {
    /// Wraps a raw handle in the RAII guard.
    #[must_use]
    pub fn from_handle(handle: Box<dyn TxHandle<V> + 'e>) -> Self {
        Transaction {
            handle: Some(handle),
        }
    }

    fn handle_mut(&mut self) -> &mut (dyn TxHandle<V> + 'e) {
        self.handle
            .as_deref_mut()
            .expect("transaction handle present until commit/abort")
    }

    /// Reads `key` within the transaction. `Ok(None)` is the initial `⊥`
    /// version.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Aborted`] when the engine aborts the transaction;
    /// the guard should then be dropped (which releases engine state).
    pub fn read(&mut self, key: Key) -> Result<Option<V>, TxError> {
        self.handle_mut().read(key)
    }

    /// Writes `value` to `key` within the transaction.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Aborted`] when eager lock acquisition fails.
    pub fn write(&mut self, key: Key, value: V) -> Result<(), TxError> {
        self.handle_mut().write(key, value)
    }

    /// Reads every key of `keys` in one batched operation, returning the
    /// values in input order. Batch-aware engines deduplicate repeated keys
    /// and acquire their locks in one sorted pass.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Aborted`] when the engine aborts the transaction;
    /// the guard should then be dropped (which releases engine state).
    pub fn read_many(&mut self, keys: &[Key]) -> Result<Vec<Option<V>>, TxError> {
        self.handle_mut().read_many(keys)
    }

    /// Writes every `(key, value)` pair of `entries` in one batched operation
    /// (last value wins for repeated keys, as with sequential writes).
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Aborted`] when eager lock acquisition fails.
    pub fn write_many(&mut self, entries: Vec<(Key, V)>) -> Result<(), TxError> {
        self.handle_mut().write_many(entries)
    }

    /// Attempts to commit, consuming the guard.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Aborted`] when no serialization point was found; the
    /// engine has fully cleaned up the transaction in that case.
    pub fn commit(mut self) -> Result<CommitInfo, TxError> {
        self.handle
            .take()
            .expect("transaction handle present until commit/abort")
            .commit()
    }

    /// Aborts explicitly, consuming the guard. Equivalent to dropping it.
    pub fn abort(mut self) {
        if let Some(handle) = self.handle.take() {
            handle.abort();
        }
    }
}

impl<V> Drop for Transaction<'_, V> {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.abort();
        }
    }
}

impl<V> std::fmt::Debug for Transaction<'_, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transaction")
            .field("open", &self.handle.is_some())
            .finish()
    }
}

/// Options of the [`EngineExt::run`] retry loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryOptions {
    /// Maximum transaction attempts before giving up (at least 1).
    pub max_attempts: u32,
    /// Base backoff slept after the first failed attempt; doubles every
    /// further attempt. [`Duration::ZERO`] disables sleeping.
    pub base_backoff: Duration,
    /// Upper bound on a single backoff sleep.
    pub max_backoff: Duration,
    /// Seed of the deterministic jitter stream (half to full backoff).
    pub seed: u64,
}

impl Default for RetryOptions {
    fn default() -> Self {
        RetryOptions {
            max_attempts: 16,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(5),
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl RetryOptions {
    /// Returns options with the given attempt budget.
    #[must_use]
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Returns options with the given jitter seed, for reproducible runs.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns options that never sleep between attempts (for tests and
    /// single-threaded replays).
    #[must_use]
    pub fn without_backoff(mut self) -> Self {
        self.base_backoff = Duration::ZERO;
        self
    }
}

/// The result of a successful [`EngineExt::run`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport<T> {
    /// Value returned by the transaction body on the committing attempt.
    pub value: T,
    /// Commit information reported by the engine.
    pub info: CommitInfo,
    /// Number of attempts the transaction needed (1 = first try).
    pub attempts: u32,
}

/// SplitMix64 step — a tiny deterministic stream for backoff jitter, so
/// `mvtl-common` needs no RNG dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn backoff_duration(options: &RetryOptions, attempt: u32, jitter: &mut u64) -> Duration {
    if options.base_backoff.is_zero() {
        return Duration::ZERO;
    }
    let exp = attempt.saturating_sub(1).min(20);
    let raw = options
        .base_backoff
        .saturating_mul(1u32 << exp)
        .min(options.max_backoff);
    let nanos = raw.as_nanos().min(u128::from(u64::MAX)) as u64;
    // Jitter into [nanos/2, nanos] to decorrelate contending clients.
    let jittered = nanos / 2 + splitmix64(jitter) % (nanos / 2 + 1);
    Duration::from_nanos(jittered)
}

/// Ergonomic helpers available on every engine, **including trait objects**
/// (`Box<dyn Engine<V>>`, `&dyn Engine<V>`). Blanket-implemented; never used
/// as a trait object itself, which is what lets its methods be generic.
pub trait EngineExt<V>: Engine<V> {
    /// Begins a transaction guarded by the RAII [`Transaction`] wrapper.
    ///
    /// Note for engine authors: on a *concrete* store type this method shares
    /// its name with [`TransactionalKV::begin`], so a module that imports both
    /// traits must disambiguate (`EngineExt::begin(&store, ..)`) or coerce to
    /// `&dyn Engine<V>` first. Consumers of the dyn layer — the normal case —
    /// never hit this, because `dyn Engine<V>` does not implement
    /// `TransactionalKV`.
    fn begin(&self, process: ProcessId) -> Transaction<'_, V> {
        Transaction::from_handle(self.begin_handle(process, None))
    }

    /// Begins a transaction pinned to a specific clock reading (for schedule
    /// replays).
    fn begin_pinned(&self, process: ProcessId, pinned: Timestamp) -> Transaction<'_, V> {
        Transaction::from_handle(self.begin_handle(process, Some(pinned)))
    }

    /// Runs `body` inside a transaction, retrying aborted attempts with seeded
    /// exponential backoff until it commits or the attempt budget is spent.
    ///
    /// The attempt count is recorded in the returned [`RunReport`]. Abort
    /// errors (from the body or from commit) trigger a retry; any other error
    /// is returned immediately. A failed attempt's transaction is dropped,
    /// which aborts it (RAII).
    ///
    /// # Errors
    ///
    /// Returns the last abort error once `max_attempts` attempts all aborted,
    /// or the first non-abort error the body/commit produced.
    fn run<T, F>(
        &self,
        process: ProcessId,
        options: &RetryOptions,
        mut body: F,
    ) -> Result<RunReport<T>, TxError>
    where
        F: FnMut(&mut Transaction<'_, V>) -> Result<T, TxError>,
    {
        let mut jitter = options.seed;
        let mut last = TxError::aborted(crate::AbortReason::UserRequested);
        let budget = options.max_attempts.max(1);
        for attempt in 1..=budget {
            let mut tx = self.begin(process);
            match body(&mut tx) {
                Ok(value) => match tx.commit() {
                    Ok(info) => {
                        return Ok(RunReport {
                            value,
                            info,
                            attempts: attempt,
                        })
                    }
                    Err(err) if err.is_abort() => last = err,
                    Err(err) => return Err(err),
                },
                Err(err) if err.is_abort() => {
                    drop(tx); // RAII abort releases the attempt's locks.
                    last = err;
                }
                Err(err) => return Err(err),
            }
            if attempt < budget {
                let pause = backoff_duration(options, attempt, &mut jitter);
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
            }
        }
        Err(last)
    }
}

impl<V, E: Engine<V> + ?Sized> EngineExt<V> for E {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AbortReason, TxId};
    use parking_lot::Mutex;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A deliberately simple engine: no concurrency control, but it counts
    /// begin/commit/abort calls so the RAII and retry plumbing can be checked
    /// without pulling real engines into `mvtl-common`.
    #[derive(Default)]
    struct CountingStore {
        data: Mutex<HashMap<Key, u64>>,
        begins: AtomicU64,
        commits: AtomicU64,
        aborts: AtomicU64,
        /// Abort the first N commit attempts, to exercise the retry loop.
        fail_commits: AtomicU64,
    }

    struct CountingTxn {
        reads: Vec<(Key, Timestamp)>,
        writes: Vec<(Key, u64)>,
    }

    impl TransactionalKV<u64> for CountingStore {
        type Txn = CountingTxn;

        fn begin_at(&self, _process: ProcessId, _pinned: Option<Timestamp>) -> Self::Txn {
            self.begins.fetch_add(1, Ordering::Relaxed);
            CountingTxn {
                reads: Vec::new(),
                writes: Vec::new(),
            }
        }

        fn read(&self, txn: &mut Self::Txn, key: Key) -> Result<Option<u64>, TxError> {
            txn.reads.push((key, Timestamp::ZERO));
            Ok(txn
                .writes
                .iter()
                .rev()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| *v)
                .or_else(|| self.data.lock().get(&key).copied()))
        }

        fn write(&self, txn: &mut Self::Txn, key: Key, value: u64) -> Result<(), TxError> {
            txn.writes.push((key, value));
            Ok(())
        }

        fn commit(&self, txn: Self::Txn) -> Result<CommitInfo, TxError> {
            if self
                .fail_commits
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
            {
                return Err(TxError::aborted(AbortReason::NoCommonTimestamp));
            }
            self.commits.fetch_add(1, Ordering::Relaxed);
            let mut data = self.data.lock();
            let writes: Vec<Key> = txn.writes.iter().map(|(k, _)| *k).collect();
            for (k, v) in txn.writes {
                data.insert(k, v);
            }
            Ok(CommitInfo {
                tx: TxId(0),
                commit_ts: None,
                reads: txn.reads,
                writes,
            })
        }

        fn abort(&self, _txn: Self::Txn) {
            self.aborts.fetch_add(1, Ordering::Relaxed);
        }

        fn name(&self) -> &'static str {
            "counting"
        }
    }

    fn engine(store: &CountingStore) -> &dyn Engine<u64> {
        store
    }

    #[test]
    fn blanket_impl_provides_the_dyn_surface() {
        let store = CountingStore::default();
        let e = engine(&store);
        assert_eq!(e.name(), "counting");
        let mut tx = e.begin(ProcessId(1));
        tx.write(Key(1), 5).unwrap();
        assert_eq!(tx.read(Key(1)).unwrap(), Some(5));
        let info = tx.commit().unwrap();
        assert_eq!(info.writes, vec![Key(1)]);
        assert_eq!(store.commits.load(Ordering::Relaxed), 1);
        assert_eq!(store.aborts.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn batched_defaults_loop_through_the_dyn_surface() {
        let store = CountingStore::default();
        let e = engine(&store);
        let mut tx = e.begin(ProcessId(1));
        tx.write_many(vec![(Key(1), 10), (Key(2), 20), (Key(1), 11)])
            .unwrap();
        assert_eq!(
            tx.read_many(&[Key(2), Key(1), Key(3)]).unwrap(),
            vec![Some(20), Some(11), None]
        );
        let info = tx.commit().unwrap();
        assert_eq!(info.writes, vec![Key(1), Key(2), Key(1)]);
        // And the committed values are visible to a fresh transaction.
        let mut tx = e.begin(ProcessId(2));
        assert_eq!(
            tx.read_many(&[Key(1), Key(2)]).unwrap(),
            vec![Some(11), Some(20)]
        );
    }

    #[test]
    fn dropping_an_uncommitted_transaction_aborts_it() {
        let store = CountingStore::default();
        {
            let mut tx = engine(&store).begin(ProcessId(1));
            tx.write(Key(1), 5).unwrap();
            // No commit: the guard must abort on drop.
        }
        assert_eq!(store.aborts.load(Ordering::Relaxed), 1);
        assert_eq!(store.commits.load(Ordering::Relaxed), 0);
        // And the write is invisible.
        let mut tx = engine(&store).begin(ProcessId(2));
        assert_eq!(tx.read(Key(1)).unwrap(), None);
    }

    #[test]
    fn explicit_abort_consumes_the_guard_once() {
        let store = CountingStore::default();
        let tx = engine(&store).begin(ProcessId(1));
        tx.abort();
        assert_eq!(store.aborts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn commit_does_not_double_abort() {
        let store = CountingStore::default();
        let mut tx = engine(&store).begin(ProcessId(1));
        tx.write(Key(9), 1).unwrap();
        tx.commit().unwrap();
        assert_eq!(store.aborts.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn run_commits_on_first_attempt() {
        let store = CountingStore::default();
        let report = engine(&store)
            .run(ProcessId(1), &RetryOptions::default(), |tx| {
                tx.write(Key(1), 10)?;
                tx.read(Key(1))
            })
            .unwrap();
        assert_eq!(report.attempts, 1);
        assert_eq!(report.value, Some(10));
        assert_eq!(report.info.writes, vec![Key(1)]);
    }

    #[test]
    fn run_retries_aborted_commits_and_records_attempts() {
        let store = CountingStore::default();
        store.fail_commits.store(2, Ordering::Relaxed);
        let options = RetryOptions::default().without_backoff().with_seed(7);
        let report = engine(&store)
            .run(ProcessId(1), &options, |tx| tx.write(Key(3), 1))
            .unwrap();
        assert_eq!(report.attempts, 3);
        assert_eq!(store.begins.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn run_gives_up_after_the_attempt_budget() {
        let store = CountingStore::default();
        store.fail_commits.store(u64::MAX, Ordering::Relaxed);
        let options = RetryOptions::default()
            .without_backoff()
            .with_max_attempts(4);
        let err = engine(&store)
            .run(ProcessId(1), &options, |tx| tx.write(Key(3), 1))
            .unwrap_err();
        assert!(err.is_abort());
        assert_eq!(store.begins.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn run_propagates_non_abort_errors_immediately() {
        let store = CountingStore::default();
        let err = engine(&store)
            .run(ProcessId(1), &RetryOptions::default(), |_tx| {
                Err::<(), _>(TxError::Internal("bug".into()))
            })
            .unwrap_err();
        assert_eq!(err, TxError::Internal("bug".into()));
        // The failed attempt's transaction was aborted via RAII.
        assert_eq!(store.aborts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn run_retries_body_aborts() {
        let store = CountingStore::default();
        let mut first = true;
        let options = RetryOptions::default().without_backoff();
        let report = engine(&store)
            .run(ProcessId(1), &options, |tx| {
                if std::mem::take(&mut first) {
                    return Err(TxError::aborted(AbortReason::WriteConflict { key: Key(1) }));
                }
                tx.write(Key(1), 2)
            })
            .unwrap();
        assert_eq!(report.attempts, 2);
        assert_eq!(store.aborts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let options = RetryOptions {
            max_attempts: 8,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(1),
            seed: 42,
        };
        let mut jitter_a = options.seed;
        let mut jitter_b = options.seed;
        for attempt in 1..=8 {
            let a = backoff_duration(&options, attempt, &mut jitter_a);
            let b = backoff_duration(&options, attempt, &mut jitter_b);
            assert_eq!(a, b, "same seed must give the same pause");
            assert!(a <= options.max_backoff);
            let cap = options
                .base_backoff
                .saturating_mul(1 << (attempt - 1))
                .min(options.max_backoff);
            assert!(a >= cap / 2, "jitter stays in the upper half");
        }
        // Zero base backoff disables sleeping entirely.
        let mut jitter = 1;
        assert_eq!(
            backoff_duration(&RetryOptions::default().without_backoff(), 3, &mut jitter),
            Duration::ZERO
        );
    }
}
