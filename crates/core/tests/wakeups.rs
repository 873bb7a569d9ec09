//! Wake-up tests through the stores: an operation blocked behind another
//! transaction's unfrozen lock must be woken when that lock is frozen or
//! released, not when its own lock-wait timeout expires.
//!
//! The timeout here is 10 s, far above the 1 s wake bound, so a lost wakeup
//! fails these tests instead of hiding as a `LockTimeout` abort.

use mvtl_baselines::TwoPhaseLockingStore;
use mvtl_clock::GlobalClock;
use mvtl_common::{Key, ProcessId, TransactionalKV};
use mvtl_core::policy::{LockingPolicy, PessimisticPolicy, ToPolicy};
use mvtl_core::{MvtlConfig, MvtlStore};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const LOCK_WAIT: Duration = Duration::from_secs(10);
const WAKE_BOUND: Duration = Duration::from_secs(1);
/// How long the blocked operation gets to park before the release.
const PARK: Duration = Duration::from_millis(100);

/// Runs `blocked` on its own thread, checks that it is still blocked after
/// [`PARK`], runs `release`, and asserts that `blocked` returns within
/// [`WAKE_BOUND`] of the release. Returns what `blocked` returned.
fn assert_woken<R: Send>(blocked: impl FnOnce() -> R + Send, release: impl FnOnce()) -> R {
    std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel();
        scope.spawn(move || {
            let result = blocked();
            done_tx
                .send((result, Instant::now()))
                .expect("receiver alive");
        });
        std::thread::sleep(PARK);
        assert!(
            done_rx.try_recv().is_err(),
            "the operation returned without blocking"
        );
        let released = Instant::now();
        release();
        let (result, done) = done_rx
            .recv_timeout(LOCK_WAIT * 2)
            .expect("the blocked operation never returned");
        let waited = done.saturating_duration_since(released);
        assert!(
            waited < WAKE_BOUND,
            "woken {waited:?} after the release (lock-wait timeout {LOCK_WAIT:?})"
        );
        result
    })
}

fn mvtl_store<P: LockingPolicy>(policy: P) -> MvtlStore<u64, P> {
    let store = MvtlStore::new(
        policy,
        Arc::new(GlobalClock::new()),
        MvtlConfig::default().with_lock_wait_timeout(LOCK_WAIT),
    );
    let mut tx = store.begin(ProcessId(0));
    store.write(&mut tx, Key(1), 1).unwrap();
    store.commit(tx).unwrap();
    store
}

#[test]
fn pessimistic_reader_is_woken_by_the_writers_commit_and_abort() {
    // MVTL-Pessimistic write-locks [0, +inf] at the write and reads wait on
    // unfrozen write locks, so the reader parks until the writer finishes.
    let s = mvtl_store(PessimisticPolicy::new());

    let mut writer = s.begin(ProcessId(1));
    s.write(&mut writer, Key(1), 2).unwrap();
    let mut reader = s.begin(ProcessId(2));
    let value = assert_woken(
        || s.read(&mut reader, Key(1)).unwrap(),
        || {
            s.commit(writer).unwrap();
        },
    );
    assert_eq!(value, Some(2));
    s.commit(reader).unwrap();

    let mut writer = s.begin(ProcessId(1));
    s.write(&mut writer, Key(1), 3).unwrap();
    let mut reader = s.begin(ProcessId(2));
    let value = assert_woken(|| s.read(&mut reader, Key(1)).unwrap(), || s.abort(writer));
    assert_eq!(value, Some(2));
    s.commit(reader).unwrap();
}

#[test]
fn to_reader_is_woken_by_the_prepared_writers_commit_and_abort() {
    // MVTL-TO write-locks its timestamp only at commit; a prepared writer
    // keeps that lock unfrozen until the decision, and a later reader's
    // interval [version+1, ts] covers it, so the reader parks.
    let s = Arc::new(mvtl_store(ToPolicy::new()));

    let mut writer = s.begin(ProcessId(1));
    s.write(&mut writer, Key(1), 2).unwrap();
    let prepared = TransactionalKV::prepare(&s, writer).unwrap();
    let commit_ts = prepared.interval().min().unwrap();
    let mut reader = s.begin(ProcessId(2));
    let value = assert_woken(
        || s.read(&mut reader, Key(1)).unwrap(),
        || {
            prepared.commit_at(commit_ts).unwrap();
        },
    );
    assert_eq!(value, Some(2));
    s.commit(reader).unwrap();

    let mut writer = s.begin(ProcessId(1));
    s.write(&mut writer, Key(1), 3).unwrap();
    let prepared = TransactionalKV::prepare(&s, writer).unwrap();
    let mut reader = s.begin(ProcessId(2));
    let value = assert_woken(|| s.read(&mut reader, Key(1)).unwrap(), || prepared.abort());
    assert_eq!(value, Some(2));
    s.commit(reader).unwrap();
}

#[test]
fn two_phase_locking_acquire_is_woken_by_release_all() {
    let s: TwoPhaseLockingStore<u64> = TwoPhaseLockingStore::new(LOCK_WAIT);
    let mut tx = s.begin(ProcessId(0));
    s.write(&mut tx, Key(1), 1).unwrap();
    s.commit(tx).unwrap();

    let mut writer = s.begin(ProcessId(1));
    s.write(&mut writer, Key(1), 2).unwrap();
    let mut reader = s.begin(ProcessId(2));
    let value = assert_woken(
        || s.read(&mut reader, Key(1)).unwrap(),
        || {
            s.commit(writer).unwrap();
        },
    );
    assert_eq!(value, Some(2));
    s.commit(reader).unwrap();

    let mut writer = s.begin(ProcessId(1));
    s.write(&mut writer, Key(1), 3).unwrap();
    let mut reader = s.begin(ProcessId(2));
    let value = assert_woken(|| s.read(&mut reader, Key(1)).unwrap(), || s.abort(writer));
    assert_eq!(value, Some(2));
    s.commit(reader).unwrap();
}
