//! Allocation-count regression tests for the hot path.
//!
//! The overhaul's whole point was to stop paying the allocator per operation:
//! versions live in per-stripe arenas, key state is embedded in the
//! open-addressed stripe map, lock sets are inline up to two ranges, and
//! small values are stored inline in the version slot. These tests pin that
//! property with a counting `#[global_allocator]`: steady-state reads must
//! not allocate at all, buffered writes of an inline `u64` value allocate
//! only as the transaction's own buffers grow, committing a read-only
//! transaction over keys that already hold versions must not allocate,
//! taking and releasing locks on keys that did so before must not allocate,
//! and a write whose candidate set is cut into many ranges makes as many
//! heap requests as one cut into a few.
//!
//! Everything runs inside ONE `#[test]` function: the counter is global, so
//! concurrently running sibling tests would pollute the measured windows.
//! The whole file stands down under the `lock-order` feature — the tracked
//! shim records a held→acquiring edge per lock acquisition, which allocates
//! by design.
#![cfg(not(feature = "lock-order"))]

use mvtl_clock::GlobalClock;
use mvtl_common::{Key, ProcessId, Timestamp, TransactionalKV};
use mvtl_core::policy::MvtilPolicy;
use mvtl_core::{MvtlConfig, MvtlStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Wraps the system allocator and counts heap requests while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates to `System` with the caller's own layout
// unchanged, so the contract of `GlobalAlloc` is exactly `System`'s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator, which
        // is layout-compatible with `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with the counter armed and returns how many heap requests
/// (alloc / alloc_zeroed / realloc) it made.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (ALLOCS.load(Ordering::SeqCst), out)
}

const KEYS: u64 = 64;

fn seeded_store() -> MvtlStore<u64, MvtilPolicy> {
    let store = MvtlStore::new(
        MvtilPolicy::early(10_000),
        Arc::new(GlobalClock::new()),
        MvtlConfig::default(),
    );
    let mut tx = store.begin(ProcessId(0));
    for k in 0..KEYS {
        store.write(&mut tx, Key(k), k).expect("seed write");
    }
    store.commit(tx).expect("seed commit");
    store
}

/// Versions of the key that cuts the writer's interval, and of the key the
/// measured write lands on.
const CUTTER: Key = Key(0);
const SPANNED: Key = Key(1);

/// Versions on [`SPANNED`] inside the writer's interval.
const SPANS: u64 = 32;

/// Heap requests of the measured fragmented write: the grant, the lock
/// entries it adds and the key record's copy of the grant.
const FRAGMENTED_WRITE_ALLOCS: u64 = 3;

/// Commits a write of `key` at clock value `value`: MVTIL-early pinned there
/// commits at the bottom of its interval, `(value, 0)`.
fn commit_at(store: &MvtlStore<u64, MvtilPolicy>, key: Key, value: u64) {
    let mut tx = store.begin_at(ProcessId(0), Some(Timestamp::at(value)));
    store.write(&mut tx, key, value).expect("seed write");
    let info = store.commit(tx).expect("seed commit");
    assert_eq!(info.commit_ts, Some(Timestamp::new(value, 0)));
}

/// The heap requests of one write whose interval holds `fragments` ranges,
/// on a key with [`SPANS`] versions inside that interval.
fn fragmented_write_allocs(fragments: u64) -> u64 {
    let store = MvtlStore::new(
        MvtilPolicy::early(10_000),
        Arc::new(GlobalClock::new()),
        MvtlConfig::default(),
    );
    // Versions at 200, 210, ... on the cutter and 205, 215, ... on the
    // spanned key, all inside the writer's interval [100, 10 100].
    for i in 0..fragments.max(SPANS) {
        if i + 1 < fragments {
            commit_at(&store, CUTTER, 200 + 10 * i);
        }
        if i < SPANS {
            commit_at(&store, SPANNED, 205 + 10 * i);
        }
    }
    let mut tx = store.begin_at(ProcessId(1), Some(Timestamp::at(100)));
    store.write(&mut tx, CUTTER, 0).expect("cutting write");
    assert_eq!(tx.state().ts_set.range_count() as u64, fragments);
    let (allocs, written) = count_allocs(|| store.write(&mut tx, SPANNED, 0));
    written.expect("fragmented write");
    // Every version of the spanned key falls inside a fragment and cuts it.
    assert_eq!(tx.state().ts_set.range_count() as u64, fragments + SPANS);
    store.abort(tx);
    allocs
}

#[test]
fn hot_path_allocation_budgets_hold() {
    let store = seeded_store();

    // --- Steady-state reads allocate nothing. -----------------------------
    //
    // One transaction first touches every key (the touches create its
    // records, read-log entries and the Vec capacity they live in), then
    // re-reads the whole key set many times over. The measured window
    // covers only the re-reads: every structure is sized by then, a
    // re-read's grant lies inside the range its record and its lock entry
    // already hold, and a version lookup walks arena slots — so the heap
    // must not be involved at all.
    let mut tx = store.begin(ProcessId(1));
    let mut warm = 0u64;
    for k in 0..KEYS {
        warm += store.read(&mut tx, Key(k)).expect("warm read").unwrap_or(0);
    }
    // Push the read log past its next capacity doubling so the measured
    // re-reads cannot land on a growth boundary.
    for _ in 0..2 {
        for k in 0..KEYS {
            warm += store.read(&mut tx, Key(k)).expect("warm read").unwrap_or(0);
        }
    }
    const RE_READS: u64 = 64;
    let (read_allocs, sum) = count_allocs(|| {
        let mut sum = 0u64;
        for _ in 0..RE_READS / KEYS {
            for k in 0..KEYS {
                sum += store.read(&mut tx, Key(k)).expect("read").unwrap_or(0);
            }
        }
        sum
    });
    store.abort(tx);
    assert!(warm > 0 && sum > 0, "reads returned the seeded values");
    assert_eq!(
        read_allocs, 0,
        "steady-state reads hit the allocator ({read_allocs} allocations for {RE_READS} reads)"
    );

    // --- Buffered writes of inline values allocate only as their buffers grow.
    //
    // A fresh transaction writes every key once and commits. Values are
    // `u64`, so the version slot stores them inline and commit's arena
    // install must not allocate per version, and each grant is one range, so
    // neither the lock mirror nor the lock table allocates per write. What
    // is left is the transaction's own buffers: the records, allocated at
    // `begin` for 8 keys and grown three times to 64 (4 requests), the read
    // log (1), and the write set and the value column, each allocated at
    // the first write with room for the 8 records so far and grown three
    // times (4 each): 13 in all.
    const WRITES: u64 = KEYS;
    const WRITE_TXN_ALLOCS: u64 = 13;
    let (write_allocs, ()) = count_allocs(|| {
        let mut tx = store.begin(ProcessId(2));
        for k in 0..WRITES {
            store.write(&mut tx, Key(k), k + 1).expect("write");
        }
        store.commit(tx).expect("commit");
    });
    assert!(
        write_allocs <= WRITE_TXN_ALLOCS,
        "buffered writes exceed the allocation budget: {write_allocs} allocations for \
         {WRITES} writes (budget {WRITE_TXN_ALLOCS})"
    );

    // --- Committing a read-only transaction allocates nothing. ------------
    //
    // Every key already has a version, and a first reader leaves its read
    // run on each. The measured commit of a second reader raises one read
    // high-water mark per key and releases its live read locks in place:
    // no lock-table splice, no allocation.
    for process in [3, 4] {
        let mut tx = store.begin(ProcessId(process));
        for k in 0..KEYS {
            assert_eq!(store.read(&mut tx, Key(k)).expect("read"), Some(k + 1));
        }
        let (commit_allocs, info) = count_allocs(|| store.commit(tx).expect("commit"));
        assert_eq!(info.reads.len() as u64, KEYS);
        if process == 4 {
            assert_eq!(
                commit_allocs, 0,
                "a read-only commit over touched keys hit the allocator \
                 ({commit_allocs} allocations for {KEYS} keys)"
            );
        }
    }

    // --- Re-locking idle keys allocates nothing. ---------------------------
    //
    // A key keeps one lock entry inline, so taking a lock on a key that
    // holds none must not need a heap buffer. The keys here are fresh (the
    // reader above read others, and was aborted): the first round creates
    // their cells, takes a lock on each and releases it, and the second is
    // measured. Each transaction reads eight keys and commits: its records
    // and read log are sized for eight keys at `begin`, which runs outside
    // the window, so the window holds only the lock traffic.
    const PER_TXN: u64 = 8;
    const IDLE: std::ops::Range<u64> = 1_000..1_000 + KEYS;
    for round in 0..2 {
        let txns: Vec<_> = (0..KEYS / PER_TXN)
            .map(|_| store.begin(ProcessId(5)))
            .collect();
        let (relock_allocs, ()) = count_allocs(|| {
            for (first, mut tx) in IDLE.step_by(PER_TXN as usize).zip(txns) {
                for k in first..first + PER_TXN {
                    assert_eq!(store.read(&mut tx, Key(k)).expect("read"), None);
                }
                store.commit(tx).expect("commit");
            }
        });
        if round == 1 {
            assert_eq!(
                relock_allocs, 0,
                "taking and releasing locks on {KEYS} idle keys hit the allocator"
            );
        }
    }

    // --- A fragmented write costs the same at any fragment count. ---------
    //
    // The whole candidate set is granted in one pass under one latch: each
    // set it builds is sized up front and allocated once, so neither the
    // fragments nor the spans they meet add heap requests.
    let fragments = [2, 8, 32];
    let allocs = fragments.map(fragmented_write_allocs);
    assert_eq!(
        allocs, [FRAGMENTED_WRITE_ALLOCS; 3],
        "heap requests of a write over {fragments:?} fragments and {SPANS} versions"
    );
}
