//! Allocation-count regression tests for the hot path.
//!
//! The overhaul's whole point was to stop paying the allocator per operation:
//! versions live in per-stripe arenas, key state is embedded in the
//! open-addressed stripe map, lock sets are inline up to two ranges, and
//! small values are stored inline in the version slot. These tests pin that
//! property with a counting `#[global_allocator]`: steady-state reads must
//! not allocate at all, a buffered write must cost at most one allocation
//! (amortized) for an inline `u64` value, and committing a read-only
//! transaction over keys that already hold versions must not allocate.
//!
//! Everything runs inside ONE `#[test]` function: the counter is global, so
//! concurrently running sibling tests would pollute the measured windows.
//! The whole file stands down under the `lock-order` feature — the tracked
//! shim records a held→acquiring edge per lock acquisition, which allocates
//! by design.
#![cfg(not(feature = "lock-order"))]

use mvtl_clock::GlobalClock;
use mvtl_common::{Key, ProcessId, TransactionalKV};
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

#[test]
fn hot_path_allocation_budgets_hold() {
    let store = seeded_store();

    // --- Steady-state reads allocate nothing. -----------------------------
    //
    // One transaction first touches every key (the touches create its
    // read-set entries, held-lock entries and the Vec capacity they live in),
    // then re-reads the whole key set many times over. The measured window
    // covers only the re-reads: every structure is sized by then, lock-set
    // unions of an already-held range are inline no-ops, and a version lookup
    // walks arena slots — so the heap must not be involved at all.
    let mut tx = store.begin(ProcessId(1));
    let mut warm = 0u64;
    for k in 0..KEYS {
        warm += store.read(&mut tx, Key(k)).expect("warm read").unwrap_or(0);
    }
    // Push the read-set past its next capacity doubling so the measured
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
    drop(tx);
    assert!(warm > 0 && sum > 0, "reads returned the seeded values");
    assert_eq!(
        read_allocs, 0,
        "steady-state reads hit the allocator ({read_allocs} allocations for {RE_READS} reads)"
    );

    // --- A buffered write of an inline value costs at most one allocation. -
    //
    // A fresh transaction writes every key once and commits. The per-write
    // cost is the write-buffer push plus the lock grant; values are `u64`, so
    // the version slot stores them inline and commit's arena install must not
    // allocate per version. The budget is one allocation per write amortized,
    // plus a fixed setup allowance for the transaction's own buffers and the
    // commit bookkeeping.
    const WRITES: u64 = KEYS;
    const SETUP_SLACK: u64 = 16;
    let (write_allocs, ()) = count_allocs(|| {
        let mut tx = store.begin(ProcessId(2));
        for k in 0..WRITES {
            store.write(&mut tx, Key(k), k + 1).expect("write");
        }
        store.commit(tx).expect("commit");
    });
    assert!(
        write_allocs <= WRITES + SETUP_SLACK,
        "buffered writes exceed the allocation budget: {write_allocs} allocations for \
         {WRITES} writes (budget {WRITES} + {SETUP_SLACK} setup)"
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
}
