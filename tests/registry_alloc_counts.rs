//! Allocation-count regression test for a registry-built engine.
//!
//! Every spec builds a `ShardedStore`, and a one-shard store hands out its
//! shard's own transaction handle unchanged: one box per transaction, with
//! no wrapper handle around it. This test pins that with a counting
//! `#[global_allocator]` over a warmed read-only transaction driven through
//! `dyn Engine`, the path every in-process consumer takes.
//!
//! Everything runs inside ONE `#[test]` function: the counter is global, so
//! concurrently running sibling tests would pollute the measured window.
//! The whole file stands down under the `lock-order` feature — the tracked
//! shim records a held→acquiring edge per lock acquisition, which allocates
//! by design.
#![cfg(not(feature = "lock-order"))]

use mvtl_common::{Engine, EngineExt, Key, ProcessId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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

const KEYS: u64 = 8;

/// Allocations of one read-only transaction of `KEYS` reads: the one boxed
/// handle, the read set and the held-lock map, each sized for `KEYS` keys up
/// front. The write buffers wait for a first write, and the commit report
/// takes the read set over. A wrapper handle around the shard's handle
/// would add one more.
const READ_ONLY_TXN_ALLOCS: u64 = 3;

/// Begin, read every seeded key, commit.
fn read_only_txn(engine: &dyn Engine<u64>) -> u64 {
    let mut tx = engine.begin(ProcessId(1));
    let sum = (0..KEYS)
        .map(|k| tx.read(Key(k)).expect("read").unwrap_or(0))
        .sum();
    tx.commit().expect("read-only commit");
    sum
}

#[test]
fn one_shard_read_only_transaction_allocation_budget_holds() {
    let engine = mvtl_registry::build("mvtil-early?delta=1000").expect("spec builds");
    let engine = engine.as_ref();
    let mut seed = engine.begin(ProcessId(0));
    for k in 0..KEYS {
        seed.write(Key(k), k + 1).expect("seed write");
    }
    seed.commit().expect("seed commit");

    // Warm up: the first transactions size the store's pooled state.
    for _ in 0..4 {
        read_only_txn(engine);
    }
    let (allocs, sum) = count_allocs(|| read_only_txn(engine));
    assert_eq!(
        sum,
        (1..=KEYS).sum::<u64>(),
        "reads returned the seeded values"
    );
    println!("read-only transaction of {KEYS} reads: {allocs} allocations");
    assert!(
        allocs <= READ_ONLY_TXN_ALLOCS,
        "a read-only transaction of {KEYS} reads made {allocs} allocations \
         (budget {READ_ONLY_TXN_ALLOCS})"
    );
}
