//! Allocation-count regression tests for registry-built engines.
//!
//! Every spec builds a `ShardedStore`. A one-shard store hands out one boxed
//! handle that owns its shard's transaction, with or without a log, and a
//! multi-shard transaction keeps its shards' transactions unboxed. These
//! tests pin that with a counting `#[global_allocator]` over warmed
//! transactions driven through `dyn Engine`, the path every in-process
//! consumer takes.
//!
//! The counter is global, so every test holds [`SERIAL`] for its whole body:
//! a sibling test running concurrently would pollute the measured window.
//! The whole file stands down under the `lock-order` feature — the tracked
//! shim records a held→acquiring edge per lock acquisition, which allocates
//! by design.
#![cfg(not(feature = "lock-order"))]

use mvtl::clock::GlobalClock;
use mvtl::core::policy::MvtilPolicy;
use mvtl::core::{MvtlConfig, MvtlStore};
use mvtl::shard::{IntersectionPick, ShardedStore};
use mvtl_common::{Engine, EngineExt, Key, ProcessId};
use parking_lot::Mutex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Held by each test for its whole body, so measured windows never overlap.
static SERIAL: Mutex<()> = Mutex::new(());

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
/// handle, the per-key records and the read log, each sized for `KEYS` keys
/// up front. The write set and the value column wait for a first write,
/// and the commit report takes the read log over. A wrapper handle around
/// the shard's handle would add one more.
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
    let _serial = SERIAL.lock();
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

/// Reads and writes of one transaction of the benchmark's `mem_readmostly`
/// shape: 16 operations, one of them a write.
const READ_MOSTLY_READS: u64 = 16;

/// Allocations of one transaction of [`READ_MOSTLY_READS`] reads and then
/// one write of a key it read: the one boxed handle, the per-key records
/// and the read log (each sized for eight keys at `begin` and grown once),
/// and the write set and the value column, each allocated once at the
/// write. No read allocates beyond those: a grant is one range. The warm-up
/// writes the same key, whose lock table spills to a buffer once it holds
/// a read and a write entry, and keeps the buffer until a purge.
const READ_MOSTLY_TXN_ALLOCS: u64 = 7;

/// Begin, read [`READ_MOSTLY_READS`] seeded keys, write the first of them,
/// commit.
fn read_mostly_txn(engine: &dyn Engine<u64>, round: u64) -> u64 {
    let mut tx = engine.begin(ProcessId(1));
    let sum = (0..READ_MOSTLY_READS)
        .map(|k| tx.read(Key(k)).expect("read").unwrap_or(0))
        .sum();
    tx.write(Key(0), round).expect("write");
    tx.commit().expect("read-mostly commit");
    sum
}

#[test]
fn read_mostly_transaction_allocation_budget_holds() {
    let _serial = SERIAL.lock();
    let engine = mvtl_registry::build("mvtil-early?delta=1000").expect("spec builds");
    let engine = engine.as_ref();
    let mut seed = engine.begin(ProcessId(0));
    for k in 0..READ_MOSTLY_READS {
        seed.write(Key(k), k + 1).expect("seed write");
    }
    seed.commit().expect("seed commit");
    for round in 0..4 {
        read_mostly_txn(engine, round);
    }
    let (allocs, sum) = count_allocs(|| read_mostly_txn(engine, 4));
    assert!(sum > 0, "reads returned the seeded values");
    println!(
        "read-mostly transaction of {READ_MOSTLY_READS} reads and one write: {allocs} allocations"
    );
    assert!(
        allocs <= READ_MOSTLY_TXN_ALLOCS,
        "a transaction of {READ_MOSTLY_READS} reads and one write made {allocs} allocations \
         (budget {READ_MOSTLY_TXN_ALLOCS})"
    );
}

/// Allocations of one logged one-shard write transaction of `KEYS` writes
/// (`wal=tmp&fsync=off`): the one boxed handle, the shard transaction's
/// records, read log, write set and value column, and the logged write set.
/// The log record encodes into the log's reused queue buffer, so the append
/// itself adds none. A second box for the logged form would add one more.
const LOGGED_WRITE_TXN_ALLOCS: u64 = 7;

/// Allocations of one two-shard transaction that reads and writes `KEYS`
/// keys spread over both shards: the routed handle and its sub-transaction
/// slots, each shard transaction's buffers, and the §7 prepare and commit.
/// A box per shard transaction would add one per touched shard.
const TWO_SHARD_TXN_ALLOCS: u64 = 18;

/// Begin, read-modify-write every key, commit.
fn read_write_txn(engine: &dyn Engine<u64>, round: u64) {
    let mut tx = engine.begin(ProcessId(1));
    for k in 0..KEYS {
        let value = tx.read(Key(k)).expect("read").unwrap_or(0);
        tx.write(Key(k), value + round).expect("write");
    }
    tx.commit().expect("read-write commit");
}

/// Warms `spec`'s engine, then counts one more read-write transaction.
fn read_write_allocs(spec: &str) -> u64 {
    let engine = mvtl_registry::build(spec).expect("spec builds");
    let engine = engine.as_ref();
    for round in 0..4 {
        read_write_txn(engine, round);
    }
    count_allocs(|| read_write_txn(engine, 4)).0
}

#[test]
fn write_transaction_allocation_budgets_hold() {
    let _serial = SERIAL.lock();
    let logged = read_write_allocs("mvtil-early?delta=1000&wal=tmp&fsync=off");
    println!("logged one-shard write transaction of {KEYS} keys: {logged} allocations");
    assert!(
        logged <= LOGGED_WRITE_TXN_ALLOCS,
        "a logged write transaction of {KEYS} keys made {logged} allocations \
         (budget {LOGGED_WRITE_TXN_ALLOCS})"
    );

    // The keys span both shards, so the commit runs the §7 protocol.
    let router: ShardedStore<MvtlStore<u64, MvtilPolicy>> = ShardedStore::with_policy(
        2,
        Arc::new(GlobalClock::new()),
        MvtlConfig::default(),
        IntersectionPick::Min,
        |_| MvtilPolicy::early(1000),
    );
    let shards: BTreeSet<usize> = (0..KEYS).map(|k| router.shard_of(Key(k))).collect();
    assert_eq!(shards.len(), 2, "the keys span both shards");
    let routed = read_write_allocs("sharded?shards=2&inner=mvtil-early&delta=1000");
    println!("two-shard read-write transaction of {KEYS} keys: {routed} allocations");
    assert!(
        routed <= TWO_SHARD_TXN_ALLOCS,
        "a two-shard read-write transaction of {KEYS} keys made {routed} allocations \
         (budget {TWO_SHARD_TXN_ALLOCS})"
    );
}
