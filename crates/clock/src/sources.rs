//! Clock source implementations.

use mvtl_common::{ProcessId, Timestamp};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A source of clock readings for transactions.
///
/// A reading is turned into a [`Timestamp`] by pairing it with the reading
/// process's id, which guarantees uniqueness across processes (§4.1).
pub trait ClockSource: Send + Sync {
    /// Returns the current clock value as seen by `process`.
    fn now(&self, process: ProcessId) -> u64;

    /// Returns the current reading as a full timestamp `(value, process)`.
    fn timestamp(&self, process: ProcessId) -> Timestamp {
        Timestamp::new(self.now(process), process.0)
    }
}

impl<C: ClockSource + ?Sized> ClockSource for Arc<C> {
    fn now(&self, process: ProcessId) -> u64 {
        (**self).now(process)
    }
}

/// The discrete global clock of §2: a shared, strictly monotonic counter.
///
/// Every call to [`ClockSource::now`] returns a larger value than any previous
/// call, across all processes. With this source, MVTO+/MVTL-TO never see the
/// clock anomalies that cause serial aborts.
#[derive(Debug, Default)]
pub struct GlobalClock {
    counter: AtomicU64,
}

impl GlobalClock {
    /// Creates a global clock starting at 1 (0 is reserved for the initial version).
    #[must_use]
    pub fn new() -> Self {
        GlobalClock {
            counter: AtomicU64::new(1),
        }
    }

    /// Creates a global clock starting at `start`.
    #[must_use]
    pub fn starting_at(start: u64) -> Self {
        GlobalClock {
            counter: AtomicU64::new(start),
        }
    }

    /// Peeks at the current value without advancing it.
    #[must_use]
    pub fn peek(&self) -> u64 {
        self.counter.load(Ordering::SeqCst)
    }
}

impl ClockSource for GlobalClock {
    fn now(&self, _process: ProcessId) -> u64 {
        self.counter.fetch_add(1, Ordering::SeqCst)
    }
}

/// How many per-process slots a [`BatchedClock`] keeps. Processes hash into
/// slots by id, so more processes than slots simply share blocks (still
/// correct, just less batching).
const BATCH_SLOTS: usize = 64;

/// Largest block size a [`BatchedClock`] accepts: the refill counter lives in
/// the low 16 bits of the packed per-process slot.
pub const MAX_CLOCK_BLOCK: u64 = (1 << 16) - 1;

/// A block-batched clock (§8.1 flavour): processes draw *blocks* of
/// timestamps from a shared counter and then hand them out locally, turning
/// N clock reads into one shared `fetch_add` per N.
///
/// Each process's state packs `(next << 16) | remaining` into one `AtomicU64`
/// slot; drawing a timestamp is a CAS on that slot, and only an empty slot
/// touches the shared counter (`fetch_add(block)`). The counter is always at
/// or beyond the end of every block ever handed out, so refills keep each
/// process's readings strictly increasing.
///
/// **This clock is not globally monotonic**: process A can read a value from
/// an older block after process B read a newer one. That is exactly the
/// skew MVTIL tolerates by construction (§8.1 assumes nothing about clock
/// synchronization) and exactly what breaks MVTL-TO/MVTO+. No registry spec
/// builds it: it is kept for the benchmark's clock probe, which measures it
/// against [`GlobalClock`]. Stale blocks are bounded by `block`, so an engine
/// on this clock reads values at most `block` behind the shared counter.
///
/// Timestamp values are capped at 2^48 by the packing; at one block per
/// microsecond that is several years of continuous operation.
#[derive(Debug)]
pub struct BatchedClock {
    /// The shared block allocator: the next value no block has claimed.
    counter: AtomicU64,
    /// Block size drawn on refill (1..=[`MAX_CLOCK_BLOCK`]).
    block: u64,
    /// Per-process `(next << 16) | remaining` slots, indexed by `id % slots`.
    slots: Vec<AtomicU64>,
}

impl BatchedClock {
    /// Creates a batched clock starting at 1, drawing `block` timestamps per
    /// refill. `block` is clamped into `1..=`[`MAX_CLOCK_BLOCK`].
    #[must_use]
    pub fn new(block: u64) -> Self {
        BatchedClock::starting_at(1, block)
    }

    /// Creates a batched clock whose first handed-out value is at least
    /// `start`.
    #[must_use]
    pub fn starting_at(start: u64, block: u64) -> Self {
        BatchedClock {
            counter: AtomicU64::new(start.max(1)),
            block: block.clamp(1, MAX_CLOCK_BLOCK),
            slots: (0..BATCH_SLOTS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The block size drawn per refill.
    #[must_use]
    pub fn block(&self) -> u64 {
        self.block
    }

    /// The next value the shared allocator would hand out — an upper bound
    /// on every reading any process has observed.
    #[must_use]
    pub fn peek(&self) -> u64 {
        self.counter.load(Ordering::SeqCst)
    }

    fn slot(&self, process: ProcessId) -> &AtomicU64 {
        &self.slots[process.0 as usize % self.slots.len()]
    }
}

impl ClockSource for BatchedClock {
    fn now(&self, process: ProcessId) -> u64 {
        let slot = self.slot(process);
        loop {
            let packed = slot.load(Ordering::SeqCst);
            let (next, remaining) = (packed >> 16, packed & MAX_CLOCK_BLOCK);
            if remaining > 0 {
                let repacked = ((next + 1) << 16) | (remaining - 1);
                if slot
                    .compare_exchange_weak(packed, repacked, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    return next;
                }
                continue;
            }
            // Empty slot: draw a fresh block. Losing the CAS leaks the block
            // (a gap in the timeline) — harmless, timestamps are never reused.
            let base = self.counter.fetch_add(self.block, Ordering::SeqCst);
            let repacked = ((base + 1) << 16) | (self.block - 1);
            if slot
                .compare_exchange(packed, repacked, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return base;
            }
        }
    }
}

/// A per-process view of an underlying clock with a constant signed offset per
/// process.
///
/// This models "modern multicore machines that do not guarantee that clocks
/// across cores are perfectly synchronized" (§5.3): two processes reading the
/// skewed clock back to back can observe decreasing values, which is exactly
/// the anomaly behind serial aborts.
pub struct SkewedClock<C> {
    inner: C,
    offsets: HashMap<u32, i64>,
}

impl<C: ClockSource> SkewedClock<C> {
    /// Wraps `inner`, applying `offsets[process] ` to each reading. Processes
    /// without an entry read the inner clock unmodified.
    #[must_use]
    pub fn new(inner: C, offsets: HashMap<u32, i64>) -> Self {
        SkewedClock { inner, offsets }
    }

    /// The skew applied to `process`.
    #[must_use]
    pub fn offset(&self, process: ProcessId) -> i64 {
        self.offsets.get(&process.0).copied().unwrap_or(0)
    }
}

impl<C: ClockSource> ClockSource for SkewedClock<C> {
    fn now(&self, process: ProcessId) -> u64 {
        let base = self.inner.now(process);
        let offset = self.offset(process);
        if offset >= 0 {
            base.saturating_add(offset as u64)
        } else {
            base.saturating_sub(offset.unsigned_abs())
        }
    }
}

/// A scripted clock: each process has a queue of readings to return, after
/// which the last reading repeats. Used by the verifier to pin the timestamps
/// of the paper's schedules ("T1 gets timestamp 1, T2 gets timestamp 2, ...").
#[derive(Debug, Default)]
pub struct ManualClock {
    scripts: Mutex<HashMap<u32, Vec<u64>>>,
    fallback: AtomicU64,
}

impl ManualClock {
    /// Creates a manual clock with no scripted readings; unscripted processes
    /// fall back to a shared monotonic counter.
    #[must_use]
    pub fn new() -> Self {
        ManualClock {
            scripts: Mutex::named("clock.scripts", 76, HashMap::new()),
            fallback: AtomicU64::new(1),
        }
    }

    /// Queues `readings` for `process` (returned in order; the last one repeats).
    pub fn script(&self, process: ProcessId, readings: Vec<u64>) {
        self.scripts.lock().insert(process.0, readings);
    }
}

impl ClockSource for ManualClock {
    fn now(&self, process: ProcessId) -> u64 {
        let mut scripts = self.scripts.lock();
        match scripts.get_mut(&process.0) {
            Some(queue) if !queue.is_empty() => {
                if queue.len() == 1 {
                    queue[0]
                } else {
                    queue.remove(0)
                }
            }
            _ => self.fallback.fetch_add(1, Ordering::SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: ProcessId = ProcessId(0);
    const P1: ProcessId = ProcessId(1);

    #[test]
    fn global_clock_is_strictly_monotonic() {
        let clock = GlobalClock::new();
        let a = clock.now(P0);
        let b = clock.now(P1);
        let c = clock.now(P0);
        assert!(a < b && b < c);
    }

    #[test]
    fn batched_clock_is_monotonic_per_process_across_refills() {
        let clock = BatchedClock::starting_at(10, 4);
        let mut last = 0;
        for _ in 0..20 {
            let v = clock.now(P0);
            assert!(
                v > last,
                "readings must strictly increase (got {v} after {last})"
            );
            last = v;
        }
        assert!(last >= 10 + 19, "20 draws from base 10 reach at least 29");
    }

    #[test]
    fn batched_clock_never_hands_out_the_same_value_twice() {
        let clock = BatchedClock::new(8);
        let mut seen = std::collections::HashSet::new();
        // Interleave three processes (two of which share a slot modulo the
        // slot count would need ids 64 apart; use distinct slots plus a
        // same-slot alias) and check global uniqueness.
        for i in 0..50u32 {
            for p in [0u32, 1, 64] {
                let v = clock.now(ProcessId(p));
                assert!(seen.insert(v), "duplicate reading {v} at round {i}");
            }
        }
    }

    #[test]
    fn batched_clock_clamps_block_size() {
        let clock = BatchedClock::new(0);
        assert_eq!(clock.block(), 1);
        let huge = BatchedClock::new(u64::MAX);
        assert_eq!(huge.block(), MAX_CLOCK_BLOCK);
        // Block size 1 degenerates to a shared counter: still unique.
        let a = clock.now(P0);
        let b = clock.now(P1);
        assert_ne!(a, b);
    }

    #[test]
    fn batched_clock_peek_bounds_every_reading() {
        let clock = BatchedClock::starting_at(5, 32);
        for i in 0..100u32 {
            let v = clock.now(ProcessId(i % 3));
            assert!(
                v < clock.peek(),
                "reading {v} must stay below the allocator"
            );
        }
    }

    #[test]
    fn timestamps_carry_process_ids() {
        let clock = GlobalClock::new();
        let t = clock.timestamp(ProcessId(7));
        assert_eq!(t.process, 7);
    }

    #[test]
    fn skewed_clock_can_go_backwards_across_processes() {
        let mut offsets = HashMap::new();
        offsets.insert(1u32, -100i64);
        let clock = SkewedClock::new(GlobalClock::starting_at(1000), offsets);
        let fast = clock.now(P0);
        let slow = clock.now(P1);
        assert!(slow < fast, "process 1 should observe an earlier time");
    }

    #[test]
    fn manual_clock_returns_script_then_repeats() {
        let clock = ManualClock::new();
        clock.script(P0, vec![5, 9]);
        assert_eq!(clock.now(P0), 5);
        assert_eq!(clock.now(P0), 9);
        assert_eq!(clock.now(P0), 9);
        // Unscripted process uses the fallback counter.
        let a = clock.now(P1);
        let b = clock.now(P1);
        assert!(b > a);
    }

    #[test]
    fn arc_forwarding() {
        let clock: Arc<GlobalClock> = Arc::new(GlobalClock::starting_at(100));
        assert_eq!(ClockSource::now(&clock, P0), 100);
        assert_eq!(clock.peek(), 101);
    }
}
