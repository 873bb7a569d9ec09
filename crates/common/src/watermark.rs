//! The active-transaction watermark: the piece of the paper's §6 timestamp
//! service that lives *inside* an engine.
//!
//! §6 argues MVTL is practical because old versions and locks can be purged
//! once no transaction can ever need them again. A purge bound is safe when it
//! lies at or below the lowest timestamp any in-flight transaction may still
//! anchor a read on. [`ActiveTxnRegistry`] tracks exactly that: `begin`
//! registers the transaction's pinned/anchor timestamp, commit/abort
//! deregisters it, and [`ActiveTxnRegistry::low_watermark`] reports the
//! minimum over all registered pins. The garbage collector (`mvtl-shard`'s
//! sweeper) purges below `min(low_watermark, now − gc_lag)`, so it never
//! removes a version an active transaction has anchored.
//!
//! Begin and commit run on every client, the watermark query only on the GC
//! cadence, so the registry is one register per in-flight transaction and no
//! lock: a transaction claims a cache-padded pin slot with one CAS, starting
//! at its process's own slot, and hands it back with another. Two clients
//! therefore never write the same cache line, and a sweep reads every slot.
//!
//! A slot is claimed *pending* before its pin is known:
//! [`ActiveTxnRegistry::register`] claims, then runs the caller's closure —
//! the policy's clock reading — and then stores the pin. A sweep that meets a
//! pending slot re-reads it until the pin lands. This closes the race in
//! which a sweep reads the clock, a transaction reads a later clock value,
//! and the sweep purges below that value before the pin appears: either the
//! sweep sees the claim, or the claim — and so the transaction's clock
//! reading — comes after the sweep's. For policies whose reads anchor at or
//! above their clock reading (MVTL-TO, MVTIL, MVTO+), that makes the purge
//! safe with no lag at all; ε-clock and MVTL-Pref pin below their reading,
//! and for that part they still rely on the sweeper's lag.

use crate::{ProcessId, Timestamp};
use std::fmt;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Pin slots per block. A full block links in another one, so this bounds
/// nothing; it is sized for the client threads of one process.
const SLOTS: usize = 64;

/// How often a sweep re-reads a slot that is pending or changing under it
/// before it counts the slot as [`Timestamp::ZERO`]. A pin lands within a
/// clock reading unless its thread was descheduled in between; then this
/// sweep purges nothing, and the next one reads the pin.
const REREADS: u32 = 64;

/// The low two bits of a slot's state word.
const TAG: u64 = 0b11;
/// Nobody holds the slot.
const FREE: u64 = 0;
/// Claimed; the pin is not stored yet and reads as `ZERO`.
const PENDING: u64 = 1;
/// Claimed, and the pin is stored.
const PINNED: u64 = 2;

/// A ticket returned by [`ActiveTxnRegistry::register`]; hand it back to
/// [`ActiveTxnRegistry::deregister`] when the transaction finishes.
///
/// Deregistration is idempotent: handing the same pin back twice (e.g. from a
/// cloned transaction state) removes the entry once and is then a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnPin {
    ts: Timestamp,
    slot: usize,
    /// The slot's state word while this pin holds it. Every release starts
    /// a new epoch, so a stale pin no longer matches its slot's word.
    word: u64,
}

impl TxnPin {
    /// The pinned timestamp this ticket protects from purging.
    #[must_use]
    pub fn timestamp(&self) -> Timestamp {
        self.ts
    }
}

/// One in-flight transaction's register, alone on its pair of cache lines
/// (the adjacent-line prefetcher pulls 128 bytes).
#[derive(Debug, Default)]
#[repr(align(128))]
struct Slot {
    /// `epoch << 2 | tag`, the tag one of `FREE`, `PENDING` and `PINNED`.
    word: AtomicU64,
    value: AtomicU64,
    process: AtomicU32,
}

impl Slot {
    /// The pin this slot holds for a sweep, `None` when it is free. A
    /// pending slot, or one whose pin changes between the reads, is re-read
    /// up to [`REREADS`] times and then counts as `ZERO`.
    fn pin(&self) -> Option<Timestamp> {
        for _ in 0..REREADS {
            let word = self.word.load(Ordering::SeqCst);
            match word & TAG {
                FREE => return None,
                PINNED => {
                    let ts = Timestamp::new(
                        self.value.load(Ordering::Relaxed),
                        self.process.load(Ordering::Relaxed),
                    );
                    fence(Ordering::Acquire);
                    if self.word.load(Ordering::Relaxed) == word {
                        return Some(ts);
                    }
                }
                _ => std::thread::yield_now(),
            }
        }
        Some(Timestamp::ZERO)
    }
}

/// A block of slots and the link to the next, appended once this one fills.
#[derive(Debug)]
struct Block {
    slots: [Slot; SLOTS],
    next: OnceLock<Box<Block>>,
}

impl Default for Block {
    fn default() -> Self {
        Block {
            slots: std::array::from_fn(|_| Slot::default()),
            next: OnceLock::new(),
        }
    }
}

/// A registry of in-flight transactions and the timestamps they anchor on.
///
/// One cache-padded slot per in-flight transaction, in append-only blocks:
/// registration claims a free slot with a CAS, starting at the process's
/// own, and deregistration frees it with another. No lock is taken, the
/// steady state touches no allocator, and the blocks are bounded by the
/// maximum number of *concurrent* transactions, never by history. The
/// watermark query scans every slot, which runs only on the GC cadence.
#[derive(Default)]
pub struct ActiveTxnRegistry {
    first: Block,
}

impl fmt::Debug for ActiveTxnRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActiveTxnRegistry")
            .field("active", &self.active_count())
            .finish_non_exhaustive()
    }
}

impl ActiveTxnRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        ActiveTxnRegistry::default()
    }

    /// Registers an in-flight transaction of `process`, pinned at what
    /// `pin` returns: no purge bound above that timestamp is safe until the
    /// returned pin is deregistered.
    ///
    /// The slot is claimed before `pin` runs, and while it runs the
    /// watermark cannot pass `ZERO`; so `pin` may read the clock, and no
    /// sweep that read the clock earlier purges past the reading.
    #[must_use]
    pub fn register(&self, process: ProcessId, pin: impl FnOnce() -> Timestamp) -> TxnPin {
        let (slot, entry, claimed) = self.claim(process);
        let ts = pin();
        // Release stores: a sweep that reads them re-reads the word and sees
        // at least this claim, so it never mixes two holders' pins.
        entry.process.store(ts.process, Ordering::Release);
        entry.value.store(ts.value, Ordering::Release);
        let word = claimed - PENDING + PINNED;
        entry.word.store(word, Ordering::Release);
        TxnPin { ts, slot, word }
    }

    /// Claims a free slot, pending, and returns its index, the slot and its
    /// state word.
    fn claim(&self, process: ProcessId) -> (usize, &Slot, u64) {
        let start = process.0 as usize % SLOTS;
        let mut block = &self.first;
        let mut base = 0;
        loop {
            for offset in 0..SLOTS {
                let index = (start + offset) % SLOTS;
                let slot = &block.slots[index];
                let free = slot.word.load(Ordering::Relaxed);
                if free & TAG == FREE
                    && slot
                        .word
                        .compare_exchange(free, free | PENDING, Ordering::SeqCst, Ordering::Relaxed)
                        .is_ok()
                {
                    return (base + index, slot, free | PENDING);
                }
            }
            block = block.next.get_or_init(Box::default);
            base += SLOTS;
        }
    }

    /// The slot at `index`, counted across blocks.
    fn slot(&self, index: usize) -> Option<&Slot> {
        let mut block = &self.first;
        for _ in 0..index / SLOTS {
            block = block.next.get()?;
        }
        Some(&block.slots[index % SLOTS])
    }

    /// Every slot, in block order.
    fn slots(&self) -> impl Iterator<Item = &Slot> {
        std::iter::successors(Some(&self.first), |block| block.next.get().map(|b| &**b))
            .flat_map(|block| block.slots.iter())
    }

    /// Deregisters a finished transaction. Idempotent.
    pub fn deregister(&self, pin: TxnPin) {
        let Some(entry) = self.slot(pin.slot) else {
            return;
        };
        // Free, in the next epoch; a stale pin's word no longer matches.
        let next = (pin.word | TAG).wrapping_add(1);
        let _ = entry
            .word
            .compare_exchange(pin.word, next, Ordering::Release, Ordering::Relaxed);
    }

    /// The smallest pinned timestamp among active transactions, or `None`
    /// when no transaction is in flight (any lag-derived bound is then safe).
    /// A transaction still between claiming its slot and storing its pin is
    /// waited for, briefly, and otherwise counts as `ZERO`.
    #[must_use]
    pub fn low_watermark(&self) -> Option<Timestamp> {
        self.slots().filter_map(Slot::pin).min()
    }

    /// Number of transactions currently registered, pending ones included.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.slots()
            .filter(|slot| slot.word.load(Ordering::Acquire) & TAG != FREE)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: u64) -> Timestamp {
        Timestamp::at(v)
    }

    fn register(reg: &ActiveTxnRegistry, pin: Timestamp) -> TxnPin {
        reg.register(ProcessId(pin.process), || pin)
    }

    #[test]
    fn watermark_is_the_minimum_active_pin() {
        let reg = ActiveTxnRegistry::new();
        assert_eq!(reg.low_watermark(), None);
        let a = register(&reg, ts(10));
        let b = register(&reg, ts(5));
        let c = register(&reg, ts(20));
        assert_eq!(reg.low_watermark(), Some(ts(5)));
        assert_eq!(reg.active_count(), 3);
        reg.deregister(b);
        assert_eq!(reg.low_watermark(), Some(ts(10)));
        reg.deregister(a);
        reg.deregister(c);
        assert_eq!(reg.low_watermark(), None);
        assert_eq!(reg.active_count(), 0);
    }

    #[test]
    fn equal_timestamps_are_tracked_as_a_multiset() {
        let reg = ActiveTxnRegistry::new();
        let a = register(&reg, ts(7));
        let b = register(&reg, ts(7));
        reg.deregister(a);
        // The second pin at the same timestamp still holds the watermark.
        assert_eq!(reg.low_watermark(), Some(ts(7)));
        reg.deregister(b);
        assert_eq!(reg.low_watermark(), None);
    }

    #[test]
    fn deregister_is_idempotent() {
        let reg = ActiveTxnRegistry::new();
        let a = register(&reg, ts(3));
        let b = register(&reg, ts(3));
        reg.deregister(a);
        reg.deregister(a);
        assert_eq!(reg.active_count(), 1);
        assert_eq!(reg.low_watermark(), Some(ts(3)));
        reg.deregister(b);
    }

    #[test]
    fn concurrent_register_deregister_keeps_consistent_counts() {
        use std::sync::Arc;
        let reg = Arc::new(ActiveTxnRegistry::new());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let reg = Arc::clone(&reg);
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let pin = register(&reg, ts(t * 1_000 + i));
                        let _ = reg.low_watermark();
                        reg.deregister(pin);
                    }
                });
            }
        });
        assert_eq!(reg.active_count(), 0);
        assert_eq!(reg.low_watermark(), None);
    }

    #[test]
    fn live_pins_past_one_block_keep_the_watermark_exact() {
        let reg = ActiveTxnRegistry::new();
        // All from one process, so every claim after the first probes past
        // the taken slots, and the last 136 land in linked blocks.
        let pins: Vec<TxnPin> = (0..200u64)
            .map(|i| register(&reg, Timestamp::new(1_000 - i, 3)))
            .collect();
        assert_eq!(reg.active_count(), 200);
        assert_eq!(reg.low_watermark(), Some(Timestamp::new(801, 3)));
        // Releasing the newest pins (the lowest timestamps, in later
        // blocks) raises the watermark one pin at a time.
        for (released, pin) in pins.iter().rev().enumerate().take(150) {
            assert_eq!(
                reg.low_watermark(),
                Some(Timestamp::new(801 + released as u64, 3))
            );
            reg.deregister(*pin);
        }
        assert_eq!(reg.active_count(), 50);
        assert_eq!(reg.low_watermark(), Some(Timestamp::new(951, 3)));
        for pin in &pins[..50] {
            reg.deregister(*pin);
        }
        assert_eq!(reg.active_count(), 0);
        assert_eq!(reg.low_watermark(), None);
    }

    #[test]
    fn a_stale_pin_does_not_clear_the_slots_next_holder() {
        let reg = ActiveTxnRegistry::new();
        let first = register(&reg, ts(4));
        reg.deregister(first);
        // Same process, so the same slot, now in its next epoch — and at the
        // same timestamp, so only the epoch tells the two pins apart.
        let second = register(&reg, ts(4));
        assert_eq!(second.slot, first.slot);
        assert_ne!(second, first);
        reg.deregister(first);
        assert_eq!(reg.active_count(), 1);
        assert_eq!(reg.low_watermark(), Some(ts(4)));
        reg.deregister(second);
        assert_eq!(reg.low_watermark(), None);
    }

    #[test]
    fn a_pending_slot_holds_the_watermark_at_zero_until_its_pin_lands() {
        let reg = ActiveTxnRegistry::new();
        let older = register(&reg, ts(9));
        let pin = reg.register(ProcessId(1), || {
            // Claimed, pin not stored: a sweep now must purge nothing.
            assert_eq!(reg.active_count(), 2);
            assert_eq!(reg.low_watermark(), Some(Timestamp::ZERO));
            ts(12)
        });
        assert_eq!(reg.low_watermark(), Some(ts(9)));
        reg.deregister(older);
        assert_eq!(reg.low_watermark(), Some(ts(12)));
        reg.deregister(pin);
        assert_eq!(reg.low_watermark(), None);
    }
}
