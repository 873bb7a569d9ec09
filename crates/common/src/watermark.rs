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

use crate::Timestamp;
use parking_lot::Mutex;

/// A ticket returned by [`ActiveTxnRegistry::register`]; hand it back to
/// [`ActiveTxnRegistry::deregister`] when the transaction finishes.
///
/// Deregistration is idempotent: handing the same pin back twice (e.g. from a
/// cloned transaction state) removes the entry once and is then a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnPin {
    ts: Timestamp,
    slot: usize,
    seq: u64,
}

impl TxnPin {
    /// The pinned timestamp this ticket protects from purging.
    #[must_use]
    pub fn timestamp(&self) -> Timestamp {
        self.ts
    }
}

/// A registry of in-flight transactions and the timestamps they anchor on.
///
/// Internally a slab of pinned timestamps with a free list: registration and
/// deregistration reuse slots, so the steady state of a running workload
/// (`begin`/`commit` per transaction) touches no allocator — the slab's
/// capacity is bounded by the maximum number of *concurrent* transactions,
/// never by history. The watermark query scans the live slots, which is
/// cheap at realistic concurrency and runs only on the GC cadence.
#[derive(Debug)]
pub struct ActiveTxnRegistry {
    inner: Mutex<RegistryInner>,
}

impl Default for ActiveTxnRegistry {
    fn default() -> Self {
        ActiveTxnRegistry {
            inner: Mutex::named("common.active_txns", 70, RegistryInner::default()),
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    /// `Some((ts, seq))` per live pin; `None` slots are recycled via `free`.
    /// The `seq` disambiguates reuse so a stale pin cannot evict a successor.
    slots: Vec<Option<(Timestamp, u64)>>,
    free: Vec<usize>,
    live: usize,
    next_seq: u64,
}

impl ActiveTxnRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        ActiveTxnRegistry::default()
    }

    /// Registers an in-flight transaction pinned at `ts`: no purge bound
    /// above `ts` is safe until the returned pin is deregistered.
    #[must_use]
    pub fn register(&self, ts: Timestamp) -> TxnPin {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq = inner.next_seq.wrapping_add(1);
        inner.live += 1;
        let slot = match inner.free.pop() {
            Some(slot) => {
                inner.slots[slot] = Some((ts, seq));
                slot
            }
            None => {
                inner.slots.push(Some((ts, seq)));
                inner.slots.len() - 1
            }
        };
        TxnPin { ts, slot, seq }
    }

    /// Deregisters a finished transaction. Idempotent.
    pub fn deregister(&self, pin: TxnPin) {
        let mut inner = self.inner.lock();
        if inner.slots.get(pin.slot).copied().flatten() == Some((pin.ts, pin.seq)) {
            inner.slots[pin.slot] = None;
            inner.free.push(pin.slot);
            inner.live -= 1;
        }
    }

    /// The smallest pinned timestamp among active transactions, or `None`
    /// when no transaction is in flight (any lag-derived bound is then safe).
    #[must_use]
    pub fn low_watermark(&self) -> Option<Timestamp> {
        let inner = self.inner.lock();
        inner.slots.iter().flatten().map(|(ts, _)| *ts).min()
    }

    /// Number of transactions currently registered.
    #[must_use]
    pub fn active_count(&self) -> usize {
        let inner = self.inner.lock();
        inner.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: u64) -> Timestamp {
        Timestamp::at(v)
    }

    #[test]
    fn watermark_is_the_minimum_active_pin() {
        let reg = ActiveTxnRegistry::new();
        assert_eq!(reg.low_watermark(), None);
        let a = reg.register(ts(10));
        let b = reg.register(ts(5));
        let c = reg.register(ts(20));
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
        let a = reg.register(ts(7));
        let b = reg.register(ts(7));
        reg.deregister(a);
        // The second pin at the same timestamp still holds the watermark.
        assert_eq!(reg.low_watermark(), Some(ts(7)));
        reg.deregister(b);
        assert_eq!(reg.low_watermark(), None);
    }

    #[test]
    fn deregister_is_idempotent() {
        let reg = ActiveTxnRegistry::new();
        let a = reg.register(ts(3));
        let b = reg.register(ts(3));
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
                        let pin = reg.register(ts(t * 1_000 + i));
                        let _ = reg.low_watermark();
                        reg.deregister(pin);
                    }
                });
            }
        });
        assert_eq!(reg.active_count(), 0);
        assert_eq!(reg.low_watermark(), None);
    }
}
