//! Striped per-key state: a fixed array of latches, each guarding one
//! [`StripeMap`](crate::StripeMap) (or any other per-stripe aggregate).
//!
//! This replaces the `Vec<RwLock<HashMap<Key, Arc<Cell>>>>` shard layout, in
//! the MVTL engine and both baselines alike: a key operation is route → one
//! mutex → inline entry, instead of hash → shard rwlock → map probe → `Arc`
//! clone → per-cell mutex. Waiters block on the stripe's [`Condvar`] and
//! re-probe after waking, because the stripe map may have rehashed or dropped
//! entries while they slept.
//!
//! Lock-site naming: `Mutex::named` requires literal site names and ranks
//! (the `mvtl-lint` rank table is machine-checked), so [`StripedTable::build`]
//! takes a factory closure and each engine constructs its own named latches —
//! the table itself never names a site.

use mvtl_common::Key;
use parking_lot::{Condvar, Mutex};

use crate::hash::key_hash;

/// One stripe: the latch over the per-stripe state plus the condition
/// variable every lock-waiter on the stripe's keys blocks on.
#[derive(Debug)]
pub struct Stripe<T> {
    /// The stripe's state (typically a [`StripeMap`](crate::StripeMap),
    /// possibly bundled with a per-stripe arena), under one latch.
    pub data: Mutex<T>,
    /// Signalled whenever lock state under this stripe changes in a way that
    /// could unblock a waiter. Waiters must re-probe their key after waking.
    pub changed: Condvar,
}

impl<T> Stripe<T> {
    /// Wakes every transaction waiting on a key of this stripe.
    pub fn notify(&self) {
        self.changed.notify_all();
    }
}

/// A power-of-two array of [`Stripe`]s with high-bit hash routing.
#[derive(Debug)]
pub struct StripedTable<T> {
    stripes: Vec<Stripe<T>>,
    shift: u32,
}

impl<T> StripedTable<T> {
    /// Builds a table of `count` stripes (rounded up to a power of two,
    /// minimum 1). `latch` wraps each stripe's initial state in the engine's
    /// named mutex — the site literal lives at the engine's call site.
    pub fn build(count: usize, mut latch: impl FnMut(T) -> Mutex<T>) -> Self
    where
        T: Default,
    {
        let count = count.max(1).next_power_of_two();
        let mut stripes = Vec::with_capacity(count);
        for _ in 0..count {
            stripes.push(Stripe {
                data: latch(T::default()),
                changed: Condvar::new(),
            });
        }
        StripedTable {
            stripes,
            shift: 64 - count.trailing_zeros(),
        }
    }

    /// Number of stripes.
    #[must_use]
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// The stripe index `key` routes to.
    #[must_use]
    #[inline]
    pub fn stripe_index(&self, key: Key) -> usize {
        if self.stripes.len() == 1 {
            return 0;
        }
        (key_hash(key) >> self.shift) as usize
    }

    /// The stripe `key` routes to.
    #[must_use]
    #[inline]
    pub fn stripe_for(&self, key: Key) -> &Stripe<T> {
        &self.stripes[self.stripe_index(key)]
    }

    /// All stripes, for whole-table sweeps (GC, stats, recovery).
    #[must_use]
    pub fn stripes(&self) -> &[Stripe<T>] {
        &self.stripes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_stable_and_in_range() {
        let table: StripedTable<u64> = StripedTable::build(8, Mutex::new);
        assert_eq!(table.stripe_count(), 8);
        for k in 0..1_000u64 {
            let i = table.stripe_index(Key(k));
            assert!(i < 8);
            assert_eq!(i, table.stripe_index(Key(k)));
        }
    }

    #[test]
    fn count_rounds_up_to_power_of_two() {
        let table: StripedTable<u64> = StripedTable::build(5, Mutex::new);
        assert_eq!(table.stripe_count(), 8);
        let one: StripedTable<u64> = StripedTable::build(0, Mutex::new);
        assert_eq!(one.stripe_count(), 1);
        assert_eq!(one.stripe_index(Key(u64::MAX)), 0);
    }

    #[test]
    fn stripes_are_independent_latches() {
        let table: StripedTable<u64> = StripedTable::build(4, Mutex::new);
        let mut guards = Vec::new();
        for stripe in table.stripes() {
            *stripe.data.lock() += 1;
        }
        // Locking one stripe leaves the others lockable.
        guards.push(table.stripes()[0].data.lock());
        assert!(table.stripes()[1].data.try_lock().is_some());
        drop(guards);
    }
}
