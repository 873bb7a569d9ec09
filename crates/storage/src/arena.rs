//! Arena-backed version chains: a small inline capacity per key, spilling to
//! a per-stripe recycled buffer only for version-heavy keys.
//!
//! The `BTreeMap` chains allocated a node per version and kept allocating as
//! versions were purged and reinstalled. Here a chain stores its newest
//! versions in a fixed inline array — for small values like `u64` that means
//! a committed write touches no allocator at all — and only keys that
//! accumulate more than [`INLINE_VERSIONS`] live versions borrow a spill
//! buffer from the stripe's [`ChainArena`]. When `purge_below` (§6) shrinks a
//! spilled chain back under the inline capacity, the buffer returns to the
//! arena for the next hot key, so a steady-state workload with GC recycles a
//! bounded set of buffers instead of churning the allocator.

use crate::VersionStats;
use mvtl_common::Timestamp;

/// A single committed version of a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version<V> {
    /// Commit timestamp of the transaction that produced the version.
    pub timestamp: Timestamp,
    /// The committed value.
    pub value: V,
}

/// Versions stored inline before a chain borrows a spill buffer.
pub const INLINE_VERSIONS: usize = 4;

/// Spill buffers a [`ChainArena`] keeps for reuse; beyond this they are
/// simply dropped (the arena is per-stripe, so this bounds pooled memory).
const MAX_POOLED: usize = 64;

/// A per-stripe pool of recycled spill buffers for [`ArenaChain`]s.
#[derive(Debug)]
pub struct ChainArena<V> {
    free: Vec<Vec<(Timestamp, V)>>,
}

impl<V> Default for ChainArena<V> {
    fn default() -> Self {
        ChainArena { free: Vec::new() }
    }
}

impl<V> ChainArena<V> {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        ChainArena::default()
    }

    /// Borrows a cleared spill buffer, reusing a pooled one when available.
    pub fn take(&mut self) -> Vec<(Timestamp, V)> {
        self.free
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(INLINE_VERSIONS * 2))
    }

    /// Returns a spill buffer to the pool (cleared), or drops it when the
    /// pool is full.
    pub fn put(&mut self, mut buffer: Vec<(Timestamp, V)>) {
        if self.free.len() < MAX_POOLED {
            buffer.clear();
            self.free.push(buffer);
        }
    }

    /// Number of buffers currently pooled.
    #[must_use]
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

/// The committed versions of one key, ordered by timestamp, with inline
/// storage for the common case.
///
/// The implicit initial version `⊥` at [`Timestamp::ZERO`] is always present
/// (the paper's `Values[k, 0] = ⊥`), and purged reads report the purge bound.
/// Allocation only happens when a key exceeds [`INLINE_VERSIONS`] live
/// versions, and then from the stripe's [`ChainArena`]. Mutating operations take the arena explicitly: the chain
/// and its arena live under the same stripe latch.
#[derive(Debug)]
pub struct ArenaChain<V> {
    /// Live prefix of length `inline_len`, sorted by timestamp; unused when
    /// `spill` is `Some`.
    slots: [Option<(Timestamp, V)>; INLINE_VERSIONS],
    inline_len: u8,
    /// When present, holds *all* versions (sorted); the inline slots are empty.
    spill: Option<Vec<(Timestamp, V)>>,
    purged_below: Timestamp,
    purged_count: usize,
}

impl<V> Default for ArenaChain<V> {
    fn default() -> Self {
        ArenaChain {
            slots: [None, None, None, None],
            inline_len: 0,
            spill: None,
            purged_below: Timestamp::ZERO,
            purged_count: 0,
        }
    }
}

impl<V: Clone> ArenaChain<V> {
    /// Creates a chain holding only the implicit initial `⊥` version.
    #[must_use]
    pub fn new() -> Self {
        ArenaChain::default()
    }

    /// Number of committed versions currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.spill {
            Some(versions) => versions.len(),
            None => usize::from(self.inline_len),
        }
    }

    /// Whether no committed version exists (only the implicit `⊥`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn entry(&self, index: usize) -> &(Timestamp, V) {
        match &self.spill {
            Some(versions) => &versions[index],
            None => self.slots[index]
                .as_ref()
                .expect("index within live prefix"),
        }
    }

    /// Index of the version at exactly `ts` (`Ok`) or where it would be
    /// inserted (`Err`), over the sorted version sequence.
    fn position(&self, ts: Timestamp) -> Result<usize, usize> {
        let mut lo = 0usize;
        let mut hi = self.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.entry(mid).0.cmp(&ts) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Installs a committed version at `ts`. Timestamps are unique per
    /// committing transaction (§4.1), so a duplicate indicates an engine bug;
    /// the newer value wins and the previous value is returned for the caller
    /// to detect it.
    pub fn install(&mut self, ts: Timestamp, value: V, arena: &mut ChainArena<V>) -> Option<V> {
        match self.position(ts) {
            Ok(index) => {
                let slot = match &mut self.spill {
                    Some(versions) => &mut versions[index],
                    None => self.slots[index]
                        .as_mut()
                        .expect("index within live prefix"),
                };
                Some(std::mem::replace(&mut slot.1, value))
            }
            Err(index) => {
                self.insert_at(index, ts, value, arena);
                None
            }
        }
    }

    fn insert_at(&mut self, index: usize, ts: Timestamp, value: V, arena: &mut ChainArena<V>) {
        if let Some(versions) = &mut self.spill {
            versions.insert(index, (ts, value));
            return;
        }
        let len = usize::from(self.inline_len);
        if len < INLINE_VERSIONS {
            // Shift the tail right one slot and drop the new version in.
            let mut i = len;
            while i > index {
                self.slots[i] = self.slots[i - 1].take();
                i -= 1;
            }
            self.slots[index] = Some((ts, value));
            self.inline_len += 1;
            return;
        }
        // Inline capacity exhausted: borrow a spill buffer from the arena.
        let mut versions = arena.take();
        for slot in &mut self.slots {
            versions.extend(slot.take());
        }
        versions.insert(index, (ts, value));
        self.inline_len = 0;
        self.spill = Some(versions);
    }

    /// The version with the largest timestamp strictly before `ts`.
    ///
    /// Returns the version's timestamp and its value; `(Timestamp::ZERO, None)`
    /// stands for the initial `⊥` version. Returns `Err(purged_below)` when the
    /// read would need a version that has been purged (§6: such transactions
    /// must abort).
    pub fn latest_before(&self, ts: Timestamp) -> Result<(Timestamp, Option<V>), Timestamp> {
        let below = match self.position(ts) {
            Ok(index) | Err(index) => index,
        };
        if below == 0 {
            if self.purged_count > 0 && ts <= self.purged_below {
                // Versions below purged_below were discarded; a read below
                // that bound can no longer be served correctly.
                Err(self.purged_below)
            } else {
                Ok((Timestamp::ZERO, None))
            }
        } else {
            let (t, v) = self.entry(below - 1);
            Ok((*t, Some(v.clone())))
        }
    }

    /// The value committed exactly at `ts`, if any.
    #[must_use]
    pub fn at(&self, ts: Timestamp) -> Option<&V> {
        match self.position(ts) {
            Ok(index) => Some(&self.entry(index).1),
            Err(_) => None,
        }
    }

    /// The largest committed timestamp, if any version exists.
    #[must_use]
    pub fn latest(&self) -> Option<(Timestamp, &V)> {
        match self.len() {
            0 => None,
            n => {
                let (t, v) = self.entry(n - 1);
                Some((*t, v))
            }
        }
    }

    /// Purges versions with timestamp below `bound`, keeping the most recent
    /// version below the bound (§6). A spilled chain that shrinks back under
    /// the inline capacity returns its buffer to the arena. Returns how many
    /// versions were removed.
    pub fn purge_below(&mut self, bound: Timestamp, arena: &mut ChainArena<V>) -> usize {
        let first_kept = match self.position(bound) {
            // `position` finds the first version >= bound; everything before
            // it is below the bound, and the last of those is retained.
            Ok(index) | Err(index) => index.saturating_sub(1),
        };
        let removed = first_kept;
        if removed == 0 {
            if bound > self.purged_below {
                self.purged_below = bound;
            }
            return 0;
        }
        match &mut self.spill {
            Some(versions) => {
                versions.drain(..removed);
                if versions.len() <= INLINE_VERSIONS {
                    let mut buffer = self.spill.take().expect("spill just matched");
                    for (i, entry) in buffer.drain(..).enumerate() {
                        self.slots[i] = Some(entry);
                        self.inline_len = (i + 1) as u8;
                    }
                    arena.put(buffer);
                }
            }
            None => {
                let len = usize::from(self.inline_len);
                for i in 0..len - removed {
                    self.slots[i] = self.slots[i + removed].take();
                }
                for slot in self.slots.iter_mut().take(len).skip(len - removed) {
                    *slot = None;
                }
                self.inline_len -= removed as u8;
            }
        }
        if bound > self.purged_below {
            self.purged_below = bound;
        }
        self.purged_count += removed;
        removed
    }

    /// Releases the chain's spill buffer (if any) back to the arena; called
    /// when the owning cell is reclaimed.
    pub fn release(&mut self, arena: &mut ChainArena<V>) {
        if let Some(buffer) = self.spill.take() {
            self.inline_len = 0;
            arena.put(buffer);
        }
    }

    /// Iterates over the committed versions in timestamp order.
    pub fn iter(&self) -> impl Iterator<Item = Version<V>> + '_ {
        (0..self.len()).map(move |i| {
            let (t, v) = self.entry(i);
            Version {
                timestamp: *t,
                value: v.clone(),
            }
        })
    }

    /// The purge bound below which old versions have been discarded.
    #[must_use]
    pub fn purged_below(&self) -> Timestamp {
        self.purged_below
    }

    /// Statistics for this chain.
    #[must_use]
    pub fn stats(&self) -> VersionStats {
        VersionStats {
            versions: self.len(),
            purged: self.purged_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: u64) -> Timestamp {
        Timestamp::at(v)
    }

    #[test]
    fn mirrors_version_chain_semantics_inline() {
        let mut arena = ChainArena::new();
        let mut chain = ArenaChain::new();
        chain.install(ts(2), "a", &mut arena);
        chain.install(ts(9), "b", &mut arena);
        assert_eq!(chain.latest_before(ts(6)), Ok((ts(2), Some("a"))));
        assert_eq!(chain.latest_before(ts(2)), Ok((Timestamp::ZERO, None)));
        assert_eq!(chain.latest_before(ts(10)), Ok((ts(9), Some("b"))));
        assert_eq!(chain.at(ts(9)), Some(&"b"));
        assert_eq!(chain.latest().map(|(t, _)| t), Some(ts(9)));
        assert_eq!(arena.pooled(), 0, "two versions stay inline");
    }

    #[test]
    fn spills_past_inline_capacity_and_returns_buffer_on_purge() {
        let mut arena = ChainArena::new();
        let mut chain = ArenaChain::new();
        for v in 1..=8u64 {
            chain.install(ts(v * 10), v, &mut arena);
        }
        assert_eq!(chain.len(), 8);
        assert_eq!(chain.latest_before(ts(45)), Ok((ts(40), Some(4))));
        // Purge down to two live versions: the spill buffer must come back.
        let removed = chain.purge_below(ts(75), &mut arena);
        assert_eq!(removed, 6);
        assert_eq!(chain.len(), 2);
        assert_eq!(arena.pooled(), 1);
        assert_eq!(chain.latest_before(ts(75)), Ok((ts(70), Some(7))));
        assert_eq!(chain.latest_before(ts(50)), Err(ts(75)));
        // The recycled buffer serves the next spill without a fresh allocation.
        for v in 9..=16u64 {
            chain.install(ts(v * 10), v, &mut arena);
        }
        assert_eq!(arena.pooled(), 0);
        assert_eq!(chain.len(), 10);
    }

    #[test]
    fn duplicate_install_returns_previous() {
        let mut arena = ChainArena::new();
        let mut chain = ArenaChain::new();
        assert_eq!(chain.install(ts(3), 1u64, &mut arena), None);
        assert_eq!(chain.install(ts(3), 2u64, &mut arena), Some(1));
        assert_eq!(chain.at(ts(3)), Some(&2));
        assert_eq!(chain.len(), 1);
    }

    #[test]
    fn out_of_order_installs_stay_sorted() {
        let mut arena = ChainArena::new();
        let mut chain = ArenaChain::new();
        for v in [9u64, 1, 4, 7, 2, 8, 3] {
            chain.install(ts(v), v, &mut arena);
        }
        let order: Vec<u64> = chain.iter().map(|v| v.timestamp.value).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 7, 8, 9]);
    }

    #[test]
    fn release_recycles_spill_buffer() {
        let mut arena = ChainArena::new();
        let mut chain = ArenaChain::new();
        for v in 1..=6u64 {
            chain.install(ts(v), v, &mut arena);
        }
        chain.release(&mut arena);
        assert_eq!(arena.pooled(), 1);
        assert!(chain.is_empty());
    }

    #[test]
    fn purge_on_empty_chain_only_moves_bound() {
        let mut arena = ChainArena::new();
        let mut chain: ArenaChain<u64> = ArenaChain::new();
        assert_eq!(chain.purge_below(ts(15), &mut arena), 0);
        assert_eq!(chain.latest_before(ts(7)), Ok((Timestamp::ZERO, None)));
        assert_eq!(chain.purged_below(), ts(15));
    }
}
