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
//!
//! Every version also carries its *read high-water mark*: the largest commit
//! timestamp of a committed transaction that read it. That is MVTO+'s
//! per-version read timestamp (§3), and it is what the MVTL engine keeps
//! instead of frozen lock entries: a version at `ts` read up to `read_hw`
//! stands for a frozen write lock at `ts` and a frozen read run
//! `[ts+1, read_hw]`, and the §6 purge discards that state together with the
//! version.

use crate::VersionStats;
use mvtl_common::{Timestamp, TsRange};

/// A single committed version of a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version<V> {
    /// Commit timestamp of the transaction that produced the version.
    pub timestamp: Timestamp,
    /// The committed value.
    pub value: V,
}

/// Versions stored inline before a chain borrows a spill buffer.
pub const INLINE_VERSIONS: usize = 3;

/// Spill buffers a [`ChainArena`] keeps for reuse; beyond this they are
/// simply dropped (the arena is per-stripe, so this bounds pooled memory).
const MAX_POOLED: usize = 64;

/// One stored version and its read high-water mark (`ts` while unread).
///
/// Both timestamps are kept as their parts, so the two `u32` process ids
/// share one word instead of padding one each: a `u64` version then fits
/// 32 bytes, and three of them fit a key's inline storage.
#[derive(Debug)]
struct Slot<V> {
    ts_value: u64,
    hw_value: u64,
    ts_process: u32,
    hw_process: u32,
    value: V,
}

impl<V> Slot<V> {
    fn new(ts: Timestamp, value: V) -> Self {
        Slot {
            ts_value: ts.value,
            hw_value: ts.value,
            ts_process: ts.process,
            hw_process: ts.process,
            value,
        }
    }

    #[inline]
    fn ts(&self) -> Timestamp {
        Timestamp::new(self.ts_value, self.ts_process)
    }

    #[inline]
    fn read_hw(&self) -> Timestamp {
        Timestamp::new(self.hw_value, self.hw_process)
    }

    fn set_read_hw(&mut self, hw: Timestamp) {
        self.hw_value = hw.value;
        self.hw_process = hw.process;
    }
}

/// Where a chain's versions live: inline while they fit, otherwise all of
/// them in a spill buffer, which then occupies the inline slots' bytes.
#[derive(Debug)]
enum Versions<V> {
    /// The first `len` slots are live, sorted by timestamp.
    Inline {
        len: u8,
        slots: [Option<Slot<V>>; INLINE_VERSIONS],
    },
    /// Every version, sorted, in a buffer borrowed from the arena.
    Spilled(Vec<Slot<V>>),
}

/// A per-stripe pool of recycled spill buffers for [`ArenaChain`]s.
#[derive(Debug)]
pub struct ChainArena<V> {
    free: Vec<Vec<Slot<V>>>,
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
    fn take(&mut self) -> Vec<Slot<V>> {
        self.free
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(INLINE_VERSIONS * 4))
    }

    /// Returns a spill buffer to the pool (cleared), or drops it when the
    /// pool is full.
    fn put(&mut self, mut buffer: Vec<Slot<V>>) {
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
/// versions, and then from the stripe's [`ChainArena`]. Mutating operations
/// take the arena explicitly: the chain and its arena live under the same
/// stripe latch.
///
/// Each version, `⊥` included, has a read high-water mark
/// ([`ArenaChain::raise_read_hw`]). Callers keep one invariant: a version's
/// mark never passes the next version, so the spans `[ts, read_hw]` of
/// consecutive versions never overlap by more than the next version's own
/// timestamp. Both sides are debug-asserted.
#[derive(Debug)]
pub struct ArenaChain<V> {
    versions: Versions<V>,
    purged_below: Timestamp,
    purged_count: usize,
    /// The read high-water mark of `⊥`; `ZERO` while unread, and reset when
    /// a purge passes the first version.
    bottom_read_hw: Timestamp,
}

impl<V> Versions<V> {
    fn empty() -> Self {
        Versions::Inline {
            len: 0,
            slots: std::array::from_fn(|_| None),
        }
    }
}

impl<V> Default for ArenaChain<V> {
    fn default() -> Self {
        ArenaChain {
            versions: Versions::empty(),
            purged_below: Timestamp::ZERO,
            purged_count: 0,
            bottom_read_hw: Timestamp::ZERO,
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
        match &self.versions {
            Versions::Inline { len, .. } => usize::from(*len),
            Versions::Spilled(versions) => versions.len(),
        }
    }

    /// Whether no committed version exists (only the implicit `⊥`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn entry(&self, index: usize) -> &Slot<V> {
        match &self.versions {
            Versions::Inline { slots, .. } => {
                slots[index].as_ref().expect("index within live prefix")
            }
            Versions::Spilled(versions) => &versions[index],
        }
    }

    #[inline]
    fn entry_mut(&mut self, index: usize) -> &mut Slot<V> {
        match &mut self.versions {
            Versions::Inline { slots, .. } => {
                slots[index].as_mut().expect("index within live prefix")
            }
            Versions::Spilled(versions) => &mut versions[index],
        }
    }

    /// Index of the version at exactly `ts` (`Ok`) or where it would be
    /// inserted (`Err`), over the sorted version sequence.
    fn position(&self, ts: Timestamp) -> Result<usize, usize> {
        let mut lo = 0usize;
        let mut hi = self.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.entry(mid).ts().cmp(&ts) {
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
            Ok(index) => Some(std::mem::replace(&mut self.entry_mut(index).value, value)),
            Err(index) => {
                debug_assert!(
                    self.read_hw_below(index) < ts,
                    "version {ts} installed inside the read run of the version below it"
                );
                self.insert_at(index, Slot::new(ts, value), arena);
                None
            }
        }
    }

    /// The read high-water mark of the version before index `index`: `⊥`'s
    /// when there is none.
    fn read_hw_below(&self, index: usize) -> Timestamp {
        match index {
            0 => self.bottom_read_hw,
            i => self.entry(i - 1).read_hw(),
        }
    }

    fn insert_at(&mut self, index: usize, slot: Slot<V>, arena: &mut ChainArena<V>) {
        match &mut self.versions {
            Versions::Spilled(versions) => versions.insert(index, slot),
            Versions::Inline { len, slots } if usize::from(*len) < INLINE_VERSIONS => {
                // Shift the tail right one slot and drop the new version in.
                slots[index..=usize::from(*len)].rotate_right(1);
                slots[index] = Some(slot);
                *len += 1;
            }
            Versions::Inline { slots, .. } => {
                // Inline capacity exhausted: borrow a spill buffer.
                let mut versions = arena.take();
                versions.extend(slots.iter_mut().filter_map(Option::take));
                versions.insert(index, slot);
                self.versions = Versions::Spilled(versions);
            }
        }
    }

    /// Records that a transaction which read the version at `version`
    /// committed at `to`: the version's read high-water mark becomes at
    /// least `to`. `Timestamp::ZERO` names `⊥`. A version that is no longer
    /// stored — purged, or `⊥` once a purge has passed a version — has no
    /// mark left to raise, and the call does nothing.
    pub fn raise_read_hw(&mut self, version: Timestamp, to: Timestamp) {
        let next = if version == Timestamp::ZERO {
            if self.purged_count > 0 || to <= self.bottom_read_hw {
                return;
            }
            self.bottom_read_hw = to;
            0
        } else {
            let Ok(index) = self.position(version) else {
                return;
            };
            let slot = self.entry_mut(index);
            if to <= slot.read_hw() {
                return;
            }
            slot.set_read_hw(to);
            index + 1
        };
        debug_assert!(
            next >= self.len() || to <= self.entry(next).ts(),
            "read run of {version} raised to {to}, past the next version"
        );
    }

    /// The read high-water mark of the version at `version` (`ZERO` names
    /// `⊥`), or `None` when no such version is stored.
    #[must_use]
    pub fn read_hw(&self, version: Timestamp) -> Option<Timestamp> {
        if version == Timestamp::ZERO {
            return (self.purged_count == 0).then_some(self.bottom_read_hw);
        }
        self.position(version)
            .ok()
            .map(|index| self.entry(index).read_hw())
    }

    /// The oldest version at or after `ts`, if any.
    #[must_use]
    pub fn first_at_or_after(&self, ts: Timestamp) -> Option<Timestamp> {
        let index = match self.position(ts) {
            Ok(index) | Err(index) => index,
        };
        (index < self.len()).then(|| self.entry(index).ts())
    }

    /// The spans `[ts, read_hw]` of the versions that overlap `range`, in
    /// timestamp order; `⊥`'s span is `[ZERO + 1, read_hw]` and exists only
    /// once `⊥` has been read. Only the version just below `range.start` and
    /// the versions inside `range` can contribute, so this costs a binary
    /// search plus the overlap.
    pub fn spans(&self, range: TsRange) -> impl Iterator<Item = TsRange> + '_ {
        let first = match self.position(range.start) {
            Ok(index) => index,
            Err(index) => index.saturating_sub(1),
        };
        let bottom = (first == 0 && self.bottom_read_hw > Timestamp::ZERO)
            .then(|| TsRange::new(Timestamp::ZERO.succ(), self.bottom_read_hw));
        let versions = (first..self.len())
            .map(move |i| self.entry(i))
            .take_while(move |slot| slot.ts() <= range.end)
            .map(|slot| TsRange::new(slot.ts(), slot.read_hw()));
        bottom
            .into_iter()
            .chain(versions)
            .filter(move |span| span.overlaps(&range))
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
            let slot = self.entry(below - 1);
            Ok((slot.ts(), Some(slot.value.clone())))
        }
    }

    /// The value committed exactly at `ts`, if any.
    #[must_use]
    pub fn at(&self, ts: Timestamp) -> Option<&V> {
        match self.position(ts) {
            Ok(index) => Some(&self.entry(index).value),
            Err(_) => None,
        }
    }

    /// The largest committed timestamp, if any version exists.
    #[must_use]
    pub fn latest(&self) -> Option<(Timestamp, &V)> {
        match self.len() {
            0 => None,
            n => {
                let slot = self.entry(n - 1);
                Some((slot.ts(), &slot.value))
            }
        }
    }

    /// Purges versions with timestamp below `bound`, keeping the most recent
    /// version below the bound (§6) together with its read high-water mark;
    /// the marks of the purged versions, and `⊥`'s once any version lies
    /// below the bound, go with them. A spilled chain that shrinks back
    /// under the inline capacity returns its buffer to the arena. Returns how
    /// many versions were removed.
    pub fn purge_below(&mut self, bound: Timestamp, arena: &mut ChainArena<V>) -> usize {
        let below = match self.position(bound) {
            // `position` finds the first version >= bound; everything before
            // it is below the bound, and the last of those is retained.
            Ok(index) | Err(index) => index,
        };
        if below > 0 {
            self.bottom_read_hw = Timestamp::ZERO;
        }
        if bound > self.purged_below {
            self.purged_below = bound;
        }
        let removed = below.saturating_sub(1);
        if removed == 0 {
            return 0;
        }
        match &mut self.versions {
            Versions::Spilled(versions) => {
                versions.drain(..removed);
                if versions.len() <= INLINE_VERSIONS {
                    let len = versions.len() as u8;
                    let mut drained = versions.drain(..);
                    let slots = std::array::from_fn(|_| drained.next());
                    drop(drained);
                    let inline = Versions::Inline { len, slots };
                    if let Versions::Spilled(buffer) = std::mem::replace(&mut self.versions, inline)
                    {
                        arena.put(buffer);
                    }
                }
            }
            Versions::Inline { len, slots } => {
                slots[..usize::from(*len)].rotate_left(removed);
                for slot in &mut slots[usize::from(*len) - removed..] {
                    *slot = None;
                }
                *len -= removed as u8;
            }
        }
        self.purged_count += removed;
        removed
    }

    /// Releases the chain's spill buffer (if any) back to the arena; called
    /// when the owning cell is reclaimed.
    pub fn release(&mut self, arena: &mut ChainArena<V>) {
        if let Versions::Spilled(buffer) = std::mem::replace(&mut self.versions, Versions::empty())
        {
            arena.put(buffer);
        }
    }

    /// Iterates over the committed versions in timestamp order.
    pub fn iter(&self) -> impl Iterator<Item = Version<V>> + '_ {
        (0..self.len()).map(move |i| {
            let slot = self.entry(i);
            Version {
                timestamp: slot.ts(),
                value: slot.value.clone(),
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
        let read = (0..self.len())
            .filter(|&i| self.entry(i).read_hw() > self.entry(i).ts())
            .count();
        VersionStats {
            versions: self.len(),
            purged: self.purged_count,
            read_runs: read + usize::from(self.bottom_read_hw > Timestamp::ZERO),
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

    fn spans(chain: &ArenaChain<u64>, a: u64, b: u64) -> Vec<TsRange> {
        chain.spans(TsRange::new(ts(a), ts(b))).collect()
    }

    #[test]
    fn read_high_water_marks_extend_version_spans() {
        let mut arena = ChainArena::new();
        let mut chain = ArenaChain::new();
        for v in [10u64, 20, 30] {
            chain.install(ts(v), v, &mut arena);
        }
        chain.raise_read_hw(ts(10), ts(15));
        chain.raise_read_hw(ts(10), ts(12));
        chain.raise_read_hw(Timestamp::ZERO, ts(5));
        chain.raise_read_hw(ts(11), ts(19));
        assert_eq!(chain.read_hw(ts(10)), Some(ts(15)), "marks only rise");
        assert_eq!(chain.read_hw(ts(20)), Some(ts(20)), "unread: its own ts");
        assert_eq!(chain.read_hw(ts(11)), None, "no version to raise");
        // The version just below the request and those inside it.
        assert_eq!(
            spans(&chain, 12, 25),
            [TsRange::new(ts(10), ts(15)), TsRange::point(ts(20))]
        );
        assert_eq!(spans(&chain, 16, 19), []);
        assert_eq!(
            spans(&chain, 1, 3),
            [TsRange::new(Timestamp::ZERO.succ(), ts(5))]
        );
        assert_eq!(chain.first_at_or_after(ts(11)), Some(ts(20)));
        assert_eq!(chain.first_at_or_after(ts(31)), None);
        assert_eq!(chain.stats().read_runs, 2);
    }

    #[test]
    fn purge_keeps_the_read_run_of_the_newest_version_below_the_bound() {
        let mut arena = ChainArena::new();
        let mut chain = ArenaChain::new();
        chain.raise_read_hw(Timestamp::ZERO, ts(9));
        for v in [10u64, 20, 30] {
            chain.install(ts(v), v, &mut arena);
            chain.raise_read_hw(ts(v), ts(v + 5));
        }
        assert_eq!(chain.stats().read_runs, 4);
        assert_eq!(chain.purge_below(ts(27), &mut arena), 1);
        // 10 and its run went, and `⊥`'s with them; 20 keeps its run.
        assert_eq!(chain.read_hw(Timestamp::ZERO), None);
        assert_eq!(chain.read_hw(ts(20)), Some(ts(25)));
        assert_eq!(spans(&chain, 1, 40).len(), 2);
        assert_eq!(chain.stats().read_runs, 2);
        // A reader of a purged version has no mark left to raise.
        chain.raise_read_hw(ts(10), ts(19));
        chain.raise_read_hw(Timestamp::ZERO, ts(19));
        assert_eq!(chain.stats().read_runs, 2);
    }
}
