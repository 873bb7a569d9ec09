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
//! Every version also carries its *read high-water mark*: how far up the
//! timestamp order it has been read. That is MVTO+'s per-version read
//! timestamp (§3): the MVTO+ baseline raises it at every read to the
//! reader's timestamp `.pred()`, so that a reader may still write the key at
//! its own timestamp. The MVTL engine raises it to the commit timestamp of
//! each committed reader and keeps it instead of frozen lock entries: a
//! version at `ts` read up to `read_hw` stands for a frozen write lock at
//! `ts` and a frozen read run `[ts+1, read_hw]`, and the §6 purge discards
//! that state together with the version.

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
/// simply dropped. The arena is per-stripe and a pooled buffer keeps the
/// capacity it grew to, so this bounds memory that no chain uses.
const MAX_POOLED: usize = 8;

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
///
/// The purge bound and `⊥`'s mark are kept as their parts, like a
/// version slot's two timestamps, so their process ids share one word.
#[derive(Debug)]
pub struct ArenaChain<V> {
    versions: Versions<V>,
    purged_count: usize,
    purged_below_value: u64,
    /// The read high-water mark of `⊥`; `ZERO` while unread, and reset when
    /// a purge passes the first version.
    bottom_hw_value: u64,
    purged_below_process: u32,
    bottom_hw_process: u32,
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
            purged_count: 0,
            purged_below_value: Timestamp::ZERO.value,
            bottom_hw_value: Timestamp::ZERO.value,
            purged_below_process: Timestamp::ZERO.process,
            bottom_hw_process: Timestamp::ZERO.process,
        }
    }
}

impl<V: Clone> ArenaChain<V> {
    /// Creates a chain holding only the implicit initial `⊥` version.
    #[must_use]
    pub fn new() -> Self {
        ArenaChain::default()
    }

    /// The read high-water mark of `⊥`.
    #[inline]
    fn bottom_read_hw(&self) -> Timestamp {
        Timestamp::new(self.bottom_hw_value, self.bottom_hw_process)
    }

    fn set_bottom_read_hw(&mut self, hw: Timestamp) {
        self.bottom_hw_value = hw.value;
        self.bottom_hw_process = hw.process;
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
    ///
    /// Anchors, installs and read-mark raises land near the newest version,
    /// so the search gallops down from the top — probing 1, 2, 4, … versions
    /// below it — and bisects only the bracket it finds: a probe near the
    /// top of a long chain touches a few adjacent slots, not a cache line
    /// per halving of the whole chain.
    fn position(&self, ts: Timestamp) -> Result<usize, usize> {
        // Every version at or above `hi` is newer than `ts`.
        let mut hi = self.len();
        let mut step = 1;
        let mut lo = loop {
            if step > hi {
                break 0;
            }
            let probe = hi - step;
            match self.entry(probe).ts().cmp(&ts) {
                std::cmp::Ordering::Greater => {
                    hi = probe;
                    step *= 2;
                }
                std::cmp::Ordering::Equal => return Ok(probe),
                std::cmp::Ordering::Less => break probe + 1,
            }
        };
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
            0 => self.bottom_read_hw(),
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
            if self.purged_count > 0 || to <= self.bottom_read_hw() {
                return;
            }
            self.set_bottom_read_hw(to);
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
            return (self.purged_count == 0).then_some(self.bottom_read_hw());
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
    /// the versions inside `range` can contribute, so this costs two binary
    /// searches plus the overlap, and the iterator reports a tight upper
    /// bound on its length.
    pub fn spans(&self, range: TsRange) -> impl Iterator<Item = TsRange> + '_ {
        let first = match self.position(range.start) {
            Ok(index) => index,
            Err(index) => index.saturating_sub(1),
        };
        let end = match self.position(range.end) {
            Ok(index) => index + 1,
            Err(index) => index,
        };
        let bottom_hw = self.bottom_read_hw();
        let bottom = (first == 0 && bottom_hw > Timestamp::ZERO)
            .then(|| TsRange::new(Timestamp::ZERO.succ(), bottom_hw));
        let versions = (first..end)
            .map(move |i| self.entry(i))
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
            let purged_below = self.purged_below();
            if self.purged_count > 0 && ts <= purged_below {
                // Versions below purged_below were discarded; a read below
                // that bound can no longer be served correctly.
                Err(purged_below)
            } else {
                Ok((Timestamp::ZERO, None))
            }
        } else {
            let slot = self.entry(below - 1);
            Ok((slot.ts(), Some(slot.value.clone())))
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
    /// many versions were removed; [`ArenaChain::purge`] also counts the
    /// read runs.
    pub fn purge_below(&mut self, bound: Timestamp, arena: &mut ChainArena<V>) -> usize {
        self.purge(bound, arena).0
    }

    /// [`ArenaChain::purge_below`], returning the versions and the read runs
    /// removed, `⊥`'s included. Only the removed slots are read.
    pub fn purge(&mut self, bound: Timestamp, arena: &mut ChainArena<V>) -> (usize, usize) {
        let below = match self.position(bound) {
            // `position` finds the first version >= bound; everything before
            // it is below the bound, and the last of those is retained.
            Ok(index) | Err(index) => index,
        };
        let mut runs = 0;
        if below > 0 {
            runs += usize::from(self.bottom_read_hw() > Timestamp::ZERO);
            self.set_bottom_read_hw(Timestamp::ZERO);
        }
        if bound > self.purged_below() {
            self.purged_below_value = bound.value;
            self.purged_below_process = bound.process;
        }
        let removed = below.saturating_sub(1);
        if removed == 0 {
            return (0, runs);
        }
        runs += (0..removed)
            .filter(|&i| {
                let slot = self.entry(i);
                slot.read_hw() > slot.ts()
            })
            .count();
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
        (removed, runs)
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
        Timestamp::new(self.purged_below_value, self.purged_below_process)
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
            read_runs: read + usize::from(self.bottom_read_hw() > Timestamp::ZERO),
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
        assert_eq!(chain.latest_before(ts(9).succ()), Ok((ts(9), Some("b"))));
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
        assert_eq!(chain.latest_before(ts(3).succ()), Ok((ts(3), Some(2))));
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

    /// A chain of versions at `10, 20, ...` (`count` of them), every other
    /// one read half-way to the next, and `⊥` read when `bottom_read`.
    fn read_chain(count: u64, bottom_read: bool, arena: &mut ChainArena<u64>) -> ArenaChain<u64> {
        let mut chain = ArenaChain::new();
        if bottom_read {
            chain.raise_read_hw(Timestamp::ZERO, ts(5));
        }
        for v in 1..=count {
            chain.install(ts(v * 10), v, arena);
            if v % 2 == 1 {
                chain.raise_read_hw(ts(v * 10), ts(v * 10 + 5));
            }
        }
        chain
    }

    #[test]
    fn purge_reports_the_read_runs_a_stats_scan_would_lose() {
        for (count, bottom_read) in [(2, false), (3, true), (8, false), (8, true), (0, true)] {
            for bound in [1, 10, 11, 15, 25, 31, 45, 60, 85, 200] {
                let mut arena = ChainArena::new();
                let mut scanned = read_chain(count, bottom_read, &mut arena);
                // The count as two scans find it: only a chain whose oldest
                // version lies below the bound loses runs.
                let touched = scanned
                    .first_at_or_after(Timestamp::ZERO)
                    .is_some_and(|oldest| oldest < ts(bound));
                let before = scanned.stats().read_runs;
                let versions = scanned.purge_below(ts(bound), &mut arena);
                let lost = if touched {
                    before - scanned.stats().read_runs
                } else {
                    0
                };
                let mut counted = read_chain(count, bottom_read, &mut arena);
                assert_eq!(
                    counted.purge(ts(bound), &mut arena),
                    (versions, lost),
                    "{count} versions, bottom read {bottom_read}, bound {bound}"
                );
                assert_eq!(counted.stats(), scanned.stats());
            }
        }
    }

    #[test]
    fn a_chain_packs_its_purge_bound_and_bottom_mark() {
        assert_eq!(std::mem::size_of::<ArenaChain<u64>>(), 160);
    }

    /// The searches' reference: a sorted `(ts, value, read_hw)` list, `⊥`'s
    /// mark, and the purge state, searched with `slice::binary_search_by`.
    #[derive(Debug, Default)]
    struct SearchModel {
        versions: Vec<(Timestamp, u64, Timestamp)>,
        bottom_hw: Timestamp,
        purged: usize,
        purged_below: Timestamp,
    }

    impl SearchModel {
        fn position(&self, ts: Timestamp) -> Result<usize, usize> {
            self.versions.binary_search_by(|&(t, ..)| t.cmp(&ts))
        }

        fn purge(&mut self, bound: Timestamp) {
            let below = self.versions.partition_point(|&(t, ..)| t < bound);
            if below > 0 {
                self.bottom_hw = Timestamp::ZERO;
            }
            let removed = below.saturating_sub(1);
            self.versions.drain(..removed);
            self.purged += removed;
            self.purged_below = self.purged_below.max(bound);
        }

        fn latest_before(&self, ts: Timestamp) -> Result<(Timestamp, Option<u64>), Timestamp> {
            match self.position(ts) {
                Ok(0) | Err(0) if self.purged > 0 && ts <= self.purged_below => {
                    Err(self.purged_below)
                }
                Ok(0) | Err(0) => Ok((Timestamp::ZERO, None)),
                Ok(i) | Err(i) => Ok((self.versions[i - 1].0, Some(self.versions[i - 1].1))),
            }
        }

        fn first_at_or_after(&self, ts: Timestamp) -> Option<Timestamp> {
            let (Ok(i) | Err(i)) = self.position(ts);
            self.versions.get(i).map(|&(t, ..)| t)
        }

        /// Every span, `⊥`'s included, that overlaps `range`: a full scan.
        fn spans(&self, range: TsRange) -> Vec<TsRange> {
            let bottom = (self.bottom_hw > Timestamp::ZERO)
                .then(|| TsRange::new(Timestamp::ZERO.succ(), self.bottom_hw));
            bottom
                .into_iter()
                .chain(self.versions.iter().map(|&(t, _, hw)| TsRange::new(t, hw)))
                .filter(|span| span.overlaps(&range))
                .collect()
        }
    }

    /// The timestamps of `range` that `spans` cover.
    fn covered(spans: &[TsRange], range: TsRange) -> mvtl_common::TsSet {
        let mut set = mvtl_common::TsSet::new();
        for span in spans {
            set.insert_range(*span);
        }
        set.intersect_range(range);
        set
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn chain_searches_match_a_binary_search_reference(
            gaps in proptest::prop_oneof![
                proptest::collection::vec((1u64..4, 0u32..3, 0u8..3), 0..INLINE_VERSIONS + 2),
                proptest::collection::vec((1u64..4, 0u32..3, 0u8..3), 0..300),
            ],
            bottom_read in 0u8..2,
            purge in (0u8..2, 0u64..=100),
        ) {
            use proptest::prelude::*;
            let mut arena = ChainArena::new();
            let mut chain = ArenaChain::new();
            let mut model = SearchModel::default();
            let mut value = 0;
            for &(gap, process, _) in &gaps {
                value += gap;
                model.versions.push((Timestamp::new(value, process), value, Timestamp::ZERO));
            }
            // Install the even versions oldest first, then the odd ones newest
            // first, so inserts land at the top, the bottom and in between.
            let order = (0..model.versions.len())
                .step_by(2)
                .chain((1..model.versions.len()).step_by(2).rev());
            for i in order {
                let (t, v, _) = model.versions[i];
                prop_assert_eq!(chain.install(t, v, &mut arena), None);
            }
            // Read runs: up to the next version, one tick, or none.
            let nexts: Vec<Timestamp> = model.versions.iter().skip(1).map(|v| v.0)
                .chain([Timestamp::new(value + 9, 0)]).collect();
            for ((version, &(.., run)), next) in model.versions.iter_mut().zip(&gaps).zip(nexts) {
                let t = version.0;
                version.2 = match run {
                    0 => t,
                    1 => t.succ().min(next),
                    _ => next,
                };
                chain.raise_read_hw(t, version.2);
            }
            if bottom_read == 1 {
                model.bottom_hw = model.versions.first().map_or(Timestamp::at(5), |v| v.0);
                chain.raise_read_hw(Timestamp::ZERO, model.bottom_hw);
            }
            if purge.0 == 1 {
                // At a percentile of the chain's timestamps.
                let bound = Timestamp::new(value * purge.1 / 100, 1);
                model.purge(bound);
                chain.purge_below(bound, &mut arena);
            }
            prop_assert_eq!(chain.len(), model.versions.len());

            // Below, on, just around and above every version.
            let mut probes = vec![Timestamp::ZERO, Timestamp::at(1), Timestamp::MAX];
            for &(t, ..) in &model.versions {
                probes.extend([t.pred(), t, t.succ(), Timestamp::new(t.value, u32::MAX)]);
            }
            probes.push(Timestamp::new(value + 1, 0));
            probes.sort();
            for (i, &probe) in probes.iter().enumerate() {
                prop_assert_eq!(chain.position(probe), model.position(probe), "position({:?})", probe);
                prop_assert_eq!(chain.latest_before(probe), model.latest_before(probe),
                    "latest_before({:?})", probe);
                prop_assert_eq!(chain.first_at_or_after(probe), model.first_at_or_after(probe),
                    "first_at_or_after({:?})", probe);
                // `spans` may leave out a span that reaches `range.start` only
                // at the next version's own timestamp, which that version's
                // span covers: it reports overlapping spans, in order, that
                // cover what all of them cover.
                for width in [0, 1, 3, 40] {
                    let end = probes[(i + width).min(probes.len() - 1)];
                    let range = TsRange::new(probe, end);
                    let fast: Vec<TsRange> = chain.spans(range).collect();
                    let all = model.spans(range);
                    let mut rest = all.iter();
                    prop_assert!(fast.iter().all(|span| rest.any(|s| s == span)),
                        "spans({:?}) = {:?}, not in order among {:?}", range, fast, all);
                    prop_assert_eq!(covered(&fast, range), covered(&all, range),
                        "spans({:?})", range);
                }
            }
        }
    }
}
