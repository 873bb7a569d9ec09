//! A dense key → state map, the storage inside one stripe.
//!
//! Each key is one record `(Key, S)` in a dense cell vector, found through
//! a power-of-two linear-probing index of 16-byte `(Key, u32)` slots. A
//! probe compares keys in the index and touches the key's cell only on a
//! hit, so the index stays small and cache-dense whatever `S` weighs, and
//! spare capacity costs 16 bytes a slot instead of a whole empty cell.
//! Removal backward-shifts the index (no tombstones) and swap-removes the
//! cell, repointing the slot of the cell that moved into the gap; a whole
//! map walk ([`StripeMap::iter`], [`StripeMap::retain`]) reads the cells in
//! place and never visits an empty slot. The map is a plain data structure
//! with no internal synchronization — the owning stripe guards it with one
//! latch (see [`StripedTable`](crate::StripedTable)).

use crate::hash::key_hash;
use mvtl_common::Key;

/// Initial slot count of an empty map's index; must be a power of two.
const INITIAL_SLOTS: usize = 16;

/// One index slot: a key and the position of its cell, or [`Slot::EMPTY`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: Key,
    cell: u32,
}

impl Slot {
    /// The vacant slot; no cell lives at position `u32::MAX`.
    const EMPTY: Slot = Slot {
        key: Key(0),
        cell: u32::MAX,
    };

    #[inline]
    fn is_empty(self) -> bool {
        self.cell == u32::MAX
    }
}

/// A map from [`Key`] to per-key state `S`: dense cells behind a compact
/// open-addressed index.
///
/// The index grows at ~3/4 load. Its probe sequence uses the low bits of
/// [`key_hash`]; stripe selection uses the high bits, so the two levels of
/// routing stay independent. Cells keep no order: a removal moves the last
/// cell into the gap.
#[derive(Debug)]
pub struct StripeMap<S> {
    cells: Vec<(Key, S)>,
    index: Vec<Slot>,
}

impl<S> Default for StripeMap<S> {
    fn default() -> Self {
        StripeMap::new()
    }
}

impl<S> StripeMap<S> {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        StripeMap {
            cells: Vec::new(),
            index: vec![Slot::EMPTY; INITIAL_SLOTS],
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the map holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    #[inline]
    fn mask(&self) -> usize {
        self.index.len() - 1
    }

    #[inline]
    fn home(&self, key: Key) -> usize {
        (key_hash(key) as usize) & self.mask()
    }

    /// The index position holding `key` (`Ok`), or the vacant position
    /// ending its probe run (`Err`).
    #[inline]
    fn find(&self, key: Key) -> Result<usize, usize> {
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            let slot = self.index[i];
            if slot.is_empty() {
                return Err(i);
            }
            if slot.key == key {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Shared access to the state of `key`.
    #[must_use]
    pub fn get(&self, key: Key) -> Option<&S> {
        let i = self.find(key).ok()?;
        Some(&self.cells[self.index[i].cell as usize].1)
    }

    /// Exclusive access to the state of `key`.
    pub fn get_mut(&mut self, key: Key) -> Option<&mut S> {
        let i = self.find(key).ok()?;
        Some(&mut self.cells[self.index[i].cell as usize].1)
    }

    /// Exclusive access to the state of `key`, inserting `make()` first when
    /// the key is absent. One probe either way, unless the insert grows the
    /// index.
    pub fn get_or_insert_with(&mut self, key: Key, make: impl FnOnce() -> S) -> &mut S {
        let vacant = match self.find(key) {
            Ok(i) => return &mut self.cells[self.index[i].cell as usize].1,
            Err(vacant) => vacant,
        };
        assert!(
            self.cells.len() < u32::MAX as usize,
            "a stripe holds fewer than 2^32 - 1 keys"
        );
        let cell = self.cells.len() as u32;
        let vacant = if (self.cells.len() + 1) * 4 < self.index.len() * 3 {
            vacant
        } else {
            self.grow();
            self.find(key).expect_err("key is absent")
        };
        let state = make();
        self.index[vacant] = Slot { key, cell };
        self.cells.push((key, state));
        &mut self.cells.last_mut().expect("cell just pushed").1
    }

    /// Removes and returns the state of `key`.
    pub fn remove(&mut self, key: Key) -> Option<S> {
        let i = self.find(key).ok()?;
        Some(self.remove_slot(i))
    }

    /// Removes the entry indexed at position `hole`: backward-shifts the
    /// rest of its probe run, so later lookups never cross a stale hole,
    /// then swap-removes its cell and repoints the slot of the cell that
    /// moved into the gap.
    fn remove_slot(&mut self, mut hole: usize) -> S {
        let cell = self.index[hole].cell as usize;
        let mask = self.mask();
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let slot = self.index[i];
            if slot.is_empty() {
                break;
            }
            // The slot at `i` may fill the hole only if its home position
            // does not lie strictly inside the cyclic interval (hole, i].
            let home = self.home(slot.key);
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.index[hole] = slot;
                hole = i;
            }
        }
        self.index[hole] = Slot::EMPTY;
        let (_, state) = self.cells.swap_remove(cell);
        if let Some(&(moved, _)) = self.cells.get(cell) {
            let at = self.find(moved).expect("every cell is indexed");
            self.index[at].cell = cell as u32;
        }
        state
    }

    /// Iterates over `(key, &state)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &S)> {
        self.cells.iter().map(|(k, s)| (*k, s))
    }

    /// Iterates over `(key, &mut state)` in unspecified order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Key, &mut S)> {
        self.cells.iter_mut().map(|(k, s)| (*k, s))
    }

    /// Keeps only the entries for which `keep` returns true; the others are
    /// dropped. Each entry is visited once, in place: a removal moves the
    /// last, not yet visited, cell into the gap, which is visited next.
    pub fn retain(&mut self, mut keep: impl FnMut(Key, &mut S) -> bool) {
        let mut cell = 0;
        while let Some((key, state)) = self.cells.get_mut(cell) {
            let key = *key;
            if keep(key, state) {
                cell += 1;
            } else {
                let at = self.find(key).expect("every cell is indexed");
                self.remove_slot(at);
            }
        }
    }

    /// Doubles the index and re-indexes every cell from the dense vector.
    fn grow(&mut self) {
        self.index = vec![Slot::EMPTY; self.index.len() * 2];
        for cell in 0..self.cells.len() {
            let key = self.cells[cell].0;
            let vacant = self.find(key).expect_err("keys are unique");
            self.index[vacant] = Slot {
                key,
                cell: cell as u32,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut map: StripeMap<u64> = StripeMap::new();
        for k in 0..200u64 {
            *map.get_or_insert_with(Key(k), || 0) = k * 10;
        }
        assert_eq!(map.len(), 200);
        for k in 0..200u64 {
            assert_eq!(map.get(Key(k)), Some(&(k * 10)));
        }
        assert_eq!(map.get(Key(999)), None);
        for k in (0..200u64).step_by(2) {
            assert_eq!(map.remove(Key(k)), Some(k * 10));
        }
        assert_eq!(map.len(), 100);
        for k in 0..200u64 {
            if k % 2 == 0 {
                assert_eq!(map.get(Key(k)), None);
            } else {
                assert_eq!(map.get(Key(k)), Some(&(k * 10)), "key {k}");
            }
        }
    }

    #[test]
    fn get_or_insert_returns_existing_entry() {
        let mut map: StripeMap<String> = StripeMap::new();
        map.get_or_insert_with(Key(1), || "first".to_string());
        let v = map.get_or_insert_with(Key(1), || "second".to_string());
        assert_eq!(v, "first");
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn backward_shift_keeps_colliding_runs_reachable() {
        // Craft keys that all land in a short probe run, then delete from the
        // middle: the survivors must all remain findable.
        let mut map: StripeMap<u64> = StripeMap::new();
        let colliders: Vec<Key> = (0..40_000u64)
            .map(Key)
            .filter(|k| (key_hash(*k) as usize) & (INITIAL_SLOTS - 1) == 3)
            .take(6)
            .collect();
        assert!(colliders.len() >= 4, "need colliding keys for this test");
        for (i, k) in colliders.iter().enumerate() {
            *map.get_or_insert_with(*k, || 0) = i as u64;
        }
        map.remove(colliders[1]);
        map.remove(colliders[0]);
        for (i, k) in colliders.iter().enumerate().skip(2) {
            assert_eq!(map.get(*k), Some(&(i as u64)), "collider {i}");
        }
    }

    #[test]
    fn an_index_slot_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 16);
    }

    #[test]
    fn removal_repoints_the_cell_moved_into_the_gap() {
        let mut map: StripeMap<u64> = StripeMap::new();
        for k in 0..20u64 {
            map.get_or_insert_with(Key(k), || k);
        }
        // Cells sit in insertion order: removing the first moves the last.
        assert_eq!(map.remove(Key(0)), Some(0));
        assert_eq!(map.iter().next(), Some((Key(19), &19)));
        *map.get_mut(Key(19)).expect("moved cell is indexed") += 100;
        assert_eq!(map.get(Key(19)), Some(&119));
        // Removing the last cell moves nothing.
        assert_eq!(map.remove(Key(18)), Some(18));
        for k in 1..18u64 {
            assert_eq!(map.get(Key(k)), Some(&k), "key {k}");
        }
        map.retain(|_, _| false);
        assert!(map.is_empty());
        assert_eq!(map.get(Key(19)), None);
    }

    #[test]
    fn retain_drops_and_keeps() {
        let mut map: StripeMap<u64> = StripeMap::new();
        for k in 0..50u64 {
            *map.get_or_insert_with(Key(k), || 0) = k;
        }
        map.retain(|k, _| k.0 % 3 == 0);
        assert_eq!(map.len(), 17);
        assert!(map.iter().all(|(k, _)| k.0 % 3 == 0));
        assert_eq!(map.get(Key(3)), Some(&3));
        assert_eq!(map.get(Key(4)), None);
    }

    #[test]
    fn iter_mut_visits_every_entry_once() {
        let mut map: StripeMap<u64> = StripeMap::new();
        for k in 0..64u64 {
            *map.get_or_insert_with(Key(k), || 0) = 1;
        }
        let mut total = 0u64;
        for (_, v) in map.iter_mut() {
            total += *v;
            *v += 1;
        }
        assert_eq!(total, 64);
        assert!(map.iter().all(|(_, v)| *v == 2));
    }
}
