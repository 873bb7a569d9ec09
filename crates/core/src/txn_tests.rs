//! Tests of the per-key records: their bookkeeping, and a property holding
//! the record-based [`TxState::commit_candidates`] to the set computation
//! it replaced, kept here as the reference.

use super::*;
use proptest::prelude::*;

fn ts(value: u64) -> Timestamp {
    Timestamp::at(value)
}

fn r(start: u64, end: u64) -> TsRange {
    TsRange::new(ts(start), ts(end))
}

/// A read grant of the version at `version`: `[version.succ(), end]`.
fn above(version: u64, end: u64) -> TsRange {
    TsRange::new(ts(version).succ(), ts(end))
}

#[test]
fn record_and_query_locks() {
    let mut tx = TxState::new(ProcessId(1), None);
    assert!(tx.is_active());
    tx.record_read(Key(9), ts(0), Some(above(0, 5)));
    tx.record_write_locks(Key(9), &TsSet::from_point(ts(7)));
    let record = tx.record(Key(9)).unwrap();
    assert_eq!(record.versions_read(), Some((ts(0), ts(0))));
    assert_eq!(record.read_locks(), Some(above(0, 5)));
    assert!(record.write_locks().contains(ts(7)));
    assert!(!record.is_written());
    assert_eq!(tx.records().len(), 1);

    tx.clear_write_locks();
    assert!(tx.record(Key(9)).unwrap().write_locks().is_empty());
    assert_eq!(tx.record(Key(9)).unwrap().read_locks(), Some(above(0, 5)));
}

#[test]
fn empty_grants_are_not_recorded() {
    let mut tx = TxState::new(ProcessId(0), None);
    tx.record_write_locks(Key(1), &TsSet::new());
    assert!(tx.record(Key(1)).is_none());
    tx.record_read(Key(1), ts(3), None);
    let record = tx.record(Key(1)).unwrap();
    assert_eq!(record.versions_read(), Some((ts(3), ts(3))));
    assert_eq!(record.read_locks(), None);
    assert!(!record.holds_locks());
    assert!(tx.commit_candidates().is_empty(), "a read must be locked");
}

#[test]
fn a_key_is_one_record_and_its_grants_one_range() {
    let mut tx = TxState::new(ProcessId(0), None);
    tx.record_read(Key(7), ts(1), Some(above(1, 2)));
    tx.record_read(Key(3), ts(1), Some(above(1, 2)));
    // Overlapping and touching grants merge; a grant inside changes nothing.
    tx.record_read(Key(7), ts(1), Some(above(1, 4)));
    tx.record_read(Key(7), ts(1), Some(above(1, 3)));
    tx.record_read(Key(7), ts(4), Some(above(4, 9)));
    let keys: Vec<Key> = tx.records().iter().map(KeyRecord::key).collect();
    assert_eq!(keys, [Key(7), Key(3)], "first-touch order");
    let record = tx.record(Key(7)).unwrap();
    assert_eq!(record.read_locks(), Some(above(1, 9)));
    assert_eq!(record.versions_read(), Some((ts(1), ts(4))));
    // Every read is reported, in the order made.
    let version = |key, v| (Key(key), ts(v));
    assert_eq!(
        tx.reads(),
        [(7, 1), (3, 1), (7, 1), (7, 1), (7, 4)].map(|(k, v)| version(k, v))
    );
    // A grant apart from the held range is not merged into it.
    tx.record_read(Key(3), ts(8), Some(above(8, 12)));
    assert_eq!(tx.record(Key(3)).unwrap().read_locks(), Some(above(1, 2)));
}

#[test]
fn candidates_run_from_the_highest_version_read_through_touching_locks() {
    let mut tx = TxState::new(ProcessId(0), None);
    tx.record_read(Key(1), ts(2), Some(above(2, 10)));
    tx.record_read(Key(2), ts(4), Some(above(4, 8)));
    // Key 2's run goes on through its write locks, which touch its read
    // locks: up to 12, not to 20.
    let write = TsSet::from_ranges([above(8, 12), r(14, 20)]);
    tx.record_write_locks(Key(2), &write);
    assert_eq!(tx.commit_candidates(), TsSet::from_range(above(4, 10)));
    tx.note_write(Key(2));
    assert_eq!(tx.commit_candidates(), TsSet::from_range(above(8, 10)));
    assert_eq!(tx.written_keys(), [Key(2)]);
    assert!(tx.has_writes());
}

#[test]
fn write_buffer_upserts() {
    let mut tx: MvtlTransaction<u64> = MvtlTransaction::new(TxState::new(ProcessId(0), None));
    assert_eq!(tx.pending_write(Key(1)), None);
    tx.buffer_write(Key(1), 10);
    tx.buffer_write(Key(2), 20);
    tx.buffer_write(Key(1), 11);
    assert_eq!(tx.pending_write(Key(1)), Some(&11));
    assert_eq!(tx.pending_write(Key(2)), Some(&20));
    assert_eq!(tx.pending_write(Key(3)), None);
    assert_eq!(tx.state().written_keys(), [Key(1), Key(2)]);
    assert_eq!(tx.values.len(), 2);
    // A key read before it is written keeps its record, and its value
    // sits at that record's index.
    tx.state.record_read(Key(5), ts(0), Some(above(0, 4)));
    tx.state.record_read(Key(6), ts(0), Some(above(0, 4)));
    tx.buffer_write(Key(6), 60);
    assert_eq!(tx.pending_write(Key(5)), None);
    assert_eq!(tx.pending_write(Key(6)), Some(&60));
    assert_eq!(tx.state().written_keys(), [Key(1), Key(2), Key(6)]);
    assert_eq!(tx.values.len(), 4);
    // No store began it, so none can abort it: end it by hand.
    tx.state.status = TxStatus::Aborted;
}

#[test]
fn note_write_key_deduplicates() {
    let mut tx = TxState::new(ProcessId(0), None);
    assert_eq!(tx.note_write(Key(4)), 0);
    assert_eq!(tx.note_write(Key(4)), 0);
    assert_eq!(tx.written_keys(), [Key(4)]);
}

/// The transaction-side bookkeeping the records replaced: a read set with
/// one entry per read, a map from key to the read and write locks held as
/// sets, and a write set.
#[derive(Debug, Default)]
struct Reference {
    read_set: Vec<(Key, Timestamp)>,
    held: Vec<(Key, [TsSet; 2])>,
    write_keys: Vec<Key>,
}

impl Reference {
    fn held_mut(&mut self, key: Key) -> &mut [TsSet; 2] {
        if let Some(i) = self.held.iter().position(|(k, _)| *k == key) {
            return &mut self.held[i].1;
        }
        self.held.push((key, Default::default()));
        &mut self.held.last_mut().expect("just pushed").1
    }

    fn held(&self, key: Key) -> Option<&[TsSet; 2]> {
        self.held.iter().find(|(k, _)| *k == key).map(|(_, h)| h)
    }

    /// The set computation `commit_candidates` made before the records.
    fn candidates(&self) -> TsSet {
        let mut candidates =
            TsSet::from_range(TsRange::new(Timestamp::ZERO.succ(), Timestamp::MAX));
        for (key, version) in &self.read_set {
            let start = version.succ();
            let end = self.held(*key).and_then(|[read, write]| {
                read.union(write)
                    .ranges()
                    .iter()
                    .find(|range| range.contains(start))
                    .map(|range| range.end)
            });
            let Some(end) = end else {
                return TsSet::new();
            };
            candidates = candidates.intersection(&TsSet::from_range(TsRange::new(start, end)));
        }
        for key in &self.write_keys {
            let Some([_, write]) = self.held(*key) else {
                return TsSet::new();
            };
            candidates = candidates.intersection(write);
        }
        candidates
    }
}

const KEYS: u64 = 3;
const GRID: u64 = 40;

/// One step of a transaction's life, on one of [`KEYS`] keys.
#[derive(Debug, Clone)]
enum Step {
    /// A read anchored on the key's `anchor`-th version (0 is `⊥`), granted
    /// `len` timestamps above it (none at 0), never reaching the next
    /// version; `to_max` grants up to `+∞` above the newest version.
    Read {
        key: u64,
        anchor: usize,
        len: u64,
        to_max: bool,
    },
    /// Write locks on `len` timestamps minus the key's versions, from
    /// `start`, or with `touching` from just above the key's read locks.
    Lock {
        key: u64,
        start: u64,
        touching: bool,
        len: u64,
    },
    /// The key joins the write set.
    Write { key: u64 },
    /// "Release all write locks".
    Release,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..KEYS, 0usize..4, 0u64..12, 0u64..4).prop_map(|(key, anchor, len, max)| Step::Read {
            key,
            anchor,
            len,
            to_max: max == 0,
        }),
        (0..KEYS, 0usize..4, 0u64..12, 0u64..4).prop_map(|(key, anchor, len, max)| Step::Read {
            key,
            anchor,
            len,
            to_max: max == 0,
        }),
        (0..KEYS, 1..GRID, any::<bool>(), 0u64..10).prop_map(|(key, start, touching, len)| {
            Step::Lock {
                key,
                start,
                touching,
                len,
            }
        }),
        (0..KEYS).prop_map(|key| Step::Write { key }),
        (0u64..8).prop_map(|_| Step::Release),
    ]
}

/// Each key's versions: `⊥` and up to three more on the grid.
fn arb_versions() -> impl Strategy<Value = Vec<Vec<u64>>> {
    proptest::collection::vec(
        proptest::collection::vec(1..GRID, 0..4),
        KEYS as usize..KEYS as usize + 1,
    )
}

/// Runs `steps` on a [`TxState`] and the [`Reference`] side by side.
/// Locks never cover a version of their key, as in the engine: a read
/// grant stops below the next version, and write grants leave versions
/// out. Reads of one key may anchor on different versions.
fn check(versions: &[Vec<u64>], steps: &[Step]) -> Result<(), TestCaseError> {
    let versions: Vec<Vec<Timestamp>> = versions
        .iter()
        .map(|vs| {
            let mut vs: Vec<Timestamp> = vs.iter().map(|&v| ts(v)).collect();
            vs.push(Timestamp::ZERO);
            vs.sort();
            vs.dedup();
            vs
        })
        .collect();
    let mut tx = TxState::new(ProcessId(0), None);
    let mut reference = Reference::default();
    for step in steps {
        match *step {
            Step::Read {
                key,
                anchor,
                len,
                to_max,
            } => {
                let chain = &versions[key as usize];
                let index = anchor % chain.len();
                let version = chain[index];
                let limit = chain
                    .get(index + 1)
                    .map_or(Timestamp::MAX, |next| next.pred());
                let end = if to_max && limit == Timestamp::MAX {
                    Some(Timestamp::MAX)
                } else {
                    (len > 0).then(|| ts(version.value + len).min(limit))
                };
                let granted = end.and_then(|end| TsRange::checked(version.succ(), end));
                tx.record_read(Key(key), version, granted);
                reference.read_set.push((Key(key), version));
                if let Some(granted) = granted {
                    let held = &mut reference.held_mut(Key(key))[0];
                    *held = held.union(&TsSet::from_range(granted));
                }
            }
            Step::Lock {
                key,
                start,
                touching,
                len,
            } => {
                let read_end = reference
                    .held(Key(key))
                    .and_then(|[read, _]| read.max())
                    .filter(|end| touching && *end < Timestamp::MAX);
                let from = read_end.map_or(ts(start), Timestamp::succ);
                let to = Timestamp::new(from.value + len, from.process);
                let mut granted = TsSet::from_range(TsRange::new(from, to));
                for version in &versions[key as usize] {
                    granted.remove_range(TsRange::point(*version));
                }
                tx.record_write_locks(Key(key), &granted);
                if !granted.is_empty() {
                    let held = &mut reference.held_mut(Key(key))[1];
                    *held = held.union(&granted);
                }
            }
            Step::Write { key } => {
                tx.note_write(Key(key));
                if !reference.write_keys.contains(&Key(key)) {
                    reference.write_keys.push(Key(key));
                }
            }
            Step::Release => {
                tx.clear_write_locks();
                for (_, [_, write]) in &mut reference.held {
                    *write = TsSet::new();
                }
            }
        }
        prop_assert_eq!(
            tx.commit_candidates(),
            reference.candidates(),
            "after {:?}",
            step
        );
    }
    // Where a key's reads all anchored on one version, its grants are one
    // range, and the record holds all of it.
    for record in tx.records() {
        let Some((low, high)) = record.versions_read() else {
            continue;
        };
        let held = reference
            .held(record.key())
            .map(|[read, _]| read.clone())
            .unwrap_or_default();
        if low == high {
            prop_assert_eq!(
                TsSet::from_ranges(record.read_locks()),
                held,
                "{:?}",
                record.key()
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn record_candidates_equal_the_set_computation(
        versions in arb_versions(),
        steps in proptest::collection::vec(arb_step(), 1..24),
    ) {
        check(&versions, &steps)?;
    }
}
