//! Property-based equivalence of [`StripeMap`] against a `BTreeMap` model.
//!
//! The map keeps its cells dense behind a linear-probing index: a removal
//! backward-shifts the index and moves the last cell into the gap, so every
//! removal rewrites index slots that other keys depend on. The histories
//! here draw keys whose hashes share their low ten bits, so every key lands
//! in one probe run at every index size up to 1 024 slots, and most of them
//! wrap around the end of the index. Histories run long enough to cross
//! several index growths. After every step the map's length, every key's
//! value and the iterated set must match the model's.

use mvtl_common::Key;
use mvtl_storage::hash::key_hash;
use mvtl_storage::StripeMap;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Keys whose home slot is the last slot of any index of up to 1 024 slots.
const WRAPPING: usize = 48;
/// Keys whose home slot is the first: they sit behind the wrapped run.
const FIRST: usize = 16;

/// The key pool: `WRAPPING` keys with hash low bits `0x3ff`, then `FIRST`
/// keys with low bits `0`.
fn pool() -> Vec<Key> {
    let colliding = |low: u64, count: usize| {
        (0u64..)
            .map(Key)
            .filter(move |&k| key_hash(k) & 0x3ff == low)
            .take(count)
    };
    colliding(0x3ff, WRAPPING)
        .chain(colliding(0, FIRST))
        .collect()
}

/// One step of a history; keys are indices into the pool.
#[derive(Debug, Clone)]
enum Op {
    /// `get_or_insert_with`, then overwrite the value.
    Insert(usize, u64),
    /// `get_mut` and overwrite the value when present.
    Update(usize, u64),
    Remove(usize),
    /// Add one to every value, keeping those not divisible by the modulus.
    Retain(u64),
}

fn arb_key() -> impl Strategy<Value = usize> {
    0usize..WRAPPING + FIRST
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Two insert arms: the shim's choice between arms is uniform.
        (arb_key(), 0u64..1_000).prop_map(|(k, v)| Op::Insert(k, v)),
        (arb_key(), 0u64..1_000).prop_map(|(k, v)| Op::Insert(k, v)),
        (arb_key(), 0u64..1_000).prop_map(|(k, v)| Op::Update(k, v)),
        arb_key().prop_map(Op::Remove),
        (2u64..8).prop_map(Op::Retain),
    ]
}

/// A growth phase that inserts the first `n` keys of a fixed interleaving
/// of the pool (past 48 keys the index has grown three times, to 128
/// slots), then a mixed phase that shrinks the map and grows it again.
fn arb_history() -> impl Strategy<Value = Vec<Op>> {
    const POOL: usize = WRAPPING + FIRST;
    (
        0usize..POOL + 1,
        proptest::collection::vec(arb_op(), 0..160),
    )
        .prop_map(|(n, mixed)| {
            // 37 is coprime to 64: a permutation mixing both kinds of key.
            (0..n)
                .map(|i| Op::Insert(i * 37 % POOL, i as u64))
                .chain(mixed)
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn stripe_map_matches_a_btreemap(history in arb_history()) {
        let keys = pool();
        let mut map: StripeMap<u64> = StripeMap::new();
        let mut model: BTreeMap<Key, u64> = BTreeMap::new();
        for op in &history {
            match *op {
                Op::Insert(k, value) => {
                    let key = keys[k];
                    let fresh = !model.contains_key(&key);
                    let mut made = false;
                    let slot = map.get_or_insert_with(key, || {
                        made = true;
                        value
                    });
                    prop_assert_eq!(made, fresh, "insert of {:?} ran make()", key);
                    *slot = value;
                    model.insert(key, value);
                }
                Op::Update(k, value) => {
                    let key = keys[k];
                    if let Some(slot) = map.get_mut(key) {
                        *slot = value;
                    }
                    if let Some(slot) = model.get_mut(&key) {
                        *slot = value;
                    }
                }
                Op::Remove(k) => {
                    let key = keys[k];
                    prop_assert_eq!(map.remove(key), model.remove(&key), "remove {:?}", key);
                }
                Op::Retain(modulus) => {
                    let mut visited = Vec::new();
                    map.retain(|key, value| {
                        visited.push(key);
                        *value += 1;
                        *value % modulus != 0
                    });
                    visited.sort();
                    let expected: Vec<Key> = model.keys().copied().collect();
                    prop_assert_eq!(visited, expected, "retain visits every key once");
                    model.retain(|_, value| {
                        *value += 1;
                        *value % modulus != 0
                    });
                }
            }

            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
            for key in &keys {
                prop_assert_eq!(map.get(*key), model.get(key), "get {:?}", key);
            }
            let mut listed: Vec<(Key, u64)> = map.iter().map(|(k, v)| (k, *v)).collect();
            listed.sort();
            let expected: Vec<(Key, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(listed, expected);
        }
    }
}
