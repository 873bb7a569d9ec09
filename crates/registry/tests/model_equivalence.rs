//! Every registered engine against a map model.
//!
//! Property: a random single-threaded sequence of transactions, each a
//! random read/write body that ends in a commit or an abort, behaves on
//! every `all_specs()` engine exactly as on a `HashMap`. Each read returns
//! the transaction's own latest write of the key, or else the value of the
//! last committed write (`None` before any); each commit reports the keys
//! the transaction wrote; aborted writes stay invisible; and the final
//! committed state equals the model's.

use mvtl_common::{Engine, EngineExt, Key, ProcessId};
use mvtl_registry::all_specs;
use proptest::prelude::*;
use std::collections::HashMap;

const KEYS: u64 = 8;

/// One transaction: its body (`None` = read, `Some(v)` = write of `v`) and
/// whether it commits (`true`) or aborts.
type Txn = (Vec<(Key, Option<u64>)>, bool);

fn arb_txns() -> impl Strategy<Value = Vec<Txn>> {
    let op = (0u64..KEYS, 0u8..2, 0u64..100)
        .prop_map(|(key, kind, value)| (Key(key), (kind == 1).then_some(value)));
    let txn = (proptest::collection::vec(op, 1..16), 0u8..4).prop_map(|(ops, c)| (ops, c != 0));
    proptest::collection::vec(txn, 1..5)
}

fn build(spec: &str) -> Box<dyn Engine<u64>> {
    mvtl_registry::build(spec).unwrap_or_else(|e| panic!("spec {spec:?} must build: {e}"))
}

/// Runs `txns` one after another on `engine`, checking every read and
/// commit against the model; returns the model's committed state.
fn run_against_model(spec: &str, engine: &dyn Engine<u64>, txns: &[Txn]) -> HashMap<Key, u64> {
    let mut committed: HashMap<Key, u64> = HashMap::new();
    for (ops, commit) in txns {
        let mut tx = engine.begin(ProcessId(1));
        let mut own: HashMap<Key, u64> = HashMap::new();
        for (key, op) in ops {
            match op {
                None => {
                    let got = tx.read(*key).expect("uncontended read");
                    let want = own.get(key).or_else(|| committed.get(key)).copied();
                    assert_eq!(got, want, "{spec}: read of {key:?} in {ops:?}");
                }
                Some(value) => {
                    tx.write(*key, *value).expect("uncontended write");
                    own.insert(*key, *value);
                }
            }
        }
        if *commit {
            let mut writes = tx.commit().expect("uncontended commit").writes;
            writes.sort();
            writes.dedup();
            let mut want: Vec<Key> = own.keys().copied().collect();
            want.sort();
            assert_eq!(writes, want, "{spec}: committed write set of {ops:?}");
            committed.extend(own);
        } else {
            tx.abort();
        }
    }
    committed
}

/// The committed value of every key, observed by a fresh read-only
/// transaction.
fn final_state(engine: &dyn Engine<u64>) -> HashMap<Key, u64> {
    let mut tx = engine.begin(ProcessId(2));
    let state = (0..KEYS)
        .filter_map(|k| tx.read(Key(k)).expect("read-back").map(|v| (Key(k), v)))
        .collect();
    tx.commit().expect("read-only commit");
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn single_threaded_sequences_match_a_map_model_on_every_engine(txns in arb_txns()) {
        for spec in all_specs() {
            let engine = build(spec);
            let model = run_against_model(spec, engine.as_ref(), &txns);
            prop_assert_eq!(
                final_state(engine.as_ref()),
                model,
                "{}: final committed state diverged on {:?}", spec, txns
            );
        }
    }
}
