//! Batched / op-by-op equivalence across **every** registered engine.
//!
//! Property: executing a random read/write sequence through the batched
//! surface (`read_many` / `write_many`, with maximal same-kind runs issued as
//! one call) commits with a result equivalent to executing the same sequence
//! op-by-op on a fresh engine of the same spec — the values every read
//! returns match, the committed write set matches, and the final committed
//! state matches. This is the contract that lets a caller switch to the
//! batched surface without changing what an engine computes, only what it
//! costs.

use mvtl_common::{Engine, EngineExt, Key, ProcessId};
use mvtl_registry::all_specs;
use proptest::prelude::*;

const KEYS: u64 = 8;

/// One transaction body: `None` = read, `Some(v)` = write of `v`.
type OpSeq = Vec<(Key, Option<u64>)>;

fn arb_ops() -> impl Strategy<Value = OpSeq> {
    proptest::collection::vec((0u64..KEYS, 0u8..2, 0u64..100), 1..32).prop_map(|raw| {
        raw.into_iter()
            .map(|(key, kind, value)| (Key(key), (kind == 1).then_some(value)))
            .collect()
    })
}

fn build(spec: &str) -> Box<dyn Engine<u64>> {
    mvtl_registry::build(spec).unwrap_or_else(|e| panic!("spec {spec:?} must build: {e}"))
}

/// Runs `ops` op-by-op inside one transaction; returns the read values in op
/// order and the committed write-key set.
fn run_op_by_op(engine: &dyn Engine<u64>, ops: &OpSeq) -> (Vec<Option<u64>>, Vec<Key>) {
    let mut tx = engine.begin(ProcessId(1));
    let mut reads = Vec::new();
    for (key, op) in ops {
        match op {
            None => reads.push(tx.read(*key).expect("uncontended read")),
            Some(value) => tx.write(*key, *value).expect("uncontended write"),
        }
    }
    let mut writes = tx.commit().expect("uncontended commit").writes;
    writes.sort();
    (reads, writes)
}

/// Runs `ops` inside one transaction with maximal same-kind runs issued as
/// single `read_many` / `write_many` calls; same return shape as
/// [`run_op_by_op`].
fn run_batched(engine: &dyn Engine<u64>, ops: &OpSeq) -> (Vec<Option<u64>>, Vec<Key>) {
    let mut tx = engine.begin(ProcessId(1));
    let mut reads = Vec::new();
    let mut start = 0;
    while start < ops.len() {
        let writing = ops[start].1.is_some();
        let mut end = start + 1;
        while end < ops.len() && ops[end].1.is_some() == writing {
            end += 1;
        }
        if writing {
            let entries: Vec<(Key, u64)> = ops[start..end]
                .iter()
                .map(|(key, op)| (*key, op.expect("write run")))
                .collect();
            tx.write_many(entries).expect("uncontended write_many");
        } else {
            let keys: Vec<Key> = ops[start..end].iter().map(|(key, _)| *key).collect();
            reads.extend(tx.read_many(&keys).expect("uncontended read_many"));
        }
        start = end;
    }
    let mut writes = tx.commit().expect("uncontended commit").writes;
    writes.sort();
    (reads, writes)
}

/// The committed value of every key, observed by a fresh read-only
/// transaction.
fn final_state(engine: &dyn Engine<u64>) -> Vec<Option<u64>> {
    let mut tx = engine.begin(ProcessId(2));
    let state = (0..KEYS)
        .map(|k| tx.read(Key(k)).expect("read-back"))
        .collect();
    tx.commit().expect("read-only commit");
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_sequences_are_equivalent_to_op_by_op_on_every_engine(ops in arb_ops()) {
        for spec in all_specs() {
            let plain = build(spec);
            let batched = build(spec);
            let (plain_reads, plain_writes) = run_op_by_op(plain.as_ref(), &ops);
            let (batched_reads, batched_writes) = run_batched(batched.as_ref(), &ops);
            prop_assert_eq!(
                &batched_reads, &plain_reads,
                "{}: batched reads diverged on {:?}", spec, ops
            );
            prop_assert_eq!(
                &batched_writes, &plain_writes,
                "{}: committed write sets diverged on {:?}", spec, ops
            );
            prop_assert_eq!(
                final_state(batched.as_ref()),
                final_state(plain.as_ref()),
                "{}: final committed state diverged on {:?}", spec, ops
            );
        }
    }
}
