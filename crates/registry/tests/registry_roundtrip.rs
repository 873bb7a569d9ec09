//! Registry round-trip and RAII drop-abort tests across **every** registered
//! engine: each `all_specs()` entry must build, report a matching name, commit
//! transactions, and release all engine state when an uncommitted
//! [`Transaction`](mvtl_common::Transaction) guard is dropped.

use mvtl_common::{EngineExt, Key, ProcessId, RetryOptions, TxError};
use mvtl_registry::{all_specs, build, EngineSpec};

/// Appends `params` to `spec`, using `&` when the spec already carries a
/// query (the `sharded` entries in `all_specs()` do).
fn with_params(spec: &str, params: &str) -> String {
    EngineSpec::append_params(spec, params)
}

/// The spec's base engine name (before `?`).
fn base(spec: &str) -> &str {
    EngineSpec::base_name(spec)
}

#[test]
fn every_spec_builds_and_name_matches() {
    for spec in all_specs() {
        let engine = build(spec).unwrap_or_else(|e| panic!("{spec}: failed to build: {e}"));
        assert_eq!(
            engine.name(),
            EngineSpec::parse(spec).unwrap().name,
            "{spec}: engine name must match the spec base name"
        );
    }
}

#[test]
fn every_spec_accepts_shared_parameters() {
    // The MVTL engines share the timeout knob; the baselines have their own.
    for spec in all_specs() {
        let parameterized = match base(spec) {
            "mvto+" => spec.to_string(),
            "2pl" => with_params(spec, "timeout_ms=25"),
            "mvtil-early" | "mvtil-late" => with_params(spec, "delta=5000&timeout_ms=25"),
            // `delta` only parses when the inner engine is MVTIL.
            "sharded" if spec.contains("inner=mvtil") => {
                with_params(spec, "delta=5000&timeout_ms=25")
            }
            _ => with_params(spec, "timeout_ms=25"),
        };
        build(&parameterized).unwrap_or_else(|e| panic!("{parameterized}: failed to build: {e}"));
    }
}

#[test]
fn every_engine_commits_a_simple_transaction() {
    for spec in all_specs() {
        let engine = build(spec).unwrap();
        let mut tx = engine.begin(ProcessId(1));
        tx.write(Key(1), 41).unwrap();
        tx.write(Key(2), 1).unwrap();
        let info = tx
            .commit()
            .unwrap_or_else(|e| panic!("{spec}: uncontended commit failed: {e}"));
        assert_eq!(info.writes.len(), 2, "{spec}");

        let mut tx = engine.begin(ProcessId(2));
        assert_eq!(tx.read(Key(1)).unwrap(), Some(41), "{spec}");
        tx.commit()
            .unwrap_or_else(|e| panic!("{spec}: read-only commit failed: {e}"));
    }
}

/// The RAII guarantee: dropping an uncommitted transaction releases its locks
/// on **every** engine, so a second transaction can immediately write the same
/// keys. Before the `Engine` layer, a forgotten `abort` leaked lock-table
/// entries (most visibly under 2PL and MVTL-Pessimistic, whose write locks
/// would block the second writer until timeout).
#[test]
fn dropping_an_uncommitted_transaction_releases_its_locks() {
    for spec in all_specs() {
        // Short lock timeouts so a leak fails the test quickly (as an abort)
        // rather than hanging it.
        let parameterized = match base(spec) {
            "mvto+" => spec.to_string(),
            _ => with_params(spec, "timeout_ms=50"),
        };
        let engine = build(&parameterized).unwrap();

        {
            let mut tx = engine.begin(ProcessId(1));
            tx.write(Key(1), 7).unwrap();
            tx.write(Key(2), 8).unwrap();
            let _ = tx.read(Key(3)).unwrap();
            // Dropped here without commit or explicit abort.
        }

        let mut tx = engine.begin(ProcessId(2));
        tx.write(Key(1), 100).unwrap();
        tx.write(Key(2), 200).unwrap();
        tx.write(Key(3), 300).unwrap();
        let info = tx.commit().unwrap_or_else(|e| {
            panic!("{spec}: dropping an uncommitted transaction leaked locks: {e}")
        });
        assert_eq!(info.writes.len(), 3, "{spec}");

        // The aborted transaction's writes must be invisible.
        let mut tx = engine.begin(ProcessId(3));
        assert_eq!(tx.read(Key(1)).unwrap(), Some(100), "{spec}");
        assert_eq!(tx.read(Key(2)).unwrap(), Some(200), "{spec}");
        tx.commit().unwrap();
    }
}

#[test]
fn run_retry_loop_works_on_every_engine() {
    for spec in all_specs() {
        let engine = build(spec).unwrap();
        let options = RetryOptions::default().with_seed(11);
        let report = engine
            .run(ProcessId(1), &options, |tx| {
                let current = tx.read(Key(9))?.unwrap_or(0);
                tx.write(Key(9), current + 1)?;
                Ok(current)
            })
            .unwrap_or_else(|e| panic!("{spec}: run() failed: {e}"));
        assert_eq!(report.value, 0, "{spec}");
        assert!(report.attempts >= 1, "{spec}");
        assert_eq!(report.info.writes, vec![Key(9)], "{spec}");
    }
}

/// Multi-shard engines must release lock-table entries on **every**
/// participating shard when an uncommitted cross-shard transaction is
/// aborted or dropped: a follow-up transaction over the same keys (which
/// spans the same shards) must commit without hitting leaked locks.
#[test]
fn dropping_a_cross_shard_transaction_releases_every_shard() {
    const KEYS: u64 = 16; // with 8 shards, w.h.p. every shard participates
    for spec in [
        "sharded?shards=2&inner=mvtil-early&timeout_ms=50",
        "sharded?shards=8&inner=mvtil-early&timeout_ms=50",
        "sharded?shards=8&inner=mvtl-to&timeout_ms=50",
        "sharded?shards=8&inner=mvtl-pessimistic&timeout_ms=50",
    ] {
        let engine = build(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));

        {
            let mut tx = engine.begin(ProcessId(1));
            for k in 0..KEYS {
                tx.write(Key(k), k).unwrap();
            }
            // Dropped without commit: every shard sub-transaction must abort.
        }

        let mut tx = engine.begin(ProcessId(2));
        for k in 0..KEYS {
            tx.write(Key(k), k + 100).unwrap();
        }
        let info = tx.commit().unwrap_or_else(|e| {
            panic!("{spec}: dropped cross-shard transaction leaked locks on some shard: {e}")
        });
        assert_eq!(info.writes.len(), KEYS as usize, "{spec}");

        // The dropped transaction's writes are invisible on every shard.
        let mut tx = engine.begin(ProcessId(3));
        for k in 0..KEYS {
            assert_eq!(tx.read(Key(k)).unwrap(), Some(k + 100), "{spec}");
        }
        tx.commit().unwrap();
    }
}

#[test]
fn non_abort_errors_are_not_retried() {
    let engine = build("mvtl-to").unwrap();
    let mut calls = 0u32;
    let err = engine
        .run(ProcessId(1), &RetryOptions::default(), |_tx| {
            calls += 1;
            Err::<(), _>(TxError::Internal("deliberate".into()))
        })
        .unwrap_err();
    assert_eq!(err, TxError::Internal("deliberate".into()));
    assert_eq!(calls, 1, "internal errors must not burn the retry budget");
}
