//! Lock-order tracking over the real stack: drive every engine family, the
//! TCP serve path, WAL group commit and the GC service with real threads,
//! then assert the observed site graph is acyclic and rank-consistent and
//! persist it as a DOT artifact for CI.
//!
//! Also the satellite regression for the two historically scary teardown
//! paths: GC shutdown (stop-flag + condvar + thread join) and WAL teardown
//! right after concurrent appenders drained each other's records run
//! repeatedly under the waits-for watchdog — an inversion or a real deadlock
//! in either path fails this test instead of wedging the suite.
//!
//! Deliberate-violation tests live in separate binaries
//! (`lock_order_violations`, `lock_order_watchdog`): the site graph is global
//! per process, and `assert_acyclic` here must see only real edges.

#![cfg(feature = "lock-order")]

use std::path::PathBuf;

use mvtl_analysis::lock_order;
use mvtl_common::{Engine, Key, TxError};
use mvtl_server::{RemoteEngine, Server};
use mvtl_verify::replay_concurrent;

const THREADS: usize = 4;
const TXNS_PER_THREAD: usize = 25;
const KEYS: u64 = 8;

/// Contended read-modify-write over a small hot key space; retries are
/// expected, every lock in the engine's hot path gets exercised.
fn churn(engine: &dyn Engine<u64>) {
    let _history = replay_concurrent(engine, THREADS, TXNS_PER_THREAD, |thread, iter, txn| {
        let k1 = Key((thread as u64 + iter as u64) % KEYS);
        let k2 = Key((k1.0 + 3) % KEYS);
        let seen = txn.read(k1)?.unwrap_or(0);
        txn.write(k2, seen + 1)?;
        if iter % 3 == 0 {
            txn.write(k1, seen)?;
        }
        Ok::<(), TxError>(())
    });
}

#[test]
fn full_stack_lock_order_is_acyclic_and_rank_consistent() {
    // 1. Every engine family: MVTL core, both baselines, the cross-shard
    //    composition, WAL-backed durability, and a GC-wrapped engine.
    for spec in [
        "mvtil-early",
        "mvto+",
        "2pl",
        // commit_timeout_ms arms the prepare-slot coordinator path.
        "sharded?shards=4&inner=mvtil-early&commit_timeout_ms=200",
        "mvtil-early?wal=tmp&fsync=always",
        "mvtil-early?gc_ms=1&gc_lag_ms=1",
    ] {
        let engine = mvtl_registry::build(spec).expect("registry spec");
        churn(engine.as_ref());
    }

    // 2. The serve path: a real server fronting a sharded engine, driven over
    //    TCP (touches server.connections / server.client.conn).
    {
        let server = Server::spawn("sharded?shards=2&inner=mvtil-early", "127.0.0.1:0")
            .expect("server must start");
        let remote = RemoteEngine::connect(server.addr()).expect("client connect");
        churn(&remote);
    }

    // 3. Teardown-path regression (GC shutdown and WAL group commit): build,
    //    churn briefly, drop immediately so shutdown overlaps fresh activity.
    //    A lock-order inversion shows up in the graph; an actual deadlock is
    //    converted into a panic by the watchdog instead of hanging.
    for _ in 0..10 {
        let gc = mvtl_registry::build("mvtil-early?gc_ms=1&gc_lag_ms=1").expect("gc spec");
        let wal = mvtl_registry::build("mvtil-early?wal=tmp&fsync=always").expect("wal spec");
        replay_concurrent(gc.as_ref(), 2, 3, |_, i, txn| {
            txn.write(Key(i as u64 % KEYS), i as u64)?;
            Ok(())
        });
        replay_concurrent(wal.as_ref(), 2, 3, |_, i, txn| {
            txn.write(Key(i as u64 % KEYS), i as u64)?;
            Ok(())
        });
        drop(gc);
        drop(wal);
    }

    // The tracker saw the annotated sites...
    let sites = lock_order::sites();
    for expected in [
        "core.store.stripe",
        "baselines.tpl.shard",
        "baselines.tpl.key",
        "baselines.mvto.shard",
        "baselines.mvto.key",
        "shard.prepare_slot",
        "common.active_txns",
        "verify.history",
        "wal.segments",
        "wal.flush",
        "gc.stop",
        "server.connections",
        "server.client.conn",
    ] {
        assert!(
            sites.iter().any(|s| s.name == expected),
            "site {expected} never observed; sites: {:?}",
            sites.iter().map(|s| s.name).collect::<Vec<_>>()
        );
    }

    // ...including the known real nesting: group commit publishes durability
    // while holding the segment lock.
    let edges = lock_order::edges();
    assert!(
        edges
            .iter()
            .any(|(f, t)| *f == "wal.segments" && *t == "wal.flush"),
        "expected wal.segments -> wal.flush edge; edges: {edges:?}"
    );

    // The contract: no cycles, no rank inversions, no recorded violations.
    lock_order::assert_acyclic();

    // Persist the observed graph for the CI artifact.
    let dot_path = std::env::var("MVTL_LOCK_ORDER_DOT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/lock-order/lock_order.dot")
        });
    mvtl_analysis::write_dot(&dot_path).expect("write DOT artifact");
    let dot = std::fs::read_to_string(&dot_path).expect("read back DOT");
    assert!(dot.contains("digraph") && dot.contains("wal.segments"));
}
