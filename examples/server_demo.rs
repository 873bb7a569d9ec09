//! End-to-end tour of the TCP serve path: a real server fronting a sharded
//! engine, a hand-driven wire-protocol transaction, the `RemoteEngine`
//! adapter feeding the MVSG serializability checker over the network, and a
//! one-off RAII read through the same adapter.
//!
//! ```bash
//! cargo run --release --example server_demo
//! ```

use mvtl::common::{EngineExt, Key, ProcessId};
use mvtl::server::wire::{Request, Response};
use mvtl::server::{Connection, RemoteEngine, Server};
use mvtl::verify::{check_serializable, replay};
use mvtl_common::ops::{Op, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Serve any registry spec over TCP. serve_-prefixed params configure
    //    the server itself; the rest builds the engine as usual.
    let server = Server::spawn(
        "sharded?shards=4&inner=mvtil-early&serve_max_frame=65536",
        "127.0.0.1:0",
    )?;
    println!("serving {} on {}", server.engine_spec(), server.addr());

    // 2. Talk the wire protocol directly: one connection, one cross-shard
    //    transaction. The hello frame names the engine.
    let mut conn = Connection::connect(server.addr())?;
    println!("hello: engine `{}`", conn.engine_name());
    conn.request(&Request::Begin {
        txn: 1,
        process: ProcessId(1),
        pinned: None,
    })?;
    conn.request(&Request::Write {
        txn: 1,
        key: Key(1),
        value: 10,
    })?;
    conn.request(&Request::Write {
        txn: 1,
        key: Key(2),
        value: 20,
    })?;
    match conn.request(&Request::Commit { txn: 1 })? {
        Response::Committed(info) => {
            println!(
                "committed at {:?} ({} writes)",
                info.commit_ts,
                info.writes.len()
            );
        }
        other => panic!("commit failed: {other:?}"),
    }

    // 3. RemoteEngine implements the same `Engine` trait as every in-process
    //    engine, so the verifier's replay harness works over TCP unchanged.
    let remote = RemoteEngine::connect(server.addr())?;
    let mut workload = Workload::new();
    workload
        .push(0, Op::Write(Key(1), 5))
        .push(0, Op::Commit)
        .push(1, Op::Read(Key(1)))
        .push(1, Op::Write(Key(2), 7))
        .push(1, Op::Commit);
    let report = replay(&remote, &workload, |v| v);
    check_serializable(&report.history)?;
    println!(
        "replayed {} transactions over TCP: {} committed, history serializable",
        report.outcomes.len(),
        report.commits()
    );

    // ...including the plain RAII guard, for one-off reads.
    let mut tx = remote.begin(ProcessId(9));
    println!("key 1 reads back {:?}", tx.read(Key(1))?);
    tx.commit()?;

    Ok(())
}
