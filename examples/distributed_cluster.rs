//! Distributed MVTL on the §7 engine: MVTIL-early partitioned over the
//! servers of the paper's two test beds, each operation paying the test
//! bed's round trip, with and without participants crashing mid-prepare.
//! A crashed prepare aborts its transaction (presumed abort), and a
//! transfer workload shows that no crash loses or duplicates money.
//!
//! ```bash
//! cargo run --release --example distributed_cluster
//! ```

use mvtl::common::{AbortReason, EngineExt, Key, ProcessId, RetryOptions, TxError};
use mvtl::workload::figures::{CLOUD_RTT, LOCAL_RTT};
use mvtl::workload::{run_closed_loop, RunnerOptions, WorkloadSpec};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The two test beds of §8.2, scaled down so the example finishes quickly.
    for (name, servers, rtt) in [
        ("local cluster", 3, LOCAL_RTT),
        ("public cloud", 8, CLOUD_RTT),
    ] {
        println!("== {name}: {servers} servers, fault={rtt} ==");
        println!(
            "{:<26} {:>14} {:>12}",
            "failures", "throughput_tps", "commit_rate"
        );
        for (label, crashes) in [("none", ""), ("2% of prepares crash", "|crash:0.02")] {
            let spec = format!(
                "sharded?shards={servers}&inner=mvtil-early&delta=1000&fault={rtt}{crashes}"
            );
            let engine = mvtl::registry::build(&spec)?;
            let metrics = run_closed_loop(
                engine.as_ref(),
                &RunnerOptions {
                    clients: 32,
                    duration: Duration::from_secs(1),
                    spec: WorkloadSpec::new(20, 0.25, 2_000),
                    seed: 7,
                },
                |v| v,
            );
            println!(
                "{label:<26} {:>14.1} {:>12.3}",
                metrics.throughput_tps(),
                metrics.commit_rate()
            );
            assert!(metrics.committed > 0, "{spec} stopped committing");
        }
        println!();
    }

    // Failure handling: 30% of prepares crash their participant. Each
    // transfer touches keys on several shards, so every commit runs the §7
    // prepare; a crashed one aborts the whole transfer, and the balances
    // still sum to what they started with.
    let engine = mvtl::registry::build("sharded?shards=4&fault=crash:0.3&fault_seed=7")?;
    let accounts: Vec<Key> = (0..8).map(Key).collect();
    // The initial deposit may hit a crash too: `run` retries it.
    engine.run(ProcessId(0), &RetryOptions::default(), |tx| {
        accounts
            .iter()
            .try_for_each(|&account| tx.write(account, 100))
    })?;
    let (mut committed, mut crashed) = (0, 0);
    for round in 0..60 {
        // Move 1 from one account to the next, rewriting every account so
        // the transaction spans all shards.
        let mut tx = engine.begin(ProcessId(1));
        let mut balances = Vec::new();
        for &account in &accounts {
            balances.push(tx.read(account)?.unwrap_or(0));
        }
        balances[round % accounts.len()] -= 1;
        balances[(round + 1) % accounts.len()] += 1;
        for (&account, &balance) in accounts.iter().zip(&balances) {
            tx.write(account, balance)?;
        }
        match tx.commit() {
            Ok(_) => committed += 1,
            Err(TxError::Aborted(AbortReason::ParticipantCrashed { .. })) => crashed += 1,
            Err(err) => return Err(err.into()),
        }
    }
    let mut tx = engine.begin(ProcessId(2));
    let mut total = 0;
    for &account in &accounts {
        total += tx.read(account)?.unwrap_or(0);
    }
    drop(tx);
    println!("== participant crashes (30% of prepares) ==");
    println!("transfers committed={committed}  aborted by a crashed participant={crashed}  total balance={total}");
    assert!(crashed > 0 && committed > 0);
    assert_eq!(total, 800, "a crash lost or duplicated money");
    Ok(())
}
