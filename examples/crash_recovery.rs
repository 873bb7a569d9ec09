//! Durability demo: write-ahead logging, a simulated crash, and recovery.
//!
//! A one-shard [`ShardedStore`] over an MVTIL store — any `TransactionalKV`
//! store can be a shard — turns it into an engine and owns a checksummed log, so that every commit is appended to it and
//! acknowledged only once durable — the same composition the registry
//! builds for `mvtil-early?wal=<dir>` (a `sharded` spec's store owns one log
//! the same way, however many shards it has). Dropping the engine
//! discards all in-memory state — the multiversion store, the lock tables,
//! the clock — exactly like a process crash. Reopening the log replays the
//! committed write sets at their *original* timestamps and restarts the clock
//! past the recovered watermark, so post-crash transactions serialize after
//! everything that survived.
//!
//! ```bash
//! cargo run --example crash_recovery
//! ```

use mvtl::clock::{ClockSource, GlobalClock};
use mvtl::common::{Engine, EngineExt, Key, ProcessId, TempDir};
use mvtl::core::policy::MvtilPolicy;
use mvtl::core::{MvtlConfig, MvtlStore};
use mvtl::shard::{IntersectionPick, ShardedStore};
use mvtl::wal::{Wal, WalError, WalOptions};
use std::path::Path;
use std::sync::Arc;

/// Opens the log in `dir`, sizes a fresh clock past whatever it recovered,
/// and replays the log into a fresh MVTIL-early shard. Also returns what the
/// log held.
fn open_engine(dir: &Path) -> Result<(Box<dyn Engine<u64>>, String), WalError> {
    let (wal, recovery) = Wal::open::<u64>(dir, WalOptions::default())?;
    let report = format!(
        "{} commits replayed, {} torn bytes discarded",
        recovery.records.len(),
        recovery.discarded_bytes
    );
    // The clock must start past every recovered commit timestamp, or new
    // transactions could serialize *before* state that already exists.
    let start = recovery.max_commit_ts().map_or(1, |ts| ts.value + 1);
    let clock: Arc<dyn ClockSource> = Arc::new(GlobalClock::starting_at(start));
    let shard = Arc::new(MvtlStore::new(
        MvtilPolicy::early(1_000),
        Arc::clone(&clock),
        MvtlConfig::default(),
    ));
    let store = ShardedStore::new(vec![shard], clock, IntersectionPick::Min)
        .with_name("mvtil-early")
        .with_log(wal, recovery)?;
    Ok((Box::new(store), report))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = TempDir::new("crash-recovery-demo");
    let accounts: Vec<Key> = (0..4)
        .map(|i| Key::from_name(&format!("acct-{i}")))
        .collect();

    // ---- Life before the crash -------------------------------------------
    let (engine, report) = open_engine(dir.path())?;
    println!("fresh log:      {report}");

    let mut tx = engine.begin(ProcessId(0));
    for key in &accounts {
        tx.write(*key, 100)?;
    }
    tx.commit()?;

    // Move 30 units between two accounts, durably.
    engine.run(ProcessId(1), &Default::default(), |tx| {
        let from = tx.read(accounts[0])?.unwrap_or(0);
        let to = tx.read(accounts[1])?.unwrap_or(0);
        tx.write(accounts[0], from - 30)?;
        tx.write(accounts[1], to + 30)?;
        Ok(())
    })?;

    // This transaction never commits: the crash will erase it.
    let mut doomed = engine.begin(ProcessId(2));
    doomed.write(accounts[2], 9_999_999)?;
    drop(doomed);

    println!("pre-crash:      {}", balances(engine.as_ref(), &accounts));
    drop(engine);
    println!("-- crash: all in-memory state discarded; only the log survives --");

    // ---- Recovery ---------------------------------------------------------
    let (engine, report) = open_engine(dir.path())?;
    println!("recovered log:  {report}");
    println!("post-recovery:  {}", balances(engine.as_ref(), &accounts));

    // The recovered engine is fully live: keep transferring.
    engine.run(ProcessId(3), &Default::default(), |tx| {
        let from = tx.read(accounts[1])?.unwrap_or(0);
        let to = tx.read(accounts[3])?.unwrap_or(0);
        tx.write(accounts[1], from - 50)?;
        tx.write(accounts[3], to + 50)?;
        Ok(())
    })?;
    println!("after transfer: {}", balances(engine.as_ref(), &accounts));

    // The registry spells the same setup as a one-line spec; `wal=tmp` uses
    // a self-cleaning temporary directory instead of a named one.
    let spec = format!("mvtil-early?wal={}&fsync=always", dir.path().display());
    let from_spec = mvtl::registry::build(&spec)?;
    println!("via `{spec}`:");
    println!(
        "                {}",
        balances(from_spec.as_ref(), &accounts)
    );
    Ok(())
}

/// Renders the current committed balance of each account.
fn balances(engine: &dyn Engine<u64>, accounts: &[Key]) -> String {
    let mut tx = engine.begin(ProcessId(42));
    let cells: Vec<String> = accounts
        .iter()
        .enumerate()
        .map(|(i, key)| format!("acct-{i}={:?}", tx.read(*key).unwrap()))
        .collect();
    tx.commit().unwrap();
    cells.join("  ")
}
