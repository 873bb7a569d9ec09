//! `mvtl-wal`: the three fsync policies as ladder rungs over the GC rung, and
//! the log's own costs — encoding a commit record, handing it to the log
//! without waiting (`fsync=off`), one synchronous fsync (`fsync=always`, one
//! appender), bytes on disk per commit, and replay time per logged commit.

use super::{loop_ns, Ctx};
use crate::bench::{secs, LogDir, COMMIT, MVTIL};
use crate::harness::{run_phase, setup, untraced, Stop, CLIENTS};
use crate::session::InProc;
use mvtl_common::{Key, Timestamp};
use mvtl_wal::{FsyncMode, Wal, WalOptions, WalRecord};
use std::time::Instant;

/// Commits in the fixed log that `bytes_per_commit` and
/// `replay_us_per_commit` are measured on.
const REPLAY_COMMITS: u64 = 20_000;

/// A commit record shaped like `wal_commit`'s transactions: four writes.
fn record(i: u64) -> WalRecord<u64> {
    WalRecord::Commit {
        id: i,
        commit_ts: Some(Timestamp::new(i + 1, 1)),
        writes: (0..4).map(|k| (Key((i * 4 + k) % 100_000), i)).collect(),
    }
}

fn open(dir: &LogDir, fsync: FsyncMode) -> Result<Wal, String> {
    let options = WalOptions {
        fsync,
        ..WalOptions::default()
    };
    Wal::open::<u64>(&dir.0, options)
        .map(|(wal, _)| wal)
        .map_err(|e| e.to_string())
}

/// Nanoseconds per `append` under `fsync`, on a fresh log.
fn append_ns(ctx: &Ctx<'_>, fsync: FsyncMode) -> Result<f64, String> {
    let dir = LogDir::fresh();
    let wal = open(&dir, fsync)?;
    let mut failed = None;
    let mut next = 0;
    let ns = loop_ns(ctx.loop_budget(), |_| {
        if let Err(err) = wal.append(&record(next)) {
            failed.get_or_insert(err.to_string());
        }
        next += 1;
    });
    failed.map_or(Ok(ns), Err)
}

/// `wal_commit`'s load and client count under another fsync policy.
fn commit_tps(ctx: &Ctx<'_>, fsync: &str) -> Result<f64, String> {
    let dir = LogDir::fresh();
    let spec = dir.spec(MVTIL, fsync);
    let mut rig = setup::<InProc>("wal_commit", &spec, &COMMIT, ctx.opts.seed, CLIENTS, 0)?;
    let phase = run_phase(
        &mut rig.clients,
        &mut untraced(CLIENTS),
        Stop::After(secs(ctx.opts.seconds * 0.05)),
    );
    match phase.first_error() {
        Some(err) => Err(format!("fsync={fsync}: {err}")),
        None => Ok(phase.mean_tps()),
    }
}

pub fn run(ctx: &mut Ctx<'_>) -> Result<(), String> {
    let mut below = "gc";
    for (name, fsync) in [
        ("wal.off", "off"),
        ("wal.group", "group"),
        ("wal.always", "always"),
    ] {
        let dir = LogDir::fresh();
        ctx.rung::<InProc>(name, Some(below), &dir.spec(MVTIL, fsync))?;
        below = name;
    }

    // Regime probe: with as few appenders as cores, batching has nothing to
    // batch, and the flusher hand-off costs more than the inline fsync.
    let x = commit_tps(ctx, "always")? / commit_tps(ctx, "group")?;
    ctx.metric("wal.always_vs_group_x", x);

    let encode = loop_ns(ctx.loop_budget(), |i| {
        std::hint::black_box(record(i).encode_frame());
    });
    let build = loop_ns(ctx.loop_budget(), |i| {
        std::hint::black_box(record(i));
    });
    ctx.metric("wal.encode_ns", (encode - build).max(0.0));
    let off = append_ns(ctx, FsyncMode::Off)?;
    ctx.metric("wal.append_off_ns", (off - build).max(0.0));
    let always = append_ns(ctx, FsyncMode::Always)?;
    ctx.metric("wal.fsync_us", always / 1e3);

    let dir = LogDir::fresh();
    {
        let wal = open(&dir, FsyncMode::Off)?;
        for i in 0..REPLAY_COMMITS {
            wal.append(&record(i)).map_err(|e| e.to_string())?;
        }
        wal.sync().map_err(|e| e.to_string())?;
    }
    ctx.metric(
        "wal.bytes_per_commit",
        dir.bytes() as f64 / REPLAY_COMMITS as f64,
    );
    let started = Instant::now();
    let rebuilt = mvtl_registry::build(&dir.spec("mvtil-early?delta=1000", "off"))
        .map_err(|e| format!("replay: {e}"))?;
    let took = started.elapsed();
    drop(rebuilt);
    ctx.metric(
        "wal.replay_us_per_commit",
        took.as_secs_f64() * 1e6 / REPLAY_COMMITS as f64,
    );
    Ok(())
}
