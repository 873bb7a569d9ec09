//! `mvtl-gc`: the ladder rung that adds the background sweeper, and the cost
//! of a purge per version removed (`Engine::purge_below` on an engine with no
//! sweeper, so the probe is the only one purging).

use super::Ctx;
use crate::bench::MVTIL;
use crate::session::InProc;
use mvtl_common::{EngineExt, Key, ProcessId, Timestamp};
use std::time::Instant;

const KEYS: u64 = 1024;
const VERSIONS_PER_KEY: u64 = 8;

/// Median over five rounds of: lay down `VERSIONS_PER_KEY` versions on each
/// of `KEYS` keys (untimed), then time one purge below the newest commit.
fn purge_ns_per_version() -> Result<f64, String> {
    let engine =
        mvtl_registry::build("mvtil-early?delta=1000").map_err(|e| format!("gc probe: {e}"))?;
    let mut per_version = Vec::with_capacity(5);
    for _ in 0..5 {
        let mut newest = Timestamp::ZERO;
        for round in 0..VERSIONS_PER_KEY {
            for chunk in 0..KEYS / 64 {
                let mut tx = engine.begin(ProcessId(1));
                for key in chunk * 64..(chunk + 1) * 64 {
                    tx.write(Key(key), round).map_err(|e| e.to_string())?;
                }
                let info = tx.commit().map_err(|e| e.to_string())?;
                newest = newest.max(info.commit_ts.unwrap_or(newest));
            }
        }
        let started = Instant::now();
        let (removed, _) = engine.purge_below(newest);
        per_version.push(started.elapsed().as_nanos() as f64 / removed.max(1) as f64);
    }
    per_version.sort_by(f64::total_cmp);
    Ok(per_version[2])
}

pub fn run(ctx: &mut Ctx<'_>) -> Result<(), String> {
    ctx.rung::<InProc>("gc", Some("registry"), MVTIL)?;
    let ns = purge_ns_per_version()?;
    ctx.metric("gc.purge_ns_per_version", ns);
    Ok(())
}
