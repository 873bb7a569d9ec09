//! Everything that looks *inside* the program: the layer ladder, the
//! single-thread mechanism loops and the regime probes.
//!
//! One file per program crate. A file is the only place the benchmark names
//! that crate's concrete types, so when a layer is deleted or renamed the
//! follow-up here is a one-file edit. The end-to-end path (`session.rs`,
//! `harness.rs`, `bench.rs`) never imports from this directory's
//! dependencies.
//!
//! The ladder runs `mem_short`'s transaction stream with one client against a
//! fresh instance per rung and reports `<rung>.txn_us` (mean µs per committed
//! transaction) and `<rung>.x_below` (that time ÷ the time of the rung it
//! stands on). No ordering is asserted: a higher rung may be faster.

mod baselines;
mod clock;
mod common;
mod core;
mod gc;
mod locks;
mod server;
mod shard;
mod storage;
mod wal;

use crate::bench::{secs, Options, SHORT};
use crate::harness::{run_phase, setup, untraced, Stop};
use crate::session::Target;
use std::time::{Duration, Instant};

/// Untimed transactions before a rung is measured.
const RUNG_WARMUP: u64 = 500;

/// What the probe files write into.
pub struct Ctx<'a> {
    pub opts: &'a Options,
    pub metrics: Vec<(String, f64)>,
}

impl Ctx<'_> {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Time budget of one ladder rung / one mechanism loop / one regime probe.
    pub fn rung_budget(&self) -> Duration {
        secs(self.opts.seconds * 0.02)
    }

    pub fn loop_budget(&self) -> Duration {
        secs(self.opts.seconds * 0.004)
    }

    pub fn regime_budget(&self) -> Duration {
        secs(self.opts.seconds * 0.075)
    }

    /// Measures one ladder rung on a fresh `T` built from `spec`, standing on
    /// the already-measured rung `below` (`None`: the bottom rung).
    pub fn rung<T: Target>(
        &mut self,
        name: &str,
        below: Option<&str>,
        spec: &str,
    ) -> Result<(), String> {
        let mut rig = setup::<T>("mem_short", spec, &SHORT, self.opts.seed, 1, RUNG_WARMUP)
            .map_err(|e| format!("rung {name}: {e}"))?;
        let phase = run_phase(
            &mut rig.clients,
            &mut untraced(1),
            Stop::After(self.rung_budget()),
        );
        if let Some(err) = phase.first_error() {
            return Err(format!("rung {name}: {err}"));
        }
        let txn_us = 1e6 / phase.mean_tps();
        let base = match below {
            Some(below) => self
                .get(&format!("{below}.txn_us"))
                .ok_or_else(|| format!("rung {name} stands on unmeasured rung {below}"))?,
            None => txn_us,
        };
        eprintln!(
            "rung {name}: {txn_us:.2} us/txn, {:.3}x of {}",
            txn_us / base,
            below.unwrap_or(name)
        );
        self.metric(&format!("{name}.txn_us"), txn_us);
        self.metric(&format!("{name}.x_below"), txn_us / base);
        Ok(())
    }
}

/// Median nanoseconds per operation over five batches, for each of the `K`
/// parts a batch times separately. `batch(n)` performs `n` operations and
/// returns how long each timed part took; `n` is grown until a whole batch
/// lasts about an eighth of `budget`, so a loop costs about `budget` whatever
/// the operation's speed.
pub fn median_ns<const K: usize>(
    budget: Duration,
    mut batch: impl FnMut(u64) -> [Duration; K],
) -> [f64; K] {
    let target = budget / 8;
    let mut n = 256u64;
    loop {
        let took: Duration = batch(n).iter().sum();
        if took >= target || n >= 1 << 28 {
            break;
        }
        // Aim straight at the target, growing by at most 16× per step.
        let scale = target.as_secs_f64() / took.as_secs_f64().max(1e-9);
        n = (n as f64 * scale.clamp(1.5, 16.0)) as u64;
    }
    let batches: Vec<[Duration; K]> = (0..5).map(|_| batch(n)).collect();
    std::array::from_fn(|part| {
        let mut per_op: Vec<f64> = batches
            .iter()
            .map(|b| b[part].as_nanos() as f64 / n as f64)
            .collect();
        per_op.sort_by(f64::total_cmp);
        per_op[2]
    })
}

/// [`median_ns`] for a loop with no untimed part.
pub fn loop_ns(budget: Duration, mut op: impl FnMut(u64)) -> f64 {
    let [ns] = median_ns(budget, |n| {
        let started = Instant::now();
        for i in 0..n {
            op(i);
        }
        [started.elapsed()]
    });
    ns
}

/// The workload-independent half of a per-layer run.
pub fn extras(opts: &Options) -> Result<Vec<(String, f64)>, String> {
    let mut ctx = Ctx {
        opts,
        metrics: Vec::new(),
    };
    // Ladder order: a rung's `below` must already be measured.
    core::run(&mut ctx)?;
    gc::run(&mut ctx)?;
    wal::run(&mut ctx)?;
    shard::run(&mut ctx)?;
    server::run(&mut ctx)?;
    baselines::run(&mut ctx)?;
    common::run(&mut ctx);
    locks::run(&mut ctx);
    storage::run(&mut ctx);
    clock::run(&mut ctx);
    Ok(ctx.metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_ns_scales_the_batch_and_reports_per_operation_time() {
        let mut sink = 0u64;
        let ns = loop_ns(Duration::from_millis(20), |i| {
            sink = std::hint::black_box(sink.wrapping_add(i));
        });
        assert!(ns > 0.0 && ns < 1_000.0, "{ns} ns per add");
    }
}
