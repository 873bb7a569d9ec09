//! The six pinned workloads and the two kinds of run: end-to-end (untraced)
//! and per-layer (traced, followed by the ladder and the probes).

use crate::harness::{run_phase, setup, untraced, verify, Checked, Phase, Rig, Stop, CLIENTS};
use crate::load::{KeyDist, Load};
use crate::probes;
use crate::session::{InProc, Served, Target, ABORT_CLASSES};
use crate::trace::{write_jsonl, Breakdown, Name, SpanBuf};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Every spec pins the deployed steady-state regime: Δ = 1000 ticks and a
/// 50 ms GC. The registry defaults (Δ = 100 000, no GC) are measured as
/// regime probes, not as workloads.
pub const MVTIL: &str = "mvtil-early?delta=1000&gc_ms=50&gc_lag_ms=50";
const SHARDED: &str = "sharded?shards=4&inner=mvtil-early&delta=1000&gc_ms=50&gc_lag_ms=50";

pub struct Workload {
    pub name: &'static str,
    pub spec: &'static str,
    /// Append `&wal=<fresh dir>&fsync=group`, then rebuild from the log.
    pub wal: bool,
    /// Drive it through `Server::spawn` and one connection per client.
    pub served: bool,
    pub load: Load,
    /// Untimed transactions per client before measuring (part of `setup_s`).
    pub warmup: u64,
}

pub const SHORT: Load = Load {
    keys: 100_000,
    dist: KeyDist::Uniform,
    ops: 8,
    write_pct: 25,
};

pub const CONTENDED: Load = Load {
    keys: 1024,
    dist: KeyDist::Zipf(0.99),
    ops: 8,
    write_pct: 25,
};

pub const COMMIT: Load = Load {
    keys: 100_000,
    dist: KeyDist::Uniform,
    ops: 4,
    write_pct: 100,
};

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "mem_short",
        spec: MVTIL,
        wal: false,
        served: false,
        load: SHORT,
        warmup: 40_000,
    },
    Workload {
        name: "mem_contended",
        spec: MVTIL,
        wal: false,
        served: false,
        load: CONTENDED,
        warmup: 8_000,
    },
    Workload {
        name: "mem_readmostly",
        spec: MVTIL,
        wal: false,
        served: false,
        load: Load {
            keys: 4096,
            dist: KeyDist::Zipf(0.8),
            ops: 16,
            write_pct: 5,
        },
        warmup: 12_000,
    },
    Workload {
        name: "wal_commit",
        spec: MVTIL,
        wal: true,
        served: false,
        load: COMMIT,
        warmup: 1_500,
    },
    Workload {
        name: "sharded_cross",
        spec: SHARDED,
        wal: false,
        served: false,
        load: SHORT,
        warmup: 30_000,
    },
    Workload {
        name: "served_oneshot",
        spec: MVTIL,
        wal: false,
        served: true,
        load: SHORT,
        warmup: 12_000,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Everything the benchmark writes lives under `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A log directory no earlier set-up of this process has used. Removed (with
/// its contents) on drop.
pub struct LogDir(pub PathBuf);

impl LogDir {
    pub fn fresh() -> LogDir {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("wal-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        LogDir(dir)
    }

    pub fn spec(&self, base: &str, fsync: &str) -> String {
        format!("{base}&wal={}&fsync={fsync}", self.0.display())
    }

    /// Bytes in the directory's files (one level: the log's segments).
    pub fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .into_iter()
            .flatten()
            .filter_map(|entry| entry.ok()?.metadata().ok())
            .map(|meta| meta.len())
            .sum()
    }
}

impl Drop for LogDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub struct Options {
    pub seed: u64,
    /// Length of the measured phase of an end-to-end run; a per-layer run
    /// sizes its phases, ladder rungs and probes as shares of it.
    pub seconds: f64,
    /// How many times an end-to-end run sets the workload up (`setup_s` is
    /// the median); the last instance is the one measured.
    pub setups: usize,
    /// Share of each workload's warm-up count to run: 1 except in `check`.
    pub warmup_share: f64,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

pub fn secs(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds.max(0.001))
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    (values[(n - 1) / 2] + values[n / 2]) / 2.0
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(out: &mut Vec<(String, f64)>, name: &str, value: f64) {
    out.push((name.to_string(), value));
}

/// One set-up instance plus the log directory it writes to, if any.
struct Instance<T: Target> {
    rig: Rig<T>,
    log: Option<LogDir>,
    spec: String,
}

fn instance<T: Target>(w: &Workload, opts: &Options) -> Result<Instance<T>, String> {
    let log = w.wal.then(LogDir::fresh);
    let spec = match &log {
        Some(log) => log.spec(w.spec, "group"),
        None => w.spec.to_string(),
    };
    let warmup = (w.warmup as f64 * opts.warmup_share).ceil() as u64;
    let rig = setup::<T>(w.name, &spec, &w.load, opts.seed, CLIENTS, warmup)?;
    Ok(Instance { rig, log, spec })
}

/// The output check. For `wal_commit` it is repeated after the engine has
/// been dropped and rebuilt from the log the run wrote: every acknowledged
/// commit must have survived. Returns the check and the rebuild time.
fn check_outputs<T: Target>(instance: Instance<T>) -> Result<(Checked, f64), String> {
    let Instance { mut rig, log, spec } = instance;
    let mut checked = rig.verify()?;
    let mut recovery_s = 0.0;
    if log.is_some() {
        let views = rig.into_views();
        let started = Instant::now();
        let rebuilt = InProc::open(&spec)?;
        recovery_s = started.elapsed().as_secs_f64();
        let views: Vec<&[_]> = views.iter().map(Vec::as_slice).collect();
        let again = verify(&mut rebuilt.session(1)?, &views)?;
        checked.keys += again.keys;
        checked.wrong += again.wrong;
    }
    Ok((checked, recovery_s))
}

fn outcome(phases: &[&Phase], checked: Checked, metrics: Vec<(String, f64)>) -> Outcome {
    let failed_txns: u64 = phases.iter().map(|p| p.sum(|c| c.failed)).sum();
    for phase in phases {
        if let Some(err) = phase.first_error() {
            eprintln!("failed transaction: {err}");
        }
    }
    if checked.wrong > 0 {
        eprintln!(
            "output check: {} of {} keys wrong",
            checked.wrong, checked.keys
        );
    }
    let failed = failed_txns + checked.wrong;
    Outcome {
        correct: failed == 0,
        attempted: phases.iter().map(|p| p.attempted()).sum::<u64>() + checked.keys,
        failed,
        metrics,
    }
}

fn end_to_end_on<T: Target>(w: &Workload, opts: &Options) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(opts.setups);
    let mut current = None;
    for _ in 0..opts.setups.max(1) {
        drop(current.take()); // never two engines alive at once
        let started = Instant::now();
        current = Some(instance::<T>(w, opts)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut instance = current.expect("at least one set-up");
    let phase = run_phase(
        &mut instance.rig.clients,
        &mut untraced(CLIENTS),
        Stop::After(secs(opts.seconds)),
    );
    let rss = rss_peak_mb();
    let (checked, _) = check_outputs(instance)?;

    let latency = phase.latency();
    let mut m = Vec::new();
    metric(&mut m, "setup_s", median(setup_s));
    metric(&mut m, "commit_tps", phase.tps());
    metric(&mut m, "txn_mid_us", latency.mean_between(0.10, 0.90) / 1e3);
    metric(&mut m, "txn_p95_us", latency.quantile(0.95) / 1e3);
    metric(&mut m, "rss_peak_mb", rss);
    eprintln!(
        "{}: {} commits in {:.1} s ({} latency samples), mean {:.0} tps",
        w.name,
        phase.commits(),
        opts.seconds,
        latency.count(),
        phase.mean_tps()
    );
    Ok(outcome(&[&phase], checked, m))
}

pub fn end_to_end(w: &Workload, opts: &Options) -> Result<Outcome, String> {
    if w.served {
        end_to_end_on::<Served>(w, opts)
    } else {
        end_to_end_on::<InProc>(w, opts)
    }
}

/// Spans per client buffer (32 bytes each) and the slack that must be free
/// before another transaction starts.
const SPAN_CAPACITY: usize = 1 << 20;
const SPAN_RESERVE: usize = 1 << 12;
/// Spans per client written to `out/trace-<workload>.jsonl`.
const JSONL_SPANS: usize = 1 << 16;

/// The workload-specific half of a per-layer run: an untraced phase, a traced
/// phase on the same engine (their ratio is the tracing overhead), a
/// one-client phase, and the engine's own state counters.
fn traced_on<T: Target>(w: &Workload, opts: &Options) -> Result<Outcome, String> {
    let mut instance = instance::<T>(w, opts)?;
    let rig = &mut instance.rig;
    let before = rig.stats()?;
    let plain = run_phase(
        &mut rig.clients,
        &mut untraced(CLIENTS),
        Stop::After(secs(opts.seconds * 0.15)),
    );
    let epoch = Instant::now();
    let mut buffers: Vec<SpanBuf> = (0..CLIENTS)
        .map(|_| SpanBuf::new(epoch, SPAN_CAPACITY, SPAN_RESERVE))
        .collect();
    let traced = run_phase(
        &mut rig.clients,
        &mut buffers,
        Stop::After(secs(opts.seconds * 0.15)),
    );
    let after = rig.stats()?;
    let single = run_phase(
        &mut rig.clients[..1],
        &mut untraced(1),
        Stop::After(secs(opts.seconds * 0.1)),
    );
    let (checked, recovery_s) = check_outputs(instance)?;

    let spans: Vec<_> = buffers.into_iter().map(SpanBuf::into_spans).collect();
    let mut b = Breakdown::new();
    for client in &spans {
        b.add(client);
    }
    let path = out_dir().join(format!("trace-{}.jsonl", w.name));
    write_jsonl(&path, &spans, JSONL_SPANS).map_err(|e| format!("{}: {e}", path.display()))?;

    let mut m = Vec::new();
    for (metric_name, span) in [
        ("engine.begin_ns", Name::Begin),
        ("engine.read_ns", Name::Read),
        ("engine.write_ns", Name::Write),
        ("engine.commit_ns", Name::Commit),
        ("engine.abort_ns", Name::Abort),
    ] {
        metric(&mut m, metric_name, b.mean_self_ns(span));
    }
    metric(&mut m, "engine.read_p99_ns", b.p99_ns(Name::Read));
    metric(&mut m, "engine.commit_p99_ns", b.p99_ns(Name::Commit));
    metric(&mut m, "server.burst_us", b.mean_self_ns(Name::Burst) / 1e3);
    metric(&mut m, "server.burst_p99_us", b.p99_ns(Name::Burst) / 1e3);

    // Thomasian's split of a committed transaction's time, in µs per commit.
    let per_commit = |ns: u64| ns as f64 / 1e3 / b.txns.max(1) as f64;
    let harness_ns = b.txn_ns - (b.exec_ns + b.restart_ns + b.retry_wait_ns).min(b.txn_ns);
    metric(&mut m, "txn.exec_us", per_commit(b.exec_ns));
    metric(&mut m, "txn.restart_us", per_commit(b.restart_ns));
    metric(&mut m, "txn.retry_wait_us", per_commit(b.retry_wait_ns));
    metric(&mut m, "txn.harness_us", per_commit(harness_ns));
    let commits = traced.commits().max(1) as f64;
    metric(
        &mut m,
        "txn.attempts_per_commit",
        traced.sum(|c| c.attempts) as f64 / commits,
    );
    for (class, name) in ABORT_CLASSES.iter().enumerate() {
        metric(
            &mut m,
            &format!("txn.aborts.{name}"),
            traced.aborts(class) as f64 * 1000.0 / commits,
        );
    }

    let keys = after.keys.max(1) as f64;
    metric(
        &mut m,
        "storage.versions_per_key",
        after.versions as f64 / keys,
    );
    metric(
        &mut m,
        "locks.entries_per_key",
        after.lock_entries as f64 / keys,
    );
    metric(
        &mut m,
        "locks.frozen_frac",
        after.frozen_lock_entries as f64 / after.lock_entries.max(1) as f64,
    );
    let purged = after.purged_versions.saturating_sub(before.purged_versions);
    metric(
        &mut m,
        "gc.purged_per_commit",
        purged as f64 / (plain.commits() + traced.commits()).max(1) as f64,
    );

    metric(&mut m, "engine.c1_tps", single.tps());
    metric(
        &mut m,
        "engine.scaling_x",
        plain.tps() / single.tps().max(1e-9),
    );
    let tail = plain.latency();
    metric(&mut m, "tail.p99_us", tail.quantile(0.99) / 1e3);
    metric(&mut m, "tail.p999_us", tail.quantile(0.999) / 1e3);
    metric(
        &mut m,
        "bench.trace_overhead_x",
        plain.tps() / traced.tps().max(1e-9),
    );
    metric(&mut m, "wal.recovery_s", recovery_s);

    let coverage = b.coverage();
    eprintln!(
        "{}: traced {} txns, self times cover {:.4} of the root spans, {} spans → {}",
        w.name,
        b.txns,
        coverage,
        spans.iter().map(Vec::len).sum::<usize>(),
        path.display()
    );
    let mut out = outcome(&[&plain, &traced, &single], checked, m);
    if (coverage - 1.0).abs() > 0.05 {
        eprintln!("span self times do not add up to the root spans");
        out.correct = false;
    }
    Ok(out)
}

pub fn traced(w: &Workload, opts: &Options) -> Result<Outcome, String> {
    if w.served {
        traced_on::<Served>(w, opts)
    } else {
        traced_on::<InProc>(w, opts)
    }
}

/// A whole per-layer run: the traced workload, then the workload-independent
/// ladder, mechanism probes and regime probes.
pub fn per_layer(w: &Workload, opts: &Options) -> Result<Outcome, String> {
    let mut out = traced(w, opts)?;
    out.metrics.extend(probes::extras(opts)?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{Contract, Section};

    const QUICK: Options = Options {
        seed: 7,
        seconds: 0.2,
        setups: 1,
        warmup_share: 0.01,
    };

    #[test]
    fn workload_names_match_benchmark_json() {
        let contract = Contract::load().unwrap();
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, contract.workloads);
    }

    #[test]
    fn an_end_to_end_run_emits_exactly_the_listed_metrics() {
        let contract = Contract::load().unwrap();
        for name in ["mem_contended", "served_oneshot"] {
            let out = end_to_end(workload(name).unwrap(), &QUICK).unwrap();
            assert!(out.correct && out.failed == 0 && out.attempted > 0);
            contract
                .metrics_object(Section::EndToEnd, &out.metrics)
                .unwrap();
            assert!(
                out.metrics.iter().all(|(_, v)| *v > 0.0),
                "{:?}",
                out.metrics
            );
            let get = |name: &str| out.metrics.iter().find(|(n, _)| n == name).unwrap().1;
            assert!(get("txn_mid_us") < get("txn_p95_us"));
        }
    }

    #[test]
    fn a_per_layer_run_emits_exactly_the_listed_metrics() {
        let contract = Contract::load().unwrap();
        let out = per_layer(workload("wal_commit").unwrap(), &QUICK).unwrap();
        assert!(out.correct, "failed {}", out.failed);
        contract
            .metrics_object(Section::PerLayer, &out.metrics)
            .unwrap();
        let get = |name: &str| out.metrics.iter().find(|(n, _)| n == name).unwrap().1;
        assert!(get("wal.recovery_s") > 0.0);
        assert!(get("engine.commit_ns") > get("engine.begin_ns"));
        assert_eq!(get("server.burst_us"), 0.0, "not a served workload");
    }
}
