//! The figure harness: one function per figure of §8.4, plus ablations, all
//! measured on the engines that ship.
//!
//! Every data point builds a `mvtl_registry` spec and drives it through the
//! closed-loop [`runner`](crate::runner). What separates the paper's test
//! beds from one process is the network round trip. With closed-loop
//! clients, the protocols then differ in how long each one holds its locks
//! across those round trips. A `fault=delay:` schedule reproduces that on the
//! real engines: every operation of every engine sleeps a seeded 1–`max` µs
//! first ([`LOCAL_RTT`], [`CLOUD_RTT`]).
//!
//! Client threads are capped at [`MAX_CLIENTS`]. Each sweep scales its key
//! space by the same factor as its largest client count, so the keys per
//! client at that point match the paper's. Every MVTIL spec sets `delta`:
//! the registry default of 100 000 ticks lets MVTIL commit so far above the
//! clock that contended intervals collapse (see [`ablation_delta`]).
//!
//! [`shapes`] states each figure's qualitative claim as a check on its table;
//! the `fig*` binaries in `mvtl-bench` exit non-zero when one fails.

use crate::runner::{run_closed_loop, RunnerMetrics, RunnerOptions};
use crate::spec::{KeyDist, WorkloadSpec};
use mvtl_common::StoreStats;
use mvtl_registry::EngineSpec;
use std::fmt;
use std::time::Duration;

/// The local test bed's round trip: a seeded delay of 1–240 µs (mean
/// ≈ 120 µs) before every operation.
pub const LOCAL_RTT: &str = "delay:1:240";
/// The cloud test bed's round trip: a seeded delay of 1–1200 µs (mean
/// ≈ 600 µs) before every operation.
pub const CLOUD_RTT: &str = "delay:1:1200";
/// The most client threads a figure runs. The paper's 600 clients need
/// virtual time, which the engines do not have.
pub const MAX_CLIENTS: usize = 64;

/// How big an experiment to run.
///
/// * `Smoke` — the smallest and largest point of each sweep, short runs: the
///   CI checks of the figures' shapes;
/// * `Quick` — the default of the `fig*` binaries: every point, runs of a
///   few seconds;
/// * `Paper` — every point, long runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Short runs for CI and tests.
    Smoke,
    /// Every point, short runs (default of the binaries).
    Quick,
    /// Every point, long runs.
    Paper,
}

impl Scale {
    /// Length of one measured run.
    fn run(self) -> Duration {
        match self {
            Scale::Smoke => Duration::from_secs(1),
            Scale::Quick => Duration::from_secs(3),
            Scale::Paper => Duration::from_secs(10),
        }
    }

    /// `(windows, window length)` of a point whose protocols run in turn
    /// (Figure 3): together as long as one [`Scale::run`] per protocol.
    fn rotation(self) -> (usize, Duration) {
        match self {
            Scale::Smoke => (5, Duration::from_millis(200)),
            Scale::Quick => (3, Duration::from_secs(1)),
            Scale::Paper => (5, Duration::from_secs(2)),
        }
    }

    /// The sweep's points, Smoke keeping only the first and the last.
    fn points<T: Copy>(self, all: &[T]) -> Vec<T> {
        match (self, all) {
            (Scale::Smoke, [first, .., last]) => vec![*first, *last],
            _ => all.to_vec(),
        }
    }

    /// `(slices, slice length)` of a state-over-time run (Figures 6–7).
    fn slices(self) -> (usize, Duration) {
        match self {
            Scale::Smoke => (4, Duration::from_millis(250)),
            Scale::Quick => (10, Duration::from_secs(1)),
            Scale::Paper => (60, Duration::from_secs(3)),
        }
    }
}

/// The paper's client counts scaled so the largest is at most
/// [`MAX_CLIENTS`], with the paper's key count scaled by the same factor.
fn scaled(paper_clients: &[usize], paper_keys: u64) -> (Vec<usize>, u64) {
    let max = paper_clients.iter().copied().max().unwrap_or(1);
    let factor = (MAX_CLIENTS as f64 / max as f64).min(1.0);
    let clients = paper_clients
        .iter()
        .map(|&c| ((c as f64 * factor).round() as usize).max(2))
        .collect();
    (clients, (paper_keys as f64 * factor).round() as u64)
}

/// One protocol of a figure: the label its rows carry and its registry spec
/// (without the round trip).
#[derive(Debug, Clone, Copy)]
struct Protocol {
    label: &'static str,
    spec: &'static str,
}

const MVTO: Protocol = Protocol {
    label: "MVTO+",
    spec: "mvto+",
};
const TPL: Protocol = Protocol {
    label: "2PL",
    spec: "2pl",
};
const MVTIL_EARLY: Protocol = Protocol {
    label: "MVTIL-early",
    spec: "mvtil-early?delta=1000",
};
const MVTIL_LATE: Protocol = Protocol {
    label: "MVTIL-late",
    spec: "mvtil-late?delta=1000",
};

/// One data point of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureRow {
    /// Name of the x-axis parameter ("clients", "write_pct", "servers", ...).
    pub x_label: &'static str,
    /// Value of the x-axis parameter.
    pub x: f64,
    /// Protocol (or variant) the point belongs to.
    pub protocol: &'static str,
    /// Committed transactions per second.
    pub throughput_tps: f64,
    /// Fraction of transaction attempts that committed.
    pub commit_rate: f64,
    /// The engine's state at the end of the run (versions, lock entries,
    /// purged versions).
    pub stats: StoreStats,
}

impl FigureRow {
    fn new(x_label: &'static str, x: f64, protocol: &'static str, run: &RunnerMetrics) -> Self {
        FigureRow {
            x_label,
            x,
            protocol,
            throughput_tps: run.throughput_tps(),
            commit_rate: run.commit_rate(),
            stats: run.stats_end,
        }
    }
}

/// A whole figure: its identifier, a descriptive title and its data points.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureTable {
    /// Figure identifier ("fig1", "fig6", "ablation-delta", ...).
    pub id: &'static str,
    /// Human-readable description, matching the paper's caption.
    pub title: String,
    /// The data points, grouped by x then protocol.
    pub rows: Vec<FigureRow>,
}

impl FigureTable {
    /// Renders the table as aligned text, one line per row.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("# {} — {}\n", self.id, self.title);
        let Some(first) = self.rows.first() else {
            out.push_str("(no data)\n");
            return out;
        };
        out.push_str(&format!(
            "{:<14} {:<16} {:>14} {:>12} {:>10} {:>10} {:>10}\n",
            first.x_label,
            "protocol",
            "throughput_tps",
            "commit_rate",
            "locks",
            "versions",
            "purged"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<14} {:<16} {:>14.1} {:>12.3} {:>10} {:>10} {:>10}\n",
                (row.x * 100.0).round() / 100.0,
                row.protocol,
                row.throughput_tps,
                row.commit_rate,
                row.stats.lock_entries,
                row.stats.versions,
                row.stats.purged_versions,
            ));
        }
        out
    }

    /// The rows belonging to one protocol, in x order.
    #[must_use]
    pub fn series(&self, protocol: &str) -> Vec<&FigureRow> {
        self.rows
            .iter()
            .filter(|r| r.protocol == protocol)
            .collect()
    }

    /// The row of `protocol` at x = `x`.
    fn at(&self, protocol: &str, x: f64) -> Option<&FigureRow> {
        self.rows
            .iter()
            .find(|r| r.protocol == protocol && r.x == x)
    }

    /// The largest x of the table.
    fn max_x(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.x)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Builds `spec` and runs `options` against it once.
///
/// # Panics
///
/// Panics when the spec does not build: every spec here is a constant of
/// this module.
fn run(spec: &str, options: &RunnerOptions) -> RunnerMetrics {
    let engine = mvtl_registry::build(spec)
        .unwrap_or_else(|e| panic!("figure spec {spec:?} must build: {e}"));
    run_closed_loop(engine.as_ref(), options, |v| v)
}

/// `spec` with the round trip `rtt` appended.
fn with_rtt(spec: &str, rtt: &str) -> String {
    EngineSpec::append_params(spec, &format!("fault={rtt}"))
}

/// A sweep of every protocol over the paper's client counts and key count
/// (scaled), at `ops` operations per transaction and `write_fraction`.
fn concurrency_sweep(
    id: &'static str,
    title: &str,
    (scale, seed): (Scale, u64),
    rtt: &str,
    (paper_clients, paper_keys): (&[usize], u64),
    (ops, write_fraction): (usize, f64),
) -> FigureTable {
    let (clients, keys) = scaled(paper_clients, paper_keys);
    let mut rows = Vec::new();
    for clients in scale.points(&clients) {
        for protocol in [MVTO, TPL, MVTIL_EARLY, MVTIL_LATE] {
            let options = RunnerOptions {
                clients,
                duration: scale.run(),
                spec: WorkloadSpec::new(ops, write_fraction, keys),
                seed,
            };
            let metrics = run(&with_rtt(protocol.spec, rtt), &options);
            rows.push(FigureRow::new(
                "clients",
                clients as f64,
                protocol.label,
                &metrics,
            ));
        }
    }
    FigureTable {
        id,
        title: format!("{title} ({keys} keys, {ops} ops/tx, rtt {rtt})"),
        rows,
    }
}

/// Figure 1: effect of the concurrency level on throughput and commit rate,
/// local test bed (20 ops/tx, 25% writes, 10K keys at 600 clients).
#[must_use]
pub fn fig1_concurrency_local(scale: Scale, seed: u64) -> FigureTable {
    concurrency_sweep(
        "fig1",
        "Effect of concurrency level on performance, local test bed",
        (scale, seed),
        LOCAL_RTT,
        (&[15, 150, 300, 450, 600], 10_000),
        (20, 0.25),
    )
}

/// Figure 2: effect of the concurrency level, cloud test bed (50K keys at
/// 400 clients).
#[must_use]
pub fn fig2_concurrency_cloud(scale: Scale, seed: u64) -> FigureTable {
    concurrency_sweep(
        "fig2",
        "Effect of concurrency level on performance, cloud test bed",
        (scale, seed),
        CLOUD_RTT,
        (&[25, 100, 200, 300, 400], 50_000),
        (20, 0.25),
    )
}

/// Figure 3: effect of the fraction of write operations (90 clients, 20
/// ops/tx, 10K keys, local test bed). The paper plots MVTO+, 2PL and
/// MVTIL-early.
///
/// At each point the protocols run one short window each, in turn, several
/// times over, so that host noise lands on all of them alike rather than on
/// whichever ran during it; each protocol's row is its median window by
/// throughput. The asserted ratio at 100 % writes compares them.
#[must_use]
pub fn fig3_write_fraction(scale: Scale, seed: u64) -> FigureTable {
    let (clients, keys) = scaled(&[90], 10_000);
    let (windows, window) = scale.rotation();
    let protocols = [MVTO, TPL, MVTIL_EARLY];
    let mut rows = Vec::new();
    for write_pct in scale.points(&[0u32, 25, 50, 75, 100]) {
        let options = RunnerOptions {
            clients: clients[0],
            duration: window,
            spec: WorkloadSpec::new(20, f64::from(write_pct) / 100.0, keys),
            seed,
        };
        let mut runs: [Vec<RunnerMetrics>; 3] = Default::default();
        for _ in 0..windows {
            for (protocol, runs) in protocols.iter().zip(&mut runs) {
                runs.push(run(&with_rtt(protocol.spec, LOCAL_RTT), &options));
            }
        }
        for (protocol, mut runs) in protocols.iter().zip(runs) {
            runs.sort_by(|a, b| a.throughput_tps().total_cmp(&b.throughput_tps()));
            rows.push(FigureRow::new(
                "write_pct",
                f64::from(write_pct),
                protocol.label,
                &runs[runs.len() / 2],
            ));
        }
    }
    FigureTable {
        id: "fig3",
        title: format!(
            "Effect of fraction of writes on performance ({} clients, {keys} keys)",
            clients[0]
        ),
        rows,
    }
}

/// Figure 4: small transactions (8 operations, 50% writes) while varying the
/// concurrency level on the local test bed.
#[must_use]
pub fn fig4_small_transactions(scale: Scale, seed: u64) -> FigureTable {
    concurrency_sweep(
        "fig4",
        "Effect of small transaction size on performance",
        (scale, seed),
        LOCAL_RTT,
        (&[15, 150, 300, 450, 600], 10_000),
        (8, 0.5),
    )
}

/// Figure 5: effect of the number of servers (400 clients, 20 ops/tx, 100K
/// keys, cloud test bed) with 75% and 50% reads. Servers are the shards of
/// the §7 engine; MVTO+ and 2PL cannot take part in §7, so the figure
/// compares the two MVTIL commit picks.
#[must_use]
pub fn fig5_servers(scale: Scale, seed: u64) -> FigureTable {
    let (clients, keys) = scaled(&[400], 100_000);
    let inners: [(&'static str, &'static str); 2] =
        [("MVTIL-early", "mvtil-early"), ("MVTIL-late", "mvtil-late")];
    let mut rows = Vec::new();
    for (read_pct, x_label) in [(75u32, "servers(75%r)"), (50, "servers(50%r)")] {
        for shards in scale.points(&[1usize, 5, 10, 15, 20]) {
            for (label, inner) in inners {
                let spec = format!("sharded?shards={shards}&inner={inner}&delta=1000");
                let options = RunnerOptions {
                    clients: clients[0],
                    duration: scale.run(),
                    spec: WorkloadSpec::new(20, 1.0 - f64::from(read_pct) / 100.0, keys),
                    seed,
                };
                let metrics = run(&with_rtt(&spec, CLOUD_RTT), &options);
                rows.push(FigureRow::new(x_label, shards as f64, label, &metrics));
            }
        }
    }
    FigureTable {
        id: "fig5",
        title: format!(
            "Effect of number of servers on performance ({} clients, {keys} keys)",
            clients[0]
        ),
        rows,
    }
}

/// The GC-off and GC-on labels and spec of one state-over-time variant.
type GcPair = (&'static str, &'static str, &'static str);

/// The Figure 6 variants: a centralized MVTIL, MVTO+ and an 8-shard §7
/// engine.
const GC_PAIRS: [GcPair; 3] = [
    ("MVTIL-early", "MVTIL-early/gc", "mvtil-early?delta=1000"),
    ("MVTO+", "MVTO+/gc", "mvto+"),
    (
        "sharded-8",
        "sharded-8/gc",
        "sharded?shards=8&inner=mvtil-early&delta=1000",
    ),
];

/// The GC service appended to a spec for the GC-on run.
const GC_PARAMS: &str = "gc_ms=10&gc_lag_ms=5";

/// The state-over-time figures: each variant with GC off and on, sampled
/// with `Engine::stats()` after each of `scale`'s consecutive runner slices
/// on one engine (50 clients, 20 ops/tx, 50% writes, 8K keys, local test
/// bed).
fn over_time(
    id: &'static str,
    title: &str,
    scale: Scale,
    seed: u64,
    pairs: &[GcPair],
) -> FigureTable {
    let (slices, slice) = scale.slices();
    let mut rows = Vec::new();
    for &(off_label, on_label, base) in pairs {
        let gc_spec = EngineSpec::append_params(base, GC_PARAMS);
        for (label, spec) in [(off_label, base), (on_label, gc_spec.as_str())] {
            let spec = with_rtt(spec, LOCAL_RTT);
            let engine = mvtl_registry::build(&spec)
                .unwrap_or_else(|e| panic!("figure spec {spec:?} must build: {e}"));
            let mut elapsed = 0.0;
            for i in 0..slices {
                let options = RunnerOptions {
                    clients: 50,
                    duration: slice,
                    spec: WorkloadSpec::new(20, 0.5, 8_000),
                    seed: seed + i as u64,
                };
                let metrics = run_closed_loop(engine.as_ref(), &options, |v| v);
                elapsed += metrics.elapsed_secs;
                rows.push(FigureRow::new("time_s", elapsed, label, &metrics));
            }
        }
    }
    FigureTable {
        id,
        title: format!("{title} (GC: {GC_PARAMS})"),
        rows,
    }
}

/// Figure 6: number of locks and versions as time passes, with garbage
/// collection on and off.
#[must_use]
pub fn fig6_state_size(scale: Scale, seed: u64) -> FigureTable {
    over_time(
        "fig6",
        "Number of locks and versions as time passes (GC on and off)",
        scale,
        seed,
        &GC_PAIRS,
    )
}

/// Figure 7: throughput and commit rate as time passes, with garbage
/// collection on and off: Figure 6's variants plus 2PL.
#[must_use]
pub fn fig7_gc_over_time(scale: Scale, seed: u64) -> FigureTable {
    let mut pairs = GC_PAIRS.to_vec();
    pairs.push(("2PL", "2PL/gc", "2pl"));
    over_time(
        "fig7",
        "Performance as time passes with garbage collection on and off",
        scale,
        seed,
        &pairs,
    )
}

/// Registry sweep: every engine the string-spec registry knows, driven
/// through the threaded closed-loop runner without a round trip.
///
/// Because the engine list comes from [`mvtl_registry::all_specs`], wiring a
/// new engine into the registry automatically enrolls it here (and in the
/// `fig1 --smoke` CI step, which fails if any engine stops committing).
#[must_use]
pub fn engine_grid(scale: Scale) -> FigureTable {
    engine_grid_with_skew(scale, KeyDist::Uniform)
}

/// [`engine_grid`] under an arbitrary key distribution: the skew axis of the
/// sweep. Uniform reproduces the paper's setup; `zipf(0.99)` runs put every
/// engine (including the partitioned `sharded` ones) under the contention
/// regime where concurrency-control protocols differentiate.
#[must_use]
pub fn engine_grid_with_skew(scale: Scale, dist: KeyDist) -> FigureTable {
    let (clients_list, duration_ms): (&[usize], u64) = match scale {
        Scale::Smoke => (&[4], 80),
        Scale::Quick => (&[4, 8], 200),
        Scale::Paper => (&[4, 8, 16, 32], 1_000),
    };
    let x_label: &'static str = match dist {
        KeyDist::Uniform => "clients",
        KeyDist::Zipf { .. } => "clients(zipf)",
    };
    let mut rows = Vec::new();
    for &clients in clients_list {
        for spec in mvtl_registry::all_specs() {
            let engine = mvtl_registry::build(spec)
                .unwrap_or_else(|e| panic!("registry spec {spec:?} must build: {e}"));
            let metrics = run_closed_loop(
                engine.as_ref(),
                &RunnerOptions {
                    clients,
                    duration: Duration::from_millis(duration_ms),
                    spec: WorkloadSpec::new(8, 0.25, 512).with_dist(dist),
                    seed: 42,
                },
                |v| v,
            );
            rows.push(FigureRow::new(
                x_label,
                clients as f64,
                engine.name(),
                &metrics,
            ));
        }
    }
    FigureTable {
        id: "engine-grid",
        title: format!(
            "Registry sweep: threaded engines in a closed loop ({} keys)",
            dist.label()
        ),
        rows,
    }
}

/// Verifies that an [`engine_grid`] table covers every registered engine and
/// that each of them committed transactions — the single implementation of
/// the engine-wiring invariant shared by the `fig1 --smoke` CI gate and the
/// test suites.
///
/// # Panics
///
/// Panics when an engine is missing from the grid, never committed, or shows
/// zero throughput: an engine that fails to build from its registry spec, or
/// builds but can no longer commit, aborts the caller instead of silently
/// dropping out of the sweep.
pub fn check_engine_grid(grid: &FigureTable) {
    for spec in mvtl_registry::all_specs() {
        let base = spec.split('?').next().unwrap_or(spec);
        let series = grid.series(base);
        assert!(
            !series.is_empty(),
            "engine {base:?} missing from the registry grid"
        );
        for row in series {
            assert!(
                row.commit_rate > 0.0 && row.throughput_tps > 0.0,
                "engine {base:?} stopped committing (commit rate {}, {} tps)",
                row.commit_rate,
                row.throughput_tps
            );
        }
    }
}

/// The ablations' workload: Figure 1's contention at [`MAX_CLIENTS`].
fn ablation_options(scale: Scale, seed: u64, write_fraction: f64) -> RunnerOptions {
    let (clients, keys) = scaled(&[600], 10_000);
    RunnerOptions {
        clients: clients[0],
        duration: scale.run(),
        spec: WorkloadSpec::new(20, write_fraction, keys),
        seed,
    }
}

/// Ablation: MVTIL-early vs MVTIL-late commit-timestamp choice under growing
/// write fractions.
#[must_use]
pub fn ablation_commit_pick(scale: Scale, seed: u64) -> FigureTable {
    let mut rows = Vec::new();
    for write_pct in [25u32, 50, 75] {
        let options = ablation_options(scale, seed, f64::from(write_pct) / 100.0);
        for protocol in [MVTIL_EARLY, MVTIL_LATE] {
            let metrics = run(&with_rtt(protocol.spec, LOCAL_RTT), &options);
            rows.push(FigureRow::new(
                "write_pct",
                f64::from(write_pct),
                protocol.label,
                &metrics,
            ));
        }
    }
    FigureTable {
        id: "ablation-commit-pick",
        title: "Ablation: early vs late commit-timestamp choice".to_string(),
        rows,
    }
}

/// Ablation: MVTIL interval width Δ, up to the registry default.
#[must_use]
pub fn ablation_delta(scale: Scale, seed: u64) -> FigureTable {
    let options = ablation_options(scale, seed, 0.5);
    let mut rows = Vec::new();
    for delta in [100u64, 1_000, 10_000, mvtl_registry::DEFAULT_DELTA] {
        let spec = format!("mvtil-early?delta={delta}");
        let metrics = run(&with_rtt(&spec, LOCAL_RTT), &options);
        rows.push(FigureRow::new(
            "delta",
            delta as f64,
            "MVTIL-early",
            &metrics,
        ));
    }
    FigureTable {
        id: "ablation-delta",
        title: "Ablation: MVTIL interval width Δ (ticks)".to_string(),
        rows,
    }
}

/// Ablation: the GC sweep interval.
#[must_use]
pub fn ablation_gc_period(scale: Scale, seed: u64) -> FigureTable {
    let options = ablation_options(scale, seed, 0.5);
    let mut rows = Vec::new();
    for gc_ms in scale.points(&[None, Some(1_000u64), Some(100), Some(10)]) {
        let (label, spec) = match gc_ms {
            None => ("no-GC", MVTIL_EARLY.spec.to_string()),
            Some(ms) => (
                "MVTIL-GC",
                EngineSpec::append_params(MVTIL_EARLY.spec, &format!("gc_ms={ms}&gc_lag_ms=5")),
            ),
        };
        let metrics = run(&with_rtt(&spec, LOCAL_RTT), &options);
        let x = gc_ms.map_or(f64::INFINITY, |ms| ms as f64);
        rows.push(FigureRow::new("gc_ms", x, label, &metrics));
    }
    FigureTable {
        id: "ablation-gc-period",
        title: "Ablation: garbage-collection sweep interval".to_string(),
        rows,
    }
}

/// One qualitative claim of a figure, measured on its table.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// The claim, with the measured value.
    pub claim: String,
    /// Whether the measurement supports it.
    pub holds: bool,
    /// Whether a run fails when the claim does not hold. A claim the engines
    /// do not reproduce reliably is only reported.
    pub asserted: bool,
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = match (self.asserted, self.holds) {
            (false, _) => "info",
            (true, true) => "ok  ",
            (true, false) => "FAIL",
        };
        write!(f, "shape {verdict} {}", self.claim)
    }
}

/// `a`'s throughput over `b`'s at `x` must exceed `threshold`.
fn throughput_ratio(table: &FigureTable, x: f64, a: &str, b: &str, threshold: f64) -> Shape {
    let ratio = match (table.at(a, x), table.at(b, x)) {
        (Some(a), Some(b)) if b.throughput_tps > 0.0 => a.throughput_tps / b.throughput_tps,
        (Some(a), Some(_)) if a.throughput_tps > 0.0 => f64::INFINITY,
        _ => 0.0,
    };
    Shape {
        claim: format!(
            "{}: {a} / {b} throughput at {} {x} = {ratio:.2} > {threshold}",
            table.id,
            table.rows.first().map_or("x", |r| r.x_label),
        ),
        holds: ratio > threshold,
        asserted: true,
    }
}

/// The qualitative claims of `table`'s figure. A threshold above 1.0 sits
/// at or below halfway between 1.0 and the smallest ratio of ten
/// consecutive smoke runs on 2 vCPUs; one below 1.0 (a protocol keeping a
/// share of a faster one's throughput) sits at or below half the smallest
/// ratio (README, "Findings"). Figures without a claim return none.
#[must_use]
pub fn shapes(table: &FigureTable) -> Vec<Shape> {
    let early_over = |b: &str, threshold| {
        throughput_ratio(table, table.max_x(), MVTIL_EARLY.label, b, threshold)
    };
    match table.id {
        "fig1" => vec![early_over(TPL.label, 1.5), early_over(MVTO.label, 1.0)],
        "fig2" | "fig4" => vec![early_over(TPL.label, 1.0)],
        "fig3" => table
            .rows
            .iter()
            .filter(|r| r.x == 0.0)
            .map(|r| Shape {
                claim: format!(
                    "fig3: {} commit rate at 0% writes = {:.3} > 0.95",
                    r.protocol, r.commit_rate
                ),
                holds: r.commit_rate > 0.95,
                asserted: true,
            })
            // At 100 % writes MVTIL-early trails MVTO+, which commits every
            // blind write, but keeps a fixed share of its throughput.
            .chain([early_over(MVTO.label, 0.3)])
            .collect(),
        "fig6" => GC_PAIRS
            .iter()
            .map(|&(off, on, _)| gc_bounds_state(table, off, on))
            .collect(),
        // Which commit pick wins changes from run to run: report it only.
        "ablation-commit-pick" => table
            .series(MVTIL_EARLY.label)
            .iter()
            .map(|row| Shape {
                asserted: false,
                ..throughput_ratio(table, row.x, MVTIL_EARLY.label, MVTIL_LATE.label, 1.0)
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// §6 on one GC pair: both runs commit, the GC-on run purged, and it ends
/// with less resident state (versions + lock entries) than the GC-off run.
fn gc_bounds_state(table: &FigureTable, off: &str, on: &str) -> Shape {
    let last = |label| table.series(label).last().map(|r| r.stats);
    let commits = |label| table.series(label).iter().any(|r| r.throughput_tps > 0.0);
    let (off_stats, on_stats) = (last(off).unwrap_or_default(), last(on).unwrap_or_default());
    Shape {
        claim: format!(
            "fig6: {on} resident {} < {off} resident {}, {} purged, both commit",
            on_stats.resident(),
            off_stats.resident(),
            on_stats.purged_versions
        ),
        holds: commits(off)
            && commits(on)
            && on_stats.purged_versions > 0
            && on_stats.resident() < off_stats.resident(),
        asserted: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fig1_has_all_protocols_and_sane_values() {
        let table = fig1_concurrency_local(Scale::Smoke, 42);
        for protocol in [MVTO, TPL, MVTIL_EARLY, MVTIL_LATE] {
            let series = table.series(protocol.label);
            assert_eq!(series.len(), 2, "{} missing", protocol.label);
            for row in series {
                assert!(row.throughput_tps > 0.0);
                assert!(row.commit_rate > 0.0 && row.commit_rate <= 1.0);
            }
        }
        assert_eq!(table.max_x(), MAX_CLIENTS as f64);
        let rendered = table.render();
        assert!(rendered.contains("fig1"));
        assert!(rendered.contains("MVTIL-early"));
    }

    #[test]
    fn smoke_fig6_series_shows_gc_bounding_state() {
        let table = fig6_state_size(Scale::Smoke, 7);
        for (off, on, _) in GC_PAIRS {
            assert_eq!(table.series(off).len(), 4);
            assert_eq!(table.series(on).len(), 4);
        }
        for shape in shapes(&table) {
            assert!(shape.holds, "{shape}\n{}", table.render());
        }
    }

    #[test]
    fn paper_points_scale_to_the_client_cap() {
        assert_eq!(
            scaled(&[15, 150, 300, 450, 600], 10_000),
            (vec![2, 16, 32, 48, 64], 1_067)
        );
        assert_eq!(scaled(&[50], 8_000), (vec![50], 8_000));
        assert_eq!(Scale::Smoke.points(&[1, 2, 3]), vec![1, 3]);
        assert_eq!(Scale::Quick.points(&[1, 2, 3]), vec![1, 2, 3]);
    }

    #[test]
    fn engine_grid_covers_every_registry_spec() {
        check_engine_grid(&engine_grid(Scale::Smoke));
    }

    #[test]
    fn skewed_engine_grid_keeps_every_engine_committing() {
        // The zipf(0.99) axis: all engines — including the partitioned
        // `sharded` specs, whose hot keys concentrate on a few shards — must
        // keep committing under heavy skew.
        check_engine_grid(&engine_grid_with_skew(
            Scale::Smoke,
            KeyDist::Zipf { theta: 0.99 },
        ));
    }

    #[test]
    fn render_handles_empty_tables() {
        let table = FigureTable {
            id: "empty",
            title: "nothing".to_string(),
            rows: vec![],
        };
        assert!(table.render().contains("(no data)"));
        assert!(shapes(&table).is_empty());
    }
}
