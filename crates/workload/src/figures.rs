//! The figure harness: one function per figure of §8.4, plus ablations.
//!
//! Each function builds the simulator configurations for the corresponding
//! experiment, runs them, and returns a [`FigureTable`] whose rows carry the
//! series the paper plots (throughput, commit rate, and for Figures 6–7 the
//! state-size / over-time series). The binaries in `mvtl-bench` print these
//! tables; `EXPERIMENTS.md` records representative output next to the paper's
//! reported shapes.

use crate::runner::{run_closed_loop, RunnerOptions};
use crate::spec::{KeyDist, WorkloadSpec};
use mvtl_sim::{Protocol, SimConfig, Simulation};
use std::time::Duration;

/// How big an experiment to run.
///
/// * `Smoke` — seconds-long runs for tests and CI smokes;
/// * `Quick` — the default for the `fig*` binaries: small but large enough for
///   the qualitative shape (who wins, where curves bend) to be visible;
/// * `Paper` — parameter ranges matching the paper's plots (minutes of virtual
///   time; still fast in wall-clock terms because the simulator is virtual-time
///   based, but much more work than `Quick`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny runs for CI and benchmarks.
    Smoke,
    /// Reduced sweeps for interactive use (default of the binaries).
    Quick,
    /// Paper-scale parameter sweeps.
    Paper,
}

impl Scale {
    fn duration_secs(self) -> u64 {
        match self {
            Scale::Smoke => 1,
            Scale::Quick => 3,
            Scale::Paper => 20,
        }
    }

    fn scale_clients(self, paper_clients: &[usize]) -> Vec<usize> {
        match self {
            Scale::Paper => paper_clients.to_vec(),
            Scale::Quick => paper_clients.iter().map(|c| (c / 5).max(4)).collect(),
            Scale::Smoke => vec![8, 16],
        }
    }

    fn scale_keys(self, paper_keys: u64) -> u64 {
        match self {
            Scale::Paper => paper_keys,
            Scale::Quick => (paper_keys / 5).max(500),
            Scale::Smoke => (paper_keys / 20).max(200),
        }
    }
}

/// One data point of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureRow {
    /// Name of the x-axis parameter ("clients", "write %", "servers", "time s").
    pub x_label: &'static str,
    /// Value of the x-axis parameter.
    pub x: f64,
    /// Protocol the point belongs to.
    pub protocol: &'static str,
    /// Committed transactions per second.
    pub throughput_tps: f64,
    /// Fraction of transaction attempts that committed.
    pub commit_rate: f64,
    /// Total lock entries (state-size experiments), when meaningful.
    pub locks: Option<usize>,
    /// Total stored versions (state-size experiments), when meaningful.
    pub versions: Option<usize>,
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
        let mut out = String::new();
        out.push_str(&format!("# {} — {}\n", self.id, self.title));
        if self.rows.is_empty() {
            out.push_str("(no data)\n");
            return out;
        }
        out.push_str(&format!(
            "{:<12} {:<14} {:>14} {:>12} {:>10} {:>10}\n",
            self.rows[0].x_label, "protocol", "throughput_tps", "commit_rate", "locks", "versions"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<12} {:<14} {:>14.1} {:>12.3} {:>10} {:>10}\n",
                row.x,
                row.protocol,
                row.throughput_tps,
                row.commit_rate,
                row.locks.map_or("-".to_string(), |l| l.to_string()),
                row.versions.map_or("-".to_string(), |v| v.to_string()),
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
}

fn aggregate_row(x_label: &'static str, x: f64, config: SimConfig) -> FigureRow {
    let metrics = Simulation::new(config).run();
    FigureRow {
        x_label,
        x,
        protocol: metrics.protocol,
        throughput_tps: metrics.throughput_tps(),
        commit_rate: metrics.commit_rate(),
        locks: Some(metrics.final_locks),
        versions: Some(metrics.final_versions),
    }
}

/// Figure 1: effect of the concurrency level on throughput and commit rate,
/// local test bed (20 ops/tx, 25% writes, 10K keys, 3 servers).
#[must_use]
pub fn fig1_concurrency_local(scale: Scale) -> FigureTable {
    concurrency_sweep(
        "fig1",
        "Effect of concurrency level on performance, local test bed",
        scale,
        &[15, 150, 300, 450, 600],
        |protocol, scale| {
            SimConfig::local_cluster(protocol)
                .keys(scale.scale_keys(10_000))
                .ops_per_tx(20)
                .write_fraction(0.25)
                .duration_secs(scale.duration_secs())
        },
    )
}

/// Figure 2: effect of the concurrency level, cloud test bed (50K keys, 8 servers).
#[must_use]
pub fn fig2_concurrency_cloud(scale: Scale) -> FigureTable {
    concurrency_sweep(
        "fig2",
        "Effect of concurrency level on performance, cloud test bed",
        scale,
        &[25, 100, 200, 300, 400],
        |protocol, scale| {
            SimConfig::public_cloud(protocol)
                .keys(scale.scale_keys(50_000))
                .ops_per_tx(20)
                .write_fraction(0.25)
                .duration_secs(scale.duration_secs())
        },
    )
}

fn concurrency_sweep(
    id: &'static str,
    title: &str,
    scale: Scale,
    paper_clients: &[usize],
    base: impl Fn(Protocol, Scale) -> SimConfig,
) -> FigureTable {
    let mut rows = Vec::new();
    for clients in scale.scale_clients(paper_clients) {
        for protocol in Protocol::all() {
            let config = base(protocol, scale).clients(clients);
            rows.push(aggregate_row("clients", clients as f64, config));
        }
    }
    FigureTable {
        id,
        title: title.to_string(),
        rows,
    }
}

/// Figure 3: effect of the fraction of write operations (90 clients, 20 ops/tx,
/// 10K keys, local test bed). The paper plots MVTO+, 2PL and MVTIL-early.
#[must_use]
pub fn fig3_write_fraction(scale: Scale) -> FigureTable {
    let clients = match scale {
        Scale::Paper => 90,
        Scale::Quick => 30,
        Scale::Smoke => 12,
    };
    let fractions = match scale {
        Scale::Smoke => vec![0.0, 0.5, 1.0],
        _ => vec![0.0, 0.25, 0.5, 0.75, 1.0],
    };
    let mut rows = Vec::new();
    for fraction in fractions {
        for protocol in [
            Protocol::MvtoPlus,
            Protocol::TwoPhaseLocking,
            Protocol::MvtilEarly,
        ] {
            let config = SimConfig::local_cluster(protocol)
                .clients(clients)
                .keys(scale.scale_keys(10_000))
                .write_fraction(fraction)
                .duration_secs(scale.duration_secs());
            rows.push(aggregate_row("write_pct", fraction * 100.0, config));
        }
    }
    FigureTable {
        id: "fig3",
        title: "Effect of fraction of writes on performance".to_string(),
        rows,
    }
}

/// Figure 4: small transactions (8 operations, 50% writes) while varying the
/// concurrency level on the local test bed.
#[must_use]
pub fn fig4_small_transactions(scale: Scale) -> FigureTable {
    concurrency_sweep(
        "fig4",
        "Effect of small transaction size on performance",
        scale,
        &[15, 150, 300, 450, 600],
        |protocol, scale| {
            SimConfig::local_cluster(protocol)
                .keys(scale.scale_keys(10_000))
                .ops_per_tx(8)
                .write_fraction(0.5)
                .duration_secs(scale.duration_secs())
        },
    )
}

/// Figure 5: effect of the number of servers (400 clients, 20 ops/tx, 100K
/// keys, cloud test bed) with 75% and 50% reads.
#[must_use]
pub fn fig5_servers(scale: Scale) -> FigureTable {
    let clients = match scale {
        Scale::Paper => 400,
        Scale::Quick => 80,
        Scale::Smoke => 20,
    };
    let servers = match scale {
        Scale::Smoke => vec![1, 4],
        _ => vec![1, 5, 10, 15, 20],
    };
    let mut rows = Vec::new();
    for read_pct in [75u64, 50] {
        for &server_count in &servers {
            for protocol in Protocol::all() {
                let config = SimConfig::public_cloud(protocol)
                    .clients(clients)
                    .keys(scale.scale_keys(100_000))
                    .servers(server_count)
                    .write_fraction(1.0 - read_pct as f64 / 100.0)
                    .duration_secs(scale.duration_secs());
                let mut row = aggregate_row("servers", server_count as f64, config);
                // Distinguish the two panels via the protocol label suffix.
                row.x_label = if read_pct == 75 {
                    "servers(75%r)"
                } else {
                    "servers(50%r)"
                };
                rows.push(row);
            }
        }
    }
    FigureTable {
        id: "fig5",
        title: "Effect of number of servers on performance".to_string(),
        rows,
    }
}

fn state_size_config(protocol: Protocol, scale: Scale, gc_secs: Option<u64>) -> SimConfig {
    let (clients, duration, gc_lag) = match scale {
        Scale::Paper => (50, 180, 15),
        Scale::Quick => (25, 20, 3),
        Scale::Smoke => (10, 4, 1),
    };
    SimConfig::local_cluster(protocol)
        .clients(clients)
        .keys(scale.scale_keys(8_000))
        .write_fraction(0.5)
        .ops_per_tx(20)
        .duration_secs(duration)
        .gc_every_secs(gc_secs)
        .gc_lag_secs(gc_lag)
}

/// Figure 6: number of locks and versions as time passes, with garbage
/// collection on and off (50 clients, 20 ops/tx, 50% writes, 8K keys).
#[must_use]
pub fn fig6_state_size(scale: Scale) -> FigureTable {
    let gc_period = match scale {
        Scale::Paper => 15,
        Scale::Quick => 3,
        Scale::Smoke => 1,
    };
    let variants: [(&'static str, Protocol, Option<u64>); 3] = [
        ("MVTO+", Protocol::MvtoPlus, None),
        ("MVTIL-early", Protocol::MvtilEarly, None),
        ("MVTIL-GC", Protocol::MvtilEarly, Some(gc_period)),
    ];
    let mut rows = Vec::new();
    for (label, protocol, gc) in variants {
        let metrics = Simulation::new(state_size_config(protocol, scale, gc)).run();
        for point in &metrics.series {
            rows.push(FigureRow {
                x_label: "time_s",
                x: point.time_secs,
                protocol: label,
                throughput_tps: point.throughput_tps,
                commit_rate: point.commit_rate,
                locks: Some(point.locks),
                versions: Some(point.versions),
            });
        }
    }
    FigureTable {
        id: "fig6",
        title: "Number of locks and versions as time passes (GC on and off)".to_string(),
        rows,
    }
}

/// Figure 7: throughput and commit rate as time passes, with garbage collection
/// on and off (same workload as Figure 6, longer horizon).
#[must_use]
pub fn fig7_gc_over_time(scale: Scale) -> FigureTable {
    let gc_period = match scale {
        Scale::Paper => 15,
        Scale::Quick => 3,
        Scale::Smoke => 1,
    };
    let variants: [(&'static str, Protocol, Option<u64>); 4] = [
        ("MVTO+", Protocol::MvtoPlus, None),
        ("2PL", Protocol::TwoPhaseLocking, None),
        ("MVTIL-early", Protocol::MvtilEarly, None),
        ("MVTIL-GC", Protocol::MvtilEarly, Some(gc_period)),
    ];
    let mut rows = Vec::new();
    for (label, protocol, gc) in variants {
        let mut config = state_size_config(protocol, scale, gc);
        if scale == Scale::Paper {
            config = config.duration_secs(600);
        }
        let metrics = Simulation::new(config).run();
        for point in &metrics.series {
            rows.push(FigureRow {
                x_label: "time_s",
                x: point.time_secs,
                protocol: label,
                throughput_tps: point.throughput_tps,
                commit_rate: point.commit_rate,
                locks: Some(point.locks),
                versions: Some(point.versions),
            });
        }
    }
    FigureTable {
        id: "fig7",
        title: "Performance as time passes with garbage collection on and off".to_string(),
        rows,
    }
}

/// Registry sweep: every engine the string-spec registry knows, driven through
/// the threaded closed-loop runner via the object-safe `dyn Engine` layer.
///
/// This is the local-test-bed companion to the simulator figures: because the
/// engine list comes from [`mvtl_registry::all_specs`], wiring a new engine
/// into the registry automatically enrolls it here (and in the `fig1 --smoke`
/// CI step, which fails if any engine stops committing).
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
            rows.push(FigureRow {
                x_label,
                x: clients as f64,
                protocol: engine.name(),
                throughput_tps: metrics.throughput_tps(),
                commit_rate: metrics.commit_rate(),
                // Figure-6-style state-size endpoint: final lock entries and
                // stored versions of the real engine (zeros for engines that
                // track no such state, e.g. 2PL).
                locks: Some(metrics.stats_end.lock_entries),
                versions: Some(metrics.stats_end.versions),
            });
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

/// Ablation: MVTIL-early vs MVTIL-late commit-timestamp choice under growing
/// contention (design choice called out in `DESIGN.md`).
#[must_use]
pub fn ablation_commit_pick(scale: Scale) -> FigureTable {
    let mut rows = Vec::new();
    for write_fraction in [0.25, 0.5, 0.75] {
        for protocol in [Protocol::MvtilEarly, Protocol::MvtilLate] {
            let config = SimConfig::local_cluster(protocol)
                .clients(match scale {
                    Scale::Paper => 300,
                    Scale::Quick => 60,
                    Scale::Smoke => 16,
                })
                .keys(scale.scale_keys(5_000))
                .write_fraction(write_fraction)
                .duration_secs(scale.duration_secs());
            rows.push(aggregate_row("write_pct", write_fraction * 100.0, config));
        }
    }
    FigureTable {
        id: "ablation-commit-pick",
        title: "Ablation: early vs late commit-timestamp choice".to_string(),
        rows,
    }
}

/// Ablation: MVTIL interval width Δ.
#[must_use]
pub fn ablation_delta(scale: Scale) -> FigureTable {
    let deltas_us: &[u64] = match scale {
        Scale::Smoke => &[1_000, 10_000],
        _ => &[500, 1_000, 5_000, 20_000, 100_000],
    };
    let mut rows = Vec::new();
    for &delta in deltas_us {
        let config = SimConfig::local_cluster(Protocol::MvtilEarly)
            .clients(match scale {
                Scale::Paper => 300,
                Scale::Quick => 60,
                Scale::Smoke => 16,
            })
            .keys(scale.scale_keys(5_000))
            .write_fraction(0.5)
            .delta_us(delta)
            .duration_secs(scale.duration_secs());
        let mut row = aggregate_row("delta_us", delta as f64, config);
        row.protocol = "MVTIL-early";
        rows.push(row);
    }
    FigureTable {
        id: "ablation-delta",
        title: "Ablation: MVTIL interval width Δ".to_string(),
        rows,
    }
}

/// Ablation: garbage-collection period (timestamp-service broadcast interval).
#[must_use]
pub fn ablation_gc_period(scale: Scale) -> FigureTable {
    let periods: &[Option<u64>] = match scale {
        Scale::Smoke => &[None, Some(1)],
        _ => &[None, Some(1), Some(5), Some(15)],
    };
    let mut rows = Vec::new();
    for &period in periods {
        let config =
            state_size_config(Protocol::MvtilEarly, scale, period).gc_lag_secs(period.unwrap_or(1));
        let mut row = aggregate_row(
            "gc_period_s",
            period.map(|p| p as f64).unwrap_or(f64::INFINITY),
            config,
        );
        row.protocol = if period.is_none() {
            "no-GC"
        } else {
            "MVTIL-GC"
        };
        rows.push(row);
    }
    FigureTable {
        id: "ablation-gc-period",
        title: "Ablation: garbage-collection period".to_string(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fig1_has_all_protocols_and_sane_values() {
        let table = fig1_concurrency_local(Scale::Smoke);
        assert!(!table.rows.is_empty());
        for protocol in Protocol::all() {
            let series = table.series(protocol.name());
            assert!(!series.is_empty(), "{} missing", protocol.name());
            for row in series {
                assert!(row.throughput_tps > 0.0);
                assert!(row.commit_rate > 0.0 && row.commit_rate <= 1.0);
            }
        }
        let rendered = table.render();
        assert!(rendered.contains("fig1"));
        assert!(rendered.contains("MVTIL-early"));
    }

    #[test]
    fn smoke_fig6_series_shows_gc_bounding_state() {
        let table = fig6_state_size(Scale::Smoke);
        let no_gc: Vec<_> = table.series("MVTIL-early");
        let with_gc: Vec<_> = table.series("MVTIL-GC");
        assert!(!no_gc.is_empty() && !with_gc.is_empty());
        let last_no_gc = no_gc.last().unwrap().versions.unwrap();
        let last_with_gc = with_gc.last().unwrap().versions.unwrap();
        assert!(
            last_with_gc <= last_no_gc,
            "GC must not increase stored versions ({last_with_gc} vs {last_no_gc})"
        );
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
    }
}
