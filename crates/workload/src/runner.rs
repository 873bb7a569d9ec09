//! A multi-threaded closed-loop runner for the centralized engines.
//!
//! The paper's clients "submit transactions repeatedly in a closed-loop"
//! (§8.3); this runner does the same against any `dyn`
//! [`Engine`] — every engine in the workspace, usually obtained from the
//! `mvtl-registry` string-spec factory — with one thread per client. It is the
//! harness behind every figure.

use crate::spec::{TxTemplate, WorkloadSpec};
use mvtl_common::{Engine, EngineExt, ProcessId, StoreStats, Transaction, TxError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Executes one generated transaction body against an open transaction,
/// operation by operation in template order.
///
/// # Errors
///
/// Returns the engine's abort error as soon as one operation fails; the
/// transaction should then be dropped (RAII abort) by the caller.
pub fn execute_template<V>(
    tx: &mut Transaction<'_, V>,
    template: &TxTemplate,
    mut next_value: impl FnMut() -> V,
) -> Result<(), TxError> {
    for (key, write) in &template.ops {
        if *write {
            tx.write(*key, next_value())?;
        } else {
            tx.read(*key)?;
        }
    }
    Ok(())
}

/// Options of a closed-loop run.
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// Number of client threads.
    pub clients: usize,
    /// Wall-clock duration of the measured run.
    pub duration: Duration,
    /// Workload parameters.
    pub spec: WorkloadSpec,
    /// Base seed; each client derives its own stream from it.
    pub seed: u64,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        RunnerOptions {
            clients: 4,
            duration: Duration::from_millis(200),
            spec: WorkloadSpec::default(),
            seed: 42,
        }
    }
}

/// Results of a closed-loop run.
#[derive(Debug, Clone, Default)]
pub struct RunnerMetrics {
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transaction attempts.
    pub aborted: u64,
    /// Measured wall-clock duration in seconds.
    pub elapsed_secs: f64,
    /// Engine state-size statistics sampled before the run started.
    pub stats_start: StoreStats,
    /// Engine state-size statistics sampled after the run finished — the
    /// Figure-6 "state as time passes" endpoint: with GC attached this stays
    /// bounded; without it, it grows with every committed write.
    pub stats_end: StoreStats,
}

impl RunnerMetrics {
    /// Commits per second.
    #[must_use]
    pub fn throughput_tps(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            0.0
        } else {
            self.committed as f64 / self.elapsed_secs
        }
    }

    /// Fraction of attempts that committed.
    #[must_use]
    pub fn commit_rate(&self) -> f64 {
        let attempts = self.committed + self.aborted;
        if attempts == 0 {
            0.0
        } else {
            self.committed as f64 / attempts as f64
        }
    }
}

/// Runs `options.clients` threads against `engine`, each executing randomly
/// generated read/write transactions in a closed loop for the configured
/// duration, and returns the aggregate metrics.
///
/// The engine is consumed through the object-safe [`Engine`] layer, so one
/// monomorphization serves every protocol; failed attempts abort via the RAII
/// [`Transaction`] guard.
pub fn run_closed_loop<V>(
    engine: &dyn Engine<V>,
    options: &RunnerOptions,
    make_value: impl Fn(u64) -> V + Sync,
) -> RunnerMetrics {
    let committed = AtomicU64::new(0);
    let aborted = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let stats_start = engine.stats();
    let start = Instant::now();

    std::thread::scope(|scope| {
        let mut clients = Vec::with_capacity(options.clients);
        for client in 0..options.clients {
            let committed = &committed;
            let aborted = &aborted;
            let stop = &stop;
            let spec = options.spec;
            let seed = options.seed;
            let make_value = &make_value;
            clients.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ ((client as u64 + 1) * 0x9E37_79B9));
                let process = ProcessId(client as u32 + 1);
                // Built once per thread: the Zipf sampler's setup math must
                // not run per key draw.
                let sampler = spec.key_sampler();
                let mut counter = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let template = spec.generate_with(&sampler, &mut rng);
                    let mut txn = engine.begin(process);
                    let result = execute_template(&mut txn, &template, || {
                        counter += 1;
                        make_value(counter)
                    });
                    match result {
                        Ok(()) => match txn.commit() {
                            Ok(_) => {
                                committed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                aborted.fetch_add(1, Ordering::Relaxed);
                            }
                        },
                        Err(_) => {
                            // Dropping the guard aborts the attempt (RAII).
                            drop(txn);
                            aborted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }));
        }
        // Timer thread: flip the stop flag when the duration elapses.
        let stop = &stop;
        let duration = options.duration;
        scope.spawn(move || {
            std::thread::sleep(duration);
            stop.store(true, Ordering::Relaxed);
        });
        for handle in clients {
            // Re-raise client panics instead of silently dropping their tails.
            handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        }
    });

    RunnerMetrics {
        committed: committed.into_inner(),
        aborted: aborted.into_inner(),
        elapsed_secs: start.elapsed().as_secs_f64(),
        stats_start,
        stats_end: engine.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options() -> RunnerOptions {
        RunnerOptions {
            clients: 4,
            duration: Duration::from_millis(120),
            spec: WorkloadSpec::new(8, 0.3, 256),
            seed: 9,
        }
    }

    #[test]
    fn runs_against_an_mvtl_engine() {
        let engine = mvtl_registry::build("mvtil-early").expect("registry spec");
        let metrics = run_closed_loop(engine.as_ref(), &options(), |v| v);
        assert!(metrics.committed > 0);
        assert!(metrics.throughput_tps() > 0.0);
        assert!(metrics.commit_rate() > 0.5);
        // State-size sampling: nothing before the run, committed writes after.
        assert_eq!(metrics.stats_start, StoreStats::default());
        assert!(metrics.stats_end.versions > 0);
        assert!(metrics.stats_end.resident() >= metrics.stats_end.versions);
    }

    #[test]
    fn runs_against_the_baselines() {
        for spec in ["mvto+", "2pl?timeout_ms=5"] {
            let engine = mvtl_registry::build(spec).expect("registry spec");
            let metrics = run_closed_loop(engine.as_ref(), &options(), |v| v);
            assert!(metrics.committed > 0, "{spec}");
        }
    }

    #[test]
    fn metrics_arithmetic() {
        let m = RunnerMetrics {
            committed: 50,
            aborted: 50,
            elapsed_secs: 2.0,
            ..RunnerMetrics::default()
        };
        assert!((m.throughput_tps() - 25.0).abs() < f64::EPSILON);
        assert!((m.commit_rate() - 0.5).abs() < f64::EPSILON);
        assert_eq!(RunnerMetrics::default().commit_rate(), 0.0);
    }
}
