//! Statistical workload specifications (§8.3).

use mvtl_common::Key;
use rand::distributions::Zipf;
use rand::Rng;

/// How keys are drawn from the key space.
///
/// The paper's experiments draw keys uniformly (§8.3); the contention
/// literature (heterogeneous access models, YCSB's zipfian request streams)
/// shows skew is exactly where concurrency-control protocols differentiate,
/// so the workload generator supports the standard skewed shapes too.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum KeyDist {
    /// Every key equally likely (the paper's setup).
    #[default]
    Uniform,
    /// Zipfian popularity: the k-th most popular key has probability
    /// ∝ `k^(-theta)`. `theta = 0.99` is YCSB's default skew.
    Zipf {
        /// The skew exponent θ ≥ 0 (0 degenerates to uniform).
        theta: f64,
    },
}

impl KeyDist {
    /// A short label for reports ("uniform", "zipf(0.99)").
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            KeyDist::Uniform => "uniform".to_string(),
            KeyDist::Zipf { theta } => format!("zipf({theta})"),
        }
    }
}

/// A ready-to-draw sampler for one `(KeyDist, key-space)` pair.
///
/// Setting up the Zipf rejection-inversion constants costs a handful of
/// transcendental operations, so hot loops (the closed-loop runner, figure
/// sweeps) build the sampler once per thread via
/// [`WorkloadSpec::key_sampler`] and draw from it many times.
#[derive(Debug, Clone, Copy)]
pub struct KeySampler {
    keys: u64,
    kind: SamplerKind,
}

#[derive(Debug, Clone, Copy)]
enum SamplerKind {
    Uniform,
    Zipf(Zipf),
}

impl KeySampler {
    fn new(dist: KeyDist, keys: u64) -> Self {
        let kind = match dist {
            KeyDist::Uniform => SamplerKind::Uniform,
            KeyDist::Zipf { theta } => match Zipf::new(keys, theta.max(0.0)) {
                Ok(zipf) => SamplerKind::Zipf(zipf),
                Err(_) => SamplerKind::Uniform,
            },
        };
        KeySampler { keys, kind }
    }

    /// Draws one key index in `[0, keys)`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        match self.kind {
            SamplerKind::Uniform => rng.gen_range(0..self.keys),
            // Rank r ∈ [1, keys]: map the most popular rank to key 0 so hot
            // keys are stable across transaction templates.
            SamplerKind::Zipf(zipf) => zipf.sample_index(rng) - 1,
        }
    }
}

/// One generated transaction body: the keys to access and whether each access
/// is a write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxTemplate {
    /// Planned operations, in order.
    pub ops: Vec<(Key, bool)>,
}

impl TxTemplate {
    /// Keys that will be written.
    #[must_use]
    pub fn write_keys(&self) -> Vec<Key> {
        self.ops
            .iter()
            .filter(|(_, w)| *w)
            .map(|(k, _)| *k)
            .collect()
    }

    /// Number of read operations.
    #[must_use]
    pub fn reads(&self) -> usize {
        self.ops.iter().filter(|(_, w)| !*w).count()
    }

    /// Number of write operations.
    #[must_use]
    pub fn writes(&self) -> usize {
        self.ops.len() - self.reads()
    }
}

/// The workload parameters the paper fixes per experiment (§8.3): transaction
/// size, write fraction and key-space size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Operations per transaction (20 in most experiments, 8 in Figure 4).
    pub ops_per_tx: usize,
    /// Fraction of operations that are writes.
    pub write_fraction: f64,
    /// Number of distinct keys.
    pub keys: u64,
    /// How keys are drawn from the key space (uniform, as in the paper, by
    /// default).
    pub dist: KeyDist,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            ops_per_tx: 20,
            write_fraction: 0.25,
            keys: 10_000,
            dist: KeyDist::Uniform,
        }
    }
}

impl WorkloadSpec {
    /// Creates a specification with uniformly drawn keys.
    #[must_use]
    pub fn new(ops_per_tx: usize, write_fraction: f64, keys: u64) -> Self {
        WorkloadSpec {
            ops_per_tx: ops_per_tx.max(1),
            write_fraction: write_fraction.clamp(0.0, 1.0),
            keys: keys.max(1),
            dist: KeyDist::Uniform,
        }
    }

    /// Returns the specification with the given key distribution.
    #[must_use]
    pub fn with_dist(mut self, dist: KeyDist) -> Self {
        self.dist = dist;
        self
    }

    /// Returns the specification with Zipfian key skew of exponent `theta`.
    #[must_use]
    pub fn with_zipf(self, theta: f64) -> Self {
        self.with_dist(KeyDist::Zipf { theta })
    }

    /// Builds the reusable key sampler for this specification. Hot loops
    /// should build it once per thread and pass it to
    /// [`WorkloadSpec::generate_with`].
    #[must_use]
    pub fn key_sampler(&self) -> KeySampler {
        KeySampler::new(self.dist, self.keys)
    }

    /// Generates one transaction body. Convenience form of
    /// [`WorkloadSpec::generate_with`] that rebuilds the key sampler.
    pub fn generate<R: Rng>(&self, rng: &mut R) -> TxTemplate {
        self.generate_with(&self.key_sampler(), rng)
    }

    /// Generates one transaction body using a prebuilt [`KeySampler`].
    pub fn generate_with<R: Rng>(&self, sampler: &KeySampler, rng: &mut R) -> TxTemplate {
        let ops = (0..self.ops_per_tx)
            .map(|_| (Key(sampler.sample(rng)), rng.gen_bool(self.write_fraction)))
            .collect();
        TxTemplate { ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generation_respects_parameters() {
        let spec = WorkloadSpec::new(20, 0.25, 100);
        let mut rng = StdRng::seed_from_u64(1);
        let mut writes = 0usize;
        let mut total = 0usize;
        for _ in 0..200 {
            let tx = spec.generate(&mut rng);
            assert_eq!(tx.ops.len(), 20);
            assert_eq!(tx.reads() + tx.writes(), 20);
            for (key, _) in &tx.ops {
                assert!(key.0 < 100);
            }
            writes += tx.writes();
            total += tx.ops.len();
        }
        let fraction = writes as f64 / total as f64;
        assert!((fraction - 0.25).abs() < 0.05, "write fraction {fraction}");
    }

    #[test]
    fn extremes() {
        let mut rng = StdRng::seed_from_u64(2);
        let read_only = WorkloadSpec::new(8, 0.0, 10).generate(&mut rng);
        assert_eq!(read_only.writes(), 0);
        let write_only = WorkloadSpec::new(8, 1.0, 10).generate(&mut rng);
        assert_eq!(write_only.reads(), 0);
        assert_eq!(write_only.write_keys().len(), 8);
    }

    #[test]
    fn clamping() {
        let spec = WorkloadSpec::new(0, 2.0, 0);
        assert_eq!(spec.ops_per_tx, 1);
        assert_eq!(spec.write_fraction, 1.0);
        assert_eq!(spec.keys, 1);
    }

    fn key_histogram(spec: &WorkloadSpec, seed: u64, templates: usize) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0u64; spec.keys as usize];
        for _ in 0..templates {
            for (key, _) in spec.generate(&mut rng).ops {
                assert!(key.0 < spec.keys);
                counts[key.0 as usize] += 1;
            }
        }
        counts
    }

    #[test]
    fn zipf_skew_concentrates_accesses_on_low_keys() {
        let spec = WorkloadSpec::new(10, 0.5, 100).with_zipf(0.99);
        let counts = key_histogram(&spec, 3, 1_000);
        let total: u64 = counts.iter().sum();
        let top10: u64 = counts[..10].iter().sum();
        assert!(
            top10 * 2 > total,
            "zipf(0.99): top 10% of keys should draw the majority of accesses \
             (got {top10}/{total})"
        );
        assert!(counts[0] > counts[50].max(1) * 5, "head beats the tail");
    }

    #[test]
    fn zipf_theta_zero_and_uniform_agree_statistically() {
        let uniform = key_histogram(&WorkloadSpec::new(10, 0.5, 50), 5, 2_000);
        let zipf0 = key_histogram(&WorkloadSpec::new(10, 0.5, 50).with_zipf(0.0), 5, 2_000);
        let expected = 10 * 2_000 / 50;
        for counts in [&uniform, &zipf0] {
            for &c in counts.iter() {
                assert!(
                    (c as i64 - expected as i64).unsigned_abs() < expected / 2,
                    "count {c} too far from uniform expectation {expected}"
                );
            }
        }
    }

    #[test]
    fn dist_labels_render() {
        assert_eq!(KeyDist::Uniform.label(), "uniform");
        assert_eq!(KeyDist::Zipf { theta: 0.99 }.label(), "zipf(0.99)");
    }
}
