//! Network and machine profiles standing in for the paper's test beds (§8.2).

use rand::Rng;

/// Latency / capacity profile of a simulated deployment.
///
/// The profile captures what differs between the paper's two test beds:
///
/// * the **local cluster** has a fast, predictable 1 Gbps network and large
///   multi-core servers;
/// * the **public cloud** has higher and much more variable latencies and tiny
///   single-vCPU servers, which is why "MVTIL's advantages are bigger in the
///   cloud test bed that has limited processing power and unpredictable
///   network latencies" (§8.5).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkProfile {
    /// Short name used in reports.
    pub name: &'static str,
    /// Mean one-way network latency in microseconds.
    pub mean_latency_us: f64,
    /// Jitter: the one-way latency is sampled uniformly from
    /// `[mean − jitter, mean + jitter]`, plus an occasional heavy-tail spike.
    pub jitter_us: f64,
    /// Probability that a message experiences a latency spike.
    pub spike_probability: f64,
    /// Spike multiplier applied to the mean latency.
    pub spike_factor: f64,
    /// Server-side service time per request, in microseconds.
    pub service_time_us: f64,
    /// Number of request-processing cores per server.
    pub server_cores: usize,
    /// Maximum clock skew between client machines, in microseconds (clients
    /// stamp their MVTIL intervals with these imperfect clocks).
    pub clock_skew_us: u64,
}

impl NetworkProfile {
    /// The enterprise-style local cluster of §8.2.
    #[must_use]
    pub fn local_cluster() -> Self {
        NetworkProfile {
            name: "local",
            mean_latency_us: 120.0,
            jitter_us: 40.0,
            spike_probability: 0.002,
            spike_factor: 8.0,
            service_time_us: 25.0,
            server_cores: 16,
            clock_skew_us: 500,
        }
    }

    /// The shared public-cloud environment of §8.2 (t2.micro-like servers).
    #[must_use]
    pub fn public_cloud() -> Self {
        NetworkProfile {
            name: "cloud",
            mean_latency_us: 600.0,
            jitter_us: 400.0,
            spike_probability: 0.02,
            spike_factor: 10.0,
            service_time_us: 60.0,
            server_cores: 1,
            clock_skew_us: 2_000,
        }
    }

    /// Samples a one-way message latency in microseconds.
    pub fn sample_latency<R: Rng>(&self, rng: &mut R) -> u64 {
        let base = self.mean_latency_us + rng.gen_range(-self.jitter_us..=self.jitter_us);
        let total = if rng.gen_bool(self.spike_probability) {
            base * self.spike_factor
        } else {
            base
        };
        total.max(1.0) as u64
    }

    /// Samples a server-side service time in microseconds.
    pub fn sample_service<R: Rng>(&self, rng: &mut R) -> u64 {
        let t = self.service_time_us * rng.gen_range(0.7..1.5);
        t.max(1.0) as u64
    }

    /// Samples a per-client constant clock skew in microseconds (signed).
    pub fn sample_skew<R: Rng>(&self, rng: &mut R) -> i64 {
        if self.clock_skew_us == 0 {
            0
        } else {
            rng.gen_range(-(self.clock_skew_us as i64)..=(self.clock_skew_us as i64))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cloud_is_slower_and_smaller_than_local() {
        let local = NetworkProfile::local_cluster();
        let cloud = NetworkProfile::public_cloud();
        assert!(cloud.mean_latency_us > local.mean_latency_us);
        assert!(cloud.server_cores < local.server_cores);
        assert!(cloud.jitter_us > local.jitter_us);
    }

    #[test]
    fn samples_are_positive_and_bounded() {
        let mut rng = StdRng::seed_from_u64(7);
        for profile in [
            NetworkProfile::local_cluster(),
            NetworkProfile::public_cloud(),
        ] {
            for _ in 0..1_000 {
                let lat = profile.sample_latency(&mut rng);
                assert!(lat >= 1);
                assert!(
                    lat as f64
                        <= (profile.mean_latency_us + profile.jitter_us) * profile.spike_factor
                            + 1.0
                );
                let service = profile.sample_service(&mut rng);
                assert!(service >= 1);
                let skew = profile.sample_skew(&mut rng);
                assert!(skew.unsigned_abs() <= profile.clock_skew_us);
            }
        }
    }

    #[test]
    fn latency_is_deterministic_per_seed() {
        let profile = NetworkProfile::public_cloud();
        let a: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..32).map(|_| profile.sample_latency(&mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..32).map(|_| profile.sample_latency(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
