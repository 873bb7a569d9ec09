//! Simulation configuration: the experimental parameters of §8.3.

use crate::NetworkProfile;

/// Which concurrency-control protocol the simulated system runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Distributed MVTIL committing at the smallest locked timestamp.
    MvtilEarly,
    /// Distributed MVTIL committing at the largest locked timestamp.
    MvtilLate,
    /// Multiversion timestamp ordering (MVTO+).
    MvtoPlus,
    /// Strict two-phase locking with timeouts.
    TwoPhaseLocking,
}

impl Protocol {
    /// Human-readable name matching the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Protocol::MvtilEarly => "MVTIL-early",
            Protocol::MvtilLate => "MVTIL-late",
            Protocol::MvtoPlus => "MVTO+",
            Protocol::TwoPhaseLocking => "2PL",
        }
    }

    /// All protocols compared in the paper's figures, in plotting order.
    #[must_use]
    pub fn all() -> [Protocol; 4] {
        [
            Protocol::MvtoPlus,
            Protocol::TwoPhaseLocking,
            Protocol::MvtilEarly,
            Protocol::MvtilLate,
        ]
    }
}

/// The parameters fixed in each experiment (§8.3): protocol, number of clients,
/// transaction size, write fraction, key-space size and number of servers —
/// plus the simulation-specific knobs (network profile, duration, Δ, garbage
/// collection period, failure injection).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Number of closed-loop clients.
    pub clients: usize,
    /// Operations per transaction (the paper uses 20, and 8 for Figure 4).
    pub ops_per_tx: usize,
    /// Fraction of operations that are writes, in `[0, 1]`.
    pub write_fraction: f64,
    /// Number of distinct keys.
    pub keys: u64,
    /// Number of storage servers (data is partitioned by key hash).
    pub servers: usize,
    /// Network / machine profile.
    pub network: NetworkProfile,
    /// Virtual duration of the measured run, in microseconds.
    pub duration_us: u64,
    /// MVTIL interval width Δ, in microseconds (the paper uses 5 ms).
    pub delta_us: u64,
    /// Lock-wait timeout for 2PL (and pending-write-lock timeout for the
    /// commitment object), in microseconds.
    pub lock_timeout_us: u64,
    /// Garbage-collection (timestamp-service) period in microseconds;
    /// `None` disables purging, as in the "GC off" runs of Figures 6 and 7.
    pub gc_interval_us: Option<u64>,
    /// Lag `K` of the timestamp service: versions older than `now − K` are
    /// purged (§8.1 uses 15 s locally and 60 s in the cloud).
    pub gc_lag_us: u64,
    /// Probability that a client "crashes" between acquiring its commit-time
    /// locks and informing the servers, exercising the §H timeout path.
    pub coordinator_failure_probability: f64,
    /// Seed for the simulation's random number generator (workload and
    /// latency sampling are fully deterministic given the seed).
    pub seed: u64,
    /// How often the state-size series (locks, versions) is sampled, in
    /// microseconds.
    pub sample_interval_us: u64,
}

impl SimConfig {
    /// Configuration modelled after the paper's local test bed (§8.2): three
    /// well-provisioned servers on a fast, predictable network.
    #[must_use]
    pub fn local_cluster(protocol: Protocol) -> Self {
        SimConfig {
            protocol,
            clients: 90,
            ops_per_tx: 20,
            write_fraction: 0.25,
            keys: 10_000,
            servers: 3,
            network: NetworkProfile::local_cluster(),
            duration_us: 5_000_000,
            delta_us: 5_000,
            lock_timeout_us: 10_000,
            gc_interval_us: Some(15_000_000),
            gc_lag_us: 15_000_000,
            coordinator_failure_probability: 0.0,
            seed: 0xC0FFEE,
            sample_interval_us: 1_000_000,
        }
    }

    /// Configuration modelled after the paper's cloud test bed (§8.2): many
    /// small single-core servers on a slower, jittery network.
    #[must_use]
    pub fn public_cloud(protocol: Protocol) -> Self {
        SimConfig {
            clients: 400,
            keys: 50_000,
            servers: 8,
            network: NetworkProfile::public_cloud(),
            gc_interval_us: Some(60_000_000),
            gc_lag_us: 60_000_000,
            ..SimConfig::local_cluster(protocol)
        }
    }

    /// Sets the number of clients.
    #[must_use]
    pub fn clients(mut self, clients: usize) -> Self {
        self.clients = clients.max(1);
        self
    }

    /// Sets the number of operations per transaction.
    #[must_use]
    pub fn ops_per_tx(mut self, ops: usize) -> Self {
        self.ops_per_tx = ops.max(1);
        self
    }

    /// Sets the fraction of write operations.
    #[must_use]
    pub fn write_fraction(mut self, fraction: f64) -> Self {
        self.write_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Sets the key-space size.
    #[must_use]
    pub fn keys(mut self, keys: u64) -> Self {
        self.keys = keys.max(1);
        self
    }

    /// Sets the number of servers.
    #[must_use]
    pub fn servers(mut self, servers: usize) -> Self {
        self.servers = servers.max(1);
        self
    }

    /// Sets the measured duration in (virtual) seconds.
    #[must_use]
    pub fn duration_secs(mut self, secs: u64) -> Self {
        self.duration_us = secs * 1_000_000;
        self
    }

    /// Sets the garbage-collection period in (virtual) seconds; `None`
    /// disables purging.
    #[must_use]
    pub fn gc_every_secs(mut self, secs: Option<u64>) -> Self {
        self.gc_interval_us = secs.map(|s| s * 1_000_000);
        self
    }

    /// Sets the timestamp-service lag `K` in (virtual) seconds.
    #[must_use]
    pub fn gc_lag_secs(mut self, secs: u64) -> Self {
        self.gc_lag_us = secs * 1_000_000;
        self
    }

    /// Sets the MVTIL interval width Δ in microseconds.
    #[must_use]
    pub fn delta_us(mut self, delta: u64) -> Self {
        self.delta_us = delta.max(1);
        self
    }

    /// Sets the coordinator-failure probability (§H failure handling).
    #[must_use]
    pub fn coordinator_failures(mut self, probability: f64) -> Self {
        self.coordinator_failure_probability = probability.clamp(0.0, 1.0);
        self
    }

    /// Sets the random seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_follow_the_paper() {
        let local = SimConfig::local_cluster(Protocol::MvtilEarly);
        assert_eq!(local.servers, 3);
        assert_eq!(local.ops_per_tx, 20);
        assert_eq!(local.keys, 10_000);
        let cloud = SimConfig::public_cloud(Protocol::MvtoPlus);
        assert_eq!(cloud.servers, 8);
        assert_eq!(cloud.keys, 50_000);
        assert!(cloud.gc_lag_us > local.gc_lag_us);
    }

    #[test]
    fn builders_clamp_inputs() {
        let c = SimConfig::local_cluster(Protocol::TwoPhaseLocking)
            .clients(0)
            .keys(0)
            .servers(0)
            .write_fraction(7.0)
            .ops_per_tx(0)
            .coordinator_failures(-1.0);
        assert_eq!(c.clients, 1);
        assert_eq!(c.keys, 1);
        assert_eq!(c.servers, 1);
        assert_eq!(c.ops_per_tx, 1);
        assert_eq!(c.write_fraction, 1.0);
        assert_eq!(c.coordinator_failure_probability, 0.0);
    }

    #[test]
    fn protocol_names() {
        assert_eq!(Protocol::MvtilEarly.name(), "MVTIL-early");
        assert_eq!(Protocol::all().len(), 4);
    }
}
