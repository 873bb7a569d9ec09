//! # mvtl-sim
//!
//! A discrete-event simulation of the **distributed** MVTL system of §7/§H and
//! of the test beds used in the paper's evaluation (§8.2).
//!
//! The paper evaluates the distributed MVTIL algorithm on two physical test
//! beds (a three-machine local cluster and a fleet of EC2 `t2.micro`
//! instances). Neither is available to this reproduction, so — per the
//! substitution rules recorded in `DESIGN.md` — this crate provides the closest
//! synthetic equivalent: a deterministic discrete-event simulator in which
//!
//! * **clients** execute transactions in a closed loop (§8.3), one transaction
//!   at a time, issuing per-key requests to servers;
//! * **servers** are partitioned by key hash, have a bounded number of service
//!   cores and a per-request service time, and keep the real per-key state:
//!   the interval lock table of [`mvtl_locks`], the version chains of
//!   [`mvtl_storage`], MVTO+ read timestamps, or single-version 2PL locks;
//! * the **network** adds latency sampled from a profile
//!   ([`NetworkProfile::local_cluster`] ≈ the 1 Gbps LAN,
//!   [`NetworkProfile::public_cloud`] ≈ the shared cloud with unpredictable
//!   latencies);
//! * a **timestamp service** periodically broadcasts `T = now − K`, purging old
//!   versions and lock state (§8.1);
//! * a **commitment object** per transaction decides commit/abort, and
//!   coordinator-failure injection exercises the timeout path of §H. That
//!   is the only fault the simulator injects; the `mvtl-faults` schedules
//!   apply to the real engines.
//!
//! Three protocols are simulated, matching §8: distributed MVTIL (early/late),
//! MVTO+, and 2PL. The simulator reports the metrics the paper plots:
//! throughput, commit rate, and lock/version counts over time.
//!
//! Because all concurrency-control decisions are executed by the same data
//! structures as the centralized engines, the *relative* behaviour of the
//! protocols (who aborts, who waits, who scales) is reproduced even though
//! absolute numbers depend on the latency profile rather than real hardware.
//!
//! ```
//! use mvtl_sim::{Protocol, SimConfig, Simulation};
//!
//! let config = SimConfig::local_cluster(Protocol::MvtilEarly)
//!     .clients(32)
//!     .keys(1_000)
//!     .duration_secs(5);
//! let metrics = Simulation::new(config).run();
//! assert!(metrics.committed > 0);
//! assert!(metrics.commit_rate() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod event;
mod metrics;
mod network;
mod server;
mod simulation;

pub use config::{Protocol, SimConfig};
pub use metrics::{SeriesPoint, SimMetrics};
pub use network::NetworkProfile;
pub use simulation::Simulation;
