//! # mvtl-workload
//!
//! Workload generation, closed-loop runners and the figure harness that
//! regenerates the paper's evaluation (§8).
//!
//! Three layers:
//!
//! * [`spec`] — statistical workload descriptions (§8.3 parameters: operations
//!   per transaction, write fraction, key-space size) and a generator that
//!   turns them into transaction bodies.
//! * [`runner`] — a multi-threaded closed-loop runner that drives any
//!   `dyn` [`Engine`](mvtl_common::Engine), usually built from a
//!   `mvtl-registry` string spec, and reports throughput / commit rate.
//! * [`figures`] — one function per figure of the paper (Figures 1–7) plus
//!   ablations, each a sweep of registry specs through the runner with an
//!   injected per-operation round trip, and [`figures::shapes`], the
//!   figures' qualitative claims as checks. Each returns structured rows and
//!   can render the same table the corresponding binary in `mvtl-bench`
//!   prints.
//!
//! Every figure function takes a [`figures::Scale`]: `Smoke` keeps runs
//! short enough for CI, `Paper` runs every point for long.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod runner;
pub mod spec;

pub use figures::{FigureRow, FigureTable, Scale, Shape};
pub use runner::{execute_template, run_closed_loop, RunnerMetrics, RunnerOptions};
pub use spec::{KeyDist, KeySampler, TxTemplate, WorkloadSpec};
