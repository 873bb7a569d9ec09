//! # mvtl-workload
//!
//! Workload generation, closed-loop runners and the figure harness that
//! regenerates the paper's evaluation (§8).
//!
//! Four layers:
//!
//! * [`spec`] — statistical workload descriptions (§8.3 parameters: operations
//!   per transaction, write fraction, key-space size) and a generator that
//!   turns them into transaction bodies.
//! * [`runner`] — a multi-threaded closed-loop runner that drives any
//!   `dyn` [`Engine`](mvtl_common::Engine) (the centralized MVTL policies and
//!   the baselines, usually built from a `mvtl-registry` string spec) and
//!   reports throughput / commit rate.
//! * [`figures`] — one function per figure of the paper (Figures 1–7) plus the
//!   ablations called out in `DESIGN.md`, built on the distributed simulator
//!   ([`mvtl_sim`]), and [`figures::engine_grid`], the registry-driven sweep
//!   over every centralized engine. Each returns structured rows and can
//!   render the same table the corresponding binary in `mvtl-bench` prints.
//! * [`soak`] — the GC soak: the same sustained workload run GC-off and
//!   GC-on against a real engine, asserting the §6 claim that the garbage
//!   collector keeps versions + lock entries bounded ([`soak::gc_soak`]).
//!
//! Every figure function takes a [`figures::Scale`]: `Quick` keeps runs small
//! enough for CI and benchmarks, `Paper` uses parameter ranges matching the
//! paper's plots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod runner;
pub mod soak;
pub mod spec;

pub use figures::{FigureRow, FigureTable, Scale};
pub use runner::{execute_template, run_closed_loop, RunnerMetrics, RunnerOptions};
pub use soak::{gc_soak, SoakOptions, SoakReport};
pub use spec::{KeyDist, KeySampler, TxTemplate, WorkloadSpec};
