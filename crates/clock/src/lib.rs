//! # mvtl-clock
//!
//! Clock sources for timestamp-based concurrency control.
//!
//! The paper's algorithms differ in what they assume about clocks:
//!
//! * MVTO+/MVTL-TO assume *synchronized* (or at least monotonic) clocks and
//!   suffer **serial aborts** when clocks are skewed (§5.3);
//! * MVTL-ε-clock only assumes *ε-synchronized* clocks;
//! * MVTIL (§8) assumes nothing about synchronization and shrinks its interval
//!   dynamically.
//!
//! To reproduce those behaviours we provide a family of [`ClockSource`]
//! implementations over a shared virtual global clock:
//!
//! * [`GlobalClock`] — a monotonically increasing shared counter (the "discrete
//!   global clock" of §2);
//! * [`BatchedClock`] — processes draw *blocks* of timestamps from a shared
//!   counter and hand them out locally (the batching flavour of §8.1's
//!   timestamp service); unique and per-process monotonic, but not globally
//!   ordered, so only the interval engines could use it. No registry spec
//!   does: the benchmark's clock probe is its one consumer;
//! * [`SkewedClock`] — a per-process view of the global clock with a constant
//!   offset per process (can violate monotonicity across processes, provoking
//!   serial aborts);
//! * [`ManualClock`] — scripted readings, used by the verifier to replay the
//!   paper's schedules with pinned timestamps.
//!
//! The purge side of §8.1's timestamp service (`T = now − K`) is
//! `mvtl-shard`'s sweeper, which reads its clock through [`ClockSource`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sources;

pub use sources::{
    BatchedClock, ClockSource, GlobalClock, ManualClock, SkewedClock, MAX_CLOCK_BLOCK,
};
