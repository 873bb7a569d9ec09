//! # mvtl-baselines
//!
//! The baseline concurrency-control engines the paper compares MVTL against in
//! §8: **MVTO+** (multiversion timestamp ordering without cascading aborts) and
//! **strict two-phase locking (2PL)** with timeouts.
//!
//! Both engines implement the same
//! [`TransactionalKV`](mvtl_common::TransactionalKV) trait as the MVTL engines
//! so that the workload harness, the serializability checker and the benchmarks
//! can drive all protocols on identical inputs.
//!
//! They use the same storage framework as the MVTL engine but run a
//! different protocol and keep a different server state, as in the paper's
//! setup where "implementations of MVTO+ and 2PL use the same framework, but
//! run a different client protocol and keep a different server state: 2PL
//! stores a single reader-writer lock per key, while MVTO+ stores a single
//! skip list per key containing versions and associated locks" (§8.1). Both
//! key their state by the `mvtl-storage` `StripedTable`: MVTO+ keeps each key's
//! versions in an `ArenaChain`, whose read high-water marks are its read
//! timestamps, and 2PL keeps one reader-writer lock and one value per key.
//! Neither goes through the MVTL lock table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mvto;
mod tpl;

pub use mvto::MvtoStore;
pub use tpl::TwoPhaseLockingStore;
