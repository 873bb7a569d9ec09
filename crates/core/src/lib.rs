//! # mvtl-core
//!
//! The generic **multiversion timestamp locking** (MVTL) engine of the PODC'18
//! paper *"Locking Timestamps versus Locking Objects"*, together with every
//! specialized policy the paper describes.
//!
//! ## The idea
//!
//! MVTL "uses locks as in lock-based algorithms, but locks individual
//! timestamps of objects, rather than entire objects at a time. A transaction
//! is allowed to commit if it can find at least one timestamp that it managed
//! to lock across all its objects" (§1). The engine here implements Algorithm 1
//! verbatim; the non-deterministic choices of Algorithm 2 (which timestamps to
//! lock, whether to wait, which commit timestamp to pick, whether to garbage
//! collect) are captured by the [`LockingPolicy`] trait, and each policy module
//! pins those choices to obtain the algorithms of §5:
//!
//! | Policy | Paper | Benefit |
//! |--------|-------|---------|
//! | [`policy::ToPolicy`] | MVTL-TO (Alg. 8, Thm. 5) | behaves exactly like MVTO+ |
//! | [`policy::GhostbusterPolicy`] | MVTL-Ghostbuster (Alg. 10, Thm. 7) | no ghost aborts |
//! | [`policy::EpsilonPolicy`] | MVTL-ε-clock (Alg. 4/7, Thm. 4) | no serial aborts with ε-synchronized clocks |
//! | [`policy::PrefPolicy`] | MVTL-Pref (Alg. 3/5, Thm. 2) | commits strictly more workloads than MVTO+ |
//! | [`policy::PrioPolicy`] | MVTL-Prio (Alg. 6, Thm. 3) | critical transactions never aborted by normal ones |
//! | [`policy::PessimisticPolicy`] | MVTL-Pessimistic (Alg. 9, Thm. 6) | behaves like pessimistic 2PL |
//! | [`policy::MvtilPolicy`] | MVTIL (§8) | the interval-locking variant evaluated in the paper |
//!
//! ## Structure
//!
//! * [`MvtlStore`] — the storage engine: a striped map from keys to dense
//!   per-key cells, each holding the interval lock state
//!   ([`mvtl_locks::KeyLockState`]) and an arena-backed version chain
//!   ([`mvtl_storage::ArenaChain`]) behind the stripe's latch, mirroring the
//!   paper's per-key latched hash table (§8.1) without per-key allocation.
//! * [`TxState`] / [`MvtlTransaction`] — per-transaction bookkeeping: one
//!   [`KeyRecord`] per touched key (the versions read, the locks held, whether
//!   it was written; the buffered value sits at the record's index), and the
//!   candidate timestamps.
//! * [`LockingPolicy`] / [`PolicyCtx`] — the policy interface mirroring
//!   Algorithm 2.
//!
//! ## Quick start
//!
//! ```
//! use mvtl_clock::GlobalClock;
//! use mvtl_common::{Key, ProcessId, TransactionalKV};
//! use mvtl_core::{MvtlConfig, MvtlStore, policy::MvtilPolicy};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), mvtl_common::TxError> {
//! let store: MvtlStore<u64, _> = MvtlStore::new(
//!     MvtilPolicy::early(1000),
//!     Arc::new(GlobalClock::new()),
//!     MvtlConfig::default(),
//! );
//!
//! let mut tx = store.begin(ProcessId(0));
//! store.write(&mut tx, Key(1), 42)?;
//! store.commit(tx)?;
//!
//! let mut tx = store.begin(ProcessId(1));
//! assert_eq!(store.read(&mut tx, Key(1))?, Some(42));
//! store.commit(tx)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod config;
pub mod policy;
mod store;
mod txn;

pub use config::MvtlConfig;
pub use mvtl_common::StoreStats;
pub use policy::{LockingPolicy, PolicyCtx, ReadGrant};
pub use store::MvtlStore;
pub use txn::{KeyRecord, MvtlTransaction, TxState};
