//! # mvtl — multiversion timestamp locking
//!
//! Facade crate for the reproduction of *"Locking Timestamps versus Locking
//! Objects"* (Aguilera, David, Guerraoui, Wang — PODC 2018). It re-exports the
//! workspace crates under one roof so that examples, integration tests and
//! downstream users can depend on a single crate:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`common`] | `mvtl-common` | timestamps, interval sets, ids, errors, the `TransactionalKV` trait and the object-safe `Engine` layer |
//! | [`locks`] | `mvtl-locks` | freezable interval lock tables (§4.2, §6) |
//! | [`storage`] | `mvtl-storage` | multiversion value store with purging |
//! | [`clock`] | `mvtl-clock` | clock sources: global, batched, skewed, scripted |
//! | [`core`] | `mvtl-core` | the generic MVTL engine and every policy of §5 |
//! | [`faults`] | `mvtl-faults` | deterministic, seeded fault-injection plans (the `fault=` schedules) |
//! | [`gc`] | `mvtl-gc` | watermark-safe background garbage collection (§6's timestamp service for the real engines) |
//! | [`baselines`] | `mvtl-baselines` | MVTO+ and strict 2PL |
//! | [`registry`] | `mvtl-registry` | string-spec engine factory (`"mvtil-early?delta=1000"` → `Box<dyn Engine>`) |
//! | [`server`] | `mvtl-server` | TCP serve path: wire protocol, threaded server, pipelining client |
//! | [`shard`] | `mvtl-shard` | partitioned engine: hash-routed shards, §7 cross-shard interval-intersection commit |
//! | [`verify`] | `mvtl-verify` | MVSG serializability checking, canonical schedules |
//! | [`wal`] | `mvtl-wal` | durability: checksummed write-ahead log with group commit, crash recovery, persistent prepare state |
//! | [`sim`] | `mvtl-sim` | discrete-event simulation of the distributed system (§7, §8) |
//! | [`workload`] | `mvtl-workload` | workload generators, runners, the figure harness |
//!
//! # Quick start
//!
//! Engines are built from registry string specs and driven through the
//! object-safe [`Engine`](common::Engine) layer: the RAII
//! [`Transaction`](common::Transaction) guard aborts on drop, and
//! [`EngineExt::run`](common::EngineExt::run) retries aborted transactions
//! with seeded backoff.
//!
//! ```
//! use mvtl::common::{EngineExt, Key, ProcessId, RetryOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let engine = mvtl::registry::build_for::<String>("mvtil-early?delta=1000")?;
//!
//! let mut tx = engine.begin(ProcessId(0));
//! tx.write(Key::from_name("greeting"), "hello".to_string())?;
//! tx.commit()?;
//!
//! let report = engine.run(ProcessId(1), &RetryOptions::default(), |tx| {
//!     assert_eq!(tx.read(Key::from_name("greeting"))?, Some("hello".to_string()));
//!     Ok(())
//! })?;
//! assert_eq!(report.attempts, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mvtl_analysis as analysis;
pub use mvtl_baselines as baselines;
pub use mvtl_clock as clock;
pub use mvtl_common as common;
pub use mvtl_core as core;
pub use mvtl_faults as faults;
pub use mvtl_gc as gc;
pub use mvtl_locks as locks;
pub use mvtl_registry as registry;
pub use mvtl_server as server;
pub use mvtl_shard as shard;
pub use mvtl_sim as sim;
pub use mvtl_storage as storage;
pub use mvtl_verify as verify;
pub use mvtl_wal as wal;
pub use mvtl_workload as workload;
