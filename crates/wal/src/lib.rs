//! # mvtl-wal
//!
//! The durability subsystem: an append-only, length-prefixed, checksummed
//! write-ahead log with group commit, plus the shard decorator that bolts it
//! onto every engine the registry builds.
//!
//! * [`record`] — log records ([`WalRecord`]: commit / prepare / decision)
//!   and their framed on-disk encoding (`[len][crc32][payload]`, the same
//!   idiom as the server wire protocol).
//! * [`log`] — the segmented log itself: [`Wal`] appends with an fsync
//!   policy ([`FsyncMode`]: `always` / `off`); the first appender to find
//!   records queued writes and syncs them for everyone queued (group
//!   commit, on the appending threads — the log owns no thread), and
//!   [`Wal::open`] scans existing segments on startup, stopping at the
//!   first torn or corrupted frame and truncating the tail.
//! * [`backend`] — [`WalBackend`], a [`mvtl_shard::ShardBackend`] decorator.
//!   A single-shard commit's write set is logged after the shard commits and
//!   acknowledged only once the record is durable; prepares and coordinator
//!   decisions are logged durably *before* they are acknowledged, so
//!   presumed-abort recovery gives every prepared sub-transaction exactly
//!   one decision across a crash. On open, [`WalBackend::with_recovery`]
//!   replays the log's commits into the shard at their original timestamps
//!   ([`mvtl_shard::ShardBackend::recover_commit`]) — a prepare whose
//!   decision was logged counts as a commit — and logs an abort for every
//!   undecided prepare, rebuilding nothing of it (presumed abort).
//!
//! Every registry spec is a [`ShardedStore`](mvtl_shard::ShardedStore) of
//! one or more shards, so this one decorator makes any engine durable: a
//! non-`sharded` spec's single shard logs into `wal=<dir>` itself, a
//! `sharded` spec's shards under `<dir>/shard-<i>`.
//!
//! # Example
//!
//! ```
//! use mvtl_common::{Key, Timestamp, TempDir};
//! use mvtl_wal::{FsyncMode, Wal, WalOptions, WalRecord};
//!
//! let dir = TempDir::new("wal-doc");
//! let (wal, recovered) = Wal::open::<u64>(dir.path(), WalOptions::default()).unwrap();
//! assert!(recovered.records.is_empty());
//! wal.append(&WalRecord::Commit {
//!     id: wal.fresh_id(),
//!     commit_ts: Some(Timestamp::new(7, 0)),
//!     writes: vec![(Key(1), 42u64)],
//! })
//! .unwrap(); // durable on return: the default policy syncs
//! drop(wal);
//!
//! let (_wal, recovered) = Wal::open::<u64>(dir.path(), WalOptions::default()).unwrap();
//! assert_eq!(recovered.records.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod log;
pub mod record;

pub use backend::{RecoveryReport, WalBackend};
pub use log::{
    FsyncMode, RecoveredCommit, RecoveredPrepare, Recovery, ResolvedRecovery, Wal, WalError,
    WalOptions,
};
pub use record::{crc32, WalRecord, WalValue};
