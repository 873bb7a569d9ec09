//! # mvtl-wal
//!
//! The durability subsystem: an append-only, length-prefixed, checksummed
//! write-ahead log with group commit.
//!
//! * [`record`] — the log record ([`WalRecord::Commit`]: a committed write
//!   set and its timestamp) and its framed on-disk encoding
//!   (`[len][crc32][payload]`, the same idiom as the server wire protocol).
//! * [`log`] — the segmented log itself: [`Wal`] appends with an fsync
//!   policy ([`FsyncMode`]: `always` / `off`); the first appender to find
//!   records queued writes and syncs them for everyone queued (group
//!   commit, on the appending threads — the log owns no thread), into
//!   segments zero-filled when created, and [`Wal::open`] scans existing
//!   segments on startup, stopping at the first torn or corrupted frame and
//!   truncating the tail; zeros after the last frame are unwritten space,
//!   not a tear. Bytes of another format are an error, not a tear, and stay
//!   on disk.
//!
//! The log knows nothing of engines. `mvtl-shard`'s `ShardedStore` — which
//! every registry spec builds — owns one log in `wal=<dir>`, however many
//! shards it has: each transaction with writes appends one `Commit` record (a
//! cross-shard one, after the §7 coordinator picks its timestamp and before
//! any shard installs), and on open the store replays every record into
//! the shards its keys route to, at the original timestamp.
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

pub mod log;
pub mod record;

pub use log::{FsyncMode, Recovery, Wal, WalError, WalOptions};
pub use record::{crc32, WalRecord, WalValue};
