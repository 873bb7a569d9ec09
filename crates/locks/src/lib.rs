//! # mvtl-locks
//!
//! Freezable locks over individual timestamps, the mechanism at the heart of
//! multiversion timestamp locking (MVTL).
//!
//! The paper (§4.2) defines *freezable locks*: readers-writer locks over
//! write-once objects where a holder may **freeze** its lock to announce that
//! it will never release it. MVTL conceptually keeps one such lock per
//! `(key, timestamp)` pair — an infinitely large lock state — and §6 observes
//! that a practical implementation must compress this state into contiguous
//! intervals, because every algorithm in the paper only ever acquires locks on
//! a few points or intervals.
//!
//! This crate provides that compressed form: [`KeyLockState`], the complete
//! lock state of one key stored as a list of `(owner, mode, interval,
//! frozen)` entries. This is the "interval compression" of §6. All MVTL
//! engines build on it.
//!
//! A frozen entry blocks every conflicting request, its owner's included:
//! no transaction acquires a lock after freezing one. A lock operation costs
//! one scan of the key's entries.
//!
//! The MVTL engine (`mvtl-core`) never freezes into this table: it keeps
//! its frozen locks on the versions themselves (a committed write is its
//! version, and a finished transaction's surviving read locks raise the
//! read high-water mark of the version they follow), so its
//! `KeyLockState`s hold only entries of transactions in flight.
//! [`KeyLockState::freeze`] stays, with the semantics above, for the repo
//! benchmark's lock-table probe, which measures a table holding frozen
//! entries.
//!
//! `KeyLockState` is a plain data structure with no internal synchronization;
//! callers (the engines) wrap it in a per-key latch, exactly like the paper's
//! implementation keeps "a latch per entry in the hash table" (§8.1).
//!
//! # Example
//!
//! ```
//! use mvtl_common::{LockMode, Timestamp, TsRange, TxId};
//! use mvtl_locks::KeyLockState;
//!
//! let mut state = KeyLockState::new();
//! let reader = TxId(1);
//! let writer = TxId(2);
//!
//! // The reader locks timestamps [3, 6] (it read the version at 2).
//! let analysis = state.analyze(reader, LockMode::Read, TsRange::new(Timestamp::at(3), Timestamp::at(6)));
//! state.acquire(reader, LockMode::Read, &analysis.grantable);
//!
//! // A writer now cannot write-lock timestamp 5...
//! let w = state.analyze(writer, LockMode::Write, TsRange::point(Timestamp::at(5)));
//! assert!(w.grantable.is_empty());
//! // ...but can write-lock timestamp 7.
//! let w = state.analyze(writer, LockMode::Write, TsRange::point(Timestamp::at(7)));
//! assert!(w.grantable.contains(Timestamp::at(7)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod entry;
mod table;

pub use analysis::AcquireAnalysis;
pub use entry::LockEntry;
pub use table::{KeyLockState, LockStateStats};
