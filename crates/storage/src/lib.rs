//! # mvtl-storage
//!
//! The multiversion value store `Values[k, t]` of §4.1, with the version
//! purging of §6.
//!
//! Every key holds a chain of committed versions ordered by timestamp. The
//! initial version at [`Timestamp::ZERO`](mvtl_common::Timestamp::ZERO) is the
//! special value `⊥` (represented here as "no value"), and committed writes add
//! versions at their commit timestamp. Multiversion reads ask for "the version
//! with the largest timestamp before `t`" — [`ArenaChain::latest_before`].
//!
//! Like the interval lock table of `mvtl-locks`, the chain is a plain data
//! structure with no internal synchronization; the engines guard it with the
//! same per-key latch as the lock state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
pub mod hash;
mod smap;
mod stats;
mod stripe;

pub use arena::{ArenaChain, ChainArena, Version, INLINE_VERSIONS};
pub use smap::StripeMap;
pub use stats::VersionStats;
pub use stripe::{Stripe, StripedTable};
