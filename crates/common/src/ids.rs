//! Identifier newtypes: transactions, processes and keys.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of a transaction.
///
/// Transaction ids are only used to attribute lock ownership and to label
/// vertices of the multiversion serialization graph; they carry no ordering
/// semantics (serialization order is given by commit timestamps).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(pub u64);

impl TxId {
    /// Allocates a fresh process-wide unique transaction id.
    #[must_use]
    pub fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        TxId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl fmt::Debug for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}", self.0)
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}", self.0)
    }
}

impl From<u64> for TxId {
    fn from(v: u64) -> Self {
        TxId(v)
    }
}

/// Identifier of a process (a client thread).
///
/// Process ids break ties between equal clock values inside [`crate::Timestamp`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessId(pub u32);

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for ProcessId {
    fn from(v: u32) -> Self {
        ProcessId(v)
    }
}

/// Key (object identifier) of the transactional store.
///
/// The paper's evaluation uses small 8-character string keys; a 64-bit integer
/// key preserves the access pattern while avoiding allocation on the hot path.
/// Callers with string keys can hash them into a `Key` (see
/// [`Key::from_name`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Key(pub u64);

impl Key {
    /// Builds a key by hashing an arbitrary string name (FNV-1a).
    #[must_use]
    pub fn from_name(name: &str) -> Self {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Key(hash)
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

impl From<u64> for Key {
    fn from(v: u64) -> Self {
        Key(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn fresh_tx_ids_are_unique() {
        let ids: HashSet<TxId> = (0..1000).map(|_| TxId::fresh()).collect();
        assert_eq!(ids.len(), 1000);
    }

    #[test]
    fn key_from_name_is_deterministic_and_spreads() {
        assert_eq!(Key::from_name("alice"), Key::from_name("alice"));
        assert_ne!(Key::from_name("alice"), Key::from_name("bob"));
        let keys: HashSet<Key> = (0..1000)
            .map(|i| Key::from_name(&format!("key-{i}")))
            .collect();
        assert_eq!(keys.len(), 1000);
    }

    #[test]
    fn display_forms() {
        assert_eq!(TxId(7).to_string(), "tx7");
        assert_eq!(ProcessId(3).to_string(), "p3");
        assert_eq!(Key(9).to_string(), "k9");
    }
}
