//! The workload model of §2: sequences of operations indexed by transaction.
//!
//! A *workload* "is a sequence of operations indexed by the transaction they
//! belong to, where each operation is `read(k)`, `write(k, v)` or `commit`".
//! The verifier uses workloads to compare how different protocols react to the
//! same inputs (e.g. Theorem 2's comparison of MVTL-Pref and MVTO+), and the
//! workload generators produce them from statistical parameters.

use crate::{Key, Timestamp};
use std::collections::HashSet;
use std::fmt;

/// Index of a transaction inside a [`Workload`] (not a runtime [`crate::TxId`]).
pub type WorkloadTxIndex = usize;

/// A single operation of a workload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// Read key `k` within the transaction.
    Read(Key),
    /// Write value `v` to key `k` within the transaction.
    Write(Key, u64),
    /// Try to commit the transaction.
    Commit,
    /// Abort the transaction voluntarily.
    Abort,
}

impl Op {
    /// The key accessed by this operation, if any.
    #[must_use]
    pub fn key(&self) -> Option<Key> {
        match self {
            Op::Read(k) | Op::Write(k, _) => Some(*k),
            Op::Commit | Op::Abort => None,
        }
    }

    /// Whether this operation is a write.
    #[must_use]
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Write(..))
    }

    /// Whether this operation is a read.
    #[must_use]
    pub fn is_read(&self) -> bool {
        matches!(self, Op::Read(_))
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Read(k) => write!(f, "R({k})"),
            Op::Write(k, v) => write!(f, "W({k}={v})"),
            Op::Commit => write!(f, "C"),
            Op::Abort => write!(f, "A"),
        }
    }
}

/// One step of an interleaved workload: which transaction performs which
/// operation, in global order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadStep {
    /// Index of the transaction performing the operation.
    pub tx: WorkloadTxIndex,
    /// The operation performed.
    pub op: Op,
}

/// A workload: a global sequence of steps plus, optionally, a fixed timestamp
/// per transaction.
///
/// Fixed timestamps model the paper's schedules where "T1 gets timestamp 1, T2
/// gets timestamp 2, ..." — the serial-abort and ghost-abort examples of §5.3
/// and §5.5 only arise under specific timestamp assignments, so replaying them
/// requires pinning the clock readings each transaction observes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Workload {
    /// Global interleaving of operations.
    pub steps: Vec<WorkloadStep>,
    /// Optional pinned start timestamps: `timestamps[i]` is the clock value
    /// transaction `i` observes when it begins. Missing entries (or `None`)
    /// mean "let the engine's clock decide".
    pub pinned_timestamps: Vec<Option<Timestamp>>,
}

impl Workload {
    /// Creates an empty workload.
    #[must_use]
    pub fn new() -> Self {
        Workload::default()
    }

    /// Appends a step for transaction `tx`.
    pub fn push(&mut self, tx: WorkloadTxIndex, op: Op) -> &mut Self {
        self.steps.push(WorkloadStep { tx, op });
        self
    }

    /// Pins the begin timestamp of transaction `tx`.
    pub fn pin_timestamp(&mut self, tx: WorkloadTxIndex, ts: Timestamp) -> &mut Self {
        if self.pinned_timestamps.len() <= tx {
            self.pinned_timestamps.resize(tx + 1, None);
        }
        self.pinned_timestamps[tx] = Some(ts);
        self
    }

    /// The pinned timestamp for transaction `tx`, if any.
    #[must_use]
    pub fn pinned_timestamp(&self, tx: WorkloadTxIndex) -> Option<Timestamp> {
        self.pinned_timestamps.get(tx).copied().flatten()
    }

    /// Number of distinct transactions mentioned by the workload.
    #[must_use]
    pub fn transaction_count(&self) -> usize {
        self.steps
            .iter()
            .map(|s| s.tx + 1)
            .max()
            .unwrap_or(0)
            .max(self.pinned_timestamps.len())
    }

    /// All keys touched by the workload.
    #[must_use]
    pub fn keys(&self) -> Vec<Key> {
        let mut keys: Vec<Key> = self.steps.iter().filter_map(|s| s.op.key()).collect();
        keys.sort();
        keys.dedup();
        keys
    }

    /// Whether the workload is *serial*: every transaction's operations form a
    /// contiguous block ending with commit/abort before the next transaction
    /// starts. Used by the serial-abort checks (Theorem 4).
    #[must_use]
    pub fn is_serial(&self) -> bool {
        let mut finished: HashSet<WorkloadTxIndex> = HashSet::new();
        let mut current: Option<WorkloadTxIndex> = None;
        for step in &self.steps {
            if finished.contains(&step.tx) {
                return false;
            }
            match current {
                None => current = Some(step.tx),
                Some(cur) if cur != step.tx => return false,
                Some(_) => {}
            }
            if matches!(step.op, Op::Commit | Op::Abort) {
                finished.insert(step.tx);
                current = None;
            }
        }
        true
    }

    /// Renders the workload as one line per transaction, in the style of the
    /// paper's schedule diagrams. Each step occupies one 10-character column.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        const COL: usize = 10;
        let n = self.transaction_count();
        let mut lines = vec![String::new(); n];
        for (col, step) in self.steps.iter().enumerate() {
            let line = &mut lines[step.tx];
            // Pad the owning row out to this step's column; all other rows
            // stay short until their transaction acts again.
            let target = col * COL;
            if line.len() < target {
                line.extend(std::iter::repeat_n(' ', target - line.len()));
            }
            let _ = write!(line, "{:<COL$}", step.op);
        }
        lines
            .into_iter()
            .enumerate()
            .map(|(i, l)| format!("T{i}: {}", l.trim_end()))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(v: u64) -> Key {
        Key(v)
    }

    #[test]
    fn op_accessors() {
        assert_eq!(Op::Read(k(1)).key(), Some(k(1)));
        assert_eq!(Op::Write(k(2), 9).key(), Some(k(2)));
        assert_eq!(Op::Commit.key(), None);
        assert!(Op::Write(k(2), 9).is_write());
        assert!(Op::Read(k(2)).is_read());
        assert!(!Op::Commit.is_read());
    }

    #[test]
    fn workload_building_and_counts() {
        let mut w = Workload::new();
        w.push(0, Op::Read(k(1)))
            .push(1, Op::Write(k(1), 5))
            .push(0, Op::Commit)
            .push(1, Op::Commit);
        w.pin_timestamp(0, Timestamp::at(2));
        assert_eq!(w.transaction_count(), 2);
        assert_eq!(w.keys(), vec![k(1)]);
        assert_eq!(w.pinned_timestamp(0), Some(Timestamp::at(2)));
        assert_eq!(w.pinned_timestamp(1), None);
    }

    #[test]
    fn serial_detection() {
        let mut serial = Workload::new();
        serial
            .push(0, Op::Read(k(1)))
            .push(0, Op::Commit)
            .push(1, Op::Write(k(1), 2))
            .push(1, Op::Commit);
        assert!(serial.is_serial());

        let mut interleaved = Workload::new();
        interleaved
            .push(0, Op::Read(k(1)))
            .push(1, Op::Write(k(1), 2))
            .push(0, Op::Commit)
            .push(1, Op::Commit);
        assert!(!interleaved.is_serial());

        let mut revisits = Workload::new();
        revisits
            .push(0, Op::Commit)
            .push(1, Op::Commit)
            .push(0, Op::Read(k(1)));
        assert!(!revisits.is_serial());
    }

    #[test]
    fn render_contains_all_ops() {
        let mut w = Workload::new();
        w.push(1, Op::Read(k(7))).push(0, Op::Write(k(7), 3));
        let s = w.render();
        assert!(s.contains("R(k7)"));
        assert!(s.contains("W(k7=3)"));
        assert!(s.contains("T0:"));
        assert!(s.contains("T1:"));
    }

    #[test]
    fn empty_workload() {
        let w = Workload::new();
        assert_eq!(w.transaction_count(), 0);
        assert!(w.keys().is_empty());
        assert!(w.is_serial());
    }
}
