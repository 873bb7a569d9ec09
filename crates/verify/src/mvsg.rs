//! The multiversion serialization graph and its acyclicity check (Appendix A).

use crate::History;
use mvtl_common::{Key, Timestamp, TxId};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A detected serializability violation: a cycle in the MVSG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerializabilityViolation {
    /// The transactions forming the cycle, in order (the last has an edge back
    /// to the first).
    pub cycle: Vec<TxId>,
}

impl fmt::Display for SerializabilityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MVSG cycle: ")?;
        for (i, tx) in self.cycle.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{tx}")?;
        }
        write!(f, " -> {}", self.cycle[0])
    }
}

impl std::error::Error for SerializabilityViolation {}

/// Builds the multiversion serialization graph of a committed history and
/// checks it for cycles.
///
/// Vertices are the committed transactions plus a virtual initial transaction
/// `T0` that wrote the `⊥` version of every key at [`Timestamp::ZERO`]. Edges
/// follow the standard construction the paper's proof uses:
///
/// 1. *reads-from*: if `Tj` reads a version written by `Ti`, add `Ti → Tj`;
/// 2. for every read `rk[xj]` (transaction `Tk` reads the version of `x`
///    written by `Tj`) and every committed write `wi[xi]` of the same key by a
///    different transaction `Ti`: if `xi ≪ xj` add `Ti → Tj`, otherwise add
///    `Tk → Ti` (the reader must precede any later writer of the same key).
#[derive(Debug, Default)]
pub struct MvsgChecker {
    edges: HashMap<TxId, HashSet<TxId>>,
    vertices: HashSet<TxId>,
}

/// The id of the virtual initial transaction that wrote every `⊥` version.
pub const INITIAL_TX: TxId = TxId(0);

impl MvsgChecker {
    /// Builds the graph for `history`.
    #[must_use]
    pub fn build(history: &History) -> Self {
        let mut checker = MvsgChecker::default();
        checker.vertices.insert(INITIAL_TX);

        // Version map: (key, version timestamp) -> writer.
        let mut writers = history.version_writers();
        // Every key also has the ⊥ version at ZERO written by T0.
        let mut all_keys: HashSet<Key> = HashSet::new();
        for tx in history.transactions() {
            for (k, _) in &tx.reads {
                all_keys.insert(*k);
            }
            for k in &tx.writes {
                all_keys.insert(*k);
            }
        }
        for key in &all_keys {
            writers.entry((*key, Timestamp::ZERO)).or_insert(INITIAL_TX);
        }

        // Committed writes per key with their timestamps.
        let mut writes_per_key: HashMap<Key, Vec<(Timestamp, TxId)>> = HashMap::new();
        for key in &all_keys {
            writes_per_key
                .entry(*key)
                .or_default()
                .push((Timestamp::ZERO, INITIAL_TX));
        }
        for tx in history.transactions() {
            checker.vertices.insert(tx.id);
            if let Some(ts) = tx.commit_ts {
                for key in &tx.writes {
                    writes_per_key.entry(*key).or_default().push((ts, tx.id));
                }
            }
        }

        for tx in history.transactions() {
            for (key, version_ts) in &tx.reads {
                let Some(&writer) = writers.get(&(*key, *version_ts)) else {
                    // The read observed a version that no committed transaction
                    // produced (e.g. a non-multiversion engine that does not
                    // report versions); skip the read, it constrains nothing.
                    continue;
                };
                // Reads-from edge.
                if writer != tx.id {
                    checker.add_edge(writer, tx.id);
                }
                // Version-order edges against every other committed write of
                // the same key.
                for (other_ts, other_writer) in writes_per_key.get(key).into_iter().flatten() {
                    if *other_writer == writer || *other_writer == tx.id {
                        continue;
                    }
                    if *other_ts < *version_ts {
                        checker.add_edge(*other_writer, writer);
                    } else {
                        checker.add_edge(tx.id, *other_writer);
                    }
                }
            }
        }
        checker
    }

    fn add_edge(&mut self, from: TxId, to: TxId) {
        if from == to {
            return;
        }
        self.vertices.insert(from);
        self.vertices.insert(to);
        self.edges.entry(from).or_default().insert(to);
    }

    /// Searches for a cycle; returns it if one exists.
    #[must_use]
    pub fn find_cycle(&self) -> Option<Vec<TxId>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks: HashMap<TxId, Mark> =
            self.vertices.iter().map(|v| (*v, Mark::White)).collect();
        let mut stack: Vec<TxId> = Vec::new();

        fn dfs(
            node: TxId,
            edges: &HashMap<TxId, HashSet<TxId>>,
            marks: &mut HashMap<TxId, Mark>,
            stack: &mut Vec<TxId>,
        ) -> Option<Vec<TxId>> {
            marks.insert(node, Mark::Grey);
            stack.push(node);
            if let Some(nexts) = edges.get(&node) {
                let mut nexts: Vec<TxId> = nexts.iter().copied().collect();
                nexts.sort();
                for next in nexts {
                    match marks.get(&next).copied().unwrap_or(Mark::White) {
                        Mark::Grey => {
                            let pos = stack.iter().position(|t| *t == next).unwrap_or(0);
                            return Some(stack[pos..].to_vec());
                        }
                        Mark::White => {
                            if let Some(cycle) = dfs(next, edges, marks, stack) {
                                return Some(cycle);
                            }
                        }
                        Mark::Black => {}
                    }
                }
            }
            stack.pop();
            marks.insert(node, Mark::Black);
            None
        }

        let mut nodes: Vec<TxId> = self.vertices.iter().copied().collect();
        nodes.sort();
        for node in nodes {
            if marks[&node] == Mark::White {
                if let Some(cycle) = dfs(node, &self.edges, &mut marks, &mut stack) {
                    return Some(cycle);
                }
            }
        }
        None
    }
}

/// Checks that a committed history is one-copy serializable by building its
/// MVSG and verifying acyclicity.
///
/// # Errors
///
/// Returns the detected cycle when the history is not serializable.
pub fn check_serializable(history: &History) -> Result<(), SerializabilityViolation> {
    match MvsgChecker::build(history).find_cycle() {
        None => Ok(()),
        Some(cycle) => Err(SerializabilityViolation { cycle }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvtl_common::CommitInfo;

    fn commit(id: u64, ts: u64, reads: Vec<(u64, u64)>, writes: Vec<u64>) -> CommitInfo {
        CommitInfo {
            tx: TxId(id),
            commit_ts: Some(Timestamp::at(ts)),
            reads: reads
                .into_iter()
                .map(|(k, v)| (Key(k), Timestamp::at(v)))
                .collect(),
            writes: writes.into_iter().map(Key).collect(),
        }
    }

    #[test]
    fn empty_history_is_serializable() {
        assert!(check_serializable(&History::new()).is_ok());
    }

    #[test]
    fn simple_chain_is_serializable() {
        // T1 writes k1@10, T2 reads it and writes k2@20, T3 reads both.
        let h = History::from_commits([
            commit(1, 10, vec![], vec![1]),
            commit(2, 20, vec![(1, 10)], vec![2]),
            commit(3, 30, vec![(1, 10), (2, 20)], vec![]),
        ]);
        assert!(check_serializable(&h).is_ok());
    }

    #[test]
    fn write_skew_style_cycle_is_detected() {
        // T1 reads the initial version of k2 and writes k1@10;
        // T2 reads the initial version of k1 and writes k2@20.
        // T1 must precede T2 (T2 read k1's initial version, overwritten by T1?
        // no — T2 read ⊥ of k1 which T1 overwrites, so T2 -> T1), and
        // symmetrically T1 -> T2: a cycle.
        let h = History::from_commits([
            commit(1, 10, vec![(2, 0)], vec![1]),
            commit(2, 20, vec![(1, 0)], vec![2]),
        ]);
        let err = check_serializable(&h).unwrap_err();
        assert!(err.cycle.len() >= 2, "cycle: {err}");
    }

    #[test]
    fn reading_a_stale_version_after_overwrite_is_a_violation_when_cyclic() {
        // T2 writes k1@20. T3 reads the ⊥ version of k1 (stale) but also a
        // version written at 30 by T4 which read T2's write — forcing T3 both
        // before T2 (stale read) and after T4 (reads-from) while T4 is after
        // T2: T3 -> T2 -> ... -> T4 -> T3? Construct explicitly:
        let h = History::from_commits([
            commit(2, 20, vec![], vec![1]),
            commit(4, 30, vec![(1, 20)], vec![2]),
            commit(3, 40, vec![(1, 0), (2, 30)], vec![]),
        ]);
        // Edges: T2->T4 (reads-from), T4->T3 (reads-from), T3->T2 (T3 read ⊥ of
        // k1, T2 wrote k1 later) — a cycle.
        let err = check_serializable(&h).unwrap_err();
        assert!(!err.cycle.is_empty());
        assert!(err.to_string().contains("MVSG cycle"));
    }

    #[test]
    fn snapshot_like_consistent_reads_are_fine() {
        let h = History::from_commits([
            commit(1, 10, vec![], vec![1, 2]),
            commit(2, 20, vec![(1, 10), (2, 10)], vec![1]),
            commit(3, 15, vec![(1, 10)], vec![]),
        ]);
        assert!(check_serializable(&h).is_ok());
    }

    #[test]
    fn write_skew_cycle_is_reported_with_both_transactions() {
        let h = History::from_commits([
            commit(7, 10, vec![(2, 0)], vec![1]),
            commit(8, 20, vec![(1, 0)], vec![2]),
        ]);
        let err = check_serializable(&h).unwrap_err();
        let in_cycle: HashSet<TxId> = err.cycle.iter().copied().collect();
        assert!(in_cycle.contains(&TxId(7)) && in_cycle.contains(&TxId(8)));
    }
}
