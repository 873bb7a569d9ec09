//! Statistics about stored versions, used by the state-size experiment (Fig. 6).

/// Counters describing the version state of a key (or, summed, a whole store).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VersionStats {
    /// Number of committed versions currently stored (excluding the implicit
    /// initial `⊥` version).
    pub versions: usize,
    /// Number of versions removed by purging since the chain was created.
    pub purged: usize,
    /// Number of stored versions, `⊥` included, that a committed transaction
    /// has read: each one's read high-water mark stands for one frozen read
    /// run.
    pub read_runs: usize,
}

impl VersionStats {
    /// Component-wise sum, for aggregating across keys.
    #[must_use]
    pub fn merge(self, other: VersionStats) -> VersionStats {
        VersionStats {
            versions: self.versions + other.versions,
            purged: self.purged + other.purged,
            read_runs: self.read_runs + other.read_runs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let a = VersionStats {
            versions: 2,
            purged: 1,
            read_runs: 1,
        };
        let b = VersionStats {
            versions: 5,
            purged: 0,
            read_runs: 2,
        };
        assert_eq!(
            a.merge(b),
            VersionStats {
                versions: 7,
                purged: 1,
                read_runs: 3,
            }
        );
    }
}
