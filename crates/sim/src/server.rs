//! Simulated storage servers: per-key protocol state plus service capacity.

use mvtl_common::{Key, LockMode, Timestamp, TsRange, TsSet, TxId};
use mvtl_locks::KeyLockState;
use mvtl_storage::VersionChain;
use std::collections::{BTreeMap, HashMap, HashSet};

/// A transaction waiting for a 2PL lock on a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Waiter {
    pub client: usize,
    pub attempt: u64,
    pub write: bool,
}

/// The state a server keeps for one key. Only the fields of the protocol under
/// test are used in a given run.
#[derive(Debug, Default)]
pub(crate) struct SimKeyState {
    // ---- MVTIL (interval timestamp locks + version chain) ----
    pub locks: KeyLockState,
    pub versions: VersionChain<u64>,
    // ---- MVTO+ (versions with read timestamps) ----
    pub mvto_versions: BTreeMap<Timestamp, (u64, Timestamp)>,
    pub mvto_bottom_rts: Timestamp,
    pub mvto_purged_below: Timestamp,
    // ---- 2PL (single version + readers/writer lock) ----
    pub tpl_readers: HashSet<usize>,
    pub tpl_writer: Option<usize>,
    pub tpl_value: Option<u64>,
    pub tpl_waiters: Vec<Waiter>,
}

/// Result of an MVTIL read-lock request at a server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MvtilReadReply {
    /// Version whose value is returned (`Timestamp::ZERO` = ⊥).
    pub version: Timestamp,
    /// Contiguous interval `[version+1, e]` that was read-locked; empty when
    /// nothing useful (covering `min_needed`) could be locked.
    pub granted: TsSet,
    /// Whether unfrozen conflicting locks prevented covering the client's
    /// interval; in that case waiting/retrying may succeed once the lock
    /// holder commits (freezes) or aborts (releases).
    pub blocked_unfrozen: bool,
    /// Whether the request failed outright (needed version purged).
    pub failed: bool,
}

/// Result of an MVTIL write-lock request at a server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MvtilWriteReply {
    /// Timestamps actually write-locked (empty when nothing could be locked).
    pub granted: TsSet,
    /// Whether unfrozen conflicting locks stood in the way (retrying may help).
    pub blocked_unfrozen: bool,
}

impl SimKeyState {
    // ------------------------------------------------------------- MVTIL ----

    /// Serves an MVTIL read: pick the version below `upper` and read-lock the
    /// contiguous prefix of `[version+1, upper]` that is free. If the prefix
    /// cannot reach `min_needed` (the bottom of the client's interval) nothing
    /// is locked; the reply then says whether the obstacle is an unfrozen lock
    /// (the paper's algorithms wait in that case — the simulated client retries
    /// after a round trip) or a frozen one (the interval is truly exhausted).
    pub(crate) fn mvtil_read(
        &mut self,
        owner: TxId,
        upper: Timestamp,
        min_needed: Timestamp,
    ) -> MvtilReadReply {
        let anchor = match self.versions.latest_before(upper) {
            Ok((t, _)) => t,
            Err(_) => {
                return MvtilReadReply {
                    version: Timestamp::ZERO,
                    granted: TsSet::new(),
                    blocked_unfrozen: false,
                    failed: true,
                }
            }
        };
        if upper < anchor.succ() {
            return MvtilReadReply {
                version: anchor,
                granted: TsSet::new(),
                blocked_unfrozen: false,
                failed: false,
            };
        }
        let desired = TsRange::new(anchor.succ(), upper);
        let analysis = self.locks.analyze(owner, LockMode::Read, desired);
        let prefix_end = analysis.contiguous_grantable_end(anchor.succ());
        let useful = prefix_end.map(|end| end >= min_needed).unwrap_or(false);
        if !useful {
            return MvtilReadReply {
                version: anchor,
                granted: TsSet::new(),
                blocked_unfrozen: !analysis.blocked_unfrozen.is_empty(),
                failed: false,
            };
        }
        let granted = TsSet::from_range(TsRange::new(
            anchor.succ(),
            prefix_end.expect("useful implies a prefix"),
        ));
        self.locks.acquire(owner, LockMode::Read, &granted);
        MvtilReadReply {
            version: anchor,
            granted,
            blocked_unfrozen: false,
            failed: false,
        }
    }

    /// Serves an MVTIL write-lock request: lock whatever part of `desired` is
    /// free right now. When nothing is free, report whether the conflict is
    /// with unfrozen locks (retry may help) or frozen ones (it cannot).
    pub(crate) fn mvtil_write_lock(&mut self, owner: TxId, desired: &TsSet) -> MvtilWriteReply {
        let mut granted = TsSet::new();
        let mut blocked_unfrozen = false;
        for range in desired.ranges() {
            let analysis = self.locks.analyze(owner, LockMode::Write, *range);
            if !analysis.blocked_unfrozen.is_empty() {
                blocked_unfrozen = true;
            }
            granted = granted.union(&analysis.grantable);
        }
        if granted.is_empty() {
            return MvtilWriteReply {
                granted,
                blocked_unfrozen,
            };
        }
        self.locks.acquire(owner, LockMode::Write, &granted);
        MvtilWriteReply {
            granted,
            blocked_unfrozen,
        }
    }

    /// Freezes the write lock at the commit timestamp and installs the value
    /// (the server-side effect of the freeze-write-lock message, §H).
    pub(crate) fn mvtil_commit_write(&mut self, owner: TxId, commit_ts: Timestamp, value: u64) {
        self.locks
            .freeze(owner, LockMode::Write, TsRange::point(commit_ts));
        self.versions.install(commit_ts, value);
        // Garbage-collect the rest of the transaction's write locks on this key.
        self.locks
            .release_unfrozen_range(owner, LockMode::Write, TsRange::all());
    }

    /// Freezes the read locks between the version read and the commit
    /// timestamp and releases everything else (the freeze-read-locks /
    /// release messages of the distributed GC).
    pub(crate) fn mvtil_commit_read(
        &mut self,
        owner: TxId,
        version: Timestamp,
        commit_ts: Timestamp,
    ) {
        if version.succ() <= commit_ts {
            self.locks.freeze(
                owner,
                LockMode::Read,
                TsRange::new(version.succ(), commit_ts),
            );
        }
        self.locks.release_unfrozen(owner);
    }

    /// Releases every unfrozen lock of the transaction (abort path, or the
    /// commitment object deciding abort after a coordinator failure).
    pub(crate) fn mvtil_release(&mut self, owner: TxId) {
        self.locks.release_unfrozen(owner);
    }

    // ------------------------------------------------------------- MVTO+ ----

    /// Serves an MVTO+ read at timestamp `ts`, bumping the read timestamp.
    /// Returns `None` when the needed version was purged.
    pub(crate) fn mvto_read(&mut self, ts: Timestamp) -> Option<Timestamp> {
        match self.mvto_versions.range(..ts).next_back() {
            Some((version, _)) => {
                let version = *version;
                let entry = self.mvto_versions.get_mut(&version).expect("just found");
                if ts > entry.1 {
                    entry.1 = ts;
                }
                Some(version)
            }
            None => {
                if self.mvto_purged_below > Timestamp::ZERO && ts <= self.mvto_purged_below {
                    return None;
                }
                if ts > self.mvto_bottom_rts {
                    self.mvto_bottom_rts = ts;
                }
                Some(Timestamp::ZERO)
            }
        }
    }

    /// Validates and installs an MVTO+ write at `ts`. Returns whether the
    /// write was accepted.
    pub(crate) fn mvto_write(&mut self, ts: Timestamp, value: u64) -> bool {
        let allowed = match self.mvto_versions.range(..ts).next_back() {
            Some((_, (_, rts))) => *rts <= ts,
            None => self.mvto_bottom_rts <= ts,
        };
        if allowed {
            self.mvto_versions.insert(ts, (value, Timestamp::ZERO));
        }
        allowed
    }

    // --------------------------------------------------------------- 2PL ----

    /// Whether `client` could take the key's 2PL lock in the requested mode.
    pub(crate) fn tpl_can_lock(&self, client: usize, write: bool) -> bool {
        if write {
            (self.tpl_writer.is_none() || self.tpl_writer == Some(client))
                && self.tpl_readers.iter().all(|r| *r == client)
        } else {
            self.tpl_writer.is_none() || self.tpl_writer == Some(client)
        }
    }

    /// Takes the 2PL lock (the caller must have checked `tpl_can_lock`).
    pub(crate) fn tpl_lock(&mut self, client: usize, write: bool) {
        if write {
            self.tpl_readers.remove(&client);
            self.tpl_writer = Some(client);
        } else {
            self.tpl_readers.insert(client);
        }
    }

    /// Releases the client's 2PL lock on this key.
    pub(crate) fn tpl_unlock(&mut self, client: usize) {
        self.tpl_readers.remove(&client);
        if self.tpl_writer == Some(client) {
            self.tpl_writer = None;
        }
    }

    // ------------------------------------------------------------ shared ----

    /// Purges versions and lock state older than `bound` (timestamp-service
    /// broadcast). Returns `(versions_removed, locks_removed)`.
    pub(crate) fn purge_below(&mut self, bound: Timestamp) -> (usize, usize) {
        let v = self.versions.purge_below(bound);
        let l = self.locks.purge_below(bound);
        // MVTO+ versions purge, keeping the most recent below the bound.
        let keep = self
            .mvto_versions
            .range(..bound)
            .next_back()
            .map(|(t, _)| *t);
        let to_remove: Vec<Timestamp> = self
            .mvto_versions
            .range(..bound)
            .map(|(t, _)| *t)
            .filter(|t| Some(*t) != keep)
            .collect();
        let mvto_removed = to_remove.len();
        for t in to_remove {
            self.mvto_versions.remove(&t);
        }
        if mvto_removed > 0 && bound > self.mvto_purged_below {
            self.mvto_purged_below = bound;
        }
        (v + mvto_removed, l)
    }

    /// Number of lock entries this key currently holds (for the Figure 6
    /// series). For MVTO+, each version's read-timestamp counts as one lock
    /// interval, which is exactly the reading §3 gives it.
    pub(crate) fn lock_count(&self) -> usize {
        let mvto_locks = self
            .mvto_versions
            .values()
            .filter(|(_, rts)| *rts > Timestamp::ZERO)
            .count()
            + usize::from(self.mvto_bottom_rts > Timestamp::ZERO);
        self.locks.stats().entries
            + mvto_locks
            + self.tpl_readers.len()
            + usize::from(self.tpl_writer.is_some())
    }

    /// Number of versions this key currently holds.
    pub(crate) fn version_count(&self) -> usize {
        self.versions.stats().versions
            + self.mvto_versions.len()
            + usize::from(self.tpl_value.is_some())
    }
}

/// One storage server: a shard of keys plus a pool of service cores.
#[derive(Debug)]
pub(crate) struct Server {
    pub keys: HashMap<Key, SimKeyState>,
    core_free: Vec<u64>,
}

impl Server {
    pub(crate) fn new(cores: usize) -> Self {
        Server {
            keys: HashMap::new(),
            core_free: vec![0; cores.max(1)],
        }
    }

    /// Reserves a service core for a request arriving at `arrival` that takes
    /// `service` microseconds; returns the completion time. Requests queue when
    /// every core is busy, which is how the cloud profile's scarce capacity
    /// translates into latency under load.
    pub(crate) fn reserve(&mut self, arrival: u64, service: u64) -> u64 {
        let idx = self
            .core_free
            .iter()
            .enumerate()
            .min_by_key(|(_, free)| **free)
            .map(|(i, _)| i)
            .expect("at least one core");
        let start = arrival.max(self.core_free[idx]);
        let done = start + service;
        self.core_free[idx] = done;
        done
    }

    pub(crate) fn key(&mut self, key: Key) -> &mut SimKeyState {
        self.keys.entry(key).or_default()
    }

    pub(crate) fn lock_count(&self) -> usize {
        self.keys.values().map(SimKeyState::lock_count).sum()
    }

    pub(crate) fn version_count(&self) -> usize {
        self.keys.values().map(SimKeyState::version_count).sum()
    }

    pub(crate) fn purge_below(&mut self, bound: Timestamp) -> (usize, usize) {
        let mut versions = 0;
        let mut locks = 0;
        for state in self.keys.values_mut() {
            let (v, l) = state.purge_below(bound);
            versions += v;
            locks += l;
        }
        (versions, locks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: u64) -> Timestamp {
        Timestamp::at(v)
    }

    #[test]
    fn mvtil_read_then_conflicting_write_shrinks() {
        let mut state = SimKeyState::default();
        let reader = TxId(1);
        let writer = TxId(2);
        let reply = state.mvtil_read(reader, ts(100), ts(20));
        assert!(!reply.failed);
        assert_eq!(reply.version, Timestamp::ZERO);
        assert!(reply.granted.contains(ts(50)));

        // A writer asking for [40, 60] gets nothing (reader holds it), and the
        // obstacle is an unfrozen lock so retrying later could help...
        let got = state.mvtil_write_lock(writer, &TsSet::from_range(TsRange::new(ts(40), ts(60))));
        assert!(got.granted.is_empty());
        assert!(got.blocked_unfrozen);
        // ...but above the reader's interval it succeeds.
        let got =
            state.mvtil_write_lock(writer, &TsSet::from_range(TsRange::new(ts(150), ts(200))));
        assert!(got.granted.contains(ts(150)));
        assert!(!got.blocked_unfrozen);

        state.mvtil_commit_write(writer, ts(150), 77);
        assert_eq!(state.versions.at(ts(150)), Some(&77));
        // After commit, only the frozen point remains of the writer's locks.
        assert!(state.locks.held(writer, LockMode::Write).is_empty());
        let later = state
            .locks
            .analyze(TxId(5), LockMode::Write, TsRange::new(ts(150), ts(180)));
        assert_eq!(later.frozen_conflicts.ranges(), &[TsRange::point(ts(150))]);
    }

    #[test]
    fn mvtil_commit_read_freezes_and_releases() {
        let mut state = SimKeyState::default();
        let reader = TxId(3);
        let reply = state.mvtil_read(reader, ts(100), ts(1));
        state.mvtil_commit_read(reader, reply.version, ts(60));
        let stats = state.locks.stats();
        assert_eq!(stats.entries, stats.frozen_entries);
        // A later writer can lock above 60 but not below; the frozen read lock
        // is a permanent obstacle, so retrying is pointless.
        let writer = TxId(4);
        let below = state.mvtil_write_lock(writer, &TsSet::from_point(ts(30)));
        assert!(below.granted.is_empty());
        assert!(!below.blocked_unfrozen);
        let above = state.mvtil_write_lock(writer, &TsSet::from_point(ts(70)));
        assert!(above.granted.contains(ts(70)));
    }

    #[test]
    fn mvto_read_write_rules() {
        let mut state = SimKeyState::default();
        assert_eq!(state.mvto_read(ts(10)), Some(Timestamp::ZERO));
        // A write below the bottom read-timestamp is rejected.
        assert!(!state.mvto_write(ts(5), 1));
        assert!(state.mvto_write(ts(20), 2));
        assert_eq!(state.mvto_read(ts(30)), Some(ts(20)));
        // Writing between version 20 (rts 30) and 30 is rejected.
        assert!(!state.mvto_write(ts(25), 3));
        assert!(state.mvto_write(ts(40), 4));
    }

    #[test]
    fn tpl_lock_rules() {
        let mut state = SimKeyState::default();
        assert!(state.tpl_can_lock(1, false));
        state.tpl_lock(1, false);
        assert!(state.tpl_can_lock(2, false));
        assert!(!state.tpl_can_lock(2, true));
        assert!(state.tpl_can_lock(1, true));
        state.tpl_lock(1, true);
        assert!(!state.tpl_can_lock(2, false));
        state.tpl_unlock(1);
        assert!(state.tpl_can_lock(2, true));
    }

    #[test]
    fn purge_and_counters() {
        let mut state = SimKeyState::default();
        let w = TxId(9);
        let _ = state.mvtil_write_lock(w, &TsSet::from_point(ts(10)));
        state.mvtil_commit_write(w, ts(10), 1);
        state.mvto_write(ts(10), 1);
        state.mvto_write(ts(20), 2);
        assert!(state.version_count() >= 3);
        assert!(state.lock_count() >= 1);
        // Purging above every version keeps only the most recent one per store.
        let (versions, _locks) = state.purge_below(ts(25));
        assert_eq!(versions, 1, "the old MVTO+ version at 10 must be purged");
        assert!(state.version_count() >= 2);
    }

    #[test]
    fn server_core_queueing() {
        let mut server = Server::new(1);
        let first = server.reserve(100, 50);
        let second = server.reserve(100, 50);
        assert_eq!(first, 150);
        assert_eq!(second, 200, "single core serializes requests");
        let mut wide = Server::new(4);
        assert_eq!(wide.reserve(100, 50), 150);
        assert_eq!(wide.reserve(100, 50), 150, "separate cores run in parallel");
    }
}
