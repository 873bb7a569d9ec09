//! The discrete-event simulation driver.

use crate::config::{Protocol, SimConfig};
use crate::event::{EventKind, EventQueue, OpResult};
use crate::metrics::{SeriesPoint, SimMetrics};
use crate::server::{Server, Waiter};
use mvtl_common::{Key, Timestamp, TsRange, TsSet, TxId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// One planned operation of a transaction.
#[derive(Debug, Clone, Copy)]
struct PlannedOp {
    key: Key,
    write: bool,
}

/// What a client is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Issuing the operations of the current transaction one by one.
    Executing,
    /// Waiting for the commit round to the write-set servers to finish.
    Committing,
    /// Waiting for a 2PL lock at a server.
    WaitingForLock,
    /// The coordinator crashed mid-commit; the commitment object will abort
    /// the transaction when the servers' pending-write-lock timeout fires.
    CrashedDuringCommit,
}

#[derive(Debug)]
struct Client {
    attempt: u64,
    tx_id: TxId,
    skew: i64,
    ops: Vec<PlannedOp>,
    next_op: usize,
    phase: Phase,
    /// Candidate timestamps still viable (MVTIL's interval `I`).
    interval: TsSet,
    /// Serialization timestamp (MVTO+) / base of the interval (MVTIL).
    ts: Timestamp,
    /// `(key, version read)` pairs, used for the distributed GC.
    reads: Vec<(Key, Timestamp)>,
    /// Buffered writes.
    writes: Vec<(Key, u64)>,
    /// Keys where the transaction holds server-side lock state.
    locked_keys: Vec<Key>,
    /// Outstanding responses in the commit round.
    commit_pending: usize,
    /// Whether the commit round has seen a failed validation (MVTO+).
    commit_failed: bool,
    /// Deadline for the operation currently being (re-)issued; once it passes,
    /// a blocked operation aborts the transaction instead of retrying (this is
    /// the waiting-with-timeout of §4.3 seen from the client side).
    op_deadline: u64,
}

impl Client {
    fn new() -> Self {
        Client {
            attempt: 0,
            tx_id: TxId(0),
            skew: 0,
            ops: Vec::new(),
            next_op: 0,
            phase: Phase::Executing,
            interval: TsSet::new(),
            ts: Timestamp::ZERO,
            reads: Vec::new(),
            writes: Vec::new(),
            locked_keys: Vec::new(),
            commit_pending: 0,
            commit_failed: false,
            op_deadline: 0,
        }
    }

    fn note_locked(&mut self, key: Key) {
        if !self.locked_keys.contains(&key) {
            self.locked_keys.push(key);
        }
    }
}

/// The discrete-event simulation of the distributed system (§7/§8).
pub struct Simulation {
    config: SimConfig,
    rng: StdRng,
    queue: EventQueue,
    servers: Vec<Server>,
    clients: Vec<Client>,
    now: u64,
    committed: u64,
    aborted: u64,
    commitment_aborts: u64,
    messages: u64,
    bucket_committed: u64,
    bucket_attempts: u64,
    series: Vec<SeriesPoint>,
    finished: bool,
}

impl Simulation {
    /// Builds a simulation from a configuration.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        let servers = (0..config.servers)
            .map(|_| Server::new(config.network.server_cores))
            .collect();
        let clients = (0..config.clients).map(|_| Client::new()).collect();
        Simulation {
            rng,
            queue: EventQueue::new(),
            servers,
            clients,
            now: 0,
            committed: 0,
            aborted: 0,
            commitment_aborts: 0,
            messages: 0,
            bucket_committed: 0,
            bucket_attempts: 0,
            series: Vec::new(),
            finished: false,
            config,
        }
    }

    /// Runs the simulation for the configured duration and returns the
    /// collected metrics.
    #[must_use]
    pub fn run(mut self) -> SimMetrics {
        // Stagger client start times a little, like real clients ramping up.
        for client in 0..self.config.clients {
            let skew = self.config.network.sample_skew(&mut self.rng);
            self.clients[client].skew = skew;
            let start = self.rng.gen_range(0..1_000);
            self.queue.push(
                start,
                EventKind::OpResponse {
                    client,
                    attempt: 0,
                    outcome: OpResult::Ok,
                },
            );
        }
        if let Some(interval) = self.config.gc_interval_us {
            self.queue.push(interval, EventKind::GcBroadcast);
        }
        self.queue
            .push(self.config.sample_interval_us, EventKind::Sample);
        self.queue.push(self.config.duration_us, EventKind::End);

        while let Some(event) = self.queue.pop() {
            self.now = event.time;
            match event.kind {
                EventKind::End => {
                    self.finished = true;
                    break;
                }
                EventKind::Sample => self.on_sample(),
                EventKind::GcBroadcast => self.on_gc(),
                EventKind::LockTimeout { client, attempt } => self.on_timeout(client, attempt),
                EventKind::OpResponse {
                    client,
                    attempt,
                    outcome,
                } => self.on_response(client, attempt, outcome),
            }
        }

        let duration_secs = self.config.duration_us as f64 / 1e6;
        SimMetrics {
            protocol: self.config.protocol.name(),
            committed: self.committed,
            aborted: self.aborted,
            duration_secs,
            series: self.series,
            final_locks: self.servers.iter().map(Server::lock_count).sum(),
            final_versions: self.servers.iter().map(Server::version_count).sum(),
            messages: self.messages,
            commitment_aborts: self.commitment_aborts,
        }
    }

    // ------------------------------------------------------------ events ----

    fn on_sample(&mut self) {
        let interval_secs = self.config.sample_interval_us as f64 / 1e6;
        let attempts = self.bucket_attempts.max(1);
        self.series.push(SeriesPoint {
            time_secs: self.now as f64 / 1e6,
            throughput_tps: self.bucket_committed as f64 / interval_secs,
            commit_rate: self.bucket_committed as f64 / attempts as f64,
            locks: self.servers.iter().map(Server::lock_count).sum(),
            versions: self.servers.iter().map(Server::version_count).sum(),
        });
        self.bucket_committed = 0;
        self.bucket_attempts = 0;
        if self.now < self.config.duration_us {
            self.queue
                .push(self.now + self.config.sample_interval_us, EventKind::Sample);
        }
    }

    fn on_gc(&mut self) {
        let bound = Timestamp::new(self.now.saturating_sub(self.config.gc_lag_us).max(1), 0);
        for server in &mut self.servers {
            server.purge_below(bound);
        }
        if let Some(interval) = self.config.gc_interval_us {
            if self.now < self.config.duration_us {
                self.queue.push(self.now + interval, EventKind::GcBroadcast);
            }
        }
    }

    fn on_timeout(&mut self, client_id: usize, attempt: u64) {
        if self.clients[client_id].attempt != attempt {
            return; // stale timeout for a finished attempt
        }
        match self.clients[client_id].phase {
            Phase::WaitingForLock => {
                // 2PL deadlock/starvation resolution: abort and retry.
                self.remove_waiter(client_id, attempt);
                self.abort_current(client_id, false);
                self.start_transaction(client_id);
            }
            Phase::CrashedDuringCommit => {
                // The servers' pending-write-lock timeout fired; the commitment
                // object decides abort and the locks are released (§H).
                self.abort_current(client_id, true);
                self.start_transaction(client_id);
            }
            _ => {}
        }
    }

    fn on_response(&mut self, client_id: usize, attempt: u64, outcome: OpResult) {
        if self.clients[client_id].attempt != attempt && attempt != 0 {
            return; // stale response
        }
        if attempt == 0 && self.clients[client_id].attempt == 0 {
            // Initial kick-off event.
            self.start_transaction(client_id);
            return;
        }
        if outcome == OpResult::Abort {
            self.abort_current(client_id, false);
            self.start_transaction(client_id);
            return;
        }
        match self.clients[client_id].phase {
            Phase::Executing | Phase::WaitingForLock => {
                self.clients[client_id].phase = Phase::Executing;
                if outcome == OpResult::Retry {
                    // The obstacle was an unfrozen lock: wait (by re-issuing
                    // the same operation) until the per-operation deadline.
                    if self.now <= self.clients[client_id].op_deadline {
                        let op = self.clients[client_id].ops[self.clients[client_id].next_op];
                        self.issue_request(client_id, op);
                    } else {
                        self.abort_current(client_id, false);
                        self.start_transaction(client_id);
                    }
                    return;
                }
                self.clients[client_id].next_op += 1;
                self.issue_next(client_id);
            }
            Phase::Committing => {
                self.clients[client_id].commit_pending -= 1;
                if self.clients[client_id].commit_pending == 0 {
                    if self.clients[client_id].commit_failed {
                        self.abort_current(client_id, false);
                    } else {
                        self.finish_commit(client_id);
                    }
                    self.start_transaction(client_id);
                }
            }
            Phase::CrashedDuringCommit => {}
        }
    }

    // -------------------------------------------------------- client flow ----

    fn start_transaction(&mut self, client_id: usize) {
        let ops_per_tx = self.config.ops_per_tx;
        let write_fraction = self.config.write_fraction;
        let keys = self.config.keys;
        let delta = self.config.delta_us;
        let now = self.now;

        let mut ops = Vec::with_capacity(ops_per_tx);
        for _ in 0..ops_per_tx {
            let key = Key(self.rng.gen_range(0..keys));
            let write = self.rng.gen_bool(write_fraction);
            ops.push(PlannedOp { key, write });
        }

        let client = &mut self.clients[client_id];
        client.attempt += 1;
        client.tx_id = TxId::fresh();
        client.ops = ops;
        client.next_op = 0;
        client.phase = Phase::Executing;
        client.reads.clear();
        client.writes.clear();
        client.locked_keys.clear();
        client.commit_pending = 0;
        client.commit_failed = false;
        let local_clock = if client.skew >= 0 {
            now.saturating_add(client.skew as u64)
        } else {
            now.saturating_sub(client.skew.unsigned_abs())
        }
        .max(1);
        client.ts = Timestamp::new(local_clock, client_id as u32 + 1);
        client.interval = TsSet::from_range(TsRange::new(
            Timestamp::new(local_clock, 0),
            Timestamp::new(local_clock.saturating_add(delta), u32::MAX),
        ));
        self.bucket_attempts += 1;

        self.issue_next(client_id);
    }

    fn issue_next(&mut self, client_id: usize) {
        let next_op = self.clients[client_id].next_op;
        if next_op >= self.clients[client_id].ops.len() {
            self.begin_commit(client_id);
            return;
        }
        let op = self.clients[client_id].ops[next_op];
        self.clients[client_id].op_deadline = self.now + self.config.lock_timeout_us;
        match self.config.protocol {
            Protocol::MvtoPlus if op.write => {
                // MVTO+ buffers writes locally: no message until commit.
                let value = self.rng.gen::<u64>() >> 1;
                let client = &mut self.clients[client_id];
                client.writes.push((op.key, value));
                client.next_op += 1;
                self.issue_next(client_id);
            }
            _ => self.issue_request(client_id, op),
        }
    }

    /// Sends one operation to the server owning the key, processes the
    /// concurrency-control decision, and schedules the response.
    fn issue_request(&mut self, client_id: usize, op: PlannedOp) {
        let attempt = self.clients[client_id].attempt;
        let tx_id = self.clients[client_id].tx_id;
        let latency_out = self.config.network.sample_latency(&mut self.rng);
        let latency_back = self.config.network.sample_latency(&mut self.rng);
        let service = self.config.network.sample_service(&mut self.rng);
        let server_idx = self.server_for(op.key);
        let arrival = self.now + latency_out;
        let done = self.servers[server_idx].reserve(arrival, service);
        self.messages += 2;

        let outcome = match self.config.protocol {
            Protocol::MvtilEarly | Protocol::MvtilLate => {
                self.process_mvtil_op(client_id, server_idx, op, tx_id)
            }
            Protocol::MvtoPlus => self.process_mvto_read(client_id, server_idx, op.key),
            Protocol::TwoPhaseLocking => {
                match self.process_tpl_op(client_id, server_idx, op, attempt) {
                    Some(true) => OpResult::Ok,
                    Some(false) => OpResult::Abort,
                    None => {
                        // Blocked: the waiter was registered; a timeout guards it.
                        self.clients[client_id].phase = Phase::WaitingForLock;
                        self.queue.push(
                            self.now + self.config.lock_timeout_us,
                            EventKind::LockTimeout {
                                client: client_id,
                                attempt,
                            },
                        );
                        return;
                    }
                }
            }
        };
        self.queue.push(
            done + latency_back,
            EventKind::OpResponse {
                client: client_id,
                attempt,
                outcome,
            },
        );
    }

    fn process_mvtil_op(
        &mut self,
        client_id: usize,
        server_idx: usize,
        op: PlannedOp,
        tx_id: TxId,
    ) -> OpResult {
        let (Some(upper), Some(lower)) = (
            self.clients[client_id].interval.max(),
            self.clients[client_id].interval.min(),
        ) else {
            return OpResult::Abort;
        };
        let state = self.servers[server_idx].key(op.key);
        if op.write {
            let desired = self.clients[client_id].interval.clone();
            let reply = state.mvtil_write_lock(tx_id, &desired);
            if reply.granted.is_empty() {
                return if reply.blocked_unfrozen {
                    OpResult::Retry
                } else {
                    OpResult::Abort
                };
            }
            let client = &mut self.clients[client_id];
            client.note_locked(op.key);
            client.interval = client.interval.intersection(&reply.granted);
            let value = (client.attempt << 8) ^ client_id as u64;
            client.writes.push((op.key, value));
            if client.interval.is_empty() {
                OpResult::Abort
            } else {
                OpResult::Ok
            }
        } else {
            let reply = state.mvtil_read(tx_id, upper, lower);
            if reply.failed {
                return OpResult::Abort;
            }
            if reply.granted.is_empty() {
                return if reply.blocked_unfrozen {
                    OpResult::Retry
                } else {
                    OpResult::Abort
                };
            }
            let client = &mut self.clients[client_id];
            client.note_locked(op.key);
            client.reads.push((op.key, reply.version));
            client.interval = client.interval.intersection(&reply.granted);
            if client.interval.is_empty() {
                OpResult::Abort
            } else {
                OpResult::Ok
            }
        }
    }

    fn process_mvto_read(&mut self, client_id: usize, server_idx: usize, key: Key) -> OpResult {
        let ts = self.clients[client_id].ts;
        let state = self.servers[server_idx].key(key);
        match state.mvto_read(ts) {
            Some(version) => {
                self.clients[client_id].reads.push((key, version));
                OpResult::Ok
            }
            None => OpResult::Abort,
        }
    }

    /// Returns `Some(ok)` when the operation completed, `None` when it blocked.
    fn process_tpl_op(
        &mut self,
        client_id: usize,
        server_idx: usize,
        op: PlannedOp,
        attempt: u64,
    ) -> Option<bool> {
        let state = self.servers[server_idx].key(op.key);
        if state.tpl_can_lock(client_id, op.write) {
            state.tpl_lock(client_id, op.write);
            let client = &mut self.clients[client_id];
            client.note_locked(op.key);
            if op.write {
                let value = (client.attempt << 8) ^ client_id as u64;
                client.writes.push((op.key, value));
            } else {
                client.reads.push((op.key, Timestamp::ZERO));
            }
            Some(true)
        } else {
            state.tpl_waiters.push(Waiter {
                client: client_id,
                attempt,
                write: op.write,
            });
            None
        }
    }

    // ------------------------------------------------------------ commit ----

    fn begin_commit(&mut self, client_id: usize) {
        match self.config.protocol {
            Protocol::MvtilEarly | Protocol::MvtilLate => self.commit_mvtil(client_id),
            Protocol::MvtoPlus => self.commit_mvto(client_id),
            Protocol::TwoPhaseLocking => self.commit_tpl(client_id),
        }
    }

    fn commit_mvtil(&mut self, client_id: usize) {
        let interval = self.clients[client_id].interval.clone();
        let commit_ts = match self.config.protocol {
            Protocol::MvtilLate => interval.max(),
            _ => interval.min(),
        };
        let Some(commit_ts) = commit_ts else {
            self.abort_current(client_id, false);
            self.start_transaction(client_id);
            return;
        };
        // Coordinator failure injection (§H): the coordinator dies after
        // acquiring its locks but before informing servers of the decision.
        if self.config.coordinator_failure_probability > 0.0
            && self
                .rng
                .gen_bool(self.config.coordinator_failure_probability)
        {
            let attempt = self.clients[client_id].attempt;
            self.clients[client_id].phase = Phase::CrashedDuringCommit;
            self.queue.push(
                self.now + self.config.lock_timeout_us,
                EventKind::LockTimeout {
                    client: client_id,
                    attempt,
                },
            );
            return;
        }

        let tx_id = self.clients[client_id].tx_id;
        let writes = self.clients[client_id].writes.clone();
        let reads = self.clients[client_id].reads.clone();

        // One freeze-write-lock round trip per written key (§H: two round
        // trips per object in the write set, one to lock and one to freeze).
        let mut pending = 0;
        let attempt = self.clients[client_id].attempt;
        for (key, value) in &writes {
            let server_idx = self.server_for(*key);
            let latency_out = self.config.network.sample_latency(&mut self.rng);
            let latency_back = self.config.network.sample_latency(&mut self.rng);
            let service = self.config.network.sample_service(&mut self.rng);
            let arrival = self.now + latency_out;
            let done = self.servers[server_idx].reserve(arrival, service);
            self.messages += 2;
            self.servers[server_idx]
                .key(*key)
                .mvtil_commit_write(tx_id, commit_ts, *value);
            self.queue.push(
                done + latency_back,
                EventKind::OpResponse {
                    client: client_id,
                    attempt,
                    outcome: OpResult::Ok,
                },
            );
            pending += 1;
        }
        // Garbage collection of read locks (piggybacked on release messages).
        for (key, version) in &reads {
            let server_idx = self.server_for(*key);
            self.servers[server_idx]
                .key(*key)
                .mvtil_commit_read(tx_id, *version, commit_ts);
            self.messages += 1;
        }
        self.clients[client_id].ts = commit_ts;
        if pending == 0 {
            // Read-only transactions commit without the extra round.
            self.finish_commit(client_id);
            self.start_transaction(client_id);
        } else {
            self.clients[client_id].phase = Phase::Committing;
            self.clients[client_id].commit_pending = pending;
        }
    }

    fn commit_mvto(&mut self, client_id: usize) {
        let ts = self.clients[client_id].ts;
        let writes = self.clients[client_id].writes.clone();
        if writes.is_empty() {
            self.finish_commit(client_id);
            self.start_transaction(client_id);
            return;
        }
        let attempt = self.clients[client_id].attempt;
        let mut pending = 0;
        let mut failed = false;
        for (key, value) in &writes {
            let server_idx = self.server_for(*key);
            let latency_out = self.config.network.sample_latency(&mut self.rng);
            let latency_back = self.config.network.sample_latency(&mut self.rng);
            let service = self.config.network.sample_service(&mut self.rng);
            let arrival = self.now + latency_out;
            let done = self.servers[server_idx].reserve(arrival, service);
            self.messages += 2;
            if !self.servers[server_idx].key(*key).mvto_write(ts, *value) {
                failed = true;
            }
            self.queue.push(
                done + latency_back,
                EventKind::OpResponse {
                    client: client_id,
                    attempt,
                    outcome: OpResult::Ok,
                },
            );
            pending += 1;
        }
        self.clients[client_id].phase = Phase::Committing;
        self.clients[client_id].commit_pending = pending;
        self.clients[client_id].commit_failed = failed;
    }

    fn commit_tpl(&mut self, client_id: usize) {
        // Install the buffered writes and release every lock; waiters wake up.
        let writes = self.clients[client_id].writes.clone();
        let locked = self.clients[client_id].locked_keys.clone();
        for (key, value) in &writes {
            let server_idx = self.server_for(*key);
            self.messages += 2;
            self.servers[server_idx].key(*key).tpl_value = Some(*value);
        }
        for key in &locked {
            let server_idx = self.server_for(*key);
            self.servers[server_idx].key(*key).tpl_unlock(client_id);
            self.messages += 1;
        }
        self.finish_commit(client_id);
        for key in locked {
            self.wake_tpl_waiters(key);
        }
        self.start_transaction(client_id);
    }

    fn finish_commit(&mut self, client_id: usize) {
        self.committed += 1;
        self.bucket_committed += 1;
        let _ = client_id;
    }

    fn abort_current(&mut self, client_id: usize, commitment_decided: bool) {
        self.aborted += 1;
        if commitment_decided {
            self.commitment_aborts += 1;
        }
        let tx_id = self.clients[client_id].tx_id;
        let locked = self.clients[client_id].locked_keys.clone();
        match self.config.protocol {
            Protocol::MvtilEarly | Protocol::MvtilLate => {
                for key in &locked {
                    let server_idx = self.server_for(*key);
                    self.servers[server_idx].key(*key).mvtil_release(tx_id);
                    self.messages += 1;
                }
            }
            Protocol::TwoPhaseLocking => {
                for key in &locked {
                    let server_idx = self.server_for(*key);
                    self.servers[server_idx].key(*key).tpl_unlock(client_id);
                    self.messages += 1;
                }
                for key in locked {
                    self.wake_tpl_waiters(key);
                }
            }
            Protocol::MvtoPlus => {
                // Read timestamps deliberately stay behind (that is MVTO+).
            }
        }
    }

    fn wake_tpl_waiters(&mut self, key: Key) {
        let server_idx = self.server_for(key);
        while let Some(waiter) = self.next_grantable_waiter(server_idx, key) {
            // Grant the lock and schedule the (delayed) response to the waiter.
            let state = self.servers[server_idx].key(key);
            state.tpl_lock(waiter.client, waiter.write);
            let latency_back = self.config.network.sample_latency(&mut self.rng);
            let service = self.config.network.sample_service(&mut self.rng);
            let done = self.servers[server_idx].reserve(self.now, service);
            let client = &mut self.clients[waiter.client];
            client.note_locked(key);
            if waiter.write {
                let value = (client.attempt << 8) ^ waiter.client as u64;
                client.writes.push((key, value));
            } else {
                client.reads.push((key, Timestamp::ZERO));
            }
            self.queue.push(
                done + latency_back,
                EventKind::OpResponse {
                    client: waiter.client,
                    attempt: waiter.attempt,
                    outcome: OpResult::Ok,
                },
            );
            // An exclusive grant blocks everything behind it.
            if waiter.write {
                break;
            }
        }
    }

    /// Pops the first waiter of `key` that is still current and whose lock
    /// request is now grantable.
    fn next_grantable_waiter(&mut self, server_idx: usize, key: Key) -> Option<Waiter> {
        let clients = &self.clients;
        let state = self.servers[server_idx].key(key);
        // Drop stale waiters (their transaction attempt already ended).
        state.tpl_waiters.retain(|w| {
            clients[w.client].attempt == w.attempt
                && clients[w.client].phase == Phase::WaitingForLock
        });
        let position = state
            .tpl_waiters
            .iter()
            .position(|w| state.tpl_can_lock(w.client, w.write))?;
        Some(state.tpl_waiters.remove(position))
    }

    fn remove_waiter(&mut self, client_id: usize, attempt: u64) {
        for server in &mut self.servers {
            for state in server.keys.values_mut() {
                state
                    .tpl_waiters
                    .retain(|w| !(w.client == client_id && w.attempt == attempt));
            }
        }
    }

    fn server_for(&self, key: Key) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.servers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(protocol: Protocol) -> SimConfig {
        SimConfig::local_cluster(protocol)
            .clients(20)
            .keys(500)
            .duration_secs(1)
            .seed(7)
    }

    #[test]
    fn all_protocols_make_progress() {
        for protocol in Protocol::all() {
            let metrics = Simulation::new(quick(protocol)).run();
            assert!(
                metrics.committed > 50,
                "{} committed only {} transactions",
                protocol.name(),
                metrics.committed
            );
            assert!(metrics.commit_rate() > 0.2, "{}", protocol.name());
            assert!(metrics.messages > 0);
        }
    }

    #[test]
    fn runs_are_deterministic_for_a_seed() {
        let a = Simulation::new(quick(Protocol::MvtilEarly)).run();
        let b = Simulation::new(quick(Protocol::MvtilEarly)).run();
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.aborted, b.aborted);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn read_only_workload_commits_everything() {
        for protocol in Protocol::all() {
            let config = quick(protocol).write_fraction(0.0);
            let metrics = Simulation::new(config).run();
            assert!(
                metrics.commit_rate() > 0.99,
                "{} must commit essentially all read-only transactions (got {})",
                protocol.name(),
                metrics.commit_rate()
            );
        }
    }

    #[test]
    fn mvtil_beats_mvto_under_contention() {
        // Moderate contention: small key space, writes present. The headline
        // claim of §8.4: MVTIL's commit rate stays higher than MVTO+'s.
        let base = |p| {
            SimConfig::local_cluster(p)
                .clients(60)
                .keys(300)
                .write_fraction(0.5)
                .duration_secs(3)
                .seed(11)
        };
        let mvtil = Simulation::new(base(Protocol::MvtilEarly)).run();
        let mvto = Simulation::new(base(Protocol::MvtoPlus)).run();
        assert!(
            mvtil.commit_rate() > mvto.commit_rate(),
            "MVTIL commit rate {} must exceed MVTO+ {}",
            mvtil.commit_rate(),
            mvto.commit_rate()
        );
    }

    #[test]
    fn gc_bounds_state_size() {
        let with_gc = SimConfig::local_cluster(Protocol::MvtilEarly)
            .clients(30)
            .keys(200)
            .write_fraction(0.5)
            .duration_secs(4)
            .gc_every_secs(Some(1))
            .gc_lag_secs(1)
            .seed(3);
        let without_gc = with_gc.clone().gc_every_secs(None);
        let gc_metrics = Simulation::new(with_gc).run();
        let nogc_metrics = Simulation::new(without_gc).run();
        assert!(
            gc_metrics.final_versions < nogc_metrics.final_versions,
            "GC must bound the number of versions ({} vs {})",
            gc_metrics.final_versions,
            nogc_metrics.final_versions
        );
        assert!(
            gc_metrics.final_locks < nogc_metrics.final_locks,
            "GC must bound the number of locks ({} vs {})",
            gc_metrics.final_locks,
            nogc_metrics.final_locks
        );
    }

    #[test]
    fn coordinator_failures_are_resolved_by_the_commitment_object() {
        let config = SimConfig::local_cluster(Protocol::MvtilEarly)
            .clients(20)
            .keys(500)
            .duration_secs(2)
            .coordinator_failures(0.05)
            .seed(5);
        let metrics = Simulation::new(config).run();
        assert!(metrics.commitment_aborts > 0, "failures must be injected");
        // The system keeps making progress despite coordinator crashes.
        assert!(metrics.committed > 50);
    }

    #[test]
    fn series_is_sampled() {
        let metrics = Simulation::new(quick(Protocol::MvtilLate)).run();
        assert!(!metrics.series.is_empty());
        for point in &metrics.series {
            assert!(point.time_secs > 0.0);
            assert!(point.commit_rate <= 1.0);
        }
    }
}
