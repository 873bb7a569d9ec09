//! The closed-loop client, the phase runner, set-up and the output check.
//!
//! Run model: one process, `CLIENTS` client threads (= `nproc` of the box the
//! bounds were measured on; served: one connection each), closed loop — a
//! client issues its next transaction when the previous one committed. A
//! logical transaction is retried from `begin` with the same template until it
//! commits; it fails only on a non-abort error, after `MAX_ATTEMPTS` attempts
//! plus `RETRY_GRACE`, or when the output check finds a wrong value.

use crate::hist::Histogram;
use crate::load::{Load, Templates, WRITE};
use crate::session::{value_for, Attempt, Session, Target, ABORT_CLASSES};
use crate::trace::{Name, NoTrace, Tracer};
use mvtl_common::{StoreStats, Timestamp};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

pub const CLIENTS: usize = 2;
/// A transaction that has not committed after this many attempts *and*
/// [`RETRY_GRACE`] more of retrying has failed. A 64-attempt cap produced
/// ~0.08% spurious failures on `mem_contended`; attempts alone are not enough
/// either: when the hypervisor parks the other client's core mid-transaction,
/// its unfrozen locks make every retry abort until it runs again, and 10 000
/// no-wait attempts take only ~50 ms.
pub const MAX_ATTEMPTS: u32 = 10_000;
pub const RETRY_GRACE: Duration = Duration::from_secs(2);
/// Templates generated per client; clients cycle through them.
pub const POOL: usize = 1 << 16;
/// Throughput is the median over this many equal time slices of a phase.
pub const SLICES: usize = 20;
const LOADER: u32 = 255;
const PRELOAD_BATCH: usize = 1024;
const VERIFY_BATCH: usize = 64;

/// The committed write with the largest commit timestamp a client made to a
/// key. Not its most recent one: an MVTIL transaction may commit anywhere in
/// `[begin, begin + Δ]`, so a client's later transaction can serialize before
/// its earlier one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Last {
    value: u64,
    ts: Timestamp,
}

const NEVER: Last = Last {
    value: 0,
    ts: Timestamp::ZERO,
};

pub struct Client<S> {
    id: u32,
    session: S,
    templates: Arc<Templates>,
    cursor: usize,
    /// Advances by the template length per attempt; feeds [`value_for`].
    counter: u64,
    last: Vec<Last>,
}

#[derive(Clone, Copy)]
pub enum Stop {
    /// Exactly this many logical transactions (warm-up).
    Count(u64),
    /// Until this much time has passed (measured phases).
    After(Duration),
}

#[derive(Default)]
pub struct ClientStats {
    pub commits: u64,
    pub attempts: u64,
    pub failed: u64,
    pub aborts: [u64; ABORT_CLASSES.len()],
    /// Logical-transaction latency, first `begin` → commit ack, in ns.
    pub latency: Histogram,
    slices: Vec<u64>,
    busy: Duration,
    pub first_error: Option<String>,
}

impl<S: Session> Client<S> {
    fn new(id: u32, session: S, templates: Arc<Templates>, keys: u32) -> Self {
        Client {
            id,
            session,
            templates,
            cursor: 0,
            counter: 0,
            last: vec![NEVER; keys as usize],
        }
    }

    /// Runs `ops` until it commits. Returns the committing attempt's counter
    /// base and commit timestamp, or `None` when the transaction failed.
    fn txn<T: Tracer>(
        &mut self,
        ops: &[u32],
        tracer: &mut T,
        stats: &mut ClientStats,
    ) -> Option<(u64, Timestamp)> {
        let root = tracer.open(Name::Txn);
        let mut outcome = None;
        let mut give_up_at = None;
        for tries in 1u32.. {
            let counter = self.counter;
            self.counter += ops.len() as u64;
            stats.attempts += 1;
            let span = tracer.open(Name::Attempt);
            let result = self.session.attempt(ops, self.id, counter, tracer);
            if matches!(result, Ok(Attempt::Committed(_))) {
                tracer.mark_committed(span);
            }
            tracer.close(span);
            match result {
                Ok(Attempt::Committed(ts)) => {
                    outcome = Some((counter, ts));
                    break;
                }
                Ok(Attempt::Aborted(class)) => {
                    stats.aborts[class] += 1;
                    if tries >= MAX_ATTEMPTS {
                        let now = Instant::now();
                        if now >= *give_up_at.get_or_insert(now + RETRY_GRACE) {
                            let reason = ABORT_CLASSES[class];
                            stats.first_error.get_or_insert_with(|| {
                                format!("no commit in {tries} attempts (last abort: {reason})")
                            });
                            break;
                        }
                    }
                    let span = tracer.open(Name::RetryWait);
                    std::thread::yield_now();
                    tracer.close(span);
                }
                Err(err) => {
                    stats.first_error.get_or_insert(err);
                    break;
                }
            }
        }
        tracer.close(root);
        outcome
    }

    fn note_writes(&mut self, ops: &[u32], counter: u64, ts: Timestamp) {
        for (index, &op) in ops.iter().enumerate() {
            if op & WRITE != 0 {
                let slot = &mut self.last[(op & !WRITE) as usize];
                // `>=`: a later write of the same transaction replaces an
                // earlier one to the same key.
                if ts >= slot.ts {
                    *slot = Last {
                        value: value_for(self.id, counter, index),
                        ts,
                    };
                }
            }
        }
    }

    fn run<T: Tracer>(&mut self, tracer: &mut T, stop: Stop, halt: &AtomicBool) -> ClientStats {
        let templates = Arc::clone(&self.templates);
        let (limit, slice_ns) = match stop {
            Stop::Count(_) => (Duration::MAX, u128::MAX),
            Stop::After(limit) => (limit, (limit.as_nanos() / SLICES as u128).max(1)),
        };
        let mut stats = ClientStats {
            slices: vec![0; SLICES],
            ..ClientStats::default()
        };
        let start = Instant::now();
        let mut now = start;
        let mut done = 0u64;
        loop {
            let finished = match stop {
                Stop::Count(n) => done == n,
                Stop::After(_) => now - start >= limit,
            };
            if finished || halt.load(Ordering::Relaxed) {
                break;
            }
            if !tracer.has_room() {
                halt.store(true, Ordering::Relaxed);
                break;
            }
            let ops = templates.get(self.cursor);
            self.cursor = (self.cursor + 1) % templates.len();
            tracer.next_txn();
            let outcome = self.txn(ops, tracer, &mut stats);
            let end = Instant::now();
            match outcome {
                Some((counter, ts)) => {
                    stats.latency.record((end - now).as_nanos() as u64);
                    stats.commits += 1;
                    let slice = ((end - start).as_nanos() / slice_ns) as usize;
                    if let Some(count) = stats.slices.get_mut(slice) {
                        *count += 1;
                    }
                    self.note_writes(ops, counter, ts);
                }
                None => stats.failed += 1,
            }
            done += 1;
            now = Instant::now();
        }
        stats.busy = now - start;
        stats
    }
}

/// What one phase measured, over all its clients.
pub struct Phase {
    pub clients: Vec<ClientStats>,
    limit: Option<Duration>,
}

impl Phase {
    pub fn sum(&self, field: impl Fn(&ClientStats) -> u64) -> u64 {
        self.clients.iter().map(field).sum()
    }

    pub fn commits(&self) -> u64 {
        self.sum(|c| c.commits)
    }

    pub fn attempted(&self) -> u64 {
        self.commits() + self.sum(|c| c.failed)
    }

    pub fn latency(&self) -> Histogram {
        let mut all = Histogram::default();
        for client in &self.clients {
            all.merge(&client.latency);
        }
        all
    }

    pub fn aborts(&self, class: usize) -> u64 {
        self.sum(|c| c.aborts[class])
    }

    pub fn first_error(&self) -> Option<&str> {
        self.clients.iter().find_map(|c| c.first_error.as_deref())
    }

    /// Commits per time slice, summed over clients.
    pub fn slice_commits(&self) -> Vec<u64> {
        (0..SLICES)
            .map(|i| self.clients.iter().map(|c| c.slices[i]).sum())
            .collect()
    }

    /// Committed transactions per second of wall time.
    pub fn mean_tps(&self) -> f64 {
        let wall = self
            .clients
            .iter()
            .map(|c| c.busy)
            .max()
            .unwrap_or_default();
        self.commits() as f64 / wall.as_secs_f64().max(1e-9)
    }

    /// Committed transactions per second: the median over the phase's time
    /// slices, so one scheduler hiccup or GC burst does not move the number.
    /// Falls back to the mean for count-bounded or cut-short phases.
    pub fn tps(&self) -> f64 {
        let Some(limit) = self.limit else {
            return self.mean_tps();
        };
        let shortest = self
            .clients
            .iter()
            .map(|c| c.busy)
            .min()
            .unwrap_or_default();
        if shortest < limit {
            return self.mean_tps();
        }
        let mut per_slice = self.slice_commits();
        per_slice.sort_unstable();
        let median = (per_slice[SLICES / 2 - 1] + per_slice[SLICES / 2]) as f64 / 2.0;
        median / (limit.as_secs_f64() / SLICES as f64)
    }
}

/// Runs one phase on `clients`, all starting together.
pub fn run_phase<S: Session, T: Tracer + Send>(
    clients: &mut [Client<S>],
    tracers: &mut [T],
    stop: Stop,
) -> Phase {
    let barrier = Barrier::new(clients.len());
    let halt = AtomicBool::new(false);
    let stats = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(tracers.iter_mut())
            .map(|(client, tracer)| {
                let (barrier, halt) = (&barrier, &halt);
                scope.spawn(move || {
                    barrier.wait();
                    client.run(tracer, stop, halt)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Phase {
        clients: stats,
        limit: match stop {
            Stop::Count(_) => None,
            Stop::After(limit) => Some(limit),
        },
    }
}

pub fn untraced(n: usize) -> Vec<NoTrace> {
    (0..n).map(|_| NoTrace).collect()
}

/// A set-up instance of one workload: the program (engine or server), the
/// loader session that preloaded it, and the warmed-up clients.
pub struct Rig<T: Target> {
    pub clients: Vec<Client<T::S>>,
    loader: Client<T::Loader>,
    // Declared last: sessions (connections) close before the program stops.
    target: T,
}

/// Builds the program from `spec`, preloads every key, generates each
/// client's templates from `(seed, name, client)` and runs `warmup`
/// transactions per client. All of this is `setup_s`.
pub fn setup<T: Target>(
    name: &str,
    spec: &str,
    load: &Load,
    seed: u64,
    clients: usize,
    warmup: u64,
) -> Result<Rig<T>, String> {
    let target = T::open(spec)?;
    let none = Arc::new(Templates::none());
    let mut loader = Client::new(LOADER, target.loader(LOADER)?, none, load.keys);
    let mut stats = ClientStats::default();
    for batch in Templates::preload(load.keys, PRELOAD_BATCH) {
        let (counter, ts) = loader
            .txn(&batch, &mut NoTrace, &mut stats)
            .ok_or_else(|| format!("preload failed: {:?}", stats.first_error))?;
        loader.note_writes(&batch, counter, ts);
    }
    let mut rig = Rig {
        clients: Vec::with_capacity(clients),
        loader,
        target,
    };
    for id in 0..clients as u32 {
        let templates = Arc::new(Templates::generate(load, seed, name, id, POOL));
        let session = rig.target.session(id + 1)?;
        rig.clients
            .push(Client::new(id, session, templates, load.keys));
    }
    let phase = run_phase(
        &mut rig.clients,
        &mut untraced(clients),
        Stop::Count(warmup),
    );
    match phase.first_error() {
        Some(err) => Err(format!("warm-up failed: {err}")),
        None => Ok(rig),
    }
}

/// Result of the output check: keys read back and keys holding a wrong value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checked {
    pub keys: u64,
    pub wrong: u64,
}

/// Reads every key back and compares it with the write that has the largest
/// commit timestamp among all clients' committed writes to that key.
pub fn verify<S: Session>(reader: &mut S, views: &[&[Last]]) -> Result<Checked, String> {
    let keys = views.first().map_or(0, |view| view.len()) as u32;
    let mut checked = Checked::default();
    let all: Vec<u32> = (0..keys).collect();
    for batch in all.chunks(VERIFY_BATCH) {
        let values = (0..MAX_ATTEMPTS)
            .find_map(|_| reader.read_all(batch).transpose())
            .ok_or_else(|| "read-back never committed".to_string())??;
        for (&key, value) in batch.iter().zip(values) {
            let expected = views
                .iter()
                .map(|view| view[key as usize])
                .max_by_key(|last| last.ts)
                .filter(|last| last.ts > Timestamp::ZERO)
                .map(|last| last.value);
            checked.keys += 1;
            if value != expected {
                checked.wrong += 1;
            }
        }
    }
    Ok(checked)
}

impl<T: Target> Rig<T> {
    pub fn stats(&mut self) -> Result<StoreStats, String> {
        self.loader.session.stats()
    }

    pub fn verify(&mut self) -> Result<Checked, String> {
        let Client { session, last, .. } = &mut self.loader;
        let views: Vec<&[Last]> = std::iter::once(&last[..])
            .chain(self.clients.iter().map(|c| &c.last[..]))
            .collect();
        verify(session, &views)
    }

    /// Stops the program and keeps every client's newest-write table (loader
    /// first), for a check that outlives it (`wal_commit` rebuilds the engine
    /// from its log).
    pub fn into_views(self) -> Vec<Vec<Last>> {
        std::iter::once(self.loader.last)
            .chain(self.clients.into_iter().map(|c| c.last))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::KeyDist;
    use crate::session::InProc;
    use crate::trace::SpanBuf;

    const LOAD: Load = Load {
        keys: 64,
        dist: KeyDist::Zipf(0.99),
        ops: 8,
        write_pct: 25,
    };
    const SPEC: &str = "mvtil-early?delta=1000&gc_ms=50&gc_lag_ms=50";

    #[test]
    fn contended_clients_commit_everything_and_the_output_check_passes() {
        let mut rig = setup::<InProc>("t", SPEC, &LOAD, 1, 2, 200).unwrap();
        let phase = run_phase(&mut rig.clients, &mut untraced(2), Stop::Count(2000));
        assert_eq!(phase.commits(), 4000);
        assert_eq!(phase.sum(|c| c.failed), 0);
        assert!(phase.sum(|c| c.attempts) >= 4000);
        assert_eq!(phase.latency().count(), 4000);
        assert_eq!(rig.verify().unwrap(), Checked { keys: 64, wrong: 0 });
    }

    #[test]
    fn the_output_check_catches_a_wrong_value() {
        let mut rig = setup::<InProc>("t", SPEC, &LOAD, 1, 1, 50).unwrap();
        rig.clients[0].last[3] = Last {
            value: 12345,
            ts: Timestamp::MAX,
        };
        assert_eq!(rig.verify().unwrap().wrong, 1);
    }

    #[test]
    fn a_timed_phase_stops_on_time_and_fills_its_slices() {
        let mut rig = setup::<InProc>("t", SPEC, &LOAD, 1, 1, 10).unwrap();
        let limit = Duration::from_millis(200);
        let phase = run_phase(&mut rig.clients, &mut untraced(1), Stop::After(limit));
        assert!(phase.clients[0].busy >= limit);
        assert!(phase.clients[0].busy < limit * 3);
        assert!(phase.tps() > 0.0 && phase.mean_tps() > 0.0);
    }

    #[test]
    fn a_full_span_buffer_ends_the_traced_phase_for_every_client() {
        let mut rig = setup::<InProc>("t", SPEC, &LOAD, 1, 2, 10).unwrap();
        let epoch = Instant::now();
        let mut tracers: Vec<SpanBuf> = (0..2).map(|_| SpanBuf::new(epoch, 4096, 512)).collect();
        let phase = run_phase(
            &mut rig.clients,
            &mut tracers,
            Stop::After(Duration::from_secs(30)),
        );
        assert!(phase
            .clients
            .iter()
            .all(|c| c.busy < Duration::from_secs(10)));
        let recorded: Vec<usize> = tracers.into_iter().map(|t| t.into_spans().len()).collect();
        assert!(recorded.iter().all(|n| *n <= 4096), "{recorded:?}");
        assert!(recorded.iter().any(|n| *n > 4096 - 512), "{recorded:?}");
    }
}
