//! What a client drives: one attempt of one transaction template against the
//! program, either in-process through `dyn Engine` or over TCP through one
//! pipelined burst per attempt.
//!
//! This file and `harness.rs` are the end-to-end path. They touch only the
//! surface the program promises to keep: registry spec strings →
//! `mvtl_registry::build`, `Engine`/`EngineExt::begin`/`Transaction`, and
//! `Server::spawn` / `Connection::{connect, pipeline}` / `wire::Request`.

use crate::load::WRITE;
use crate::trace::{Name, Tracer};
use mvtl_common::{AbortReason, Engine, EngineExt, Key, ProcessId, StoreStats, Timestamp, TxError};
use mvtl_server::wire::{Request, Response};
use mvtl_server::{Connection, Server};
use std::sync::Arc;

/// Abort reasons as reported per 1000 commits.
pub const ABORT_CLASSES: [&str; 6] = [
    "no_common_ts",
    "write_conflict",
    "lock_timeout",
    "version_purged",
    "interval_exhausted",
    "other",
];

fn abort_class(reason: &AbortReason) -> usize {
    match reason {
        AbortReason::NoCommonTimestamp => 0,
        AbortReason::WriteConflict { .. } => 1,
        AbortReason::LockTimeout { .. } => 2,
        AbortReason::VersionPurged { .. } => 3,
        AbortReason::IntervalExhausted { .. } => 4,
        _ => 5,
    }
}

/// How one attempt ended. Anything else (`Err`) is a failed operation.
pub enum Attempt {
    Committed(Timestamp),
    /// Index into [`ABORT_CLASSES`].
    Aborted(usize),
}

/// The value the `index`-th operation of an attempt writes: unique per
/// (client, attempt, operation), so the output check can tell writes apart.
pub fn value_for(client: u32, counter: u64, index: usize) -> u64 {
    ((counter + index as u64) << 8) | u64::from(client)
}

pub fn classify(err: TxError) -> Result<Attempt, String> {
    match err {
        TxError::Aborted(reason) => Ok(Attempt::Aborted(abort_class(&reason))),
        other => Err(other.to_string()),
    }
}

pub fn committed(ts: Option<Timestamp>) -> Result<Attempt, String> {
    ts.map(Attempt::Committed)
        .ok_or_else(|| "commit reported no timestamp".to_string())
}

pub trait Session: Send {
    /// Runs `ops` (keys, [`WRITE`]-flagged) as one transaction attempt.
    fn attempt<T: Tracer>(
        &mut self,
        ops: &[u32],
        client: u32,
        counter: u64,
        tracer: &mut T,
    ) -> Result<Attempt, String>;

    /// Reads `keys` in one transaction; `None` when it aborted (retry).
    fn read_all(&mut self, keys: &[u32]) -> Result<Option<Vec<Option<u64>>>, String>;

    fn stats(&mut self) -> Result<StoreStats, String>;
}

/// Something sessions can be opened against; dropped when the run is over.
pub trait Target: Sized {
    type S: Session;
    /// What preloads the keys and reads them back; the same as `S` unless
    /// that would be needlessly slow (one round trip per key).
    type Loader: Session;
    fn open(spec: &str) -> Result<Self, String>;
    fn session(&self, process: u32) -> Result<Self::S, String>;
    fn loader(&self, process: u32) -> Result<Self::Loader, String>;
}

// --- in-process ------------------------------------------------------------

pub struct EngineSession {
    engine: Arc<dyn Engine<u64>>,
    process: ProcessId,
}

impl EngineSession {
    pub fn new(engine: Arc<dyn Engine<u64>>, process: u32) -> Self {
        EngineSession {
            engine,
            process: ProcessId(process),
        }
    }
}

impl Session for EngineSession {
    fn attempt<T: Tracer>(
        &mut self,
        ops: &[u32],
        client: u32,
        counter: u64,
        tracer: &mut T,
    ) -> Result<Attempt, String> {
        let span = tracer.open(Name::Begin);
        let mut tx = self.engine.begin(self.process);
        tracer.close(span);
        for (index, &op) in ops.iter().enumerate() {
            let key = Key(u64::from(op & !WRITE));
            let result = if op & WRITE != 0 {
                let span = tracer.open(Name::Write);
                let result = tx.write(key, value_for(client, counter, index));
                tracer.close(span);
                result
            } else {
                let span = tracer.open(Name::Read);
                let result = tx.read(key).map(|_| ());
                tracer.close(span);
                result
            };
            if let Err(err) = result {
                let span = tracer.open(Name::Abort);
                drop(tx);
                tracer.close(span);
                return classify(err);
            }
        }
        let span = tracer.open(Name::Commit);
        let result = tx.commit();
        tracer.close(span);
        match result {
            Ok(info) => committed(info.commit_ts),
            Err(err) => classify(err),
        }
    }

    fn read_all(&mut self, keys: &[u32]) -> Result<Option<Vec<Option<u64>>>, String> {
        let mut tx = self.engine.begin(self.process);
        let mut values = Vec::with_capacity(keys.len());
        for &key in keys {
            match tx.read(Key(u64::from(key))) {
                Ok(value) => values.push(value),
                Err(err) if err.is_abort() => return Ok(None),
                Err(err) => return Err(err.to_string()),
            }
        }
        match tx.commit() {
            Ok(_) => Ok(Some(values)),
            Err(err) if err.is_abort() => Ok(None),
            Err(err) => Err(err.to_string()),
        }
    }

    fn stats(&mut self) -> Result<StoreStats, String> {
        Ok(self.engine.stats())
    }
}

/// A registry-built engine driven in-process.
pub struct InProc(pub Arc<dyn Engine<u64>>);

impl Target for InProc {
    type S = EngineSession;
    type Loader = EngineSession;

    fn open(spec: &str) -> Result<Self, String> {
        let engine = mvtl_registry::build(spec).map_err(|e| format!("building {spec}: {e}"))?;
        Ok(InProc(Arc::from(engine)))
    }

    fn session(&self, process: u32) -> Result<EngineSession, String> {
        Ok(EngineSession::new(Arc::clone(&self.0), process))
    }

    fn loader(&self, process: u32) -> Result<EngineSession, String> {
        self.session(process)
    }
}

// --- served ----------------------------------------------------------------

pub struct ConnSession {
    conn: Connection,
    process: ProcessId,
    requests: Vec<Request>,
}

impl ConnSession {
    fn burst(&mut self) -> Result<Vec<Response>, String> {
        self.conn
            .pipeline(&self.requests)
            .map_err(|e| format!("pipeline failed: {e}"))
    }

    fn begin(&mut self) {
        self.requests.clear();
        self.requests.push(Request::Begin {
            txn: 1,
            process: self.process,
            pinned: None,
        });
    }
}

/// The first abort among `responses`, else an error for any unexpected one.
fn first_failure(responses: &[Response]) -> Result<Option<AbortReason>, String> {
    for response in responses {
        match response {
            Response::Aborted(reason) => return Ok(Some(reason.clone())),
            Response::Internal(msg) | Response::Protocol(msg) => return Err(msg.clone()),
            _ => {}
        }
    }
    Ok(None)
}

impl Session for ConnSession {
    fn attempt<T: Tracer>(
        &mut self,
        ops: &[u32],
        client: u32,
        counter: u64,
        tracer: &mut T,
    ) -> Result<Attempt, String> {
        self.begin();
        for (index, &op) in ops.iter().enumerate() {
            let key = Key(u64::from(op & !WRITE));
            self.requests.push(if op & WRITE != 0 {
                Request::Write {
                    txn: 1,
                    key,
                    value: value_for(client, counter, index),
                }
            } else {
                Request::Read { txn: 1, key }
            });
        }
        self.requests.push(Request::Commit { txn: 1 });
        let span = tracer.open(Name::Burst);
        let responses = self.burst();
        tracer.close(span);
        let responses = responses?;
        if let Some(reason) = first_failure(&responses)? {
            return Ok(Attempt::Aborted(abort_class(&reason)));
        }
        match responses.last() {
            Some(Response::Committed(info)) => committed(info.commit_ts),
            other => Err(format!("burst ended with {other:?}, not a commit")),
        }
    }

    fn read_all(&mut self, keys: &[u32]) -> Result<Option<Vec<Option<u64>>>, String> {
        self.begin();
        for &key in keys {
            self.requests.push(Request::Read {
                txn: 1,
                key: Key(u64::from(key)),
            });
        }
        self.requests.push(Request::Commit { txn: 1 });
        let responses = self.burst()?;
        if first_failure(&responses)?.is_some() {
            return Ok(None);
        }
        let values: Vec<Option<u64>> = responses
            .iter()
            .filter_map(|r| match r {
                Response::Value(v) => Some(*v),
                _ => None,
            })
            .collect();
        if values.len() != keys.len() {
            return Err(format!(
                "{} read responses for {} keys",
                values.len(),
                keys.len()
            ));
        }
        Ok(Some(values))
    }

    fn stats(&mut self) -> Result<StoreStats, String> {
        self.requests.clear();
        self.requests.push(Request::Stats);
        match self.burst()?.first() {
            Some(Response::Stats(stats)) => Ok(*stats),
            other => Err(format!("stats request answered with {other:?}")),
        }
    }
}

/// The same registry spec behind an in-process TCP server on loopback.
pub struct Served(pub Server);

impl Target for Served {
    type S = ConnSession;
    type Loader = ConnSession;

    fn open(spec: &str) -> Result<Self, String> {
        Server::spawn(spec, "127.0.0.1:0")
            .map(Served)
            .map_err(|e| format!("serving {spec}: {e}"))
    }

    fn session(&self, process: u32) -> Result<ConnSession, String> {
        let conn = Connection::connect(self.0.addr()).map_err(|e| format!("connecting: {e}"))?;
        Ok(ConnSession {
            conn,
            process: ProcessId(process),
            requests: Vec::with_capacity(32),
        })
    }

    fn loader(&self, process: u32) -> Result<ConnSession, String> {
        self.session(process)
    }
}
