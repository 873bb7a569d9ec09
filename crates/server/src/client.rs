//! Client side of the serve-path: a framed connection, a pipelined
//! whole-transaction fast path, and a [`RemoteEngine`] adapter that puts the
//! server behind the ordinary [`Engine`] trait so every in-process consumer —
//! the verifier's `replay`, the workload runner, the GC driver — works over
//! TCP unchanged.

use crate::wire::{
    self, decode_response, push_frame, read_frame, write_frame, Request, Response, WireError,
    DEFAULT_MAX_FRAME,
};
use mvtl_common::{CommitInfo, Engine, Key, ProcessId, StoreStats, Timestamp, TxError, TxHandle};
use parking_lot::Mutex;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU32, Ordering};

/// A framed client connection: handshake state plus buffered reader/writer
/// halves of one [`TcpStream`].
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    engine_name: String,
    engine_spec: String,
    max_frame: u32,
}

impl Connection {
    /// Connects to a serve-path endpoint and consumes its hello frame.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the connection fails or the handshake is
    /// not a valid MVTL hello of the supported wire version.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Connection, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        let mut conn = Connection {
            reader,
            writer,
            engine_name: String::new(),
            engine_spec: String::new(),
            max_frame: DEFAULT_MAX_FRAME,
        };
        let hello = read_frame(&mut conn.reader, conn.max_frame)?;
        let (name, spec) = wire::decode_hello(&hello)?;
        conn.engine_name = name;
        conn.engine_spec = spec;
        Ok(conn)
    }

    /// The engine name the server reported in its hello frame.
    #[must_use]
    pub fn engine_name(&self) -> &str {
        &self.engine_name
    }

    /// The engine spec the server reported in its hello frame.
    #[must_use]
    pub fn engine_spec(&self) -> &str {
        &self.engine_spec
    }

    /// Sends one request and waits for its response (one round trip).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on stream failure or a malformed response.
    pub fn request(&mut self, req: &Request) -> Result<Response, WireError> {
        write_frame(&mut self.writer, &wire::encode_request(req))?;
        self.writer.flush()?;
        let payload = read_frame(&mut self.reader, self.max_frame)?;
        decode_response(&payload)
    }

    /// Sends every request in one write, then reads exactly one response per
    /// request, in order: a whole transaction (begin + operations + commit)
    /// costs one round trip instead of one per operation. Once an operation
    /// aborts the transaction server-side, the server answers the remaining
    /// frames for that id with `Finished`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on stream failure or a malformed response.
    pub fn pipeline(&mut self, reqs: &[Request]) -> Result<Vec<Response>, WireError> {
        let mut buf = Vec::with_capacity(reqs.len() * 32);
        for req in reqs {
            push_frame(&mut buf, &wire::encode_request(req));
        }
        self.writer.write_all(&buf)?;
        self.writer.flush()?;
        let mut responses = Vec::with_capacity(reqs.len());
        for _ in reqs {
            let payload = read_frame(&mut self.reader, self.max_frame)?;
            responses.push(decode_response(&payload)?);
        }
        Ok(responses)
    }

    /// Samples the server engine's [`StoreStats`] (one round trip).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on stream failure or an unexpected response.
    pub fn stats(&mut self) -> Result<StoreStats, WireError> {
        match self.request(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            _ => Err(WireError::Malformed(
                "stats request got a non-stats response",
            )),
        }
    }
}

fn wire_to_tx_error(err: WireError) -> TxError {
    TxError::Internal(format!("serve-path connection failed: {err}"))
}

/// The server seen through the ordinary [`Engine`] trait: `begin_handle`
/// opens a server-side transaction, reads/writes are one round trip each, and
/// commit/abort finish it. Every in-process consumer of `dyn Engine<u64>` —
/// `mvtl_verify::replay`, the workload runner, examples — runs over TCP
/// unchanged, which is what the in-process/served equivalence test leans on.
///
/// Handles serialize on one shared connection, matching the engine layer's
/// `&self` concurrency contract; for throughput use one [`Connection`] per
/// worker and [`Connection::pipeline`], which sends a whole transaction in
/// one round trip instead of one per operation.
pub struct RemoteEngine {
    conn: Mutex<Connection>,
    /// Leaked once per connected engine: [`Engine::name`] returns
    /// `&'static str`, and the name only becomes known at handshake time.
    name: &'static str,
    next_txn: AtomicU32,
}

impl RemoteEngine {
    /// Connects and handshakes.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the connection or handshake fails.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<RemoteEngine, WireError> {
        let conn = Connection::connect(addr)?;
        let name = Box::leak(conn.engine_name().to_string().into_boxed_str());
        Ok(RemoteEngine {
            conn: Mutex::named("server.client.conn", 20, conn),
            name,
            next_txn: AtomicU32::new(0),
        })
    }

    /// The engine spec the server reported in its hello frame.
    #[must_use]
    pub fn engine_spec(&self) -> String {
        self.conn.lock().engine_spec().to_string()
    }

    fn roundtrip(&self, req: &Request) -> Result<Response, TxError> {
        self.conn.lock().request(req).map_err(wire_to_tx_error)
    }
}

/// One open server-side transaction driven through [`TxHandle`].
struct RemoteHandle<'e> {
    engine: &'e RemoteEngine,
    txn: u32,
    /// Set when `Begin` itself failed: every operation replays the error.
    broken: Option<TxError>,
}

impl RemoteHandle<'_> {
    fn op(&mut self, req: &Request) -> Result<Response, TxError> {
        if let Some(err) = &self.broken {
            return Err(err.clone());
        }
        let resp = self.engine.roundtrip(req)?;
        match resp.as_tx_error() {
            Some(err) => Err(err),
            None => Ok(resp),
        }
    }
}

impl TxHandle<u64> for RemoteHandle<'_> {
    fn read(&mut self, key: Key) -> Result<Option<u64>, TxError> {
        match self.op(&Request::Read { txn: self.txn, key })? {
            Response::Value(value) => Ok(value),
            _ => Err(TxError::Internal("read got a non-value response".into())),
        }
    }

    fn write(&mut self, key: Key, value: u64) -> Result<(), TxError> {
        match self.op(&Request::Write {
            txn: self.txn,
            key,
            value,
        })? {
            Response::Written => Ok(()),
            _ => Err(TxError::Internal("write got a non-ack response".into())),
        }
    }

    fn commit(mut self: Box<Self>) -> Result<CommitInfo, TxError> {
        match self.op(&Request::Commit { txn: self.txn })? {
            Response::Committed(info) => Ok(info),
            _ => Err(TxError::Internal("commit got a non-commit response".into())),
        }
    }

    fn abort(self: Box<Self>) {
        if self.broken.is_some() {
            return;
        }
        // Best-effort: if the operation that aborted the transaction already
        // tore it down server-side, this answers `Finished`, which is fine.
        let _ = self.engine.roundtrip(&Request::Abort { txn: self.txn });
    }
}

impl Engine<u64> for RemoteEngine {
    fn begin_handle(
        &self,
        process: ProcessId,
        pinned: Option<Timestamp>,
    ) -> Box<dyn TxHandle<u64> + '_> {
        let txn = self.next_txn.fetch_add(1, Ordering::Relaxed);
        let broken = match self.roundtrip(&Request::Begin {
            txn,
            process,
            pinned,
        }) {
            Ok(Response::Begun) => None,
            Ok(resp) => Some(
                resp.as_tx_error()
                    .unwrap_or_else(|| TxError::Internal("begin got a non-ack response".into())),
            ),
            Err(err) => Some(err),
        };
        Box::new(RemoteHandle {
            engine: self,
            txn,
            broken,
        })
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn stats(&self) -> StoreStats {
        self.conn.lock().stats().unwrap_or_default()
    }
}
