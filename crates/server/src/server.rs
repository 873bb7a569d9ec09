//! The threaded TCP server fronting any registry-built engine.
//!
//! One accept thread plus one handler thread per connection. Every handler
//! owns a map of connection-local transaction ids to RAII
//! [`Transaction`] guards; when the handler exits —
//! clean disconnect, protocol violation, I/O error, or server shutdown — the
//! map drops and **every transaction the connection still had open aborts**,
//! releasing its lock-table entries. A crashed or misbehaving client can
//! therefore never leave locks held.
//!
//! The handler flushes its response buffer only when the request stream runs
//! dry, so a pipelining client ([`Connection::pipeline`](crate::Connection::pipeline)
//! sends a whole transaction in one write) pays one syscall round per burst,
//! not per request.

use crate::wire::{
    self, is_clean_eof, read_frame, write_frame, Request, Response, WireError, DEFAULT_MAX_FRAME,
};
use mvtl_common::{Engine, Transaction, TxError};
use mvtl_registry::{EngineSpec, SpecError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Server knobs, settable through `serve_`-prefixed spec parameters
/// (`"mvtil-early?serve_max_txns=64"`); see [`ServerConfig::from_spec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Cap on a request frame's declared payload length (`serve_max_frame`,
    /// bytes). Larger declarations are protocol errors, rejected before any
    /// allocation.
    pub max_frame: u32,
    /// Cap on concurrently open transactions per connection
    /// (`serve_max_txns`). Exceeding it is a protocol error.
    pub max_txns: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_frame: DEFAULT_MAX_FRAME,
            max_txns: 1024,
        }
    }
}

impl ServerConfig {
    /// Splits a full serve spec into the server configuration (from
    /// `serve_`-prefixed parameters) and the engine spec for
    /// `mvtl_registry::build`.
    ///
    /// Recognized parameters: `serve_max_frame` (bytes, > 0) and
    /// `serve_max_txns` (> 0). Accepted connections always set `TCP_NODELAY`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when the spec is malformed or a `serve_`
    /// parameter is unknown or has an invalid value. Engine-side parameters
    /// are *not* validated here — the registry does that when the engine is
    /// built.
    pub fn from_spec(spec: &str) -> Result<(ServerConfig, String), SpecError> {
        let (params, engine_spec) = EngineSpec::split_prefixed(spec, "serve_")?;
        let mut config = ServerConfig::default();
        for (key, value) in params {
            let invalid = || SpecError::InvalidValue {
                param: format!("serve_{key}"),
                value: value.clone(),
            };
            match key.as_str() {
                "max_frame" => {
                    config.max_frame = value.parse().ok().filter(|v| *v > 0).ok_or_else(invalid)?;
                }
                "max_txns" => {
                    config.max_txns = value.parse().ok().filter(|v| *v > 0).ok_or_else(invalid)?;
                }
                _ => {
                    return Err(SpecError::UnknownParam {
                        engine: "serve".to_string(),
                        param: format!("serve_{key}"),
                    })
                }
            }
        }
        Ok((config, engine_spec))
    }
}

/// A running serve-path: a bound listener, its accept thread, and one handler
/// thread per live connection. Dropping the server stops accepting, shuts
/// down every connection (aborting its open transactions), and joins all
/// threads.
pub struct Server {
    addr: SocketAddr,
    engine_spec: String,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

/// State shared between the accept thread and the server handle.
struct Shared {
    /// Live connection streams (for shutdown) and finished handler handles.
    connections: Mutex<Vec<(TcpStream, JoinHandle<()>)>>,
}

impl Server {
    /// Builds the engine named by `spec` (any `mvtl-registry` spec, plus the
    /// `serve_` parameters of [`ServerConfig::from_spec`]) and serves it on
    /// `addr`. Pass port 0 to bind an ephemeral port; [`Server::addr`]
    /// reports the bound address.
    ///
    /// # Errors
    ///
    /// Returns an error when the spec fails to parse/build or the listener
    /// cannot bind.
    pub fn spawn(spec: &str, addr: &str) -> Result<Server, Box<dyn std::error::Error>> {
        let (config, engine_spec) = ServerConfig::from_spec(spec)?;
        let engine: Arc<dyn Engine<u64>> = Arc::from(mvtl_registry::build(&engine_spec)?);
        let listener = TcpListener::bind(addr)?;
        Ok(Self::serve(listener, engine, engine_spec, config)?)
    }

    /// Serves an already-built engine on an already-bound listener. The
    /// handshake reports `engine_spec` to clients verbatim.
    ///
    /// # Errors
    ///
    /// Returns an error when the listener cannot report its bound address.
    pub fn serve(
        listener: TcpListener,
        engine: Arc<dyn Engine<u64>>,
        engine_spec: String,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            connections: Mutex::named("server.connections", 10, Vec::new()),
        });
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let shared = Arc::clone(&shared);
            let spec = engine_spec.clone();
            std::thread::spawn(move || {
                accept_loop(&listener, &engine, &spec, &config, &stop, &shared);
            })
        };
        Ok(Server {
            addr,
            engine_spec,
            stop,
            accept_thread: Some(accept_thread),
            shared,
        })
    }

    /// The address the server is listening on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine spec the server was built from (also sent in the
    /// handshake).
    #[must_use]
    pub fn engine_spec(&self) -> &str {
        &self.engine_spec
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection; it re-checks
        // the stop flag before handling anything.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // Shut down every live connection; their handlers drop the
        // transaction maps (aborting open transactions) and exit.
        let connections = std::mem::take(&mut *self.shared.connections.lock());
        for (stream, handle) in connections {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            let _ = handle.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    engine: &Arc<dyn Engine<u64>>,
    engine_spec: &str,
    config: &ServerConfig,
    stop: &Arc<AtomicBool>,
    shared: &Arc<Shared>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        let Ok(peer) = stream.try_clone() else {
            continue;
        };
        let handle = {
            let engine = Arc::clone(engine);
            let spec = engine_spec.to_string();
            let config = config.clone();
            std::thread::spawn(move || {
                // All exits (clean EOF, protocol error, shutdown) funnel
                // through handle_connection's return; the transaction map is
                // local to it, so the RAII aborts happen before the thread
                // dies.
                let socket = stream.try_clone();
                let _ = handle_connection(stream, engine.as_ref(), &spec, &config);
                // Actively shut the socket down: the registry above holds its
                // own clone (for Drop), and a lingering clone would keep the
                // connection open — the peer would never see EOF after a
                // protocol-violation close.
                if let Ok(socket) = socket {
                    let _ = socket.shutdown(std::net::Shutdown::Both);
                }
            })
        };
        shared.connections.lock().push((peer, handle));
        // Opportunistically reap finished handlers so a long-lived server
        // does not accumulate one parked JoinHandle per past connection.
        shared
            .connections
            .lock()
            .retain(|(_, handle)| !handle.is_finished());
    }
}

/// Outcome classification of one request: whether the connection can go on.
enum Flow {
    Continue,
    /// A protocol violation was answered; close the connection.
    Close,
}

fn handle_connection(
    stream: TcpStream,
    engine: &dyn Engine<u64>,
    engine_spec: &str,
    config: &ServerConfig,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    // The per-connection transaction table. Dropping it — on ANY exit path —
    // aborts every open transaction through the Transaction RAII guard.
    let mut txns: HashMap<u32, Transaction<'_, u64>> = HashMap::new();

    write_frame(&mut writer, &wire::encode_hello(engine.name(), engine_spec))?;
    writer.flush()?;

    loop {
        let payload = match read_frame(&mut reader, config.max_frame) {
            Ok(payload) => payload,
            Err(err) if is_clean_eof(&err) => return Ok(()),
            Err(WireError::Io(err)) => return Err(err),
            Err(err) => {
                // Oversized declared length or garbage framing: tell the
                // peer why, then hang up (dropping `txns` aborts everything).
                respond(&mut writer, &Response::Protocol(err.to_string()))?;
                return Ok(());
            }
        };
        let flow = match wire::decode_request(&payload) {
            Ok(request) => handle_request(engine, config, &mut txns, request, &mut writer)?,
            Err(err) => {
                respond(&mut writer, &Response::Protocol(err.to_string()))?;
                Flow::Close
            }
        };
        if matches!(flow, Flow::Close) {
            return Ok(());
        }
        // Flush once the pipelined burst is fully consumed — before the next
        // read_frame blocks on the socket, or the client would wait forever
        // for responses sitting in this buffer. One syscall per burst, not
        // per request.
        if reader.buffer().is_empty() {
            writer.flush()?;
        }
    }
}

fn respond<W: Write>(writer: &mut W, response: &Response) -> io::Result<()> {
    write_frame(writer, &wire::encode_response(response))?;
    writer.flush()
}

fn error_response(err: TxError) -> Response {
    match err {
        TxError::Aborted(reason) => Response::Aborted(reason),
        TxError::TransactionFinished => Response::Finished,
        TxError::Internal(msg) => Response::Internal(msg),
    }
}

fn handle_request<'e, W: Write>(
    engine: &'e dyn Engine<u64>,
    config: &ServerConfig,
    txns: &mut HashMap<u32, Transaction<'e, u64>>,
    request: Request,
    writer: &mut W,
) -> io::Result<Flow> {
    let response = match request {
        Request::Begin {
            txn,
            process,
            pinned,
        } => {
            if txns.contains_key(&txn) {
                let resp = Response::Protocol(format!("begin: transaction {txn} already live"));
                write_frame(writer, &wire::encode_response(&resp))?;
                writer.flush()?;
                return Ok(Flow::Close);
            }
            if txns.len() >= config.max_txns {
                let resp = Response::Protocol(format!(
                    "begin: connection exceeds {} open transactions",
                    config.max_txns
                ));
                write_frame(writer, &wire::encode_response(&resp))?;
                writer.flush()?;
                return Ok(Flow::Close);
            }
            let guard = Transaction::from_handle(engine.begin_handle(process, pinned));
            txns.insert(txn, guard);
            Response::Begun
        }
        Request::Read { txn, key } => match txns.get_mut(&txn) {
            None => Response::Finished,
            Some(tx) => match tx.read(key) {
                Ok(value) => Response::Value(value),
                Err(err) => {
                    // The engine aborted the transaction: tear the guard down
                    // now (RAII abort) so its locks release immediately, and
                    // answer later pipelined frames for this id with Finished.
                    txns.remove(&txn);
                    error_response(err)
                }
            },
        },
        Request::Write { txn, key, value } => match txns.get_mut(&txn) {
            None => Response::Finished,
            Some(tx) => match tx.write(key, value) {
                Ok(()) => Response::Written,
                Err(err) => {
                    txns.remove(&txn);
                    error_response(err)
                }
            },
        },
        Request::Commit { txn } => match txns.remove(&txn) {
            None => Response::Finished,
            Some(tx) => match tx.commit() {
                Ok(info) => Response::Committed(info),
                Err(err) => error_response(err),
            },
        },
        Request::Abort { txn } => match txns.remove(&txn) {
            None => Response::Finished,
            Some(tx) => {
                tx.abort();
                Response::AbortAck
            }
        },
        Request::Stats => Response::Stats(engine.stats()),
    };
    write_frame(writer, &wire::encode_response(&response))?;
    Ok(Flow::Continue)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_from_spec_splits_serve_params() {
        let (config, engine) =
            ServerConfig::from_spec("mvtil-early?delta=500&serve_max_txns=7").unwrap();
        assert_eq!(config.max_txns, 7);
        assert_eq!(config.max_frame, DEFAULT_MAX_FRAME);
        assert_eq!(engine, "mvtil-early?delta=500");

        let (config, engine) = ServerConfig::from_spec("sharded?shards=2").unwrap();
        assert_eq!(config, ServerConfig::default());
        assert_eq!(engine, "sharded?shards=2");
    }

    #[test]
    fn config_rejects_bad_serve_params() {
        assert!(matches!(
            ServerConfig::from_spec("mvtil-early?serve_max_txns=0"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            ServerConfig::from_spec("mvtil-early?serve_max_frame=banana"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            ServerConfig::from_spec("mvtil-early?serve_frobnicate=1"),
            Err(SpecError::UnknownParam { .. })
        ));
    }

    #[test]
    fn spawn_rejects_engine_spec_errors() {
        assert!(Server::spawn("no-such-engine", "127.0.0.1:0").is_err());
        assert!(Server::spawn("mvtil-early?delta=banana", "127.0.0.1:0").is_err());
    }
}
