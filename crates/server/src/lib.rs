//! TCP serve-path for the MVTL engines.
//!
//! Everything measured so far in this workspace is in-process and
//! closed-loop. This crate adds the missing production-shaped path:
//!
//! * [`wire`] — a small length-prefixed binary protocol (no crates.io
//!   dependencies): an engine-spec handshake plus
//!   begin/read/write/read_many/write_many/commit/abort/stats frames.
//! * [`server`] — a threaded TCP server fronting any registry-built
//!   `dyn Engine<u64>`. One handler thread per connection; the handler's
//!   per-connection transaction table holds RAII guards, so a disconnect (or
//!   any error path) aborts every transaction the connection left open and
//!   releases its locks.
//! * [`client`] — a framed [`Connection`] with a pipelined
//!   whole-transaction fast path, and [`RemoteEngine`], which implements
//!   [`Engine`](mvtl_common::Engine) so the verifier's replay and every other
//!   `dyn Engine` consumer runs over TCP unchanged.
//!
//! ```no_run
//! use mvtl_server::{RemoteEngine, Server};
//!
//! let server = Server::spawn("mvtil-early", "127.0.0.1:0")?;
//! let engine = RemoteEngine::connect(server.addr())?;
//! println!("connected to {}", engine.engine_spec());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod server;
pub mod wire;

pub use client::{Connection, RemoteEngine};
pub use server::{Server, ServerConfig};
pub use wire::WireError;
