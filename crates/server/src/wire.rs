//! The length-prefixed binary wire protocol of the serve-path.
//!
//! Every message is one **frame**: a little-endian `u32` payload length
//! followed by exactly that many payload bytes. The payload layouts:
//!
//! ```text
//! hello    (server → client, once per connection)
//!   [magic: u32 = "MVTL"] [version: u16] [name_len: u16] [name bytes]
//!   [spec_len: u16] [spec bytes]
//!
//! request  (client → server)
//!   [opcode: u8] [txn: u32] [body ...]
//!
//! response (server → client, one per request, in request order)
//!   [status: u8] [body ...]
//! ```
//!
//! All integers are little-endian; there is no padding. Strings are UTF-8
//! with a `u16` byte-length prefix. The protocol carries `u64` values — the
//! value type of every benchmark and of the verifier.
//!
//! Decoding is strict: a body that is shorter or longer than its opcode
//! demands, an unknown opcode, or a declared frame length above the
//! receiver's cap is a [`WireError`], and the server answers with a
//! [`Response::Protocol`] frame before closing the connection (which aborts
//! every transaction the connection still had open — the RAII drop path).

use mvtl_common::{AbortReason, CommitInfo, Key, ProcessId, StoreStats, Timestamp, TxError, TxId};
use std::io::{self, Read, Write};

/// Magic number opening the hello frame (`b"MVTL"` little-endian).
pub const MAGIC: u32 = u32::from_le_bytes(*b"MVTL");
/// Version of the wire protocol. Bump on any incompatible layout change.
pub const WIRE_VERSION: u16 = 2;
/// Default cap on a frame's declared payload length. A peer declaring more is
/// a protocol error — the receiver never allocates the declared amount first.
pub const DEFAULT_MAX_FRAME: u32 = 256 * 1024;

// Request opcodes.
const OP_BEGIN: u8 = 1;
const OP_READ: u8 = 2;
const OP_WRITE: u8 = 3;
// 4 and 5 were the batched read/write of version 1: retired, never reused.
const OP_COMMIT: u8 = 6;
const OP_ABORT: u8 = 7;
const OP_STATS: u8 = 8;

// Response status bytes. 0x00..=0x3F acknowledge success; 0x40.. report
// failures.
const ST_BEGUN: u8 = 0x00;
const ST_VALUE: u8 = 0x01;
const ST_WRITTEN: u8 = 0x02;
const ST_COMMITTED: u8 = 0x04;
const ST_ABORT_ACK: u8 = 0x05;
const ST_STATS: u8 = 0x06;
const ST_ABORTED: u8 = 0x40;
const ST_FINISHED: u8 = 0x41;
const ST_INTERNAL: u8 = 0x42;
const ST_PROTOCOL: u8 = 0x43;

/// Errors arising while encoding or decoding frames.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed (includes clean EOF mid-frame).
    Io(io::Error),
    /// The peer declared a frame longer than the local cap.
    FrameTooLarge {
        /// Length the peer declared.
        declared: u32,
        /// The local cap it exceeded.
        max: u32,
    },
    /// A payload did not match the layout its opcode/status demands.
    Malformed(&'static str),
    /// The hello frame did not carry the expected magic/version.
    BadHandshake(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::FrameTooLarge { declared, max } => {
                write!(f, "declared frame length {declared} exceeds cap {max}")
            }
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::BadHandshake(what) => write!(f, "bad handshake: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Whether the error is a clean end-of-stream before any frame byte arrived
/// (a peer hanging up between requests, which is not a protocol violation).
#[must_use]
pub fn is_clean_eof(err: &WireError) -> bool {
    matches!(err, WireError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof)
}

/// One client request. `txn` is a connection-local transaction id chosen by
/// the client; the server keeps one RAII transaction guard per live id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Opens transaction `txn` on behalf of `process`, optionally pinning the
    /// clock reading it observes (used by schedule replays).
    Begin {
        /// Connection-local transaction id (must not be live).
        txn: u32,
        /// Process id the engine attributes the transaction to.
        process: ProcessId,
        /// Optional pinned clock reading.
        pinned: Option<Timestamp>,
    },
    /// Reads `key` within transaction `txn`.
    Read {
        /// Transaction id.
        txn: u32,
        /// Key to read.
        key: Key,
    },
    /// Writes `value` to `key` within transaction `txn`.
    Write {
        /// Transaction id.
        txn: u32,
        /// Key to write.
        key: Key,
        /// Value to install on commit.
        value: u64,
    },
    /// Commits transaction `txn`, returning its [`CommitInfo`].
    Commit {
        /// Transaction id.
        txn: u32,
    },
    /// Aborts transaction `txn` explicitly.
    Abort {
        /// Transaction id.
        txn: u32,
    },
    /// Samples the engine's [`StoreStats`] (no transaction involved).
    Stats,
}

/// One server response. Success statuses mirror the request kinds so a
/// pipelining client can match responses to requests positionally *and*
/// sanity-check the kind.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `Begin` succeeded.
    Begun,
    /// `Read` succeeded; `None` is the initial `⊥` version.
    Value(Option<u64>),
    /// `Write` succeeded.
    Written,
    /// `Commit` succeeded.
    Committed(CommitInfo),
    /// `Abort` was applied.
    AbortAck,
    /// `Stats` result.
    Stats(StoreStats),
    /// The operation aborted the transaction (which the server has already
    /// cleaned up — the id is no longer live).
    Aborted(AbortReason),
    /// The operation referenced a transaction id that is not live (never
    /// begun, already finished, or torn down by an earlier abort).
    Finished,
    /// An engine invariant violation (a bug, not a normal abort).
    Internal(String),
    /// The request violated the protocol; the server closes the connection
    /// right after sending this.
    Protocol(String),
}

impl Response {
    /// Converts an error response back into the [`TxError`] the engine would
    /// have produced in-process. Success responses return `None`.
    #[must_use]
    pub fn as_tx_error(&self) -> Option<TxError> {
        match self {
            Response::Aborted(reason) => Some(TxError::Aborted(reason.clone())),
            Response::Finished => Some(TxError::TransactionFinished),
            Response::Internal(msg) => Some(TxError::Internal(msg.clone())),
            Response::Protocol(msg) => Some(TxError::Internal(format!("protocol error: {msg}"))),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Little-endian primitives
// ---------------------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = u16::try_from(bytes.len()).unwrap_or(u16::MAX);
    put_u16(buf, len);
    buf.extend_from_slice(&bytes[..usize::from(len)]);
}

/// A strict cursor over a payload: every take checks the remaining length and
/// [`Cursor::finish`] rejects trailing garbage.
struct Cursor<'a> {
    data: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.data.len() < n {
            return Err(WireError::Malformed("payload shorter than declared"));
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Like [`Cursor::take`], but returns a fixed-size array (for the
    /// `from_le_bytes` decoders) without any fallible re-slicing.
    fn take_n<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take_n()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take_n()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take_n()?))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = usize::from(self.u16()?);
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("string field is not UTF-8"))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.data.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed("payload longer than its layout"))
        }
    }
}

fn put_timestamp(buf: &mut Vec<u8>, ts: Timestamp) {
    put_u64(buf, ts.value);
    put_u32(buf, ts.process);
}

fn take_timestamp(cur: &mut Cursor<'_>) -> Result<Timestamp, WireError> {
    let value = cur.u64()?;
    let process = cur.u32()?;
    Ok(Timestamp { value, process })
}

// ---------------------------------------------------------------------------
// Frame transport
// ---------------------------------------------------------------------------

/// Appends one frame (`u32` length + payload) to `buf`. Used by pipelining
/// clients to pack a whole transaction into a single write.
pub fn push_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    put_u32(buf, payload.len() as u32);
    buf.extend_from_slice(payload);
}

/// Writes one frame to `w` (without flushing).
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one frame from `r`, enforcing the payload-length cap *before*
/// allocating anything.
///
/// # Errors
///
/// Returns [`WireError::FrameTooLarge`] when the declared length exceeds
/// `max`, or [`WireError::Io`] on stream failure (including EOF; use
/// [`is_clean_eof`] to distinguish a hang-up between frames).
pub fn read_frame<R: Read>(r: &mut R, max: u32) -> Result<Vec<u8>, WireError> {
    let mut header = [0u8; 4];
    r.read_exact(&mut header)?;
    let declared = u32::from_le_bytes(header);
    if declared > max {
        return Err(WireError::FrameTooLarge { declared, max });
    }
    let mut payload = vec![0u8; declared as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Hello
// ---------------------------------------------------------------------------

/// Encodes the hello payload the server sends right after accepting.
#[must_use]
pub fn encode_hello(engine_name: &str, engine_spec: &str) -> Vec<u8> {
    let mut buf = Vec::with_capacity(12 + engine_name.len() + engine_spec.len());
    put_u32(&mut buf, MAGIC);
    put_u16(&mut buf, WIRE_VERSION);
    put_str(&mut buf, engine_name);
    put_str(&mut buf, engine_spec);
    buf
}

/// Decodes a hello payload into `(engine_name, engine_spec)`.
///
/// # Errors
///
/// Returns [`WireError::BadHandshake`] on a wrong magic or version, and
/// [`WireError::Malformed`] on layout violations.
pub fn decode_hello(payload: &[u8]) -> Result<(String, String), WireError> {
    let mut cur = Cursor::new(payload);
    let magic = cur.u32()?;
    if magic != MAGIC {
        return Err(WireError::BadHandshake(format!(
            "magic {magic:#x} is not {MAGIC:#x}"
        )));
    }
    let version = cur.u16()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadHandshake(format!(
            "wire version {version} is not {WIRE_VERSION}"
        )));
    }
    let name = cur.str()?;
    let spec = cur.str()?;
    cur.finish()?;
    Ok((name, spec))
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Encodes a request payload.
#[must_use]
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    match req {
        Request::Begin {
            txn,
            process,
            pinned,
        } => {
            buf.push(OP_BEGIN);
            put_u32(&mut buf, *txn);
            put_u32(&mut buf, process.0);
            match pinned {
                None => buf.push(0),
                Some(ts) => {
                    buf.push(1);
                    put_timestamp(&mut buf, *ts);
                }
            }
        }
        Request::Read { txn, key } => {
            buf.push(OP_READ);
            put_u32(&mut buf, *txn);
            put_u64(&mut buf, key.0);
        }
        Request::Write { txn, key, value } => {
            buf.push(OP_WRITE);
            put_u32(&mut buf, *txn);
            put_u64(&mut buf, key.0);
            put_u64(&mut buf, *value);
        }
        Request::Commit { txn } => {
            buf.push(OP_COMMIT);
            put_u32(&mut buf, *txn);
        }
        Request::Abort { txn } => {
            buf.push(OP_ABORT);
            put_u32(&mut buf, *txn);
        }
        Request::Stats => {
            buf.push(OP_STATS);
            put_u32(&mut buf, 0);
        }
    }
    buf
}

/// Decodes a request payload (strict: trailing bytes are rejected).
///
/// # Errors
///
/// Returns [`WireError::Malformed`] on unknown opcodes or layout violations.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut cur = Cursor::new(payload);
    let opcode = cur.u8()?;
    let txn = cur.u32()?;
    let req = match opcode {
        OP_BEGIN => {
            let process = ProcessId(cur.u32()?);
            let pinned = match cur.u8()? {
                0 => None,
                1 => Some(take_timestamp(&mut cur)?),
                _ => return Err(WireError::Malformed("pinned flag is not 0/1")),
            };
            Request::Begin {
                txn,
                process,
                pinned,
            }
        }
        OP_READ => Request::Read {
            txn,
            key: Key(cur.u64()?),
        },
        OP_WRITE => Request::Write {
            txn,
            key: Key(cur.u64()?),
            value: cur.u64()?,
        },
        OP_COMMIT => Request::Commit { txn },
        OP_ABORT => Request::Abort { txn },
        OP_STATS => Request::Stats,
        _ => return Err(WireError::Malformed("unknown request opcode")),
    };
    cur.finish()?;
    Ok(req)
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

fn put_abort_reason(buf: &mut Vec<u8>, reason: &AbortReason) {
    match reason {
        AbortReason::NoCommonTimestamp => buf.push(0),
        AbortReason::WriteConflict { key } => {
            buf.push(1);
            put_u64(buf, key.0);
        }
        AbortReason::LockTimeout { key } => {
            buf.push(2);
            put_u64(buf, key.0);
        }
        AbortReason::VersionPurged { key, below } => {
            buf.push(3);
            put_u64(buf, key.0);
            put_timestamp(buf, *below);
        }
        AbortReason::CommitmentDecidedAbort => buf.push(4),
        AbortReason::UserRequested => buf.push(5),
        AbortReason::IntervalExhausted { key } => {
            buf.push(6);
            put_u64(buf, key.0);
        }
        AbortReason::PrepareTimedOut { shard } => {
            buf.push(7);
            put_u32(buf, *shard);
        }
        AbortReason::ParticipantCrashed { shard } => {
            buf.push(8);
            put_u32(buf, *shard);
        }
    }
}

fn take_abort_reason(cur: &mut Cursor<'_>) -> Result<AbortReason, WireError> {
    Ok(match cur.u8()? {
        0 => AbortReason::NoCommonTimestamp,
        1 => AbortReason::WriteConflict {
            key: Key(cur.u64()?),
        },
        2 => AbortReason::LockTimeout {
            key: Key(cur.u64()?),
        },
        3 => AbortReason::VersionPurged {
            key: Key(cur.u64()?),
            below: take_timestamp(cur)?,
        },
        4 => AbortReason::CommitmentDecidedAbort,
        5 => AbortReason::UserRequested,
        6 => AbortReason::IntervalExhausted {
            key: Key(cur.u64()?),
        },
        7 => AbortReason::PrepareTimedOut { shard: cur.u32()? },
        8 => AbortReason::ParticipantCrashed { shard: cur.u32()? },
        _ => return Err(WireError::Malformed("unknown abort-reason code")),
    })
}

/// Encodes a response payload.
#[must_use]
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16);
    match resp {
        Response::Begun => buf.push(ST_BEGUN),
        Response::Value(value) => {
            buf.push(ST_VALUE);
            match value {
                None => buf.push(0),
                Some(v) => {
                    buf.push(1);
                    put_u64(&mut buf, *v);
                }
            }
        }
        Response::Written => buf.push(ST_WRITTEN),
        Response::Committed(info) => {
            buf.push(ST_COMMITTED);
            put_u64(&mut buf, info.tx.0);
            match info.commit_ts {
                None => buf.push(0),
                Some(ts) => {
                    buf.push(1);
                    put_timestamp(&mut buf, ts);
                }
            }
            put_u32(&mut buf, info.reads.len() as u32);
            for (key, ts) in &info.reads {
                put_u64(&mut buf, key.0);
                put_timestamp(&mut buf, *ts);
            }
            put_u32(&mut buf, info.writes.len() as u32);
            for key in &info.writes {
                put_u64(&mut buf, key.0);
            }
        }
        Response::AbortAck => buf.push(ST_ABORT_ACK),
        Response::Stats(stats) => {
            buf.push(ST_STATS);
            put_u64(&mut buf, stats.keys as u64);
            put_u64(&mut buf, stats.versions as u64);
            put_u64(&mut buf, stats.purged_versions as u64);
            put_u64(&mut buf, stats.lock_entries as u64);
            put_u64(&mut buf, stats.frozen_lock_entries as u64);
        }
        Response::Aborted(reason) => {
            buf.push(ST_ABORTED);
            put_abort_reason(&mut buf, reason);
        }
        Response::Finished => buf.push(ST_FINISHED),
        Response::Internal(msg) => {
            buf.push(ST_INTERNAL);
            put_str(&mut buf, msg);
        }
        Response::Protocol(msg) => {
            buf.push(ST_PROTOCOL);
            put_str(&mut buf, msg);
        }
    }
    buf
}

/// Decodes a response payload (strict: trailing bytes are rejected).
///
/// # Errors
///
/// Returns [`WireError::Malformed`] on unknown statuses or layout violations.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut cur = Cursor::new(payload);
    let status = cur.u8()?;
    let resp = match status {
        ST_BEGUN => Response::Begun,
        ST_VALUE => Response::Value(match cur.u8()? {
            0 => None,
            1 => Some(cur.u64()?),
            _ => return Err(WireError::Malformed("value flag is not 0/1")),
        }),
        ST_WRITTEN => Response::Written,
        ST_COMMITTED => {
            let tx = TxId(cur.u64()?);
            let commit_ts = match cur.u8()? {
                0 => None,
                1 => Some(take_timestamp(&mut cur)?),
                _ => return Err(WireError::Malformed("commit-ts flag is not 0/1")),
            };
            let nreads = cur.u32()? as usize;
            let mut reads = Vec::with_capacity(nreads.min(payload.len() / 20 + 1));
            for _ in 0..nreads {
                reads.push((Key(cur.u64()?), take_timestamp(&mut cur)?));
            }
            let nwrites = cur.u32()? as usize;
            let mut writes = Vec::with_capacity(nwrites.min(payload.len() / 8 + 1));
            for _ in 0..nwrites {
                writes.push(Key(cur.u64()?));
            }
            Response::Committed(CommitInfo {
                tx,
                commit_ts,
                reads,
                writes,
            })
        }
        ST_ABORT_ACK => Response::AbortAck,
        ST_STATS => Response::Stats(StoreStats {
            keys: cur.u64()? as usize,
            versions: cur.u64()? as usize,
            purged_versions: cur.u64()? as usize,
            lock_entries: cur.u64()? as usize,
            frozen_lock_entries: cur.u64()? as usize,
        }),
        ST_ABORTED => Response::Aborted(take_abort_reason(&mut cur)?),
        ST_FINISHED => Response::Finished,
        ST_INTERNAL => Response::Internal(cur.str()?),
        ST_PROTOCOL => Response::Protocol(cur.str()?),
        _ => return Err(WireError::Malformed("unknown response status")),
    };
    cur.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let payload = encode_request(&req);
        assert_eq!(decode_request(&payload).unwrap(), req, "{req:?}");
    }

    fn roundtrip_response(resp: Response) {
        let payload = encode_response(&resp);
        assert_eq!(decode_response(&payload).unwrap(), resp, "{resp:?}");
    }

    #[test]
    fn requests_round_trip() {
        roundtrip_request(Request::Begin {
            txn: 7,
            process: ProcessId(3),
            pinned: None,
        });
        roundtrip_request(Request::Begin {
            txn: 0,
            process: ProcessId(u32::MAX),
            pinned: Some(Timestamp {
                value: 99,
                process: 2,
            }),
        });
        roundtrip_request(Request::Read {
            txn: 1,
            key: Key(42),
        });
        roundtrip_request(Request::Write {
            txn: 1,
            key: Key(42),
            value: u64::MAX,
        });
        roundtrip_request(Request::Commit { txn: 9 });
        roundtrip_request(Request::Abort { txn: 9 });
        roundtrip_request(Request::Stats);
    }

    #[test]
    fn responses_round_trip() {
        roundtrip_response(Response::Begun);
        roundtrip_response(Response::Value(None));
        roundtrip_response(Response::Value(Some(17)));
        roundtrip_response(Response::Written);
        roundtrip_response(Response::Committed(CommitInfo {
            tx: TxId(12),
            commit_ts: Some(Timestamp {
                value: 1000,
                process: 4,
            }),
            reads: vec![(Key(1), Timestamp::ZERO), (Key(2), Timestamp::at(7))],
            writes: vec![Key(1), Key(9)],
        }));
        roundtrip_response(Response::Committed(CommitInfo {
            tx: TxId(0),
            commit_ts: None,
            reads: vec![],
            writes: vec![],
        }));
        roundtrip_response(Response::AbortAck);
        roundtrip_response(Response::Stats(StoreStats {
            keys: 1,
            versions: 2,
            purged_versions: 3,
            lock_entries: 4,
            frozen_lock_entries: 5,
        }));
        roundtrip_response(Response::Finished);
        roundtrip_response(Response::Internal("boom".to_string()));
        roundtrip_response(Response::Protocol("bad".to_string()));
    }

    #[test]
    fn every_abort_reason_round_trips() {
        for reason in [
            AbortReason::NoCommonTimestamp,
            AbortReason::WriteConflict { key: Key(1) },
            AbortReason::LockTimeout { key: Key(2) },
            AbortReason::VersionPurged {
                key: Key(3),
                below: Timestamp::at(9),
            },
            AbortReason::CommitmentDecidedAbort,
            AbortReason::UserRequested,
            AbortReason::IntervalExhausted { key: Key(4) },
            AbortReason::PrepareTimedOut { shard: 3 },
            AbortReason::ParticipantCrashed { shard: 7 },
        ] {
            roundtrip_response(Response::Aborted(reason));
        }
    }

    #[test]
    fn hello_round_trips_and_rejects_bad_magic() {
        let hello = encode_hello("mvtil-early", "mvtil-early?delta=500");
        assert_eq!(
            decode_hello(&hello).unwrap(),
            (
                "mvtil-early".to_string(),
                "mvtil-early?delta=500".to_string()
            )
        );
        let mut bad = hello.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            decode_hello(&bad),
            Err(WireError::BadHandshake(_))
        ));
        let mut wrong_version = hello;
        wrong_version[4] ^= 0xFF;
        assert!(matches!(
            decode_hello(&wrong_version),
            Err(WireError::BadHandshake(_))
        ));
    }

    #[test]
    fn decoding_is_strict_about_lengths() {
        // Truncated body.
        let full = encode_request(&Request::Write {
            txn: 1,
            key: Key(2),
            value: 3,
        });
        assert!(matches!(
            decode_request(&full[..full.len() - 1]),
            Err(WireError::Malformed(_))
        ));
        // Trailing garbage.
        let mut long = full.clone();
        long.push(0);
        assert!(matches!(
            decode_request(&long),
            Err(WireError::Malformed(_))
        ));
        // Unknown opcode.
        let mut unknown = full;
        unknown[0] = 0xEE;
        assert!(matches!(
            decode_request(&unknown),
            Err(WireError::Malformed(_))
        ));
        // Declared element count larger than the bytes present.
        let mut many = vec![ST_COMMITTED];
        put_u64(&mut many, 1);
        many.push(0);
        put_u32(&mut many, 1_000_000);
        put_u64(&mut many, 42);
        assert!(matches!(
            decode_response(&many),
            Err(WireError::Malformed(_))
        ));
        // Empty payload.
        assert!(matches!(decode_request(&[]), Err(WireError::Malformed(_))));
        assert!(matches!(decode_response(&[]), Err(WireError::Malformed(_))));
    }

    #[test]
    fn frame_transport_round_trips_and_caps_length() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        push_frame(&mut buf, b"world");
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 1024).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 1024).unwrap(), b"world");
        assert!(is_clean_eof(&read_frame(&mut r, 1024).unwrap_err()));

        // An oversized declared length is rejected before allocation.
        let huge = u32::MAX.to_le_bytes();
        let mut r = &huge[..];
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(WireError::FrameTooLarge {
                declared: u32::MAX,
                max: 1024
            })
        ));
    }
}
