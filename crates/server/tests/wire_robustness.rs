//! Wire-protocol robustness: malformed frames, protocol violations, and
//! mid-transaction disconnects must never wedge the server or leak locks.
//!
//! Every test drives a real TCP server. The raw-socket tests bypass the
//! client library entirely and write hand-crafted byte sequences, because the
//! client cannot be coaxed into producing the malformed traffic we need.

use mvtl_common::{Key, ProcessId, Timestamp};
use mvtl_server::wire::{self, Request, Response};
use mvtl_server::{Connection, Server};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn spawn_server() -> Server {
    Server::spawn("mvtil-early", "127.0.0.1:0").expect("server must start")
}

/// Connects a raw socket and consumes the server hello, leaving the stream
/// positioned at the request/response phase.
fn raw_connect(server: &Server) -> TcpStream {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let hello = wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME).expect("hello frame");
    wire::decode_hello(&hello).expect("hello decodes");
    stream
}

fn send_raw_request(stream: &mut TcpStream, req: &Request) {
    wire::write_frame(stream, &wire::encode_request(req)).expect("send request");
}

fn read_raw_response(stream: &mut TcpStream) -> Response {
    let payload = wire::read_frame(stream, wire::DEFAULT_MAX_FRAME).expect("response frame");
    wire::decode_response(&payload).expect("response decodes")
}

/// Asserts the server has hung up: the next frame read is a clean EOF.
fn assert_closed(stream: &mut TcpStream) {
    let err =
        wire::read_frame(stream, wire::DEFAULT_MAX_FRAME).expect_err("connection should be closed");
    assert!(wire::is_clean_eof(&err), "expected clean EOF, got {err}");
}

/// Samples the engine's lock-table size through a fresh stats connection.
fn lock_entries(server: &Server) -> usize {
    let mut conn = Connection::connect(server.addr()).expect("stats connection");
    conn.stats().expect("stats").lock_entries
}

/// Polls until every lock the disconnected transaction held is released.
/// Generous deadline: the assertion is about eventual cleanup, not latency.
fn wait_for_lock_release(server: &Server) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if lock_entries(server) == 0 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "locks still held long after the holding connection went away"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn unknown_opcode_gets_protocol_response_and_close() {
    let server = spawn_server();
    let mut stream = raw_connect(&server);
    wire::write_frame(&mut stream, &[0xFF]).expect("send");
    stream.flush().expect("flush");
    let resp = read_raw_response(&mut stream);
    assert!(
        matches!(resp, Response::Protocol(_)),
        "expected a protocol error, got {resp:?}"
    );
    assert_closed(&mut stream);
}

#[test]
fn truncated_request_body_gets_protocol_response_and_close() {
    let server = spawn_server();
    let mut stream = raw_connect(&server);
    // Opcode 1 is Begin, whose body needs at least txn + process ids; a
    // single stray byte cannot decode.
    wire::write_frame(&mut stream, &[0x01, 0x02]).expect("send");
    stream.flush().expect("flush");
    let resp = read_raw_response(&mut stream);
    assert!(
        matches!(resp, Response::Protocol(_)),
        "expected a protocol error, got {resp:?}"
    );
    assert_closed(&mut stream);
}

#[test]
fn trailing_bytes_after_valid_request_get_protocol_response() {
    let server = spawn_server();
    let mut stream = raw_connect(&server);
    // A well-formed Stats request with one extra byte appended: the strict
    // decoder must reject it rather than silently ignore the tail.
    let mut payload = wire::encode_request(&Request::Stats);
    payload.push(0x00);
    wire::write_frame(&mut stream, &payload).expect("send");
    stream.flush().expect("flush");
    let resp = read_raw_response(&mut stream);
    assert!(
        matches!(resp, Response::Protocol(_)),
        "expected a protocol error, got {resp:?}"
    );
    assert_closed(&mut stream);
}

#[test]
fn oversized_declared_length_is_rejected_before_payload() {
    let server = spawn_server();
    let mut stream = raw_connect(&server);
    // Declare a frame far past the cap and send nothing else: the server
    // must reject on the header alone (no allocation, no payload wait).
    stream
        .write_all(&u32::MAX.to_le_bytes())
        .expect("send header");
    stream.flush().expect("flush");
    let resp = read_raw_response(&mut stream);
    match resp {
        Response::Protocol(msg) => {
            assert!(msg.contains("frame"), "unexpected message: {msg}")
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    assert_closed(&mut stream);
}

#[test]
fn configured_frame_cap_is_enforced() {
    // serve_max_frame is peeled off the engine spec; a 65-byte frame against
    // a 64-byte cap must be rejected even though it is tiny in absolute terms.
    let server =
        Server::spawn("mvtil-early?serve_max_frame=64", "127.0.0.1:0").expect("server must start");
    let mut stream = raw_connect(&server);
    wire::write_frame(&mut stream, &[0u8; 65]).expect("send");
    stream.flush().expect("flush");
    let resp = read_raw_response(&mut stream);
    assert!(
        matches!(resp, Response::Protocol(_)),
        "expected a protocol error, got {resp:?}"
    );
    assert_closed(&mut stream);
}

#[test]
fn op_on_unknown_txn_returns_finished_and_keeps_connection_usable() {
    let server = spawn_server();
    let mut conn = Connection::connect(server.addr()).expect("connect");
    let resp = conn
        .request(&Request::Read {
            txn: 42,
            key: Key(0),
        })
        .expect("request");
    assert_eq!(resp, Response::Finished);
    // Not a protocol violation: the connection must stay usable so a
    // pipelining client can keep matching responses positionally.
    let stats = conn.request(&Request::Stats).expect("stats request");
    assert!(matches!(stats, Response::Stats(_)), "got {stats:?}");
}

#[test]
fn duplicate_begin_is_a_protocol_violation_and_releases_locks() {
    let server = spawn_server();
    let mut conn = Connection::connect(server.addr()).expect("connect");
    let begun = conn
        .request(&Request::Begin {
            txn: 1,
            process: ProcessId(1),
            pinned: None,
        })
        .expect("begin");
    assert_eq!(begun, Response::Begun);
    let written = conn
        .request(&Request::Write {
            txn: 1,
            key: Key(3),
            value: 9,
        })
        .expect("write");
    assert_eq!(written, Response::Written);
    assert!(lock_entries(&server) > 0, "write should hold a lock");

    // Re-using a live id is a client bug the server refuses to guess about.
    let resp = conn
        .request(&Request::Begin {
            txn: 1,
            process: ProcessId(1),
            pinned: None,
        })
        .expect("duplicate begin gets a response before the close");
    assert!(
        matches!(resp, Response::Protocol(_)),
        "expected a protocol error, got {resp:?}"
    );
    // The close tears down the live transaction along with the connection.
    drop(conn);
    wait_for_lock_release(&server);
}

#[test]
fn mid_transaction_disconnect_aborts_and_releases_locks() {
    let server = spawn_server();
    let mut conn = Connection::connect(server.addr()).expect("connect");
    let begun = conn
        .request(&Request::Begin {
            txn: 7,
            process: ProcessId(1),
            pinned: None,
        })
        .expect("begin");
    assert_eq!(begun, Response::Begun);
    for key in 0..4 {
        let resp = conn
            .request(&Request::Write {
                txn: 7,
                key: Key(key),
                value: key,
            })
            .expect("write");
        assert_eq!(resp, Response::Written);
    }
    assert!(lock_entries(&server) > 0, "writes should hold locks");

    // Vanish without commit or abort: the server-side RAII guard must abort
    // the transaction and release every lock it held.
    drop(conn);
    wait_for_lock_release(&server);

    // The keys remain writable by a later transaction on a fresh connection.
    let mut conn = Connection::connect(server.addr()).expect("reconnect");
    let begun = conn
        .request(&Request::Begin {
            txn: 1,
            process: ProcessId(2),
            pinned: None,
        })
        .expect("begin");
    assert_eq!(begun, Response::Begun);
    let resp = conn
        .request(&Request::Write {
            txn: 1,
            key: Key(0),
            value: 99,
        })
        .expect("write");
    assert_eq!(resp, Response::Written);
    let committed = conn.request(&Request::Commit { txn: 1 }).expect("commit");
    assert!(
        matches!(committed, Response::Committed(_)),
        "got {committed:?}"
    );
}

#[test]
fn disconnect_mid_frame_aborts_and_releases_locks() {
    let server = spawn_server();
    let mut stream = raw_connect(&server);
    send_raw_request(
        &mut stream,
        &Request::Begin {
            txn: 1,
            process: ProcessId(1),
            pinned: None,
        },
    );
    send_raw_request(
        &mut stream,
        &Request::Write {
            txn: 1,
            key: Key(11),
            value: 1,
        },
    );
    stream.flush().expect("flush");
    assert_eq!(read_raw_response(&mut stream), Response::Begun);
    assert_eq!(read_raw_response(&mut stream), Response::Written);
    assert!(lock_entries(&server) > 0, "write should hold a lock");

    // Declare a 16-byte frame, deliver 3 bytes, and hang up: the server sees
    // EOF mid-frame and must treat it exactly like a clean disconnect.
    stream.write_all(&16u32.to_le_bytes()).expect("header");
    stream.write_all(&[0x01, 0x02, 0x03]).expect("partial body");
    stream.flush().expect("flush");
    drop(stream);
    wait_for_lock_release(&server);
}

/// The path `served_oneshot` measures: a whole transaction in one
/// [`Connection::pipeline`] burst, answered positionally.
#[test]
fn pipelined_burst_answers_every_frame_across_a_server_side_abort() {
    let begin = |process, pinned| Request::Begin {
        txn: 1,
        process: ProcessId(process),
        pinned,
    };
    let write = |key, value| Request::Write {
        txn: 1,
        key: Key(key),
        value,
    };
    let read = |key| Request::Read {
        txn: 1,
        key: Key(key),
    };
    let commit = Request::Commit { txn: 1 };

    let server = spawn_server();
    // Both transactions are pinned to the same clock value, so they draw the
    // same MVTIL interval and the holder's write lock on key 5 covers all of
    // it: the burst's write to key 5 has no timestamp left to lock.
    let pinned = Some(Timestamp::at(100));
    let mut holder = Connection::connect(server.addr()).expect("connect holder");
    let held = holder
        .pipeline(&[begin(1, pinned), write(5, 1)])
        .expect("holder burst");
    assert_eq!(held, [Response::Begun, Response::Written]);

    let mut conn = Connection::connect(server.addr()).expect("connect");
    let responses = conn
        .pipeline(&[
            begin(2, pinned),
            read(6),
            write(5, 2),
            read(7),
            commit.clone(),
        ])
        .expect("aborting burst");
    assert!(
        matches!(
            responses[..],
            [
                Response::Begun,
                Response::Value(None),
                Response::Aborted(_),
                Response::Finished,
                Response::Finished
            ]
        ),
        "got {responses:?}"
    );

    // The abort released the burst's read lock although its connection is
    // still open; the holder's lock goes with its connection.
    drop(holder);
    wait_for_lock_release(&server);

    // Same connection, same (now free) transaction id: a clean burst commits.
    let responses = conn
        .pipeline(&[begin(2, None), write(5, 3), read(5), commit])
        .expect("committing burst");
    match &responses[..] {
        [Response::Begun, Response::Written, Response::Value(Some(3)), Response::Committed(info)] =>
        {
            assert_eq!(info.writes, [Key(5)]);
        }
        other => panic!("got {other:?}"),
    }
}
