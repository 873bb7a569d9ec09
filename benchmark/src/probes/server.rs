//! `mvtl-server`: the serve path as two ladder rungs over the GC rung — one
//! pipelined burst per transaction, then `RemoteEngine`, which pays one round
//! trip per operation — plus the codec and a bare round trip.

use super::{loop_ns, Ctx};
use crate::bench::MVTIL;
use crate::session::{ConnSession, EngineSession, Served, Session, Target};
use mvtl_common::{Engine, Key, ProcessId};
use mvtl_server::wire::{decode_request, encode_request, Request};
use mvtl_server::RemoteEngine;
use std::sync::Arc;

/// A server whose clients go through `RemoteEngine` (one round trip per
/// operation). Preloading 100 000 keys that way would take seconds, so the
/// loader pipelines.
struct Interactive {
    // Declared first: the connection closes before the server stops.
    engine: Arc<dyn Engine<u64>>,
    served: Served,
}

impl Target for Interactive {
    type S = EngineSession;
    type Loader = ConnSession;

    fn open(spec: &str) -> Result<Self, String> {
        let served = Served::open(spec)?;
        let remote = RemoteEngine::connect(served.0.addr()).map_err(|e| e.to_string())?;
        Ok(Interactive {
            engine: Arc::new(remote),
            served,
        })
    }

    fn session(&self, process: u32) -> Result<EngineSession, String> {
        Ok(EngineSession::new(Arc::clone(&self.engine), process))
    }

    fn loader(&self, process: u32) -> Result<ConnSession, String> {
        self.served.loader(process)
    }
}

/// The ten requests of one `served_oneshot` burst.
fn burst() -> Vec<Request> {
    let mut requests = vec![Request::Begin {
        txn: 1,
        process: ProcessId(1),
        pinned: None,
    }];
    for k in 0..8u64 {
        let key = Key(k * 12_345);
        requests.push(if k % 4 == 0 {
            Request::Write {
                txn: 1,
                key,
                value: k,
            }
        } else {
            Request::Read { txn: 1, key }
        });
    }
    requests.push(Request::Commit { txn: 1 });
    requests
}

pub fn run(ctx: &mut Ctx<'_>) -> Result<(), String> {
    ctx.rung::<Served>("server.oneshot", Some("gc"), MVTIL)?;
    ctx.rung::<Interactive>("server.interactive", Some("server.oneshot"), MVTIL)?;

    let requests = burst();
    let n = requests.len() as u64;
    let encode = loop_ns(ctx.loop_budget(), |i| {
        std::hint::black_box(encode_request(&requests[(i % n) as usize]));
    });
    ctx.metric("server.wire.encode_ns", encode);
    let frames: Vec<Vec<u8>> = requests.iter().map(encode_request).collect();
    let decode = loop_ns(ctx.loop_budget(), |i| {
        let _ = std::hint::black_box(decode_request(&frames[(i % n) as usize]));
    });
    ctx.metric("server.wire.decode_ns", decode);

    let served = Served::open(MVTIL)?;
    let mut session = served.session(1)?;
    let mut failed = None;
    let rtt = loop_ns(ctx.loop_budget(), |_| {
        if let Err(err) = session.stats() {
            failed.get_or_insert(err);
        }
    });
    if let Some(err) = failed {
        return Err(format!("stats round trip: {err}"));
    }
    ctx.metric("server.rtt_us", rtt / 1e3);
    Ok(())
}
