//! `mvtl-shard`: routing and the §7 prepare/intersect/commit protocol. One
//! shard pays the routing and the lazy sub-transaction but never the
//! cross-shard commit; four shards pay all of it on almost every 8-key
//! transaction.

use super::Ctx;
use crate::session::InProc;

pub fn run(ctx: &mut Ctx<'_>) -> Result<(), String> {
    let spec = |shards: u32| format!("sharded?shards={shards}&inner=mvtil-early&delta=1000");
    ctx.rung::<InProc>("shard.s1", Some("registry"), &spec(1))?;
    ctx.rung::<InProc>("shard.s4", Some("shard.s1"), &spec(4))
}
