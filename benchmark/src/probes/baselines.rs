//! `mvtl-baselines`: MVTO+ and strict 2PL on the same stream, as yardsticks
//! for MVTIL's constant factor (both `x_below` are ratios over `registry`,
//! the bare MVTIL engine behind the same `dyn` surface).

use super::Ctx;
use crate::session::InProc;

pub fn run(ctx: &mut Ctx<'_>) -> Result<(), String> {
    ctx.rung::<InProc>("baselines.mvto", Some("registry"), "mvto+")?;
    ctx.rung::<InProc>("baselines.tpl", Some("registry"), "2pl")
}
