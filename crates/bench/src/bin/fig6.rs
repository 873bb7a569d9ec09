//! Regenerates Figure 6 (locks and versions over time, GC on and off) on
//! the engines and checks §6: with GC, each variant ends with less resident
//! state than without, the GC purged, and both runs committed.
//! Pass `--smoke`, `--paper` or `--seed N` (see `mvtl_bench`).

fn main() {
    mvtl_bench::run_figures(&[mvtl_workload::figures::fig6_state_size]);
}
