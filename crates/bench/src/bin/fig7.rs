//! Regenerates Figure 7 (performance over time, GC on and off) on the
//! engines.
//! Pass `--smoke`, `--paper` or `--seed N` (see `mvtl_bench`).

fn main() {
    mvtl_bench::run_figures(&[mvtl_workload::figures::fig7_gc_over_time]);
}
