//! Regenerates Figure 5 (effect of the number of servers) on the sharded
//! engine, for both MVTIL commit picks.
//! Pass `--smoke`, `--paper` or `--seed N` (see `mvtl_bench`).

fn main() {
    mvtl_bench::run_figures(&[mvtl_workload::figures::fig5_servers]);
}
