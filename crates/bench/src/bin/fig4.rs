//! Regenerates Figure 4 (small transactions) on the engines and checks that
//! MVTIL-early outruns 2PL at the largest client count.
//! Pass `--smoke`, `--paper` or `--seed N` (see `mvtl_bench`).

fn main() {
    mvtl_bench::run_figures(&[mvtl_workload::figures::fig4_small_transactions]);
}
