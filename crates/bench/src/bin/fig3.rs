//! Regenerates Figure 3 (effect of the write fraction) on the engines and
//! checks that every protocol commits almost everything at 0% writes.
//! Pass `--smoke`, `--paper` or `--seed N` (see `mvtl_bench`).

fn main() {
    mvtl_bench::run_figures(&[mvtl_workload::figures::fig3_write_fraction]);
}
