//! Runs the ablations on the engines: early-vs-late commit timestamps, the
//! MVTIL interval width Δ, and the GC sweep interval. Pass `--smoke`,
//! `--paper` or `--seed N` (see `mvtl_bench`).

use mvtl_workload::figures;

fn main() {
    mvtl_bench::run_figures(&[
        figures::ablation_commit_pick,
        figures::ablation_delta,
        figures::ablation_gc_period,
    ]);
}
