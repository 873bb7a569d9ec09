//! Regenerates Figure 1 (throughput and commit rate vs. number of clients,
//! local test bed) on the engines and checks that MVTIL-early outruns 2PL
//! and MVTO+ at the largest client count. Then it runs the registry-driven
//! engine grid: every engine `mvtl_registry::all_specs()` knows, built from
//! its string spec and driven through `dyn Engine` once with uniform keys
//! and once under zipf(0.99) skew; the process panics if any registered
//! engine fails to build or stops committing. Pass `--smoke`, `--paper` or
//! `--seed N` (see `mvtl_bench`).

use mvtl_workload::{figures, KeyDist};

fn main() {
    let scale = mvtl_bench::scale_from_args(std::env::args().skip(1));
    for dist in [KeyDist::Uniform, KeyDist::Zipf { theta: 0.99 }] {
        let grid = figures::engine_grid_with_skew(scale, dist);
        println!("{}", grid.render());
        figures::check_engine_grid(&grid);
    }
    mvtl_bench::run_figures(&[figures::fig1_concurrency_local]);
}
