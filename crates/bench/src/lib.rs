//! # mvtl-bench
//!
//! Figure and ablation binaries for the MVTL reproduction
//! (`src/bin/fig1.rs` … `fig7.rs`, `ablation.rs`). Each prints the data
//! series of one figure of the paper, measured on the registry's engines,
//! then checks the figure's qualitative shape and exits non-zero when it
//! does not hold. Pass `--smoke` for the short CI runs, `--paper` for long
//! runs and `--seed N` to pin the workload RNG; the default is the `Quick`
//! scale.
//!
//! Performance is measured by the repo benchmark under `benchmark/` (see
//! `BENCHMARK.json`), not here.
//!
//! ```bash
//! cargo run -p mvtl-bench --release --bin fig1            # quick sweep
//! cargo run -p mvtl-bench --release --bin fig1 -- --smoke # CI shape check
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mvtl_workload::{FigureTable, Scale};

/// Parses the common command-line convention of the figure binaries.
///
/// `--paper` selects paper-scale sweeps, `--smoke` the smallest runs; anything
/// else (including no argument) selects the quick scale.
#[must_use]
pub fn scale_from_args<I: IntoIterator<Item = String>>(args: I) -> Scale {
    let mut scale = Scale::Quick;
    for arg in args {
        match arg.as_str() {
            "--paper" => scale = Scale::Paper,
            "--smoke" => scale = Scale::Smoke,
            _ => {}
        }
    }
    scale
}

/// Parses the workload RNG seed from the command line: `--seed N` or
/// `--seed=N`, falling back to `default` when absent or unparsable.
///
/// The figure binaries thread this seed into every `RunnerOptions` they
/// build, so reruns generate the same transaction streams (`--seed 42`
/// twice).
#[must_use]
pub fn seed_from_args<I: IntoIterator<Item = String>>(args: I, default: u64) -> u64 {
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--seed" {
            if let Some(seed) = args.next().and_then(|v| v.parse().ok()) {
                return seed;
            }
        } else if let Some(value) = arg.strip_prefix("--seed=") {
            if let Ok(seed) = value.parse() {
                return seed;
            }
        }
    }
    default
}

/// Runs one figure binary: parses the scale and the seed (default 42) from
/// the command line, prints each table `figures` builds and its shapes, and
/// exits with status 1 when an asserted shape fails.
pub fn run_figures(figures: &[fn(Scale, u64) -> FigureTable]) {
    let scale = scale_from_args(std::env::args().skip(1));
    let seed = seed_from_args(std::env::args().skip(1), 42);
    let mut failed = false;
    for figure in figures {
        let table = figure(scale, seed);
        println!("{}", table.render());
        for shape in mvtl_workload::figures::shapes(&table) {
            println!("{shape}");
            failed |= shape.asserted && !shape.holds;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scales() {
        assert_eq!(scale_from_args(Vec::<String>::new()), Scale::Quick);
        assert_eq!(scale_from_args(vec!["--paper".to_string()]), Scale::Paper);
        assert_eq!(scale_from_args(vec!["--smoke".to_string()]), Scale::Smoke);
        assert_eq!(
            scale_from_args(vec!["fig1".to_string(), "--paper".to_string()]),
            Scale::Paper
        );
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parses_seeds() {
        assert_eq!(seed_from_args(Vec::<String>::new(), 42), 42);
        assert_eq!(seed_from_args(strings(&["--seed", "7"]), 42), 7);
        assert_eq!(seed_from_args(strings(&["--seed=123"]), 42), 123);
        assert_eq!(
            seed_from_args(strings(&["--smoke", "--seed", "9"]), 42),
            9,
            "seed parses alongside scale flags"
        );
        assert_eq!(seed_from_args(strings(&["--seed", "pear"]), 42), 42);
        assert_eq!(seed_from_args(strings(&["--seed"]), 42), 42);
    }
}
