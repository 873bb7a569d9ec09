//! # mvtl-bench
//!
//! Figure, ablation and soak binaries for the MVTL reproduction
//! (`src/bin/fig1.rs` … `fig7.rs`, `ablation.rs`, `soak.rs`). The figure
//! binaries print the full data series for each figure of the paper. Pass
//! `--paper` for paper-scale parameter sweeps, `--smoke` for the smallest
//! runs; the default is the `Quick` scale.
//!
//! Performance is measured by the repo benchmark under `benchmark/` (see
//! `BENCHMARK.json`), not here.
//!
//! ```bash
//! cargo run -p mvtl-bench --release --bin fig1            # quick sweep
//! cargo run -p mvtl-bench --release --bin fig1 -- --paper # paper-scale sweep
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mvtl_workload::Scale;

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
/// The figure and soak binaries thread this seed into every
/// `RunnerOptions`/`SoakOptions` they build, so CI smoke runs are exactly
/// reproducible across reruns (`--seed 42` twice generates the same
/// transaction streams).
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
