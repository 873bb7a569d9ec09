//! The repo benchmark. See `README.md` for the workloads, the metrics and how
//! they interact, and `../BENCHMARK.json` for names, units and bounds.
//!
//! ```text
//! mvtl-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run in this process; the last line of stdout is the result object
//! mvtl-benchmark run <workload>|all [--seed N] [--seconds S] [--trace]
//! mvtl-benchmark repeat <k> [--seed N] [--seconds S]
//! mvtl-benchmark check
//! ```

mod bench;
mod contract;
mod harness;
mod hist;
mod load;
mod probes;
mod session;
mod trace;

use bench::{Options, Outcome, Workload, WORKLOADS};
use contract::{Contract, Section};
use serde_json::Value;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "usage:
  mvtl-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  mvtl-benchmark run <workload>|all [--seed N] [--seconds S] [--trace]
  mvtl-benchmark repeat <k> [--seed N] [--seconds S]
  mvtl-benchmark check";

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        positional: Vec::new(),
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                let text = value("--seed")?;
                parsed.seed = text.parse().map_err(|_| format!("bad --seed {text:?}"))?;
            }
            "--seconds" => {
                let text = value("--seconds")?;
                let seconds: f64 = text
                    .parse()
                    .map_err(|_| format!("bad --seconds {text:?}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds {text} is outside (0, 60]"));
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                // `--trace 0|1` (driver form) or a bare `--trace` (run form).
                parsed.trace = match args.next_if(|next| next == "0" || next == "1") {
                    Some(flag) => flag == "1",
                    None => true,
                };
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => parsed.positional.push(arg),
        }
    }
    Ok(parsed)
}

fn find(name: &str) -> Result<&'static Workload, String> {
    bench::workload(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })
}

/// One run in this process, printing the result line.
fn single(contract: &Contract, w: &Workload, opts: &Options, trace: bool) -> Result<bool, String> {
    let (section, out) = if trace {
        (Section::PerLayer, bench::per_layer(w, opts)?)
    } else {
        (Section::EndToEnd, bench::end_to_end(w, opts)?)
    };
    let metrics = contract.metrics_object(section, &out.metrics)?;
    println!(
        "{}",
        contract::result_line(out.correct, out.attempted, out.failed, metrics)
    );
    Ok(out.correct)
}

/// Runs one workload in a child process (so `rss_peak_mb` is that run's own)
/// and returns its parsed result line.
fn child(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result = serde_json::from_str(line)
        .map_err(|e| format!("{}: run printed no result ({e})", w.name))?;
    if !output.status.success() {
        return Err(format!("{}: run failed: {line}", w.name));
    }
    Ok(result)
}

fn run(contract: &Contract, args: &Args) -> Result<(), String> {
    let which = args.positional.get(1).ok_or(USAGE)?;
    let workloads: Vec<&Workload> = if which == "all" {
        WORKLOADS.iter().collect()
    } else {
        vec![find(which)?]
    };
    let seconds = args.seconds.unwrap_or(contract.run_seconds);
    let mut report = Vec::new();
    for w in workloads {
        let mut sections = vec![(
            "end_to_end".to_string(),
            child(w, args.seed, seconds, false)?,
        )];
        if args.trace {
            sections.push(("per_layer".to_string(), child(w, args.seed, seconds, true)?));
        }
        report.push((w.name.to_string(), Value::Object(sections)));
    }
    println!("{}", serde_json::to_string_pretty(&Value::Object(report)));
    Ok(())
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n < 2 {
        return [x[0]; 3];
    }
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    })
}

fn repeat(contract: &Contract, args: &Args) -> Result<bool, String> {
    let runs: u64 = args
        .positional
        .get(1)
        .and_then(|k| k.parse().ok())
        .filter(|k| *k >= 1)
        .ok_or(USAGE)?;
    let seconds = args.seconds.unwrap_or(contract.run_seconds);
    let mut steady = true;
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    for w in &WORKLOADS {
        let mut results = Vec::new();
        for i in 0..runs {
            results.push(child(w, args.seed + i, seconds, false)?);
        }
        for metric in &contract.end_to_end {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| r.get("metrics")?.get(&metric.name)?.get("value")?.as_f64())
                .collect();
            if values.len() != results.len() {
                return Err(format!("{}: a run lacks {}", w.name, metric.name));
            }
            let [q1, q2, q3] = quartiles(&values);
            let spread = (q3 - q1) / q2;
            let bound = metric.bound.unwrap_or(f64::INFINITY);
            // The driver does not gate the spread of `setup_s`.
            let wide = spread > bound && metric.name != "setup_s";
            steady &= !wide;
            println!(
                "{:<16} {:<12} {:>12.4} {:>12.4} {:>12.4} {:>7.1}% {:>5.0}%{}",
                w.name,
                metric.name,
                values.iter().copied().fold(f64::INFINITY, f64::min),
                q2,
                values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                spread * 100.0,
                bound * 100.0,
                if wide { "  SPREAD EXCEEDS BOUND" } else { "" }
            );
        }
    }
    Ok(steady)
}

/// All six workloads at a hundredth of their length, both kinds of run, in
/// this process: catches API drift and a metric list out of step with
/// `BENCHMARK.json` in seconds.
fn check(contract: &Contract) -> Result<bool, String> {
    let started = Instant::now();
    let opts = Options {
        seed: 42,
        seconds: contract.run_seconds / 100.0,
        setups: 1,
        warmup_share: 0.01,
    };
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if names != contract.workloads {
        return Err(format!("BENCHMARK.json lists {:?}", contract.workloads));
    }
    let mut correct = true;
    let mut note = |w: &Workload, kind: &str, out: &Outcome| {
        eprintln!(
            "check {} {kind}: {} attempted, {} failed",
            w.name, out.attempted, out.failed
        );
        correct &= out.correct;
    };
    let extras = probes::extras(&opts)?;
    for w in &WORKLOADS {
        let out = bench::end_to_end(w, &opts)?;
        contract.metrics_object(Section::EndToEnd, &out.metrics)?;
        note(w, "end-to-end", &out);
        let mut out = bench::traced(w, &opts)?;
        out.metrics.extend(extras.iter().cloned());
        contract.metrics_object(Section::PerLayer, &out.metrics)?;
        note(w, "per-layer", &out);
    }
    eprintln!("check took {:.1} s", started.elapsed().as_secs_f64());
    Ok(correct)
}

fn dispatch() -> Result<bool, String> {
    let args = parse(std::env::args().skip(1))?;
    let contract = Contract::load()?;
    match (args.positional.first().map(String::as_str), &args.workload) {
        (None, Some(name)) => {
            let opts = Options {
                seed: args.seed,
                seconds: args.seconds.unwrap_or(contract.run_seconds),
                setups: SETUPS,
                warmup_share: 1.0,
            };
            single(&contract, find(name)?, &opts, args.trace)
        }
        (Some("run"), None) => run(&contract, &args).map(|()| true),
        (Some("repeat"), None) => repeat(&contract, &args),
        (Some("check"), None) => check(&contract),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!("{err}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_driver_form_and_the_subcommand_form_both_parse() {
        let a = args("--workload mem_short --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("mem_short"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), true));
        assert!(!args("--workload x --trace 0").unwrap().trace);
        let a = args("run all --trace --seed 3").unwrap();
        assert_eq!(a.positional, ["run", "all"]);
        assert!(a.trace && a.seed == 3);
        assert!(args("--seconds 0").is_err());
        assert!(args("--sed 1").is_err());
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
    }
}
