//! # mvtl-faults
//!
//! Deterministic, seeded fault-injection plans: per-operation round-trip
//! delays for every engine, and the faults of the §7 cross-shard protocol.
//!
//! The cross-shard interval-intersection commit only proves itself on an
//! unfriendly machine: shards that answer late, drop their prepare response,
//! stall past the prepare deadline, crash between `prepare` and the
//! decision, or read skewed clocks. This crate is the *schedule* side of that
//! story — it decides **which** faults fire **when**, deterministically, so a
//! failing run can be replayed from its `(fault spec, fault seed)` pair:
//!
//! * [`FaultSpec`] — the parsed form of the registry's `fault=` parameter, a
//!   `|`-separated list of clauses (`delay:0.3:200`, `drop:0.2:40`,
//!   `crash:0.1`, `stall:0.2:40`, `skew:512`).
//! * [`FaultPlan`] — a seeded decision oracle over a spec. Every decision is
//!   a pure function of `(seed, shard, sequence number, decision point)`, so
//!   a single-threaded workload replay produces a **byte-identical fault
//!   trace** across runs. The plan also counts injections per [`FaultKind`]
//!   and records a human-readable trace for the regression tests.
//! * [`named_schedules`] — the canonical schedule matrix (delay-only,
//!   drop-prepare, crash-mid-prepare, stall-timeout, skewed-clock) that the
//!   fault regression tests and the CI fault-matrix step replay through the
//!   MVSG checker.
//!
//! The *enforcement* side is `mvtl-shard`'s `Faulty` store decorator, a
//! `TransactionalKV` over a real shard's store, which injects these faults
//! between the coordinator and that store. The
//! registry wraps every shard of a `fault=` spec in it, so `delay:` gives any
//! engine — MVTO+ and 2PL included — a round trip per operation; that is how
//! the figure harness models the paper's test beds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The kinds of fault a plan can inject, used for counting and tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A per-operation service delay.
    Delay,
    /// A prepare response lost on its way to the coordinator: the shard
    /// prepared and holds its frozen locks, the coordinator sees the
    /// deadline missed.
    DropPrepare,
    /// A shard crash between `prepare` and the coordinator's decision.
    CrashMidPrepare,
    /// A shard stall before serving `prepare`.
    Stall,
    /// A per-shard clock offset applied to pinned begin timestamps.
    Skew,
}

impl FaultKind {
    /// All kinds, in counter order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Delay,
        FaultKind::DropPrepare,
        FaultKind::CrashMidPrepare,
        FaultKind::Stall,
        FaultKind::Skew,
    ];

    fn index(self) -> usize {
        match self {
            FaultKind::Delay => 0,
            FaultKind::DropPrepare => 1,
            FaultKind::CrashMidPrepare => 2,
            FaultKind::Stall => 3,
            FaultKind::Skew => 4,
        }
    }

    /// Short label used in traces and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Delay => "delay",
            FaultKind::DropPrepare => "drop",
            FaultKind::CrashMidPrepare => "crash",
            FaultKind::Stall => "stall",
            FaultKind::Skew => "skew",
        }
    }
}

/// A fault clause failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError {
    /// Description of the problem.
    pub detail: String,
}

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed fault spec: {}", self.detail)
    }
}

impl std::error::Error for FaultParseError {}

/// The parsed form of a `fault=` schedule string.
///
/// Grammar: clauses separated by `|`, each `name[:arg[:arg]]`:
///
/// | clause | meaning |
/// |--------|---------|
/// | `delay:<p>:<max_us>` | each shard operation is delayed with probability `p` by a deterministic duration in `[1, max_us]` µs |
/// | `drop:<p>[:hold_ms]` | with probability `p` a prepare **response** is lost — the shard prepared and holds its frozen locks for `hold_ms` (default 40) ms before it aborts, while the coordinator sees the deadline missed at once |
/// | `crash:<p>` | the shard crashes between `prepare` and the decision with probability `p`; its volatile lock state is lost and recovery presumes abort |
/// | `stall:<p>:<ms>` | with probability `p` the shard serves `prepare` only after `ms` milliseconds, then aborts, while the coordinator sees the deadline missed at once |
/// | `skew:<max_ticks>` | each shard reads a constant per-shard clock offset drawn from `[-max_ticks, +max_ticks]`, applied to pinned begin timestamps (the ε-clock scenario) |
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSpec {
    /// Per-operation delay: `(probability, max microseconds)`.
    pub delay: Option<(f64, u64)>,
    /// Dropped prepare response: `(probability, hold milliseconds)`.
    pub drop_prepare: Option<(f64, u64)>,
    /// Crash between prepare and decision: probability.
    pub crash_mid_prepare: Option<f64>,
    /// Stall before serving prepare: `(probability, stall milliseconds)`.
    pub stall: Option<(f64, u64)>,
    /// Maximum per-shard clock offset in ticks (0 disables skew).
    pub skew_ticks: u64,
}

/// Default hold time (ms) for `drop:<p>` clauses that omit it.
pub const DEFAULT_DROP_HOLD_MS: u64 = 40;

impl FaultSpec {
    /// Parses a `fault=` schedule string (see the type-level grammar table).
    ///
    /// # Errors
    ///
    /// Returns a [`FaultParseError`] for unknown clause names, missing or
    /// non-numeric arguments, or probabilities outside `[0, 1]`.
    pub fn parse(spec: &str) -> Result<Self, FaultParseError> {
        let mut out = FaultSpec::default();
        for clause in spec.split('|').filter(|c| !c.is_empty()) {
            let mut parts = clause.split(':');
            let name = parts.next().unwrap_or("").trim();
            let args: Vec<&str> = parts.map(str::trim).collect();
            match name {
                "delay" => {
                    let (p, us) = prob_and_amount(clause, &args, None)?;
                    out.delay = Some((p, us.max(1)));
                }
                "drop" => {
                    let (p, ms) = prob_and_amount(clause, &args, Some(DEFAULT_DROP_HOLD_MS))?;
                    out.drop_prepare = Some((p, ms.max(1)));
                }
                "crash" => {
                    let p = parse_probability(clause, args.first().copied())?;
                    if args.len() > 1 {
                        return Err(extra_args(clause));
                    }
                    out.crash_mid_prepare = Some(p);
                }
                "stall" => {
                    let (p, ms) = prob_and_amount(clause, &args, None)?;
                    out.stall = Some((p, ms.max(1)));
                }
                "skew" => {
                    let ticks = args
                        .first()
                        .ok_or_else(|| missing_arg(clause, "max ticks"))?
                        .parse::<u64>()
                        .map_err(|_| bad_number(clause, args[0]))?;
                    if args.len() > 1 {
                        return Err(extra_args(clause));
                    }
                    out.skew_ticks = ticks;
                }
                other => {
                    return Err(FaultParseError {
                        detail: format!(
                            "unknown fault clause {other:?} in {clause:?} \
                             (known: delay, drop, crash, stall, skew)"
                        ),
                    })
                }
            }
        }
        Ok(out)
    }

    /// Whether the spec injects nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == FaultSpec::default()
    }
}

fn missing_arg(clause: &str, what: &str) -> FaultParseError {
    FaultParseError {
        detail: format!("clause {clause:?} is missing its {what} argument"),
    }
}

fn extra_args(clause: &str) -> FaultParseError {
    FaultParseError {
        detail: format!("clause {clause:?} has too many arguments"),
    }
}

fn bad_number(clause: &str, value: &str) -> FaultParseError {
    FaultParseError {
        detail: format!("non-numeric argument {value:?} in clause {clause:?}"),
    }
}

fn parse_probability(clause: &str, arg: Option<&str>) -> Result<f64, FaultParseError> {
    let arg = arg.ok_or_else(|| missing_arg(clause, "probability"))?;
    let p = arg.parse::<f64>().map_err(|_| bad_number(clause, arg))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(FaultParseError {
            detail: format!("probability {p} in clause {clause:?} is outside [0, 1]"),
        });
    }
    Ok(p)
}

fn prob_and_amount(
    clause: &str,
    args: &[&str],
    default_amount: Option<u64>,
) -> Result<(f64, u64), FaultParseError> {
    let p = parse_probability(clause, args.first().copied())?;
    let amount = match (args.get(1), default_amount) {
        (Some(raw), _) => raw.parse::<u64>().map_err(|_| bad_number(clause, raw))?,
        (None, Some(default)) => default,
        (None, None) => return Err(missing_arg(clause, "amount")),
    };
    if args.len() > 2 {
        return Err(extra_args(clause));
    }
    Ok((p, amount))
}

/// The canonical named fault schedules: the regression matrix the fault tests
/// and the CI fault-matrix step replay through the MVSG checker. Each entry is
/// `(name, fault spec string)`.
#[must_use]
pub fn named_schedules() -> &'static [(&'static str, &'static str)] {
    &[
        ("delay-only", "delay:0.4:200"),
        ("drop-prepare", "drop:0.3:30"),
        ("crash-mid-prepare", "crash:0.25"),
        ("stall-timeout", "stall:0.3:30"),
        ("skewed-clock", "skew:512|delay:0.2:50"),
    ]
}

/// Looks up a named schedule's spec string.
#[must_use]
pub fn named_schedule(name: &str) -> Option<&'static str> {
    named_schedules()
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, spec)| *spec)
}

/// What the plan decided for one `prepare` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrepareFault {
    /// The shard crashes between `prepare` and the decision: its volatile
    /// lock state is lost, and its recovery presumes abort. The coordinator
    /// sees the prepare fail.
    Crash,
    /// The prepare completes and the shard holds its frozen locks for this
    /// long, but the response is lost: the coordinator sees the deadline
    /// missed, and the shard, hearing no decision, aborts (presumed abort).
    DropResponse(Duration),
    /// The shard stalls this long before serving the prepare: the
    /// coordinator sees the deadline missed, and the late prepare aborts.
    Stall(Duration),
}

/// Trace lines a [`FaultPlan`] keeps: the first `TRACE_CAP` injections are
/// recorded, later ones only counted. A figure run injects a delay per
/// operation, hundreds of thousands a second, which an unbounded trace would
/// hold in memory for the life of the engine.
pub const TRACE_CAP: usize = 10_000;

/// A seeded, deterministic fault-decision oracle over a [`FaultSpec`].
///
/// Decisions are pure functions of `(seed, shard, sequence, decision point)`
/// — no shared RNG stream — so per-shard operation order alone determines the
/// injected faults. A single-threaded workload replay therefore produces a
/// byte-identical [`FaultPlan::trace_string`] across runs with the same seed.
/// Under real concurrency the *decisions for a given (shard, seq) pair* are
/// still reproducible, but the global trace order follows thread interleaving.
pub struct FaultPlan {
    spec: FaultSpec,
    seed: u64,
    counters: [AtomicU64; 5],
    trace: Mutex<Vec<String>>,
}

/// Decision-point salts: keep the per-kind hash streams independent.
const SALT_DELAY: u64 = 0xD31A;
const SALT_DROP: u64 = 0xD709;
const SALT_CRASH: u64 = 0xC7A5;
const SALT_STALL: u64 = 0x57A1;
const SALT_SKEW: u64 = 0x5E3B;

impl FaultPlan {
    /// Builds a plan from a spec and a seed.
    #[must_use]
    pub fn new(spec: FaultSpec, seed: u64) -> Self {
        FaultPlan {
            spec,
            seed,
            counters: Default::default(),
            trace: Mutex::named("faults.trace", 72, Vec::new()),
        }
    }

    /// Parses `spec` and builds a plan in one step.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultParseError`] when the spec string is malformed.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, FaultParseError> {
        Ok(FaultPlan::new(FaultSpec::parse(spec)?, seed))
    }

    /// The plan's spec.
    #[must_use]
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// The plan's seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of injections of `kind` so far.
    #[must_use]
    pub fn count(&self, kind: FaultKind) -> u64 {
        self.counters[kind.index()].load(Ordering::Relaxed)
    }

    /// Total injections across all kinds.
    #[must_use]
    pub fn total_injected(&self) -> u64 {
        FaultKind::ALL.iter().map(|k| self.count(*k)).sum()
    }

    /// The recorded fault trace, one line per injection, in injection order,
    /// truncated to the first [`TRACE_CAP`] injections (the counters stay
    /// exact).
    #[must_use]
    pub fn trace(&self) -> Vec<String> {
        self.trace.lock().clone()
    }

    /// The trace as one newline-joined string — the unit of the byte-identity
    /// reproducibility check.
    #[must_use]
    pub fn trace_string(&self) -> String {
        self.trace.lock().join("\n")
    }

    /// The delay (if any) to inject before shard `shard` serves its `seq`-th
    /// operation.
    #[must_use]
    pub fn op_delay(&self, shard: usize, seq: u64) -> Option<Duration> {
        let (p, max_us) = self.spec.delay?;
        if !self.hit(SALT_DELAY, shard, seq, p) {
            return None;
        }
        let us = 1 + self.mix(SALT_DELAY ^ 0xFF, shard, seq) % max_us;
        self.record(FaultKind::Delay, shard, seq, format_args!(" us={us}"));
        Some(Duration::from_micros(us))
    }

    /// The fault (if any) to inject around shard `shard`'s `seq`-th prepare.
    /// At most one prepare fault fires per call; crash wins over drop wins
    /// over stall, each rolled independently.
    #[must_use]
    pub fn prepare_fault(&self, shard: usize, seq: u64) -> Option<PrepareFault> {
        if let Some(p) = self.spec.crash_mid_prepare {
            if self.hit(SALT_CRASH, shard, seq, p) {
                self.record(FaultKind::CrashMidPrepare, shard, seq, format_args!(""));
                return Some(PrepareFault::Crash);
            }
        }
        if let Some((p, hold_ms)) = self.spec.drop_prepare {
            if self.hit(SALT_DROP, shard, seq, p) {
                self.record(
                    FaultKind::DropPrepare,
                    shard,
                    seq,
                    format_args!(" hold_ms={hold_ms}"),
                );
                return Some(PrepareFault::DropResponse(Duration::from_millis(hold_ms)));
            }
        }
        if let Some((p, stall_ms)) = self.spec.stall {
            if self.hit(SALT_STALL, shard, seq, p) {
                self.record(FaultKind::Stall, shard, seq, format_args!(" ms={stall_ms}"));
                return Some(PrepareFault::Stall(Duration::from_millis(stall_ms)));
            }
        }
        None
    }

    /// The constant clock offset (in ticks, signed) shard `shard` reads, for
    /// the ε-clock skew scenarios. Zero when the spec carries no skew.
    #[must_use]
    pub fn shard_skew(&self, shard: usize) -> i64 {
        let max = self.spec.skew_ticks;
        if max == 0 {
            return 0;
        }
        let span = 2 * max + 1;
        let draw = self.mix(SALT_SKEW, shard, 0) % span;
        draw as i64 - max as i64
    }

    /// Records one skew application (called by the enforcement layer when it
    /// actually perturbs a timestamp, so counters reflect real injections).
    pub fn note_skew(&self, shard: usize, seq: u64, offset: i64) {
        if offset != 0 {
            self.record(
                FaultKind::Skew,
                shard,
                seq,
                format_args!(" offset={offset}"),
            );
        }
    }

    /// Deterministic `[0, 1)` draw for `(salt, shard, seq)` against `p`.
    fn hit(&self, salt: u64, shard: usize, seq: u64, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // 53 mantissa bits of the mix as a uniform draw in [0, 1).
        let draw = (self.mix(salt, shard, seq) >> 11) as f64 / (1u64 << 53) as f64;
        draw < p
    }

    /// splitmix64 over the (seed, salt, shard, seq) tuple.
    fn mix(&self, salt: u64, shard: usize, seq: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((shard as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(seq.wrapping_mul(0x94D0_49BB_1331_11EB));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Counts one injection and traces it while the trace is under
    /// [`TRACE_CAP`]; `detail` is formatted only when it is traced.
    fn record(&self, kind: FaultKind, shard: usize, seq: u64, detail: fmt::Arguments<'_>) {
        self.counters[kind.index()].fetch_add(1, Ordering::Relaxed);
        let mut trace = self.trace.lock();
        if trace.len() < TRACE_CAP {
            trace.push(format!("{} shard={shard} seq={seq}{detail}", kind.label()));
        }
    }
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("spec", &self.spec)
            .field("seed", &self.seed)
            .field("injected", &self.total_injected())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_clause_kind() {
        let spec =
            FaultSpec::parse("delay:0.5:200|drop:0.2:40|crash:0.1|stall:0.3:25|skew:512").unwrap();
        assert_eq!(spec.delay, Some((0.5, 200)));
        assert_eq!(spec.drop_prepare, Some((0.2, 40)));
        assert_eq!(spec.crash_mid_prepare, Some(0.1));
        assert_eq!(spec.stall, Some((0.3, 25)));
        assert_eq!(spec.skew_ticks, 512);
        assert!(!spec.is_empty());
    }

    #[test]
    fn drop_hold_defaults_and_empty_spec() {
        let spec = FaultSpec::parse("drop:0.5").unwrap();
        assert_eq!(spec.drop_prepare, Some((0.5, DEFAULT_DROP_HOLD_MS)));
        assert!(FaultSpec::parse("").unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_clauses() {
        for bad in [
            "flood:0.5",      // unknown clause
            "delay",          // missing probability
            "delay:0.5",      // missing amount
            "delay:2.0:10",   // probability out of range
            "delay:-0.1:10",  // probability out of range
            "crash:yes",      // non-numeric
            "skew:many",      // non-numeric
            "crash:0.5:7",    // extra args
            "skew:5:7",       // extra args
            "delay:0.5:10:9", // extra args
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn named_schedules_all_parse() {
        for (name, spec) in named_schedules() {
            let parsed = FaultSpec::parse(spec).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!parsed.is_empty(), "{name} must inject something");
            assert_eq!(named_schedule(name), Some(*spec));
        }
        assert_eq!(named_schedule("nothing"), None);
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let spec = FaultSpec::parse("delay:0.5:100|drop:0.3:20|crash:0.2|stall:0.3:10").unwrap();
        let a = FaultPlan::new(spec, 7);
        let b = FaultPlan::new(spec, 7);
        for shard in 0..4 {
            for seq in 0..64 {
                assert_eq!(a.op_delay(shard, seq), b.op_delay(shard, seq));
                assert_eq!(a.prepare_fault(shard, seq), b.prepare_fault(shard, seq));
                assert_eq!(a.shard_skew(shard), b.shard_skew(shard));
            }
        }
        assert_eq!(a.trace_string(), b.trace_string());
        assert!(a.total_injected() > 0, "schedule must fire at these rates");
    }

    #[test]
    fn different_seeds_differ() {
        let spec = FaultSpec::parse("delay:0.5:100").unwrap();
        let a = FaultPlan::new(spec, 1);
        let b = FaultPlan::new(spec, 2);
        let decisions = |p: &FaultPlan| -> Vec<bool> {
            (0..256).map(|seq| p.op_delay(0, seq).is_some()).collect()
        };
        assert_ne!(decisions(&a), decisions(&b));
    }

    #[test]
    fn probabilities_are_roughly_respected() {
        let spec = FaultSpec::parse("delay:0.25:100").unwrap();
        let plan = FaultPlan::new(spec, 99);
        let hits = (0..4_000)
            .filter(|seq| plan.op_delay(0, *seq).is_some())
            .count();
        let rate = hits as f64 / 4_000.0;
        assert!((rate - 0.25).abs() < 0.05, "rate {rate} far from 0.25");
        assert_eq!(plan.count(FaultKind::Delay), hits as u64);
    }

    #[test]
    fn skew_is_bounded_constant_per_shard_and_traceable() {
        let spec = FaultSpec::parse("skew:100").unwrap();
        let plan = FaultPlan::new(spec, 3);
        let mut nonzero = false;
        for shard in 0..32 {
            let skew = plan.shard_skew(shard);
            assert!(skew.unsigned_abs() <= 100);
            assert_eq!(skew, plan.shard_skew(shard), "constant per shard");
            nonzero |= skew != 0;
        }
        assert!(nonzero, "32 shards at ±100 ticks should include a nonzero");
        plan.note_skew(0, 0, 5);
        plan.note_skew(0, 1, 0); // zero offsets are not trace events
        assert_eq!(plan.count(FaultKind::Skew), 1);
        assert_eq!(plan.trace_string(), "skew shard=0 seq=0 offset=5");
    }

    #[test]
    fn trace_is_capped_while_counters_stay_exact() {
        let plan = FaultPlan::new(FaultSpec::parse("delay:1:10").unwrap(), 1);
        for seq in 0..1_000_000 {
            assert!(plan.op_delay(0, seq).is_some());
        }
        assert_eq!(plan.count(FaultKind::Delay), 1_000_000);
        let trace = plan.trace();
        assert_eq!(trace.len(), TRACE_CAP);
        assert!(trace[0].starts_with("delay shard=0 seq=0 us="));
    }

    #[test]
    fn prepare_fault_priority_is_crash_over_drop_over_stall() {
        let spec = FaultSpec::parse("crash:1.0|drop:1.0|stall:1.0:10").unwrap();
        let plan = FaultPlan::new(spec, 5);
        assert_eq!(plan.prepare_fault(0, 0), Some(PrepareFault::Crash));
        let spec = FaultSpec::parse("drop:1.0:20|stall:1.0:10").unwrap();
        let plan = FaultPlan::new(spec, 5);
        assert_eq!(
            plan.prepare_fault(0, 0),
            Some(PrepareFault::DropResponse(Duration::from_millis(20)))
        );
        let spec = FaultSpec::parse("stall:1.0:10").unwrap();
        let plan = FaultPlan::new(spec, 5);
        assert_eq!(
            plan.prepare_fault(0, 0),
            Some(PrepareFault::Stall(Duration::from_millis(10)))
        );
    }
}
