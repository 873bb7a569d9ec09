//! # mvtl-registry
//!
//! The string-spec engine registry: one uniform way to construct every
//! concurrency-control engine in the workspace as a `Box<dyn Engine<V>>`.
//!
//! The paper's whole point is comparing many protocols (six MVTL policies,
//! MVTO+, 2PL) on identical inputs. With the object-safe [`Engine`] layer, a
//! consumer only needs a way to *name* an engine; this crate provides it:
//!
//! ```text
//! "mvtil-early"                  MVTIL with early commit-timestamp pick
//! "mvtil-late?delta=5000"        MVTIL-late, interval width Δ = 5000 ticks
//! "mvtl-pref?offset=-28"         MVTL-Pref with alternative offsets
//! "mvtl-epsilon-clock?eps=16"    MVTL-ε-clock
//! "2pl?timeout_ms=10"            strict 2PL, 10 ms deadlock timeout
//! "mvto+"                        the MVTO+ baseline
//! "sharded?shards=8&inner=mvtil-early"
//!                                partitioned engine: hash-routed shards,
//!                                §7 cross-shard interval-intersection commit
//! "mvtil-early?gc_ms=100&gc_lag_ms=50"
//!                                any engine + background GC: a `mvtl-gc`
//!                                service purges below
//!                                min(low watermark, now − gc_lag) every gc_ms
//! "mvto+?fault=delay:1:240"       any engine + a seeded per-operation
//!                                delay of 1–240 µs: a round trip per call
//! "mvtil-early?wal=/data/log&fsync=always"
//!                                any engine + durability: a `mvtl-wal`
//!                                write-ahead log in the given directory
//!                                (`wal=tmp` for a fresh throwaway dir),
//!                                recovered on build; sharded engines log
//!                                per shard under `<dir>/shard-<i>`
//! ```
//!
//! A spec is `name` optionally followed by `?key=value&key=value` parameters.
//! [`build`] turns a spec into a ready `Box<dyn Engine<u64>>` ([`build_for`]
//! for other value types), and [`all_specs`] enumerates one canonical spec per
//! engine so sweeps (benchmarks, figure binaries, CI smoke runs) pick up new
//! engines automatically. Adding an engine to the workspace is a change here
//! (a name and a `match` arm), not an edit to every consumer.
//!
//! Every spec is composed one way: a [`ShardedStore`] of one or more shard
//! backends — one unless the spec is `sharded` — each optionally wrapped in
//! fault injection and a write-ahead log, and the store optionally given its
//! own GC sweeper (see [`build_for`]). The paper's single server is the
//! one-participant case of its §7 protocol, and the code is built that way.
//!
//! # Example
//!
//! ```
//! use mvtl_common::{EngineExt, Key, ProcessId};
//!
//! let engine = mvtl_registry::build("mvtil-early?delta=1000").unwrap();
//! assert_eq!(engine.name(), "mvtil-early");
//!
//! let mut tx = engine.begin(ProcessId(1));
//! tx.write(Key(1), 42).unwrap();
//! tx.commit().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mvtl_baselines::{MvtoStore, TwoPhaseLockingStore};
use mvtl_clock::{ClockSource, GlobalClock};
use mvtl_common::{Engine, TempDir};
use mvtl_core::policy::{
    EpsilonPolicy, GhostbusterPolicy, LockingPolicy, MvtilPolicy, PessimisticPolicy, PrefPolicy,
    PrioPolicy, ToPolicy,
};
use mvtl_core::{MvtlConfig, MvtlStore};
use mvtl_faults::{FaultPlan, FaultSpec};
use mvtl_gc::GcConfig;
use mvtl_shard::{FaultyBackend, IntersectionPick, KvBackend, ShardBackend, ShardedStore};
use mvtl_wal::{FsyncMode, Recovery, Wal, WalBackend, WalOptions, WalValue};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Errors produced while parsing a spec or constructing an engine from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The base name does not match any registered engine.
    UnknownEngine {
        /// The base name that failed to resolve.
        name: String,
    },
    /// A parameter is not understood by the selected engine.
    UnknownParam {
        /// The engine the spec selected.
        engine: String,
        /// The offending parameter key.
        param: String,
    },
    /// A parameter value failed to parse.
    InvalidValue {
        /// The parameter key.
        param: String,
        /// The value that failed to parse.
        value: String,
    },
    /// The spec is syntactically malformed (empty name, `key` without `=`, ...).
    Malformed {
        /// Description of the problem.
        detail: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownEngine { name } => {
                write!(f, "unknown engine {name:?}; known specs: ")?;
                for (i, spec) in all_specs().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{spec}")?;
                }
                Ok(())
            }
            SpecError::UnknownParam { engine, param } => {
                write!(
                    f,
                    "engine {engine:?} does not understand parameter {param:?}"
                )
            }
            SpecError::InvalidValue { param, value } => {
                write!(f, "invalid value {value:?} for parameter {param:?}")
            }
            SpecError::Malformed { detail } => write!(f, "malformed engine spec: {detail}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// A parsed engine spec: base name plus `key=value` parameters, in spec order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSpec {
    /// The engine's base name (what [`Engine::name`] reports).
    pub name: String,
    /// The parameters, in the order they appeared.
    pub params: Vec<(String, String)>,
}

impl EngineSpec {
    /// Parses `spec` (`"name"` or `"name?key=value&key=value"`).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Malformed`] when the name is empty or a parameter
    /// lacks a `=`.
    pub fn parse(spec: &str) -> Result<Self, SpecError> {
        let (name, query) = match spec.split_once('?') {
            Some((name, query)) => (name, Some(query)),
            None => (spec, None),
        };
        let name = name.trim();
        if name.is_empty() {
            return Err(SpecError::Malformed {
                detail: format!("empty engine name in {spec:?}"),
            });
        }
        let mut params = Vec::new();
        if let Some(query) = query {
            for pair in query.split('&').filter(|p| !p.is_empty()) {
                let (key, value) = pair.split_once('=').ok_or_else(|| SpecError::Malformed {
                    detail: format!("parameter {pair:?} is not key=value"),
                })?;
                params.push((key.trim().to_string(), value.trim().to_string()));
            }
        }
        Ok(EngineSpec {
            name: name.to_string(),
            params,
        })
    }

    /// The base engine name of a spec string (everything before `?`).
    #[must_use]
    pub fn base_name(spec: &str) -> &str {
        spec.split('?').next().unwrap_or(spec)
    }

    /// Appends `key=value&...` parameters to a spec string, using `?` or `&`
    /// as appropriate. Sweep helpers use this to parameterize `all_specs()`
    /// entries, some of which (the `sharded` ones) already carry a query
    /// string.
    #[must_use]
    pub fn append_params(spec: &str, params: &str) -> String {
        if spec.contains('?') {
            format!("{spec}&{params}")
        } else {
            format!("{spec}?{params}")
        }
    }

    /// Splits `spec` into the parameters whose keys start with `prefix` (with
    /// the prefix stripped) and the remaining spec string, ready for
    /// [`build`].
    ///
    /// This is how front-ends layer their own knobs onto an engine spec
    /// without the registry having to know them: the `mvtl-server` crate
    /// configures itself from `serve_`-prefixed parameters
    /// (`"mvtil-early?delta=500&serve_max_txns=64"` → server cap 64, engine
    /// spec `"mvtil-early?delta=500"`), and anything left over is still
    /// validated by the engine constructor as usual.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Malformed`] when `spec` does not parse.
    pub fn split_prefixed(
        spec: &str,
        prefix: &str,
    ) -> Result<(Vec<(String, String)>, String), SpecError> {
        let parsed = EngineSpec::parse(spec)?;
        let (prefixed, rest): (Vec<_>, Vec<_>) = parsed
            .params
            .into_iter()
            .partition(|(k, _)| k.starts_with(prefix));
        let prefixed = prefixed
            .into_iter()
            .map(|(k, v)| (k[prefix.len()..].to_string(), v))
            .collect();
        let remaining = EngineSpec {
            name: parsed.name,
            params: rest,
        };
        Ok((prefixed, remaining.to_string()))
    }

    fn take(&mut self, key: &str) -> Option<String> {
        let idx = self.params.iter().position(|(k, _)| k == key)?;
        Some(self.params.remove(idx).1)
    }

    fn take_parsed<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, SpecError> {
        match self.take(key) {
            None => Ok(None),
            Some(value) => value
                .parse()
                .map(Some)
                .map_err(|_| SpecError::InvalidValue {
                    param: key.to_string(),
                    value,
                }),
        }
    }

    /// Errors out if any parameter was not consumed by the engine constructor.
    fn finish(self) -> Result<(), SpecError> {
        match self.params.into_iter().next() {
            None => Ok(()),
            Some((param, _)) => Err(SpecError::UnknownParam {
                engine: self.name,
                param,
            }),
        }
    }
}

impl fmt::Display for EngineSpec {
    /// Renders the spec back to its string form (`name?key=value&...`),
    /// parseable by [`EngineSpec::parse`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        for (i, (key, value)) in self.params.iter().enumerate() {
            write!(f, "{}{key}={value}", if i == 0 { '?' } else { '&' })?;
        }
        Ok(())
    }
}

/// Default MVTIL interval width Δ (in clock ticks) when a spec omits `delta`.
pub const DEFAULT_DELTA: u64 = 100_000;
/// Default ε (clock-synchronization bound, in ticks) for `mvtl-epsilon-clock`.
pub const DEFAULT_EPSILON: u64 = 8;
/// Default 2PL deadlock-resolution timeout in milliseconds.
pub const DEFAULT_2PL_TIMEOUT_MS: u64 = 10;
/// Default partition count for the `sharded` engine.
pub const DEFAULT_SHARD_COUNT: usize = 8;
/// Default inner engine of the `sharded` engine's partitions.
pub const DEFAULT_SHARD_INNER: &str = "mvtil-early";
/// Default GC lag in milliseconds when a spec sets `gc_ms` but omits
/// `gc_lag_ms`: the purge bound trails the clock by this much on top of the
/// active-transaction watermark.
pub const DEFAULT_GC_LAG_MS: u64 = 50;
/// Default fault-plan seed when a spec sets `fault=` but omits `fault_seed`.
pub const DEFAULT_FAULT_SEED: u64 = 42;
/// Default write-ahead-log segment size in KiB when a spec sets `wal=` but
/// omits `wal_segment_kb`.
pub const DEFAULT_WAL_SEGMENT_KB: u64 = 1024;

/// One canonical spec per registered engine, for sweeps.
///
/// Benchmarks, figure binaries and CI smoke runs iterate this list, so wiring
/// a new engine into the registry automatically enrolls it everywhere.
#[must_use]
pub fn all_specs() -> Vec<&'static str> {
    vec![
        "mvtil-early",
        "mvtil-late",
        "mvtl-to",
        "mvtl-ghostbuster",
        "mvtl-epsilon-clock",
        "mvtl-pref",
        "mvtl-prio",
        "mvtl-pessimistic",
        "mvto+",
        "2pl",
        "sharded?shards=8&inner=mvtil-early",
        "sharded?shards=2&inner=mvtl-to",
        "mvtil-early?wal=tmp&fsync=always",
    ]
}

/// Builds the engine described by `spec` storing `u64` values — the value type
/// used throughout the benchmarks and the verifier.
///
/// # Errors
///
/// Returns a [`SpecError`] when the spec is malformed, names an unknown
/// engine, or carries an unknown/invalid parameter.
pub fn build(spec: &str) -> Result<Box<dyn Engine<u64>>, SpecError> {
    build_for::<u64>(spec)
}

/// Builds the engine described by `spec` for an arbitrary value type.
///
/// Shared parameters for every engine: `clock_start` (initial reading of the
/// global clock, default 0), `gc_ms` (background GC sweep interval in
/// milliseconds; absent — the default — means no GC thread) and `gc_lag_ms`
/// (purge-bound lag behind the clock, default [`DEFAULT_GC_LAG_MS`]; requires
/// `gc_ms`). With `gc_ms` set the store runs its own background sweeper
/// ([`ShardedStore::with_gc`]), which purges every shard below
/// `min(low watermark, now − gc_lag)` every `gc_ms` and is joined when the
/// engine drops. Shared parameter for all MVTL-core engines: `timeout_ms`
/// (lock-wait timeout, default 100). Engine-specific
/// parameters: `delta` (MVTIL, ticks), `eps` (`mvtl-epsilon-clock`, ticks),
/// `offset` (`mvtl-pref`, comma-separated signed tick offsets), `timeout_ms`
/// (2PL, milliseconds).
///
/// Round trips, for every engine: `fault=delay:<p>:<max_us>` sleeps before
/// each operation with probability `p` for up to `max_us` µs, and
/// `fault_seed` seeds the schedule (default [`DEFAULT_FAULT_SEED`]). The
/// prepare and skew clauses need at least two shards; a `drop:` or `stall:`
/// prepare always misses its deadline, and the commit fails with
/// `PrepareTimedOut` at once (presumed abort).
///
/// Durability, for every engine: `wal=<dir>` attaches a `mvtl-wal`
/// write-ahead log in `<dir>` (`wal=tmp` for a fresh temporary directory
/// removed when the engine drops), replaying whatever the log already holds
/// before the engine is returned — committed write sets reappear at their
/// original timestamps and the clock starts past the largest recovered
/// commit. `fsync=always|off` picks the log's sync policy (default `always`:
/// commits acknowledged once durable, concurrent commits sharing one fsync;
/// `group` is accepted as another name for it) and
/// `wal_segment_kb` the segment-roll size (default
/// [`DEFAULT_WAL_SEGMENT_KB`]); both require `wal`. The `sharded` engine
/// logs per shard under `<dir>/shard-<i>`, where recovery also commits the
/// cross-shard prepares whose decision was logged and logs an abort for the
/// undecided ones (presumed abort). The value type must implement
/// [`WalValue`] (as `u64` and `String`, the types the workspace measures,
/// both do).
///
/// Every spec is composed the same way: `count` copies of one shard backend
/// (the named engine, or `sharded`'s `inner` one), each wrapped in a
/// [`FaultyBackend`] (`fault=`) and then a
/// [`WalBackend`] (`wal=`), put in one [`ShardedStore`] named after the
/// spec's base name, which runs its own GC sweeper when `gc_ms` is set.
/// `count` is `sharded`'s `shards` and 1 for every other engine; a one-shard
/// store behaves exactly like the bare engine. A cross-shard commit picks
/// the largest timestamp of the shards' common interval when the shards run
/// `mvtil-late` and the smallest otherwise. Every parameter is validated
/// before any log is opened, so a rejected spec never touches the disk.
///
/// # Errors
///
/// Returns a [`SpecError`] when the spec is malformed, names an unknown
/// engine, or carries an unknown/invalid parameter.
pub fn build_for<V>(spec: &str) -> Result<Box<dyn Engine<V>>, SpecError>
where
    V: WalValue + Clone + Send + Sync + 'static,
{
    let mut parsed = EngineSpec::parse(spec)?;
    let name = ENGINES
        .into_iter()
        .find(|name| *name == parsed.name)
        .ok_or_else(|| SpecError::UnknownEngine {
            name: parsed.name.clone(),
        })?;
    let clock_start = parsed.take_parsed::<u64>("clock_start")?;
    let gc = take_gc_config(&mut parsed)?;
    let wal = take_wal_config(&mut parsed)?;
    let sharded = name == "sharded";
    let layout = if sharded {
        take_sharded_layout(&mut parsed)?
    } else {
        Layout {
            inner: name.to_string(),
            count: 1,
        }
    };
    let fault = take_fault_plan(&mut parsed, layout.count)?;
    let backend = take_backend::<V>(&layout.inner, &mut parsed)?;
    parsed.finish()?;

    // The logs open before the clock exists: recovery reports the largest
    // committed timestamp, and the clock must start past it so post-crash
    // transactions serialize after the recovered state.
    let logs = open_logs::<V>(wal, layout.count, sharded)?;
    let base = clock_start.unwrap_or(1);
    let start = logs
        .iter()
        .filter_map(|(_, recovery)| recovery.max_commit_ts())
        .max()
        .map_or(base, |ts| base.max(ts.value + 1));
    let clock: Arc<dyn ClockSource> = Arc::new(GlobalClock::starting_at(start));
    let mut logs = logs.into_iter();
    let mut shards = Vec::with_capacity(layout.count);
    for i in 0..layout.count {
        let mut shard = backend(Arc::clone(&clock));
        if let Some(plan) = &fault {
            shard = FaultyBackend::wrap(shard, Arc::clone(plan), i);
        }
        // The log wraps outside the fault layer: recovery replays through it
        // into the real backend, while live prepares/decisions reach the log
        // only after surviving injected faults — so the log never records an
        // ack the coordinator did not see.
        if let Some((wal, recovery)) = logs.next() {
            shard = WalBackend::with_recovery(shard, wal, recovery)
                .map_err(wal_spec_err)?
                .0;
        }
        shards.push(shard);
    }
    let pick = if layout.inner == "mvtil-late" {
        IntersectionPick::Max
    } else {
        IntersectionPick::Min
    };
    let mut store = ShardedStore::new(shards, Arc::clone(&clock), pick).with_name(name);
    if let Some(config) = gc {
        store = store.with_gc(config);
    }
    Ok(Box::new(store))
}

/// Every engine base name the registry builds.
const ENGINES: [&str; 11] = [
    "mvtil-early",
    "mvtil-late",
    "mvtl-to",
    "mvtl-ghostbuster",
    "mvtl-epsilon-clock",
    "mvtl-pref",
    "mvtl-prio",
    "mvtl-pessimistic",
    "mvto+",
    "2pl",
    "sharded",
];

/// Consumes the shared `gc_ms` / `gc_lag_ms` parameters. `Some` means "give
/// the store a GC sweeper with this configuration".
fn take_gc_config(parsed: &mut EngineSpec) -> Result<Option<GcConfig>, SpecError> {
    let gc_ms = parsed.take_parsed::<u64>("gc_ms")?;
    let gc_lag_ms = parsed.take_parsed::<u64>("gc_lag_ms")?;
    match (gc_ms, gc_lag_ms) {
        (None, None) => Ok(None),
        (None, Some(_)) => Err(SpecError::Malformed {
            detail: "gc_lag_ms requires gc_ms (no GC service without an interval)".to_string(),
        }),
        (Some(0), _) => Err(SpecError::InvalidValue {
            param: "gc_ms".to_string(),
            value: "0".to_string(),
        }),
        (Some(ms), lag) => Ok(Some(
            GcConfig::default()
                .with_interval(Duration::from_millis(ms))
                .with_lag(Duration::from_millis(lag.unwrap_or(DEFAULT_GC_LAG_MS))),
        )),
    }
}

/// The consumed `wal` / `fsync` / `wal_segment_kb` parameters.
struct WalConfig {
    /// The log directory; `None` for `wal=tmp`, a throwaway temporary
    /// directory created when the log opens and removed with the engine.
    dir: Option<PathBuf>,
    options: WalOptions,
}

/// Consumes the shared `wal` / `fsync` / `wal_segment_kb` parameters. `Some`
/// means "open a log there and wrap every shard in it".
fn take_wal_config(parsed: &mut EngineSpec) -> Result<Option<WalConfig>, SpecError> {
    let wal = parsed.take("wal");
    let fsync = parsed.take("fsync");
    let segment_kb = parsed.take_parsed::<u64>("wal_segment_kb")?;
    let Some(dir) = wal else {
        let orphan = if fsync.is_some() {
            Some("fsync")
        } else if segment_kb.is_some() {
            Some("wal_segment_kb")
        } else {
            None
        };
        return match orphan {
            None => Ok(None),
            Some(param) => Err(SpecError::Malformed {
                detail: format!("{param} requires wal (no log without a directory)"),
            }),
        };
    };
    let fsync = match fsync {
        None => FsyncMode::Always,
        Some(mode) => FsyncMode::parse(&mode).ok_or(SpecError::InvalidValue {
            param: "fsync".to_string(),
            value: mode.clone(),
        })?,
    };
    if segment_kb == Some(0) {
        return Err(SpecError::InvalidValue {
            param: "wal_segment_kb".to_string(),
            value: "0".to_string(),
        });
    }
    let options = WalOptions {
        fsync,
        segment_bytes: segment_kb.unwrap_or(DEFAULT_WAL_SEGMENT_KB) * 1024,
    };
    let dir = (dir != "tmp").then(|| PathBuf::from(dir));
    Ok(Some(WalConfig { dir, options }))
}

fn wal_spec_err(err: mvtl_wal::WalError) -> SpecError {
    SpecError::Malformed {
        detail: format!("wal attach failed: {err}"),
    }
}

/// Opens (scanning and truncating torn tails, but not yet replaying) one log
/// per shard, or none without `wal=`: shard `i` of a `sharded` spec logs
/// under `<dir>/shard-<i>`, the one shard of every other spec into `<dir>`
/// itself. For `wal=tmp`, the temporary directory's lifetime is handed to
/// the last shard's log — shards drop in index order, so it drops last and
/// the whole tree disappears with the engine.
fn open_logs<V: WalValue>(
    config: Option<WalConfig>,
    count: usize,
    per_shard_dirs: bool,
) -> Result<Vec<(Wal, Recovery<V>)>, SpecError> {
    let Some(WalConfig { dir, options }) = config else {
        return Ok(Vec::new());
    };
    let (root, tmp) = match dir {
        Some(dir) => (dir, None),
        None => {
            let tmp = TempDir::new("mvtl-wal");
            (tmp.path().to_path_buf(), Some(tmp))
        }
    };
    let mut logs = (0..count)
        .map(|i| {
            let dir = if per_shard_dirs {
                root.join(format!("shard-{i}"))
            } else {
                root.clone()
            };
            Wal::open::<V>(&dir, options).map_err(wal_spec_err)
        })
        .collect::<Result<Vec<_>, _>>()?;
    if let (Some(tmp), Some((wal, _))) = (tmp, logs.last_mut()) {
        wal.retain_dir(tmp);
    }
    Ok(logs)
}

/// How many copies of which engine a spec composes.
struct Layout {
    /// The engine each shard runs: the spec's own, or `sharded`'s `inner`.
    inner: String,
    count: usize,
}

/// Consumes the `sharded` engine's own parameters: `shards` (partition
/// count, default [`DEFAULT_SHARD_COUNT`], at least 1) and `inner`
/// (partition engine, default [`DEFAULT_SHARD_INNER`]; any MVTL-core engine
/// name — the baselines cannot freeze intervals and are rejected). The
/// inner engine's own parameters (`delta`, `eps`, `offset`, `timeout_ms`)
/// are consumed with the inner engine. With `gc_ms` set, the store's one
/// sweeper purges *all* shards under the store's aggregated low watermark.
fn take_sharded_layout(parsed: &mut EngineSpec) -> Result<Layout, SpecError> {
    let count = match parsed.take_parsed::<usize>("shards")? {
        None => DEFAULT_SHARD_COUNT,
        Some(0) => {
            return Err(SpecError::InvalidValue {
                param: "shards".to_string(),
                value: "0".to_string(),
            })
        }
        Some(count) => count,
    };
    let inner = parsed
        .take("inner")
        .unwrap_or_else(|| DEFAULT_SHARD_INNER.to_string());
    if matches!(inner.as_str(), "mvto+" | "2pl") {
        // The baselines cannot freeze a commit interval, so they cannot
        // participate in the §7 protocol.
        return Err(SpecError::InvalidValue {
            param: "inner".to_string(),
            value: inner,
        });
    }
    Ok(Layout { inner, count })
}

/// Consumes the shared fault-injection parameters: `fault` (a `mvtl-faults`
/// schedule string such as `delay:1:240` or `delay:0.4:200|crash:0.1`; every
/// shard backend is wrapped in a [`FaultyBackend`] consulting one shared
/// seeded [`FaultPlan`]) and `fault_seed` (plan seed, default
/// [`DEFAULT_FAULT_SEED`]; requires `fault`). `delay:` applies to every
/// engine. The other clauses act on the §7 prepare (`drop`, `stall`,
/// `crash`) or on pinned begin timestamps (`skew`), which a one-shard
/// engine never has, so they are rejected when `count` is 1.
fn take_fault_plan(
    parsed: &mut EngineSpec,
    count: usize,
) -> Result<Option<Arc<FaultPlan>>, SpecError> {
    let fault = parsed.take("fault");
    let fault_seed = parsed.take_parsed::<u64>("fault_seed")?;
    let Some(schedule) = fault else {
        if fault_seed.is_some() {
            return Err(SpecError::Malformed {
                detail: "fault_seed requires fault (no fault plan without a schedule)".to_string(),
            });
        }
        return Ok(None);
    };
    let invalid = |detail: &str| SpecError::InvalidValue {
        param: "fault".to_string(),
        value: format!("{schedule} ({detail})"),
    };
    let spec = FaultSpec::parse(&schedule).map_err(|err| invalid(&err.detail))?;
    let multi_shard_only = spec.drop_prepare.is_some()
        || spec.crash_mid_prepare.is_some()
        || spec.stall.is_some()
        || spec.skew_ticks > 0;
    if count == 1 && multi_shard_only {
        return Err(invalid(
            "a one-shard engine never prepares or pins a timestamp: only delay applies",
        ));
    }
    Ok(Some(Arc::new(FaultPlan::new(
        spec,
        fault_seed.unwrap_or(DEFAULT_FAULT_SEED),
    ))))
}

/// Builds one shard backend reading the given clock.
type BackendFactory<V> = Box<dyn Fn(Arc<dyn ClockSource>) -> Arc<dyn ShardBackend<V>>>;

/// Consumes engine `name`'s own parameters and returns a factory for one
/// shard of it — the registry's one `match` over engine names.
fn take_backend<V>(name: &str, parsed: &mut EngineSpec) -> Result<BackendFactory<V>, SpecError>
where
    V: Clone + Send + Sync + 'static,
{
    let delta = |parsed: &mut EngineSpec| -> Result<u64, SpecError> {
        Ok(parsed.take_parsed("delta")?.unwrap_or(DEFAULT_DELTA))
    };
    Ok(match name {
        "mvtil-early" => mvtl(MvtilPolicy::early(delta(parsed)?), parsed)?,
        "mvtil-late" => mvtl(MvtilPolicy::late(delta(parsed)?), parsed)?,
        "mvtl-to" => mvtl(ToPolicy::new(), parsed)?,
        "mvtl-ghostbuster" => mvtl(GhostbusterPolicy::new(), parsed)?,
        "mvtl-epsilon-clock" => {
            let eps = parsed.take_parsed("eps")?.unwrap_or(DEFAULT_EPSILON);
            mvtl(EpsilonPolicy::new(eps), parsed)?
        }
        "mvtl-pref" => {
            let policy = match parsed.take("offset") {
                None => PrefPolicy::new(),
                Some(list) => PrefPolicy::with_offsets(parse_offsets(&list)?),
            };
            mvtl(policy, parsed)?
        }
        "mvtl-prio" => mvtl(PrioPolicy::new(), parsed)?,
        "mvtl-pessimistic" => mvtl(PessimisticPolicy::new(), parsed)?,
        "mvto+" => Box::new(|clock| KvBackend::build(MvtoStore::<V>::new(clock))),
        "2pl" => {
            let timeout = Duration::from_millis(
                parsed
                    .take_parsed("timeout_ms")?
                    .unwrap_or(DEFAULT_2PL_TIMEOUT_MS),
            );
            Box::new(move |_| KvBackend::build(TwoPhaseLockingStore::<V>::new(timeout)))
        }
        // Top-level names were checked against `ENGINES`, so only a
        // `sharded` spec's `inner` can name something else.
        other => {
            return Err(SpecError::InvalidValue {
                param: "inner".to_string(),
                value: other.to_string(),
            })
        }
    })
}

/// A factory for [`MvtlStore`] shards under `policy`, consuming the shared
/// MVTL parameter `timeout_ms` (lock-wait timeout).
fn mvtl<V, P>(policy: P, parsed: &mut EngineSpec) -> Result<BackendFactory<V>, SpecError>
where
    V: Clone + Send + Sync + 'static,
    P: LockingPolicy + Clone + 'static,
{
    let mut config = MvtlConfig::default();
    if let Some(timeout_ms) = parsed.take_parsed::<u64>("timeout_ms")? {
        config = config.with_lock_wait_timeout(Duration::from_millis(timeout_ms));
    }
    Ok(Box::new(move |clock| {
        KvBackend::build(MvtlStore::new(policy.clone(), clock, config.clone()))
    }))
}

fn parse_offsets(list: &str) -> Result<Vec<i64>, SpecError> {
    list.split(',')
        .map(|s| {
            s.trim()
                .parse::<i64>()
                .map_err(|_| SpecError::InvalidValue {
                    param: "offset".to_string(),
                    value: s.trim().to_string(),
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_splits_name_and_params() {
        let spec = EngineSpec::parse("mvtl-pref?offset=5&timeout_ms=20").unwrap();
        assert_eq!(spec.name, "mvtl-pref");
        assert_eq!(
            spec.params,
            vec![
                ("offset".to_string(), "5".to_string()),
                ("timeout_ms".to_string(), "20".to_string())
            ]
        );
        assert_eq!(EngineSpec::parse("2pl").unwrap().params, vec![]);
    }

    #[test]
    fn display_round_trips_through_parse() {
        for spec in [
            "mvtil-early",
            "sharded?shards=8&inner=mvtil-early",
            "mvtl-pref?offset=-28,3&timeout_ms=20",
        ] {
            let parsed = EngineSpec::parse(spec).unwrap();
            assert_eq!(parsed.to_string(), spec);
            assert_eq!(EngineSpec::parse(&parsed.to_string()).unwrap(), parsed);
        }
    }

    #[test]
    fn split_prefixed_peels_front_end_params_off_the_engine_spec() {
        let (serve, engine) = EngineSpec::split_prefixed(
            "sharded?shards=4&serve_max_txns=64&inner=mvtl-to&serve_max_frame=4096",
            "serve_",
        )
        .unwrap();
        assert_eq!(
            serve,
            vec![
                ("max_txns".to_string(), "64".to_string()),
                ("max_frame".to_string(), "4096".to_string())
            ]
        );
        assert_eq!(engine, "sharded?shards=4&inner=mvtl-to");
        assert!(build(&engine).is_ok(), "remaining spec still builds");

        // No prefixed params: the spec passes through unchanged.
        let (serve, engine) = EngineSpec::split_prefixed("mvtil-early?delta=5", "serve_").unwrap();
        assert!(serve.is_empty());
        assert_eq!(engine, "mvtil-early?delta=5");

        // Malformed specs are rejected at the split already.
        assert!(matches!(
            EngineSpec::split_prefixed("?x=1", "serve_"),
            Err(SpecError::Malformed { .. })
        ));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(matches!(
            EngineSpec::parse("?delta=5"),
            Err(SpecError::Malformed { .. })
        ));
        assert!(matches!(
            EngineSpec::parse("mvtil-early?delta"),
            Err(SpecError::Malformed { .. })
        ));
    }

    #[test]
    fn unknown_engines_and_params_are_rejected() {
        assert!(matches!(
            build("silo").map(|_| ()),
            Err(SpecError::UnknownEngine { .. })
        ));
        assert!(matches!(
            build("mvto+?delta=5").map(|_| ()),
            Err(SpecError::UnknownParam { .. })
        ));
        assert!(matches!(
            build("mvtil-early?delta=banana").map(|_| ()),
            Err(SpecError::InvalidValue { .. })
        ));
        let msg = build("silo").map(|_| ()).unwrap_err().to_string();
        assert!(
            msg.contains("mvtil-early"),
            "error lists known specs: {msg}"
        );
    }

    #[test]
    fn offsets_parse_as_comma_separated_signed_list() {
        assert_eq!(parse_offsets("-28, 3,0").unwrap(), vec![-28, 3, 0]);
        assert!(parse_offsets("a").is_err());
        assert!(build("mvtl-pref?offset=-28,-3").is_ok());
    }

    #[test]
    fn string_values_build_too() {
        let engine = build_for::<String>("mvtil-early?delta=1000").unwrap();
        assert_eq!(engine.name(), "mvtil-early");
    }

    #[test]
    fn sharded_specs_build_with_every_mvtl_inner() {
        for inner in [
            "mvtil-early",
            "mvtil-late",
            "mvtl-to",
            "mvtl-ghostbuster",
            "mvtl-epsilon-clock",
            "mvtl-pref",
            "mvtl-prio",
            "mvtl-pessimistic",
        ] {
            let spec = format!("sharded?shards=4&inner={inner}");
            let engine = build(&spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(engine.name(), "sharded", "{spec}");
        }
        // Defaults and the inner engine's own knobs parse.
        assert!(build("sharded").is_ok());
        assert!(build("sharded?shards=2&inner=mvtil-late&delta=500").is_ok());
        assert!(build_for::<String>("sharded?shards=2").is_ok());
    }

    #[test]
    fn gc_specs_build_for_every_engine_and_reject_bad_params() {
        for spec in [
            "mvtil-early?gc_ms=50&gc_lag_ms=10",
            "mvtl-to?gc_ms=50",
            "mvto+?gc_ms=50",
            "2pl?gc_ms=50",
            "sharded?shards=2&gc_ms=50&gc_lag_ms=5",
        ] {
            let engine = build(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(engine.name(), EngineSpec::base_name(spec), "{spec}");
        }
        assert!(matches!(
            build("mvtil-early?gc_lag_ms=5").map(|_| ()),
            Err(SpecError::Malformed { .. })
        ));
        assert!(matches!(
            build("mvtil-early?gc_ms=0").map(|_| ()),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            build("mvtil-early?gc_ms=soon").map(|_| ()),
            Err(SpecError::InvalidValue { .. })
        ));
    }

    #[test]
    fn gc_wrapped_engine_purges_in_the_background() {
        use mvtl_common::{EngineExt, Key, ProcessId};
        let engine = build("mvtl-to?gc_ms=2&gc_lag_ms=0").unwrap();
        for round in 0..16u64 {
            let mut tx = engine.begin(ProcessId(1));
            tx.write(Key(1), round).unwrap();
            tx.commit().unwrap();
        }
        let bounded = (0..500).any(|_| {
            if engine.stats().versions <= 1 {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
            false
        });
        assert!(bounded, "GC never swept the spec-built engine");
        let mut tx = engine.begin(ProcessId(2));
        assert_eq!(tx.read(Key(1)).unwrap(), Some(15));
        tx.commit().unwrap();
    }

    #[test]
    fn idle_multi_shard_transaction_survives_a_live_sweep() {
        use mvtl_common::{EngineExt, Key, ProcessId, Timestamp};
        // MVTL-TO reads at exactly the transaction's base, so an idle
        // transaction pinned just above K's first version must read that
        // version however many sweeps run before it touches any shard.
        let engine = build("sharded?shards=2&inner=mvtl-to&gc_ms=1&gc_lag_ms=0").unwrap();
        let (k, j) = (Key(1), Key(2));
        let mut tx = engine.begin(ProcessId(1));
        tx.write(k, 10).unwrap();
        let first = tx.commit().unwrap().commit_ts.unwrap();
        // Process 0 orders the idle transaction before any writer that
        // draws the same clock value.
        let mut idle = engine.begin_pinned(ProcessId(0), Timestamp::at(first.value + 1));
        for round in 0..8u64 {
            let mut tx = engine.begin(ProcessId(2));
            tx.write(k, 100 + round).unwrap();
            tx.commit().unwrap();
        }
        // Two versions of J between K's first version and the pin, written
        // after every newer version of K: the sweep that purges the older one
        // runs with a bound past all of K's versions, unless the idle
        // transaction's coordinator pin caps it.
        for (process, value) in [(3, 1), (4, 2)] {
            let at = Timestamp::new(first.value, process);
            let mut tx = engine.begin_pinned(ProcessId(process), at);
            tx.write(j, value).unwrap();
            tx.commit().unwrap();
        }
        let swept = (0..500).any(|_| {
            if engine.stats().purged_versions > 0 {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
            false
        });
        assert!(
            swept,
            "the store's sweeper never purged: {:?}",
            engine.stats()
        );
        assert_eq!(idle.read(k).unwrap(), Some(10));
        idle.commit().unwrap();
    }

    #[test]
    fn every_canonical_spec_builds() {
        for spec in all_specs() {
            let engine = build(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(engine.name(), EngineSpec::base_name(spec), "{spec}");
        }
    }

    #[test]
    fn wal_specs_build_for_every_engine_family() {
        use mvtl_common::{EngineExt, Key, ProcessId};
        for base in [
            "mvtil-early",
            "mvtil-late",
            "mvtl-to",
            "mvto+",
            "2pl",
            "sharded?shards=2&inner=mvtil-early",
        ] {
            let spec = EngineSpec::append_params(base, "wal=tmp");
            let engine = build(&spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            let mut tx = engine.begin(ProcessId(1));
            tx.write(Key(7), 7).unwrap();
            tx.commit().unwrap_or_else(|e| panic!("{spec}: {e}"));
        }
    }

    #[test]
    fn baseline_wal_specs_recover_committed_values() {
        use mvtl_common::{EngineExt, Key, ProcessId};
        for base in ["mvto+", "2pl"] {
            let dir = TempDir::new("registry-baseline-wal");
            let spec = format!("{base}?wal={}", dir.path().display());
            let engine = build(&spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            for (key, value) in [(1, 10), (2, 20), (1, 11)] {
                let mut tx = engine.begin(ProcessId(1));
                tx.write(Key(key), value).unwrap();
                tx.commit().unwrap_or_else(|e| panic!("{spec}: {e}"));
            }
            drop(engine); // crash: only the log survives

            let engine = build(&spec).unwrap_or_else(|e| panic!("{spec}: rebuild: {e}"));
            let mut tx = engine.begin(ProcessId(2));
            assert_eq!(tx.read(Key(1)).unwrap(), Some(11), "{spec}");
            assert_eq!(tx.read(Key(2)).unwrap(), Some(20), "{spec}");
            // Post-crash writes order after the recovered ones.
            tx.write(Key(2), 21).unwrap();
            tx.commit().unwrap_or_else(|e| panic!("{spec}: {e}"));
            drop(engine);

            let engine = build(&spec).unwrap();
            let mut tx = engine.begin(ProcessId(3));
            assert_eq!(tx.read(Key(2)).unwrap(), Some(21), "{spec}");
            tx.commit().unwrap();
        }
    }

    #[test]
    fn rejected_specs_never_touch_the_disk() {
        use mvtl_common::{EngineExt, Key, ProcessId};
        let root = TempDir::new("registry-rejected");
        // A named log directory that does not exist yet stays absent.
        let fresh = root.path().join("fresh");
        for params in ["delta=banana", "shards=0", "frobnicate=1"] {
            let spec = format!("mvtil-early?wal={}&{params}", fresh.display());
            assert!(build(&spec).is_err(), "{spec} must be rejected");
        }
        let spec = format!("mvto+?wal={}&fault=crash:0.5", fresh.display());
        assert!(build(&spec).is_err(), "{spec} must be rejected");
        for params in ["shards=abc", "shards=0", "inner=2pl", "pick=median"] {
            let spec = format!("sharded?wal={}&{params}", fresh.display());
            assert!(build(&spec).is_err(), "{spec} must be rejected");
        }
        // `shards` is `sharded`'s knob alone, and the cross-shard pick
        // follows the inner engine: neither is a parameter there.
        for spec in [
            format!("mvtil-early?wal={}&shards=0", fresh.display()),
            format!("sharded?wal={}&pick=median", fresh.display()),
        ] {
            assert!(
                matches!(build(&spec), Err(SpecError::UnknownParam { .. })),
                "{spec} must be an unknown parameter"
            );
        }
        assert!(!fresh.exists(), "a rejected spec created its log directory");

        // An existing log with a torn tail — which opening it would truncate
        // — keeps every byte when the spec over it is rejected.
        let existing = root.path().join("existing");
        let spec = format!("mvtil-early?wal={}", existing.display());
        {
            let engine = build(&spec).unwrap();
            let mut tx = engine.begin(ProcessId(0));
            tx.write(Key(1), 1).unwrap();
            tx.commit().unwrap();
        }
        let segments = || {
            let mut files: Vec<_> = std::fs::read_dir(&existing)
                .unwrap()
                .map(|entry| {
                    let path = entry.unwrap().path();
                    let bytes = std::fs::read(&path).unwrap();
                    (path, bytes)
                })
                .collect();
            files.sort();
            files
        };
        {
            use std::io::Write as _;
            let (segment, _) = segments().pop().expect("one segment");
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(segment)
                .unwrap();
            file.write_all(&[0xAB; 13]).unwrap();
        }
        let before = segments();
        for params in ["delta=banana", "shards=0", "gc_lag_ms=5", "fsync=sometimes"] {
            let rejected = format!("{spec}&{params}");
            assert!(build(&rejected).is_err(), "{rejected} must be rejected");
            assert_eq!(segments(), before, "{rejected} rewrote the log");
        }
        // The check has teeth: a spec that builds does truncate the tear.
        drop(build(&spec).unwrap());
        assert_ne!(segments(), before);
    }

    #[test]
    fn zero_counts_are_rejected() {
        assert!(matches!(
            build("sharded?shards=0").map(|_| ()),
            Err(SpecError::InvalidValue { .. })
        ));
        // Only `sharded` has a count: elsewhere `shards` is not a parameter.
        for spec in ["mvtil-early?shards=0", "mvtl-to?shards=0"] {
            assert!(
                matches!(build(spec).map(|_| ()), Err(SpecError::UnknownParam { .. })),
                "{spec} must be rejected"
            );
        }
    }

    #[test]
    fn wal_specs_persist_committed_state_across_rebuilds() {
        use mvtl_common::{EngineExt, Key, ProcessId};
        let dir = TempDir::new("registry-wal");
        let spec = format!("mvtil-early?wal={}&fsync=group", dir.path().display());
        let engine = build(&spec).unwrap();
        let mut tx = engine.begin(ProcessId(1));
        tx.write(Key(1), 41).unwrap();
        tx.write(Key(2), 42).unwrap();
        tx.commit().unwrap();
        drop(engine); // "crash": in-memory state gone, the log remains

        let engine = build(&spec).unwrap();
        let mut tx = engine.begin(ProcessId(2));
        assert_eq!(tx.read(Key(1)).unwrap(), Some(41));
        assert_eq!(tx.read(Key(2)).unwrap(), Some(42));
        // The rebuilt clock starts past the recovered commits, so a
        // post-crash overwrite serializes after them.
        tx.write(Key(1), 43).unwrap();
        tx.commit().unwrap();
        drop(engine);

        let engine = build(&spec).unwrap();
        let mut tx = engine.begin(ProcessId(3));
        assert_eq!(tx.read(Key(1)).unwrap(), Some(43));
        assert_eq!(tx.read(Key(2)).unwrap(), Some(42));
        tx.commit().unwrap();
    }

    #[test]
    fn sharded_wal_specs_log_per_shard_and_recover() {
        use mvtl_common::{EngineExt, Key, ProcessId};
        let dir = TempDir::new("registry-shard-wal");
        let spec = format!(
            "sharded?shards=2&inner=mvtil-early&wal={}",
            dir.path().display()
        );
        let engine = build(&spec).unwrap();
        let mut tx = engine.begin(ProcessId(1));
        for k in 0..8u64 {
            tx.write(Key(k), k + 100).unwrap(); // spans both shards
        }
        tx.commit().unwrap();
        drop(engine);
        assert!(dir.path().join("shard-0").is_dir());
        assert!(dir.path().join("shard-1").is_dir());

        let engine = build(&spec).unwrap();
        let mut tx = engine.begin(ProcessId(2));
        for k in 0..8u64 {
            assert_eq!(tx.read(Key(k)).unwrap(), Some(k + 100), "key {k}");
        }
        tx.commit().unwrap();
    }

    #[test]
    fn wal_params_are_validated() {
        assert!(matches!(
            build("mvtil-early?fsync=group").map(|_| ()),
            Err(SpecError::Malformed { .. })
        ));
        assert!(matches!(
            build("mvtil-early?wal_segment_kb=64").map(|_| ()),
            Err(SpecError::Malformed { .. })
        ));
        assert!(matches!(
            build("mvtil-early?wal=tmp&fsync=sometimes").map(|_| ()),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            build("mvtil-early?wal=tmp&wal_segment_kb=0").map(|_| ()),
            Err(SpecError::InvalidValue { .. })
        ));
        // The durability knobs compose with the other shared parameters.
        assert!(build("mvtil-early?wal=tmp&fsync=off&wal_segment_kb=64&gc_ms=50").is_ok());
    }

    #[test]
    fn sharded_rejects_baseline_inners_and_bad_picks() {
        assert!(matches!(
            build("sharded?inner=mvto+").map(|_| ()),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            build("sharded?inner=2pl").map(|_| ()),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            build("sharded?pick=median").map(|_| ()),
            Err(SpecError::UnknownParam { .. })
        ));
        assert!(matches!(
            build("sharded?shards=8&frobnicate=1").map(|_| ()),
            Err(SpecError::UnknownParam { .. })
        ));
    }
}
