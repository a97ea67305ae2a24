//! One command-line parser for every bench binary.
//!
//! A binary names the flags it accepts as groups of [`Flags`] and reads
//! typed values out of the parsed [`Args`]. The figure binaries share
//! [`FIGURE_FLAGS`] (see [`CliOpts`]); the explorers share one of two
//! groups — [`SCENARIO_FLAGS`] for the single-collective explorers,
//! [`WORKLOAD_FLAGS`] for the sustained-traffic ones — plus flags of their
//! own, and one `--check` reporter. Parsing takes an argument list and
//! returns a `Result`, so tests drive it without exiting the process;
//! [`parse_or_exit`] is the binaries' wrapper around it.

use std::fmt;
use std::str::FromStr;

use gm_sim::{Metrics, SimDuration};
use nic_mcast::{
    ArrivalProcess, BuiltScenario, FanoutDist, McastMode, PostalParams, Scenario, ScenarioError,
    StopCondition, TreeShape, Workload,
};

/// A group of accepted flags, written as the usage line shows them:
/// `[--nodes N]` takes a value (`N` names it), `[--check]` is a switch.
pub type Flags = &'static str;

/// The figure binaries' flags (see [`CliOpts`]).
pub const FIGURE_FLAGS: Flags = "[--iters N] [--warmup N] [--all-probes] [--quick]";

/// The single-collective group, decoded by [`scenario`].
pub const SCENARIO_FLAGS: Flags = "[--nodes N] [--size BYTES] [--mode nic|host] \
    [--shape adaptive|binomial|flat|chain|kary:K|postal:T_US:GAP_US] [--loss P] [--iters N] \
    [--warmup N] [--seed S]";

/// The sustained-traffic group, decoded by [`WorkloadOpts`].
pub const WORKLOAD_FLAGS: Flags = "[--nodes N] [--groups N] [--zipf EXP] [--overlap P] \
    [--rate HZ] [--duration-ms MS] [--warmup-us US] [--size BYTES] [--seed S] [--shards N]";

/// `explore`: one multicast configuration, everything it measured.
pub const EXPLORE: &[Flags] = &[SCENARIO_FLAGS, "[--tree]"];
/// `trace_explore`: a Perfetto timeline plus the attribution table.
pub const TRACE_EXPLORE: &[Flags] = &[SCENARIO_FLAGS, "[--check]"];
/// `flow_explore`: the causal flow graph and critical paths.
pub const FLOW_EXPLORE: &[Flags] = &[
    SCENARIO_FLAGS,
    "[--shards N] [--probe-capacity N] [--series-capacity N] [--check]",
];
/// `workload_explore`: open-loop many-group traffic.
pub const WORKLOAD_EXPLORE: &[Flags] = &[
    WORKLOAD_FLAGS,
    "[--fanout K] [--fixed-rate] [--messages N] [--slots N] [--series-capacity N] [--check]",
];
/// `health_explore`: a lossy workload under the watch detectors.
pub const HEALTH_EXPLORE: &[Flags] = &[
    WORKLOAD_FLAGS,
    "[--loss P] [--window-us US] [--probe-capacity N] [--series-capacity N] [--check]",
];

/// Every flag of `groups`, as its name and whether it takes a value.
pub fn flags(groups: &[Flags]) -> impl Iterator<Item = (&'static str, bool)> + '_ {
    groups
        .iter()
        .flat_map(|g| g.split(['[', ']']))
        .map(str::trim)
        .filter(|f| !f.is_empty())
        .map(|f| {
            f.split_once(' ')
                .map_or((f, false), |(name, _)| (name, true))
        })
}

/// Why a command line was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// `--help` or `-h`: print the usage line.
    Help,
    /// A flag none of the binary's groups accepts.
    UnknownFlag(String),
    /// A flag that takes a value came last.
    MissingValue(&'static str),
    /// A value that does not decode for its flag.
    BadValue(&'static str, String),
    /// Two flags that exclude each other were both given.
    Conflict(&'static str, &'static str),
    /// The flags decode, but the scenario or workload they describe does
    /// not validate.
    Invalid(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Help => write!(f, "usage requested"),
            CliError::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::BadValue(flag, v) => write!(f, "{flag}: cannot decode {v:?}"),
            CliError::Conflict(a, b) => write!(f, "{a} and {b} exclude each other"),
            CliError::Invalid(why) => write!(f, "invalid configuration: {why}"),
        }
    }
}

/// A parsed command line: the flags given, in order, with their values.
#[derive(Debug)]
pub struct Args {
    given: Vec<(&'static str, String)>,
}

impl Args {
    /// Parse `argv` (without the program name) against the flag groups a
    /// binary accepts. A repeated flag keeps its last value.
    pub fn parse<S: AsRef<str>>(argv: &[S], groups: &[Flags]) -> Result<Args, CliError> {
        let mut given = Vec::new();
        let mut it = argv.iter().map(AsRef::as_ref);
        while let Some(arg) = it.next() {
            if matches!(arg, "--help" | "-h") {
                return Err(CliError::Help);
            }
            let (name, takes_value) = flags(groups)
                .find(|&(name, _)| name == arg)
                .ok_or_else(|| CliError::UnknownFlag(arg.to_string()))?;
            let value = match takes_value {
                true => it.next().ok_or(CliError::MissingValue(name))?,
                false => "",
            };
            given.push((name, value.to_string()));
        }
        Ok(Args { given })
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(name, _)| *name == flag)
    }

    /// The last value given for `flag`, decoded by `decode`.
    pub fn decode<T>(
        &self,
        flag: &'static str,
        decode: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, CliError> {
        let Some((_, v)) = self.given.iter().rev().find(|(name, _)| *name == flag) else {
            return Ok(None);
        };
        decode(v)
            .map(Some)
            .ok_or_else(|| CliError::BadValue(flag, v.clone()))
    }

    /// The last value given for `flag`, if any.
    pub fn opt<T: FromStr>(&self, flag: &'static str) -> Result<Option<T>, CliError> {
        self.decode(flag, |v| v.parse().ok())
    }

    /// The last value given for `flag`, else `default`.
    pub fn get<T: FromStr>(&self, flag: &'static str, default: T) -> Result<T, CliError> {
        Ok(self.opt(flag)?.unwrap_or(default))
    }
}

/// The usage line listing every flag of `groups`.
pub fn usage(bin: &str, groups: &[Flags]) -> String {
    format!("usage: {bin} {}", groups.join(" "))
}

/// Parse this process's command line against `groups` and decode it, or
/// print what was wrong and the usage line, then exit with status 2.
pub fn parse_or_exit<T>(groups: &[Flags], decode: impl FnOnce(&Args) -> Result<T, CliError>) -> T {
    let mut argv = std::env::args();
    let path = argv.next().unwrap_or_default();
    let bin = path.rsplit('/').next().unwrap_or_default();
    let rest: Vec<String> = argv.collect();
    match Args::parse(&rest, groups).and_then(|a| decode(&a)) {
        Ok(t) => t,
        Err(e) => {
            if e != CliError::Help {
                eprintln!("{bin}: {e}");
            }
            eprintln!("{}", usage(bin, groups));
            std::process::exit(2)
        }
    }
}

/// Report a `--check` gate: the `ok` line on stdout when `failures` is
/// empty, otherwise each failure on stderr and exit status 1.
pub fn report_check(gate: &str, failures: &[String], ok: impl FnOnce() -> String) {
    if failures.is_empty() {
        println!("{}", ok());
        return;
    }
    for f in failures {
        eprintln!("{gate} check FAILED: {f}");
    }
    std::process::exit(1)
}

/// The `--check` failure every explorer shares: an observability ring that
/// overflowed. Dropped records mean lineage, attribution or gauge summaries
/// silently lie — raise the ring's capacity rather than tolerate drops.
pub fn ring_overflows(metrics: &Metrics) -> Vec<String> {
    let (events, points) = (
        metrics.get("probe.dropped_events"),
        metrics.get("series.dropped_points"),
    );
    let mut out = Vec::new();
    if events > 0 {
        out.push(format!(
            "probe ring overflowed, {events} events dropped — lineage is incomplete"
        ));
    }
    if points > 0 {
        out.push(format!(
            "series ring overflowed, {points} points dropped — gauge summaries are incomplete"
        ));
    }
    out
}

/// Decode `--mode`: `nic` or `host`.
pub fn parse_mode(v: &str) -> Option<McastMode> {
    match v {
        "nic" => Some(McastMode::NicBased),
        "host" => Some(McastMode::HostBased),
        _ => None,
    }
}

/// How the explorers name a scheme in their output.
pub fn mode_name(mode: McastMode) -> &'static str {
    match mode {
        McastMode::NicBased => "NIC-based",
        McastMode::HostBased => "host-based",
    }
}

/// Decode `--shape`: `adaptive`, `binomial`, `flat`, `chain`, `kary:K` or
/// `postal:T_US:GAP_US`.
pub fn parse_shape(v: &str) -> Option<TreeShape> {
    match v {
        "adaptive" => Some(TreeShape::auto()),
        "binomial" => Some(TreeShape::Binomial),
        "flat" => Some(TreeShape::Flat),
        "chain" => Some(TreeShape::Chain),
        _ => {
            if let Some(k) = v.strip_prefix("kary:") {
                return k.parse().ok().map(TreeShape::KAry);
            }
            let mut us = v.strip_prefix("postal:")?.split(':');
            let mut next = || us.next()?.parse().ok().map(SimDuration::from_micros);
            let (latency, gap) = (next()?, next()?);
            Some(TreeShape::Postal(PostalParams::new(latency, gap)))
        }
    }
}

/// Decode `--mode` (default NIC-based).
pub fn mode(a: &Args) -> Result<McastMode, CliError> {
    Ok(a.decode("--mode", parse_mode)?
        .unwrap_or(McastMode::NicBased))
}

/// Decode the [`SCENARIO_FLAGS`] group into a scenario of `mode`, with the
/// binary's defaults for `--size`, `--iters` and `--warmup`; the rest
/// default alike (16 nodes, adaptive tree, no loss, seed 1).
pub fn scenario(
    a: &Args,
    mode: McastMode,
    size: usize,
    iters: u32,
    warmup: u32,
) -> Result<Scenario, CliError> {
    Ok(Scenario::new(a.get("--nodes", 16)?, mode)
        .size(a.get("--size", size)?)
        .tree(
            a.decode("--shape", parse_shape)?
                .unwrap_or(TreeShape::auto()),
        )
        .warmup(a.get("--warmup", warmup)?)
        .iters(a.get("--iters", iters)?)
        .seed(a.get("--seed", 1)?)
        .loss(a.get("--loss", 0.0)?))
}

/// Validate `scenario`; an invalid one is a command-line error.
pub fn build(scenario: Scenario) -> Result<BuiltScenario, CliError> {
    scenario
        .build()
        .map_err(|e| CliError::Invalid(e.to_string()))
}

/// The decoded [`WORKLOAD_FLAGS`] group: one field per flag, named after it
/// (`zipf` is the fan-out skew exponent, `rate` per-group arrivals per
/// second).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadOpts {
    pub nodes: u32,
    pub groups: usize,
    pub zipf: f64,
    pub overlap: f64,
    pub rate: f64,
    pub duration_ms: u64,
    pub warmup_us: u64,
    pub size: usize,
    pub seed: u64,
    pub shards: u32,
}

impl WorkloadOpts {
    /// Decode with the binary's defaults for `--nodes`, `--groups` and
    /// `--duration-ms`; the rest default alike (Zipf 1.2, overlap 0.5,
    /// 20 kHz, 500 µs warmup, 256 B, seed 1, one shard).
    pub fn from_args(
        a: &Args,
        nodes: u32,
        groups: usize,
        duration_ms: u64,
    ) -> Result<Self, CliError> {
        Ok(WorkloadOpts {
            nodes: a.get("--nodes", nodes)?,
            groups: a.get("--groups", groups)?,
            zipf: a.get("--zipf", 1.2)?,
            overlap: a.get("--overlap", 0.5)?,
            rate: a.get("--rate", 20_000.0)?,
            duration_ms: a.get("--duration-ms", duration_ms)?,
            warmup_us: a.get("--warmup-us", 500)?,
            size: a.get("--size", 256)?,
            seed: a.get("--seed", 1)?,
            shards: a.get("--shards", 1)?,
        })
    }

    /// The workload these options describe: Zipf fan-outs and Poisson
    /// arrivals for `duration_ms`.
    pub fn workload(&self) -> Workload {
        Workload::new(self.nodes)
            .groups(self.groups)
            .fanout(FanoutDist::Zipf {
                exponent: self.zipf,
            })
            .overlap(self.overlap)
            .arrivals(ArrivalProcess::Poisson { rate_hz: self.rate })
            .stop(StopCondition::Duration(SimDuration::from_millis(
                self.duration_ms,
            )))
            .warmup(SimDuration::from_micros(self.warmup_us))
            .size(self.size)
            .seed(self.seed)
            .shards(self.shards)
    }
}

/// Parse `--iters N` / `--quick` style flags shared by the figure binaries.
pub struct CliOpts {
    /// Timed iterations per point.
    pub iters: u32,
    /// Warmup iterations per point.
    pub warmup: u32,
    /// Max-over-probes (slower, matches the paper exactly) vs last-probe.
    pub all_probes: bool,
}

impl CliOpts {
    /// Decode [`FIGURE_FLAGS`]. Defaults: 100 timed iterations, 10 warmup,
    /// deepest-probe only; `--quick` lowers the defaults to 20 and 3, and
    /// an explicit `--iters`/`--warmup` wins over it. Zero timed iterations
    /// measure nothing and are rejected.
    pub fn from_args(a: &Args) -> Result<CliOpts, CliError> {
        let (iters, warmup) = if a.has("--quick") { (20, 3) } else { (100, 10) };
        let iters = a.get("--iters", iters)?;
        if iters == 0 {
            return Err(CliError::Invalid(ScenarioError::NoIterations.to_string()));
        }
        Ok(CliOpts {
            iters,
            warmup: a.get("--warmup", warmup)?,
            all_probes: a.has("--all-probes"),
        })
    }

    /// Decode this process's command line, or print the usage and exit.
    pub fn parse() -> CliOpts {
        parse_or_exit(&[FIGURE_FLAGS], CliOpts::from_args)
    }
}
