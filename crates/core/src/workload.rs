//! The workload API: open-loop, sustained, many-group traffic.
//!
//! [`Workload`] generalizes [`Scenario`](crate::Scenario) from "one
//! collective, measured in closed-loop iterations" to "a population of
//! multicast groups driven by stochastic arrival processes over simulated
//! time". It describes:
//!
//! * **N groups** with Zipf- (or fixed-) distributed fan-out, per-group
//!   roots, and controllable membership overlap (a hot pool of nodes that
//!   popular groups share),
//! * **arrival processes** — Poisson, fixed-rate, or an explicit trace —
//!   generating message send times per group in open loop (sends are posted
//!   at their scheduled time regardless of earlier completions),
//! * **warmup / measurement windows** and a stop condition (run duration or
//!   total message count),
//! * **group lifecycle** — every group installs its tree shortly before its
//!   first arrival and disbands after its last, so NIC group-table slots
//!   (an exhaustible resource, see `GmParams::group_table_slots`) churn and
//!   the admission queue exercises real backpressure.
//!
//! The report grows the observability surface accordingly: streaming
//! delivery-latency percentiles (p50/p99/p999 from a deterministic
//! [`LogHistogram`]), per-group goodput, and a Jain fairness index — all
//! byte-identical at any shard count.
//!
//! ```
//! use nic_mcast::{ArrivalProcess, FanoutDist, StopCondition, Workload};
//! use gm_sim::SimDuration;
//!
//! let report = Workload::new(16)
//!     .groups(12)
//!     .fanout(FanoutDist::Zipf { exponent: 1.2 })
//!     .overlap(0.5)
//!     .arrivals(ArrivalProcess::Poisson { rate_hz: 20_000.0 })
//!     .stop(StopCondition::Duration(SimDuration::from_millis(2)))
//!     .size(256)
//!     .run();
//! assert!(report.delivered > 0);
//! assert!(report.p50_us <= report.p99_us && report.p99_us <= report.p999_us);
//! ```

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::sync::Arc;

use gm::{analyze, drive, harvest, Cluster, GmParams, HostApp, HostCtx, Notice};
use gm_sim::probe::ProbeConfig;
use gm_sim::watch::{self, Incident, Severity, Thresh, WatchConfig};
use gm_sim::{
    DetRng, LogHistogram, Metrics, ProbeSink, SeriesConfig, SeriesSink, SimDuration, SimTime,
};
use myrinet::{Fabric, FaultPlan, GroupId, NetParams, NodeId, Payload, Topology, MAX_NODES};

use crate::calibrate::auto_shape;
use crate::ext::McastExt;
use crate::group::{McastConfig, McastNotice, McastRequest};
use crate::tree::{SpanningTree, TreeShape};
use crate::workloads::{env_shards, DATA_PORT};

/// Jain fairness below this (in 1/1000ths) raises `fairness_collapse`: 0.5
/// is the index of a population where goodput concentrates on half the
/// groups while the rest starve.
const FAIRNESS_FLOOR_X1000: u64 = 500;

/// `delivery_p99_excursion` fires when the measured p99 exceeds this
/// multiple of the warmup-learned baseline p99.
const P99_EXCURSION_FACTOR: u64 = 4;

/// How many groups a workload may describe: tags encode the group index in
/// 14 bits so `gm::flow_tag` stays injective for per-flow attribution.
pub const MAX_GROUPS: usize = 1 << 14;

/// Messages per group are encoded in 16 bits, with the top value reserved
/// for the disband marker.
const MAX_MSGS_PER_GROUP: usize = 0xFFFF;
const DISBAND_IDX: u64 = 0xFFFF;

/// Members install their group entry this long before the group's first
/// scheduled arrival (mirrors the 200 µs install settle the closed-loop
/// scenario path uses before its first warmup iteration).
const INSTALL_LEAD: SimDuration = SimDuration::from_micros(200);

/// The schedule wake-up tag (never collides with message tags, which encode
/// `(group << 16) | msg`).
const WAKE_TAG: u64 = u64::MAX;

/// Fan-out (member count) distribution across the group population.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FanoutDist {
    /// Group at rank `r` (1-based, in declaration order) gets
    /// `max(1, round((n-1) * r^-exponent))` members — a few big broadcast
    /// groups and a long tail of small ones.
    Zipf {
        /// The skew exponent (must be > 0; 1.2 is a typical heavy skew).
        exponent: f64,
    },
    /// Every group has exactly this many members (clamped to `n - 1`).
    Fixed {
        /// Members per group (must be >= 1).
        fanout: u32,
    },
}

/// Message arrival process, per group, over simulated time.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at `rate_hz` messages per second per group.
    Poisson {
        /// Per-group arrival rate in messages per simulated second.
        rate_hz: f64,
    },
    /// Deterministic arrivals at `rate_hz` per group, with a random
    /// per-group phase so groups do not fire in lockstep.
    FixedRate {
        /// Per-group arrival rate in messages per simulated second.
        rate_hz: f64,
    },
    /// An explicit arrival trace: `(time, group index)` pairs in any order;
    /// group indices must be `< groups`. The build sorts the entries by
    /// `(time, group)` and moves them into the groups' streams. A group may
    /// name the same time more than once.
    Trace(Vec<(SimTime, u32)>),
}

/// What ends arrival generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopCondition {
    /// Generate arrivals in `[0, duration)`; the run then drains to
    /// quiescence.
    Duration(SimDuration),
    /// Generate exactly this many messages across all groups (earliest
    /// first), then drain.
    Messages(u64),
}

/// Why a [`Workload`] failed to [`build`](Workload::build).
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadError {
    /// Fewer than two nodes: there is nobody to multicast to.
    TooFewNodes(u32),
    /// More nodes than a topology holds ([`MAX_NODES`]).
    TooManyNodes(u32),
    /// The group population is empty.
    NoGroups,
    /// More groups than the tag encoding supports ([`MAX_GROUPS`]).
    TooManyGroups(usize),
    /// An arrival rate must be positive and finite.
    ZeroRate(f64),
    /// The Zipf exponent must be positive and finite.
    InvalidZipfExponent(f64),
    /// A fixed fan-out must be at least 1.
    ZeroFanout,
    /// Membership overlap must lie in `[0, 1]`.
    InvalidOverlap(f64),
    /// Loss/corruption probabilities must lie in `[0, 1)`.
    InvalidProbability(f64),
    /// The run duration must be positive.
    ZeroDuration,
    /// A message-count stop needs at least one message.
    NoMessages,
    /// The warmup consumed the whole run: nothing is measured.
    MeasurementWindowOutsideRun {
        /// The configured warmup.
        warmup: SimDuration,
        /// The configured run duration.
        duration: SimDuration,
    },
    /// The message must carry at least one byte.
    EmptyMessage,
    /// An explicit trace has no entries.
    EmptyTrace,
    /// A trace entry names a group outside `0..groups`.
    TraceGroupOutOfRange(u32),
    /// A single group exceeded the per-group message-count encoding limit.
    TooManyMessagesPerGroup(usize),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::TooFewNodes(n) => write!(f, "need at least 2 nodes, got {n}"),
            WorkloadError::TooManyNodes(n) => {
                write!(f, "{n} nodes exceed the topology limit of {MAX_NODES}")
            }
            WorkloadError::NoGroups => write!(f, "group population is empty"),
            WorkloadError::TooManyGroups(g) => {
                write!(
                    f,
                    "{g} groups exceed the tag-encoding limit of {MAX_GROUPS}"
                )
            }
            WorkloadError::ZeroRate(r) => {
                write!(f, "arrival rate {r} must be positive and finite")
            }
            WorkloadError::InvalidZipfExponent(s) => {
                write!(f, "Zipf exponent {s} must be positive and finite")
            }
            WorkloadError::ZeroFanout => write!(f, "fixed fan-out must be at least 1"),
            WorkloadError::InvalidOverlap(p) => {
                write!(f, "membership overlap {p} is outside [0, 1]")
            }
            WorkloadError::InvalidProbability(p) => {
                write!(f, "probability {p} is outside [0, 1)")
            }
            WorkloadError::ZeroDuration => write!(f, "run duration must be positive"),
            WorkloadError::NoMessages => write!(f, "need at least 1 message"),
            WorkloadError::MeasurementWindowOutsideRun { warmup, duration } => write!(
                f,
                "warmup {warmup} consumes the whole {duration} run: nothing is measured"
            ),
            WorkloadError::EmptyMessage => write!(f, "message size must be at least 1 byte"),
            WorkloadError::EmptyTrace => write!(f, "arrival trace is empty"),
            WorkloadError::TraceGroupOutOfRange(g) => {
                write!(f, "trace entry names group {g}, outside the population")
            }
            WorkloadError::TooManyMessagesPerGroup(m) => write!(
                f,
                "{m} messages in one group exceed the per-group limit of {MAX_MSGS_PER_GROUP}"
            ),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// A validated-at-build sustained-traffic workload.
///
/// Construct with [`new`](Workload::new), refine with the chained setters,
/// then [`build`](Workload::build) (fallible) or [`run`](Workload::run)
/// (builds and executes, panicking on invalid input with the validation
/// message).
#[derive(Clone, Debug)]
pub struct Workload {
    n_nodes: u32,
    groups: usize,
    fanout: FanoutDist,
    overlap: f64,
    arrivals: ArrivalProcess,
    stop: StopCondition,
    warmup: SimDuration,
    size: usize,
    shape: TreeShape,
    seed: u64,
    shards: u32,
    faults: FaultPlan,
    config: McastConfig,
    params: GmParams,
    net: NetParams,
    probes: ProbeConfig,
    series: SeriesConfig,
    watch: WatchConfig,
}

impl Workload {
    /// A workload over `n_nodes` with moderate defaults: 8 groups,
    /// Zipf(1.1) fan-out, 25% membership overlap, per-group Poisson
    /// arrivals at 20 kHz, a 20 ms run with no warmup, 256-byte messages.
    pub fn new(n_nodes: u32) -> Workload {
        Workload {
            n_nodes,
            groups: 8,
            fanout: FanoutDist::Zipf { exponent: 1.1 },
            overlap: 0.25,
            arrivals: ArrivalProcess::Poisson { rate_hz: 20_000.0 },
            stop: StopCondition::Duration(SimDuration::from_millis(20)),
            warmup: SimDuration::ZERO,
            size: 256,
            shape: TreeShape::Auto,
            seed: 0x776F_726B_6C6F_6164,
            shards: env_shards(),
            faults: FaultPlan::none(),
            config: McastConfig::default(),
            params: GmParams::default(),
            net: NetParams::default(),
            probes: ProbeConfig::off(),
            series: SeriesConfig::off(),
            watch: WatchConfig::off(),
        }
    }

    /// Number of multicast groups in the population.
    pub fn groups(mut self, n: usize) -> Workload {
        self.groups = n;
        self
    }

    /// Fan-out distribution across groups.
    pub fn fanout(mut self, dist: FanoutDist) -> Workload {
        self.fanout = dist;
        self
    }

    /// Membership overlap in `[0, 1]`: the probability a member is drawn
    /// from the shared hot pool (the first `ceil(sqrt(n))` nodes) instead
    /// of uniformly. Higher overlap concentrates group state on fewer
    /// NICs, stressing their group tables.
    pub fn overlap(mut self, p: f64) -> Workload {
        self.overlap = p;
        self
    }

    /// Message arrival process (per group).
    pub fn arrivals(mut self, proc_: ArrivalProcess) -> Workload {
        self.arrivals = proc_;
        self
    }

    /// What ends arrival generation.
    pub fn stop(mut self, stop: StopCondition) -> Workload {
        self.stop = stop;
        self
    }

    /// Warmup window: deliveries of messages scheduled before this instant
    /// are excluded from latency, goodput and fairness statistics.
    pub fn warmup(mut self, d: SimDuration) -> Workload {
        self.warmup = d;
        self
    }

    /// Message size in bytes.
    pub fn size(mut self, bytes: usize) -> Workload {
        self.size = bytes;
        self
    }

    /// Spanning-tree shape per group ([`TreeShape::auto`] resolves against
    /// the calibrated postal model per group at build time).
    pub fn tree(mut self, shape: TreeShape) -> Workload {
        self.shape = shape;
        self
    }

    /// RNG seed: drives group synthesis, arrival draws and fault draws.
    pub fn seed(mut self, seed: u64) -> Workload {
        self.seed = seed;
        self
    }

    /// Number of shards for parallel execution (default: `MYRI_SIM_SHARDS`,
    /// else 1). Results are bit-for-bit identical at any shard count.
    pub fn shards(mut self, n: u32) -> Workload {
        self.shards = n;
        self
    }

    /// Fault injection plan.
    pub fn faults(mut self, plan: FaultPlan) -> Workload {
        self.faults = plan;
        self
    }

    /// Firmware ablation switches.
    pub fn config(mut self, config: McastConfig) -> Workload {
        self.config = config;
        self
    }

    /// Node parameters.
    pub fn params(mut self, params: GmParams) -> Workload {
        self.params = params;
        self
    }

    /// Network parameters.
    pub fn net(mut self, net: NetParams) -> Workload {
        self.net = net;
        self
    }

    /// Observability configuration (default off).
    pub fn probes(mut self, config: ProbeConfig) -> Workload {
        self.probes = config;
        self
    }

    /// Gauge time-series configuration (default off).
    pub fn series(mut self, config: SeriesConfig) -> Workload {
        self.series = config;
        self
    }

    /// Health-monitoring configuration (default off). When enabled, the
    /// [`GmParams`]-derived detector set scans the merged gauge series and
    /// counters, two workload-level detectors watch Jain fairness and the
    /// warmup-baselined delivery p99, and the [`WorkloadReport`] carries
    /// the resulting [`Incident`] stream. Detectors read the gauge series,
    /// so pair this with [`series`](Workload::series) (and
    /// [`probes`](Workload::probes) for causal flow evidence).
    pub fn watch(mut self, config: WatchConfig) -> Workload {
        self.watch = config;
        self
    }

    /// Validate and synthesize into an executable workload: group
    /// populations, membership, spanning trees and arrival streams are all
    /// drawn here, deterministically from the seed. A trace is moved into
    /// the groups' streams, not copied.
    pub fn build(mut self) -> Result<BuiltWorkload, WorkloadError> {
        if self.n_nodes < 2 {
            return Err(WorkloadError::TooFewNodes(self.n_nodes));
        }
        if self.n_nodes > MAX_NODES {
            return Err(WorkloadError::TooManyNodes(self.n_nodes));
        }
        if self.groups == 0 {
            return Err(WorkloadError::NoGroups);
        }
        if self.groups > MAX_GROUPS {
            return Err(WorkloadError::TooManyGroups(self.groups));
        }
        match self.fanout {
            FanoutDist::Zipf { exponent } => {
                if !(exponent > 0.0 && exponent.is_finite()) {
                    return Err(WorkloadError::InvalidZipfExponent(exponent));
                }
            }
            FanoutDist::Fixed { fanout } => {
                if fanout == 0 {
                    return Err(WorkloadError::ZeroFanout);
                }
            }
        }
        if !(0.0..=1.0).contains(&self.overlap) {
            return Err(WorkloadError::InvalidOverlap(self.overlap));
        }
        // A packet lost for certain is retransmitted forever.
        for p in [self.faults.drop_prob, self.faults.corrupt_prob] {
            if !(0.0..1.0).contains(&p) {
                return Err(WorkloadError::InvalidProbability(p));
            }
        }
        match &self.arrivals {
            ArrivalProcess::Poisson { rate_hz } | ArrivalProcess::FixedRate { rate_hz } => {
                if !(*rate_hz > 0.0 && rate_hz.is_finite()) {
                    return Err(WorkloadError::ZeroRate(*rate_hz));
                }
            }
            ArrivalProcess::Trace(t) => {
                if t.is_empty() {
                    return Err(WorkloadError::EmptyTrace);
                }
                if let Some(&(_, g)) = t.iter().find(|&&(_, g)| g as usize >= self.groups) {
                    return Err(WorkloadError::TraceGroupOutOfRange(g));
                }
            }
        }
        match self.stop {
            StopCondition::Duration(d) => {
                if d == SimDuration::ZERO {
                    return Err(WorkloadError::ZeroDuration);
                }
                if self.warmup >= d {
                    return Err(WorkloadError::MeasurementWindowOutsideRun {
                        warmup: self.warmup,
                        duration: d,
                    });
                }
            }
            StopCondition::Messages(0) => return Err(WorkloadError::NoMessages),
            StopCondition::Messages(_) => {}
        }
        if self.size == 0 {
            return Err(WorkloadError::EmptyMessage);
        }
        let arrivals = self.gen_arrivals()?;
        let groups = self.synthesize_groups(arrivals)?;
        Ok(BuiltWorkload {
            spec: self,
            groups: groups.into(),
        })
    }

    /// Build and execute, returning the [`WorkloadReport`].
    ///
    /// Panics with the validation message on invalid input; use
    /// [`build`](Workload::build) to handle errors.
    pub fn run(self) -> WorkloadReport {
        match self.build() {
            Ok(built) => built.run(),
            Err(e) => panic!("invalid workload: {e}"),
        }
    }

    /// Per-group arrival streams, each allocated to its length (index =
    /// declaration order; streams may be empty — such groups are dropped by
    /// `synthesize_groups`). A trace is taken out of the spec, sorted in
    /// place, counted per group, dealt out and dropped.
    fn gen_arrivals(&mut self) -> Result<Vec<Vec<SimTime>>, WorkloadError> {
        let g = self.groups;
        let mut per_group: Vec<Vec<SimTime>> = vec![Vec::new(); g];
        match (&mut self.arrivals, self.stop) {
            (ArrivalProcess::Trace(t), stop) => {
                let mut t = std::mem::take(t);
                // Equal `(time, group)` entries are indistinguishable, so the
                // unstable sort leaves the stable sort's order.
                t.sort_unstable();
                let kept = match stop {
                    StopCondition::Duration(d) => {
                        t.partition_point(|&(at, _)| at < SimTime::ZERO + d)
                    }
                    StopCondition::Messages(m) => t.len().min(m as usize),
                };
                let kept = &t[..kept];
                let mut lens = vec![0usize; g];
                for &(_, gi) in kept {
                    lens[gi as usize] += 1;
                }
                for (stream, len) in per_group.iter_mut().zip(lens) {
                    stream.reserve_exact(len);
                }
                for &(at, gi) in kept {
                    per_group[gi as usize].push(at);
                }
            }
            (proc_, StopCondition::Duration(d)) => {
                let end_ns = d.as_nanos();
                for (gi, stream) in per_group.iter_mut().enumerate() {
                    let mut rng = DetRng::substream(self.seed, "wl.arrivals", gi as u64);
                    let mut t = next_gap(proc_, &mut rng, true);
                    while t < end_ns {
                        stream.push(SimTime::from_nanos(t));
                        t += next_gap(proc_, &mut rng, false);
                    }
                }
            }
            (proc_, StopCondition::Messages(m)) => {
                // Merge the per-group streams earliest-first until the
                // message budget is spent.
                let mut rngs: Vec<DetRng> = (0..g)
                    .map(|gi| DetRng::substream(self.seed, "wl.arrivals", gi as u64))
                    .collect();
                let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..g)
                    .map(|gi| Reverse((next_gap(proc_, &mut rngs[gi], true), gi)))
                    .collect();
                for _ in 0..m {
                    let Reverse((t, gi)) = heap.pop().expect("heap holds every group");
                    per_group[gi].push(SimTime::from_nanos(t));
                    heap.push(Reverse((t + next_gap(proc_, &mut rngs[gi], false), gi)));
                }
            }
        }
        // Drawn streams grew by push; a trace's were reserved exactly.
        per_group.iter_mut().for_each(Vec::shrink_to_fit);
        if let Some(n) = per_group
            .iter()
            .map(Vec::len)
            .find(|&n| n >= MAX_MSGS_PER_GROUP)
        {
            return Err(WorkloadError::TooManyMessagesPerGroup(n));
        }
        Ok(per_group)
    }

    /// Draw roots, members and spanning trees; drop groups that never send.
    fn synthesize_groups(
        &self,
        arrivals: Vec<Vec<SimTime>>,
    ) -> Result<Vec<WorkloadGroup>, WorkloadError> {
        let n = self.n_nodes as u64;
        let hot = ((self.n_nodes as f64).sqrt().ceil() as u64).clamp(2, n);
        let mut roots = DetRng::new(self.seed, "wl.roots");
        let mut out = Vec::new();
        for (gi, stream) in arrivals.into_iter().enumerate() {
            let root = NodeId(roots.below(n) as u32);
            let mut members_rng = DetRng::substream(self.seed, "wl.members", gi as u64);
            if stream.is_empty() {
                // Idle groups never install (no slot, no tree, no traffic)
                // — but their RNG draws above stay consumed, so adding or
                // removing arrivals in one group never reshuffles another.
                continue;
            }
            let want = match self.fanout {
                FanoutDist::Zipf { exponent } => {
                    let rank = (gi + 1) as f64;
                    (((n - 1) as f64) * rank.powf(-exponent)).round() as u64
                }
                FanoutDist::Fixed { fanout } => fanout as u64,
            }
            .clamp(1, n - 1);
            let mut chosen: BTreeSet<u32> = BTreeSet::new();
            let mut tries = 0u64;
            while (chosen.len() as u64) < want && tries < 4 * want + 16 {
                tries += 1;
                let pool = if members_rng.chance(self.overlap) {
                    hot
                } else {
                    n
                };
                let cand = members_rng.below(pool) as u32;
                if cand != root.0 {
                    chosen.insert(cand);
                }
            }
            if (chosen.len() as u64) < want {
                // Deterministic fallback: linear scan from a drawn offset.
                let start = members_rng.below(n) as u32;
                for off in 0..self.n_nodes {
                    if chosen.len() as u64 >= want {
                        break;
                    }
                    let cand = (start + off) % self.n_nodes;
                    if cand != root.0 {
                        chosen.insert(cand);
                    }
                }
            }
            let members: Vec<NodeId> = chosen.into_iter().map(NodeId).collect();
            let shape = match self.shape {
                TreeShape::Auto => auto_shape(
                    self.size,
                    members.len(),
                    self.n_nodes,
                    &self.params,
                    &self.net,
                ),
                s => s,
            };
            let tree = SpanningTree::build(root, &members, shape);
            out.push(WorkloadGroup {
                gid: GroupId(out.len() as u32 + 1),
                root,
                members,
                arrivals: stream,
                tree,
            });
        }
        if out.is_empty() {
            // Possible only with a duration too short for any arrival.
            return Err(WorkloadError::NoMessages);
        }
        Ok(out)
    }
}

/// One draw from the arrival process, as a nanosecond gap (the first draw
/// of a fixed-rate stream is its phase). Gaps are clamped to >= 1 ns so
/// streams are strictly increasing.
fn next_gap(proc_: &ArrivalProcess, rng: &mut DetRng, first: bool) -> u64 {
    match proc_ {
        ArrivalProcess::Poisson { rate_hz } => {
            let u = rng.unit();
            ((-(1.0 - u).ln()) / rate_hz * 1e9).ceil().max(1.0) as u64
        }
        ArrivalProcess::FixedRate { rate_hz } => {
            let period = ((1e9 / rate_hz).round() as u64).max(1);
            if first {
                rng.below(period).max(1)
            } else {
                period
            }
        }
        ArrivalProcess::Trace(_) => unreachable!("traces are not drawn"),
    }
}

/// One synthesized group of the population.
#[derive(Clone, Debug)]
pub struct WorkloadGroup {
    /// The NIC-level group id (`index + 1`).
    pub gid: GroupId,
    /// The multicast root.
    pub root: NodeId,
    /// The member set (excluding the root), ascending.
    pub members: Vec<NodeId>,
    /// Scheduled send times, non-decreasing: drawn arrivals strictly
    /// increase, while a trace may give a group the same time twice.
    pub arrivals: Vec<SimTime>,
    tree: SpanningTree,
}

impl WorkloadGroup {
    /// When the root and members install their entries: [`INSTALL_LEAD`]
    /// before the first arrival.
    fn install_at(&self) -> SimTime {
        SimTime::from_nanos(
            self.arrivals[0]
                .as_nanos()
                .saturating_sub(INSTALL_LEAD.as_nanos()),
        )
    }

    /// The last arrival, when the root disbands the group.
    fn last_arrival(&self) -> SimTime {
        *self.arrivals.last().expect("nonempty stream")
    }

    /// The root, then the members.
    fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::once(self.root).chain(self.members.iter().copied())
    }
}

/// A validated workload, ready to execute (or inspect).
#[derive(Clone, Debug)]
pub struct BuiltWorkload {
    /// The validated spec; a trace has moved from it into `groups`.
    spec: Workload,
    /// The population, shared read-only with every run's node apps.
    groups: Arc<[WorkloadGroup]>,
}

// -- runtime ------------------------------------------------------------------

/// What a node does at a scheduled instant: one step of its part in a
/// group, which a [`Cursor`] holds until it is due. It is 8 bytes; its
/// instant is read from the group's stream ([`Act::due`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Act {
    /// Install this node's entry for group `gidx` (root and members).
    Install(u32),
    /// Root: post message `msg` of group `gidx`.
    Send(u32, u16),
    /// Root: post the zero-byte disband marker for group `gidx`.
    Disband(u32),
}

impl Act {
    /// The group index this act belongs to.
    fn group(self) -> u32 {
        match self {
            Act::Install(gidx) | Act::Send(gidx, _) | Act::Disband(gidx) => gidx,
        }
    }

    /// The scheduled instant of this act.
    fn due(self, groups: &[WorkloadGroup]) -> SimTime {
        match self {
            Act::Install(gidx) => groups[gidx as usize].install_at(),
            Act::Send(gidx, msg) => groups[gidx as usize].arrivals[msg as usize],
            Act::Disband(gidx) => groups[gidx as usize].last_arrival(),
        }
    }

    /// What `node` does after this act in group `g`: the root installs,
    /// sends every message in stream order, then disbands; a member only
    /// installs. Each act is due no earlier than the one before it.
    fn next(self, g: &WorkloadGroup, node: NodeId) -> Option<Act> {
        match self {
            Act::Install(gidx) if node == g.root => Some(Act::Send(gidx, 0)),
            Act::Send(gidx, msg) if usize::from(msg) + 1 < g.arrivals.len() => {
                Some(Act::Send(gidx, msg + 1))
            }
            Act::Send(gidx, _) => Some(Act::Disband(gidx)),
            Act::Install(_) | Act::Disband(_) => None,
        }
    }
}

/// A node's place in one group: the next act it does there, and when.
/// Cursors order by `(due, group index)`, so simultaneous acts of
/// different groups go in declaration order.
#[derive(Clone, Copy, Debug)]
struct Cursor {
    due: SimTime,
    act: Act,
}

impl Cursor {
    /// A cursor at `act`, due when its group's stream says.
    fn at(act: Act, groups: &[WorkloadGroup]) -> Cursor {
        Cursor {
            due: act.due(groups),
            act,
        }
    }

    /// What cursors order by. A node holds one cursor per group, so no
    /// two of its cursors share a key.
    fn key(&self) -> (SimTime, u32) {
        (self.due, self.act.group())
    }
}

impl PartialEq for Cursor {
    fn eq(&self, other: &Cursor) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Cursor {}

impl PartialOrd for Cursor {
    fn partial_cmp(&self, other: &Cursor) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cursor {
    fn cmp(&self, other: &Cursor) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// One node's schedule: a cursor per group it roots or joins, read
/// straight from the groups' arrival streams, so it grows with the node's
/// groups rather than its messages. Each group's acts are due in order and
/// a node holds one cursor per group, so popping the earliest cursor
/// yields the node's acts by time, simultaneous ones in group declaration
/// order and, within one group, install before sends before disband.
struct Schedule {
    cursors: BinaryHeap<Reverse<Cursor>>,
}

impl Schedule {
    /// Every node's schedule, in node order, each heap sized exactly to
    /// the groups its node takes part in, every cursor at its install.
    fn per_node(groups: &[WorkloadGroup], n: u32) -> Vec<Schedule> {
        let mut sizes = vec![0usize; n as usize];
        for g in groups {
            for node in g.nodes() {
                sizes[node.idx()] += 1;
            }
        }
        let mut heaps: Vec<Vec<Reverse<Cursor>>> =
            sizes.into_iter().map(Vec::with_capacity).collect();
        for (gidx, g) in groups.iter().enumerate() {
            let install = Reverse(Cursor::at(Act::Install(gidx as u32), groups));
            for node in g.nodes() {
                heaps[node.idx()].push(install);
            }
        }
        heaps
            .into_iter()
            .map(|h| Schedule {
                cursors: BinaryHeap::from(h),
            })
            .collect()
    }

    /// When the node's next act is due (`None` once it has done them all).
    fn next_due(&self) -> Option<SimTime> {
        self.cursors.peek().map(|c| c.0.due)
    }

    /// The node's next act if it is due by `now`, advancing that group's
    /// cursor past it.
    fn pop_due(&mut self, now: SimTime, groups: &[WorkloadGroup], node: NodeId) -> Option<Act> {
        let mut top = self.cursors.peek_mut().filter(|c| c.0.due <= now)?;
        let act = top.0.act;
        match act.next(&groups[act.group() as usize], node) {
            Some(next) => top.0 = Cursor::at(next, groups),
            None => {
                PeekMut::pop(top);
            }
        }
        Some(act)
    }
}

/// Read-only run context shared by every node's app.
struct WlShared {
    groups: Arc<[WorkloadGroup]>,
    warmup: SimTime,
    size: usize,
    /// Record warmup deliveries into the baseline histogram (only needed
    /// when watch is on — the p99-excursion detector learns from it).
    baseline: bool,
}

#[derive(Default)]
struct GroupTally {
    delivered: u64,
    bytes: u64,
}

/// Per-node measurement state, owned by the node's app, so thread
/// interleaving under sharded execution cannot reorder anything.
#[derive(Default)]
struct NodeStats {
    delivered_total: u64,
    hist: LogHistogram,
    /// Warmup-window delivery latencies (populated only when watch is on):
    /// the learned baseline the p99-excursion detector compares against.
    warmup_hist: LogHistogram,
    groups: BTreeMap<u32, GroupTally>,
}

/// One node's app: it does its acts as they fall due, taking them from its
/// [`Schedule`], and records the latency of every message it receives.
struct WlApp {
    me: NodeId,
    shared: Arc<WlShared>,
    /// What this node still has to do, one cursor per group; a wake-up
    /// ([`WAKE_TAG`]) is pending for the earliest act.
    schedule: Schedule,
    /// Groups whose local install completed (`GroupReady` received).
    ready: BTreeSet<u32>,
    /// Root actions deferred behind a parked install, flushed in order on
    /// `GroupReady` — admission backpressure surfaces as delivery latency.
    waiting: BTreeMap<u32, Vec<Act>>,
    stats: NodeStats,
}

impl WlApp {
    /// Do every act due by now, then wake when the next one is due.
    fn pump(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        let now = ctx.now();
        while let Some(act) = self.schedule.pop_due(now, &self.shared.groups, self.me) {
            self.exec(act, ctx);
        }
        if let Some(at) = self.schedule.next_due() {
            ctx.wake_at(at, WAKE_TAG);
        }
    }

    fn exec(&mut self, act: Act, ctx: &mut HostCtx<'_, McastExt>) {
        match act {
            Act::Install(gidx) => {
                let g = &self.shared.groups[gidx as usize];
                let (parent, children) = if self.me == g.root {
                    (None, g.tree.children(g.root).to_vec())
                } else {
                    (
                        Some(g.tree.parent(self.me).expect("member has a parent")),
                        g.tree.children(self.me).to_vec(),
                    )
                };
                ctx.ext(McastRequest::CreateGroup {
                    group: g.gid,
                    port: DATA_PORT,
                    root: g.root,
                    parent,
                    children,
                });
            }
            Act::Send(gidx, _) | Act::Disband(gidx) if !self.ready.contains(&gidx) => {
                self.waiting.entry(gidx).or_default().push(act);
            }
            Act::Send(gidx, msg) => self.post_send(gidx, msg, ctx),
            Act::Disband(gidx) => self.post_disband(gidx, ctx),
        }
    }

    fn post_send(&self, gidx: u32, msg: u16, ctx: &mut HostCtx<'_, McastExt>) {
        let g = &self.shared.groups[gidx as usize];
        let tag = ((gidx as u64) << 16) | msg as u64;
        ctx.ext(McastRequest::Send {
            group: g.gid,
            data: Payload::new(tag as u32, self.shared.size),
            tag,
        });
    }

    fn post_disband(&self, gidx: u32, ctx: &mut HostCtx<'_, McastExt>) {
        let g = &self.shared.groups[gidx as usize];
        ctx.ext(McastRequest::Send {
            group: g.gid,
            data: Payload::EMPTY,
            tag: ((gidx as u64) << 16) | DISBAND_IDX,
        });
    }
}

impl HostApp<McastExt> for WlApp {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        ctx.provide_recv(DATA_PORT, 64);
        self.pump(ctx);
    }

    fn on_notice(&mut self, n: Notice<McastNotice>, ctx: &mut HostCtx<'_, McastExt>) {
        match n {
            Notice::ComputeDone { tag: WAKE_TAG } => self.pump(ctx),
            Notice::Ext(McastNotice::GroupReady { group }) => {
                let gidx = group.0 - 1;
                self.ready.insert(gidx);
                for act in self.waiting.remove(&gidx).unwrap_or_default() {
                    match act {
                        Act::Send(g, m) => self.post_send(g, m, ctx),
                        Act::Disband(g) => self.post_disband(g, ctx),
                        Act::Install(_) => unreachable!("installs are never deferred"),
                    }
                }
            }
            Notice::Ext(McastNotice::SendDone { group, tag }) if tag & 0xFFFF == DISBAND_IDX => {
                // Every child acked everything: the root's entry is
                // quiescent and its slot can go back to the table.
                ctx.ext(McastRequest::Leave { group });
            }
            Notice::Recv {
                port, tag, data, ..
            } if port == DATA_PORT => {
                ctx.provide_recv(DATA_PORT, 1);
                let gidx = (tag >> 16) as u32;
                let msg = tag & 0xFFFF;
                let g = &self.shared.groups[gidx as usize];
                if msg == DISBAND_IDX {
                    // Last message of this group's lifetime: leave (the NIC
                    // defers the slot release until the subtree acks).
                    ctx.ext(McastRequest::Leave { group: g.gid });
                    return;
                }
                debug_assert_eq!(
                    data,
                    Payload::new(tag as u32, self.shared.size),
                    "payload of another message"
                );
                let scheduled = g.arrivals[msg as usize];
                let lat = ctx.now() - scheduled;
                let s = &mut self.stats;
                s.delivered_total += 1;
                if scheduled >= self.shared.warmup {
                    s.hist.record(lat);
                    let t = s.groups.entry(gidx).or_default();
                    t.delivered += 1;
                    t.bytes += data.len() as u64;
                } else if self.shared.baseline {
                    s.warmup_hist.record(lat);
                }
            }
            _ => {}
        }
    }
}

impl BuiltWorkload {
    /// The synthesized group population (roots, members, arrival streams).
    pub fn groups(&self) -> &[WorkloadGroup] {
        &self.groups
    }

    /// Per-node expected-event-load weights for shard placement (see
    /// [`Cluster::set_partition_weights`]). The cost model is the per-packet
    /// work the firmware does: for every group a node participates in, it
    /// handles one receive (or send, at the root) plus one replica per
    /// child, per message — so a node's weight is the sum over its groups of
    /// `messages x (1 + children)`. Idle nodes keep weight 1.
    pub fn partition_weights(&self) -> Vec<u64> {
        let mut weights = vec![1u64; self.spec.n_nodes as usize];
        for g in self.groups.iter() {
            let msgs = g.arrivals.len() as u64 + 1; // + the disband marker
            for node in g.nodes() {
                let children = g.tree.children(node).len() as u64;
                weights[node.idx()] += msgs * (1 + children);
            }
        }
        weights
    }

    /// Total scheduled messages across all groups.
    pub fn messages(&self) -> u64 {
        self.groups.iter().map(|g| g.arrivals.len() as u64).sum()
    }

    /// Execute to quiescence and collect the report.
    pub fn run(&self) -> WorkloadReport {
        let spec = &self.spec;
        let n = spec.n_nodes;
        let topo = Topology::for_nodes(n);
        let fabric = Fabric::with_config(topo, spec.net, spec.faults.clone(), spec.seed);
        let config = spec.config;
        let mut cluster = Cluster::new(spec.params.clone(), fabric, |_| {
            McastExt::with_config(config)
        });
        cluster.set_probes(spec.probes);
        cluster.set_series(spec.series);
        cluster.set_partition_weights(self.partition_weights());

        let shared = Arc::new(WlShared {
            groups: Arc::clone(&self.groups),
            warmup: SimTime::ZERO + spec.warmup,
            size: spec.size,
            baseline: spec.watch.is_enabled(),
        });
        for (node, schedule) in Schedule::per_node(&self.groups, n).into_iter().enumerate() {
            cluster.set_app(
                NodeId(node as u32),
                Box::new(WlApp {
                    me: NodeId(node as u32),
                    shared: shared.clone(),
                    schedule,
                    ready: BTreeSet::new(),
                    waiting: BTreeMap::new(),
                    stats: NodeStats::default(),
                }),
            );
        }

        let mut driven = drive(cluster, spec.shards);
        let now = driven.end;

        // Merge per-node measurements in node-id order (the histogram merge
        // is order-independent anyway; the tallies are integers), so the
        // result is identical at any shard count.
        let mut hist = LogHistogram::new();
        let mut warmup_hist = LogHistogram::new();
        let mut delivered_total = 0u64;
        let mut tallies: BTreeMap<u32, GroupTally> = BTreeMap::new();
        for node in (0..n).map(NodeId) {
            let s = &driven.app::<WlApp>(node).stats;
            hist.merge_from(&s.hist);
            warmup_hist.merge_from(&s.warmup_hist);
            delivered_total += s.delivered_total;
            for (&gi, t) in &s.groups {
                let agg = tallies.entry(gi).or_default();
                agg.delivered += t.delivered;
                agg.bytes += t.bytes;
            }
        }
        let expected: u64 = self
            .groups
            .iter()
            .map(|g| g.arrivals.len() as u64 * g.members.len() as u64)
            .sum();
        assert_eq!(
            delivered_total, expected,
            "reliable multicast must deliver every scheduled message to every member"
        );

        // Goodput window: warmup .. last scheduled arrival (the offered-load
        // horizon; the drain tail would deflate sustained rates).
        let horizon = self
            .groups
            .iter()
            .map(WorkloadGroup::last_arrival)
            .max()
            .expect("nonempty population");
        let warmup_t = SimTime::ZERO + spec.warmup;
        let span_ns = horizon.saturating_since(warmup_t).as_nanos().max(1);
        let span_secs = span_ns as f64 / 1e9;
        let mut per_group = Vec::new();
        let mut measured_bytes = 0u64;
        let mut delivered = 0u64;
        for (gi, g) in self.groups.iter().enumerate() {
            let measured_msgs = g.arrivals.iter().filter(|&&t| t >= warmup_t).count() as u64;
            if measured_msgs == 0 {
                continue;
            }
            let t = tallies.get(&(gi as u32));
            let (d, b) = t.map_or((0, 0), |t| (t.delivered, t.bytes));
            measured_bytes += b;
            delivered += d;
            per_group.push(GroupGoodput {
                gid: g.gid,
                messages: measured_msgs,
                delivered: d,
                goodput_mbs: b as f64 / span_secs / 1e6,
            });
        }
        // Jain's fairness index over per-group goodput.
        let sum: f64 = per_group.iter().map(|g| g.goodput_mbs).sum();
        let sum_sq: f64 = per_group
            .iter()
            .map(|g| g.goodput_mbs * g.goodput_mbs)
            .sum();
        let fairness = if sum_sq > 0.0 {
            (sum * sum) / (per_group.len() as f64 * sum_sq)
        } else {
            1.0
        };

        let harvest = harvest(&mut driven);
        // Two workload-level detectors over the merged measurement state
        // (data the series never sees): Jain-fairness collapse, and a
        // delivery-p99 excursion against the warmup baseline.
        let mut extra = Vec::new();
        let fairness_x1000 = (fairness * 1000.0) as u64;
        if fairness_x1000 < FAIRNESS_FLOOR_X1000 {
            extra.push(Incident::cluster(
                "fairness_collapse",
                Severity::Warn,
                (warmup_t, horizon),
                fairness_x1000,
                Thresh::per_mille(FAIRNESS_FLOOR_X1000),
            ));
        }
        if warmup_hist.count() > 0 {
            let baseline_p99 = warmup_hist.percentile(99.0);
            let limit = baseline_p99 * P99_EXCURSION_FACTOR as f64;
            let p99 = hist.percentile(99.0);
            if p99 > limit {
                extra.push(Incident::cluster(
                    "delivery_p99_excursion",
                    Severity::Warn,
                    (warmup_t, now),
                    p99 as u64,
                    Thresh::micros(limit as u64),
                ));
            }
        }
        let incidents = analyze(&spec.watch, &spec.params, &harvest, now, extra);
        WorkloadReport {
            groups: self.groups.len(),
            messages: self.messages(),
            delivered,
            p50_us: hist.percentile(50.0),
            p99_us: hist.percentile(99.0),
            p999_us: hist.percentile(99.9),
            mean_us: hist.mean_us(),
            max_us: hist.max_us(),
            goodput_mbs: measured_bytes as f64 / span_secs / 1e6,
            fairness,
            per_group,
            admission_waits: harvest.metrics.get("nic.mcast_group_admission_waits"),
            end_time: now,
            events: driven.events,
            hist,
            metrics: harvest.metrics,
            probe: harvest.probe,
            series: harvest.series,
            incidents,
        }
    }
}

/// Per-group measured throughput.
#[derive(Clone, Debug)]
pub struct GroupGoodput {
    /// The group.
    pub gid: GroupId,
    /// Messages scheduled inside the measurement window.
    pub messages: u64,
    /// Member deliveries of measured messages.
    pub delivered: u64,
    /// Measured payload bytes delivered per second, in MB/s.
    pub goodput_mbs: f64,
}

/// Everything one workload execution produced.
#[derive(Debug)]
pub struct WorkloadReport {
    /// Groups that scheduled at least one message.
    pub groups: usize,
    /// Total scheduled messages (warmup included).
    pub messages: u64,
    /// Member deliveries of measured (post-warmup) messages.
    pub delivered: u64,
    /// Median delivery latency, µs (delivery instant minus *scheduled*
    /// arrival, so open-loop queueing is included).
    pub p50_us: f64,
    /// 99th-percentile delivery latency, µs.
    pub p99_us: f64,
    /// 99.9th-percentile delivery latency, µs.
    pub p999_us: f64,
    /// Mean delivery latency, µs.
    pub mean_us: f64,
    /// Maximum delivery latency, µs.
    pub max_us: f64,
    /// Aggregate measured goodput, MB/s of payload delivered to members.
    pub goodput_mbs: f64,
    /// Jain fairness index over per-group goodput, in `(0, 1]`.
    pub fairness: f64,
    /// Per-group breakdown (groups with measured messages only).
    pub per_group: Vec<GroupGoodput>,
    /// Installs that had to wait for a group-table slot.
    pub admission_waits: u64,
    /// Total simulated time (including the drain tail).
    pub end_time: SimTime,
    /// Total events dispatched.
    pub events: u64,
    /// The full delivery-latency distribution.
    pub hist: LogHistogram,
    /// Counter snapshot (`nic.*`, `fabric.*`, `engine.*`, `parallel.*`).
    pub metrics: Metrics,
    /// The recorded probe events (empty unless probes were enabled).
    pub probe: ProbeSink,
    /// The recorded gauge time-series (empty unless series were enabled).
    pub series: SeriesSink,
    /// Health incidents the watch detectors raised over the run, in
    /// canonical order (empty unless watch was enabled).
    pub incidents: Vec<Incident>,
}

impl WorkloadReport {
    /// The headline results as one deterministic JSON line: byte-identical
    /// across shard counts and executions of the same seed.
    pub fn summary_json(&self) -> String {
        format!(
            concat!(
                "{{\"groups\":{},\"messages\":{},\"delivered\":{},",
                "\"p50_us\":{:.3},\"p99_us\":{:.3},\"p999_us\":{:.3},",
                "\"goodput_mbs\":{:.3},\"fairness\":{:.6}}}"
            ),
            self.groups,
            self.messages,
            self.delivered,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.goodput_mbs,
            self.fairness,
        )
    }

    /// The health-incident stream as one deterministic JSON array:
    /// byte-identical across shard counts and executions of the same seed.
    pub fn health_json(&self) -> String {
        watch::summary_json(&self.incidents)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    #[test]
    fn small_workload_runs_and_reports() {
        let report = Workload::new(8)
            .groups(4)
            .arrivals(ArrivalProcess::Poisson { rate_hz: 50_000.0 })
            .stop(StopCondition::Duration(SimDuration::from_millis(1)))
            .size(128)
            .run();
        assert!(report.delivered > 0);
        assert!(report.p50_us > 0.0);
        assert!(report.p50_us <= report.p99_us && report.p99_us <= report.p999_us);
        assert!(report.fairness > 0.0 && report.fairness <= 1.0);
        assert_eq!(
            report.metrics.get("nic.mcast_group_installs"),
            report.metrics.get("nic.mcast_group_frees"),
            "every installed group entry must be freed by the disband path"
        );
    }

    #[test]
    fn acts_are_eight_bytes_and_cursors_sixteen() {
        assert_eq!(std::mem::size_of::<Act>(), 8);
        assert_eq!(std::mem::size_of::<Reverse<Cursor>>(), 16);
    }

    /// The order oracle: every node's acts, in node order, stably sorted by
    /// time from group declaration order (within a group: install, sends,
    /// disband), so simultaneous acts keep that order.
    fn agendas(groups: &[WorkloadGroup], n: u32) -> Vec<Vec<(SimTime, Act)>> {
        (0..n)
            .map(NodeId)
            .map(|node| {
                let mut timed = Vec::new();
                for (gi, g) in groups.iter().enumerate() {
                    let gi = gi as u32;
                    if g.root == node {
                        timed.push((g.install_at(), Act::Install(gi)));
                        let sends = g.arrivals.iter().enumerate();
                        timed.extend(sends.map(|(mi, &at)| (at, Act::Send(gi, mi as u16))));
                        timed.push((g.last_arrival(), Act::Disband(gi)));
                    } else if g.members.binary_search(&node).is_ok() {
                        timed.push((g.install_at(), Act::Install(gi)));
                    }
                }
                timed.sort_by_key(|&(at, _)| at);
                timed
            })
            .collect()
    }

    /// Every node's acts as its schedule yields them, each popped at its
    /// own instant and not a nanosecond before.
    fn streams(groups: &[WorkloadGroup], n: u32) -> Vec<Vec<(SimTime, Act)>> {
        let schedules = Schedule::per_node(groups, n).into_iter();
        (0..n)
            .map(NodeId)
            .zip(schedules)
            .map(|(node, mut s)| {
                let mut acts = Vec::new();
                while let Some(due) = s.next_due() {
                    if let Some(early) = due.as_nanos().checked_sub(1) {
                        let early = SimTime::from_nanos(early);
                        assert_eq!(s.pop_due(early, groups, node), None, "popped early");
                    }
                    let act = s.pop_due(due, groups, node).expect("due at its instant");
                    assert_eq!(act.due(groups), due);
                    acts.push((due, act));
                }
                acts
            })
            .collect()
    }

    /// Small populations on a 50 µs grid up to 550 µs: a few nodes root
    /// and join many groups, groups share instants, a trace names one
    /// group's instant twice, and first arrivals before [`INSTALL_LEAD`]
    /// clamp installs to time 0.
    fn populations() -> impl Strategy<Value = BuiltWorkload> {
        let entries = proptest::collection::vec((0u64..12, 0u32..12), 1..40);
        ((2u32..8, 1usize..12), entries, (1u32..8, 0u64..1_000)).prop_map(
            |((n, groups), entries, (fanout, seed))| {
                let trace = entries
                    .into_iter()
                    .map(|(step, g)| (SimTime::from_nanos(step * 50_000), g % groups as u32))
                    .collect();
                Workload::new(n)
                    .groups(groups)
                    .fanout(FanoutDist::Fixed { fanout })
                    .overlap(0.5)
                    .arrivals(ArrivalProcess::Trace(trace))
                    .stop(StopCondition::Duration(SimDuration::from_millis(1)))
                    .seed(seed)
                    .build()
                    .expect("valid population")
            },
        )
    }

    proptest! {
        #[test]
        fn schedules_yield_the_stably_sorted_agendas(built in populations()) {
            let n = built.spec.n_nodes;
            prop_assert_eq!(streams(built.groups(), n), agendas(built.groups(), n));
        }
    }

    /// The populations the order test draws hold each shape its tie rules
    /// need: acts of two groups at one node's instant, a group's instant
    /// named twice, an install clamped to 0, a disband at its last send's
    /// instant, and a node that roots two groups and joins a third.
    #[test]
    fn order_test_populations_cover_every_tie() {
        let mut seen = [false; 5];
        for case in 0..64 {
            let built = populations().sample(&mut TestRng::for_case("cover", case));
            let groups = built.groups();
            for stream in agendas(groups, built.spec.n_nodes) {
                seen[0] |= stream
                    .windows(2)
                    .any(|w| w[0].0 == w[1].0 && w[0].1.group() != w[1].1.group());
                seen[3] |= stream.windows(2).any(|w| {
                    matches!((w[0].1, w[1].1), (Act::Send(a, _), Act::Disband(b)) if a == b)
                        && w[0].0 == w[1].0
                });
                let roots = stream.iter().filter(|(_, a)| matches!(a, Act::Disband(_)));
                let installs = stream.iter().filter(|(_, a)| matches!(a, Act::Install(_)));
                seen[4] |= roots.count() >= 2 && installs.count() >= 3;
            }
            seen[1] |= groups
                .iter()
                .any(|g| g.arrivals.windows(2).any(|w| w[0] == w[1]));
            seen[2] |= groups
                .iter()
                .any(|g| g.arrivals[0] < SimTime::ZERO + INSTALL_LEAD);
        }
        assert_eq!(seen, [true; 5], "shapes in the order the doc lists them");
    }

    #[test]
    fn message_count_stop_generates_exactly_n() {
        let built = Workload::new(8)
            .groups(3)
            .stop(StopCondition::Messages(25))
            .build()
            .expect("valid");
        assert_eq!(built.messages(), 25);
    }

    #[test]
    fn arrival_streams_are_strictly_increasing() {
        let built = Workload::new(8)
            .groups(5)
            .arrivals(ArrivalProcess::FixedRate { rate_hz: 100_000.0 })
            .stop(StopCondition::Duration(SimDuration::from_millis(2)))
            .build()
            .expect("valid");
        for g in built.groups() {
            for w in g.arrivals.windows(2) {
                assert!(w[0] < w[1], "arrivals must be strictly increasing");
            }
        }
    }

    #[test]
    fn trace_arrivals_route_to_named_groups() {
        let t = vec![
            (SimTime::from_nanos(500_000), 1u32),
            (SimTime::from_nanos(100_000), 0u32),
            (SimTime::from_nanos(900_000), 1u32),
        ];
        let built = Workload::new(4)
            .groups(2)
            .arrivals(ArrivalProcess::Trace(t))
            .stop(StopCondition::Duration(SimDuration::from_millis(1)))
            .build()
            .expect("valid");
        assert_eq!(built.groups().len(), 2);
        assert_eq!(built.groups()[0].arrivals.len(), 1);
        assert_eq!(built.groups()[1].arrivals.len(), 2);
    }
}
