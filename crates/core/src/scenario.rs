//! The scenario API: typed, validated construction of measurement runs.
//!
//! [`Scenario`] is the one way to run a closed-loop collective: it
//! validates everything at [`build`](Scenario::build) time (instead of
//! panicking mid-run), resolves [`TreeShape::Auto`] against the calibrated
//! postal model, and threads the observability configuration
//! ([`ProbeConfig`], [`SeriesConfig`], [`WatchConfig`]) through to the
//! cluster, so one [`BuiltScenario::run`] returns a [`Report`] carrying
//! latency statistics, a counter snapshot, the probe event history and a
//! latency-attribution breakdown.
//!
//! ```
//! use nic_mcast::{ProbeConfig, Scenario, TreeShape};
//!
//! let report = Scenario::nic_based(16)
//!     .size(4096)
//!     .tree(TreeShape::auto())
//!     .warmup(2)
//!     .iters(5)
//!     .probes(ProbeConfig::spans())
//!     .run();
//! assert_eq!(report.latency.count(), 5);
//! assert!(report.metrics.get("nic.tx_data") > 0);
//! assert!(!report.probe.is_empty());
//! ```

use gm::GmParams;
use gm_sim::probe::{attribution::Attribution, ProbeConfig};
use gm_sim::watch::Incident;
use gm_sim::{OnlineStats, SeriesConfig, SimTime, WatchConfig};
use myrinet::{FaultPlan, NetParams, NodeId, MAX_NODES};

use crate::calibrate::auto_shape;
use crate::group::McastConfig;
use crate::tree::TreeShape;
use crate::workloads::{env_shards, execute, AckMode, McastMode, McastRun};

/// A validated-at-build measurement scenario.
///
/// Construct with [`nic_based`](Scenario::nic_based) or
/// [`host_based`](Scenario::host_based), refine with the chained setters,
/// then [`build`](Scenario::build) (fallible) or [`run`](Scenario::run)
/// (builds and executes, panicking on invalid input with the validation
/// message).
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Everything but the destinations and the probe, which `build` fills
    /// in from the two fields below.
    run: McastRun,
    /// The caller's destination set; `None` is every node but the root.
    dests: Option<Vec<NodeId>>,
    /// The caller's probe node; `None` is the last destination.
    probe: Option<NodeId>,
}

/// Why a [`Scenario`] failed to [`build`](Scenario::build).
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// Fewer than two nodes: there is nobody to multicast to.
    TooFewNodes(u32),
    /// More nodes than a topology holds ([`MAX_NODES`]).
    TooManyNodes(u32),
    /// The destination set is empty.
    NoDestinations,
    /// A destination appears twice.
    DuplicateDestination(NodeId),
    /// A destination is outside `0..n_nodes`.
    DestinationOutOfRange(NodeId),
    /// The root cannot also be a destination.
    RootIsDestination(NodeId),
    /// The probe node must be one of the destinations.
    ProbeNotADestination(NodeId),
    /// Loss/corruption probabilities must lie in `[0, 1)`.
    InvalidProbability(f64),
    /// At least one timed iteration is required.
    NoIterations,
    /// The message must carry at least one byte.
    EmptyMessage,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::TooFewNodes(n) => write!(f, "need at least 2 nodes, got {n}"),
            ScenarioError::TooManyNodes(n) => {
                write!(f, "{n} nodes exceed the topology limit of {MAX_NODES}")
            }
            ScenarioError::NoDestinations => write!(f, "destination set is empty"),
            ScenarioError::DuplicateDestination(d) => write!(f, "duplicate destination {d}"),
            ScenarioError::DestinationOutOfRange(d) => {
                write!(f, "destination {d} is outside the cluster")
            }
            ScenarioError::RootIsDestination(r) => {
                write!(f, "root {r} cannot be a destination")
            }
            ScenarioError::ProbeNotADestination(p) => {
                write!(f, "probe {p} is not a destination")
            }
            ScenarioError::InvalidProbability(p) => {
                write!(f, "probability {p} is outside [0, 1)")
            }
            ScenarioError::NoIterations => write!(f, "need at least 1 timed iteration"),
            ScenarioError::EmptyMessage => write!(f, "message size must be at least 1 byte"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl Scenario {
    /// A scenario of `mode` over an `n_nodes` cluster, with the defaults of
    /// [`nic_based`](Scenario::nic_based) and
    /// [`host_based`](Scenario::host_based).
    pub fn new(n_nodes: u32, mode: McastMode) -> Scenario {
        Scenario {
            run: McastRun {
                n_nodes,
                root: NodeId(0),
                dests: Vec::new(),
                size: 1024,
                shape: TreeShape::Auto,
                mode,
                warmup: 20,
                iters: 100,
                probe: NodeId(0),
                ack: AckMode::ProbeReply,
                seed: 0x6D_6361_7374,
                faults: FaultPlan::none(),
                config: McastConfig::default(),
                params: GmParams::default(),
                net: NetParams::default(),
                shards: env_shards(),
                probes: ProbeConfig::off(),
                series: SeriesConfig::off(),
                watch: WatchConfig::off(),
            },
            dests: None,
            probe: None,
        }
    }

    /// The paper's NIC-based multicast over an `n_nodes` cluster
    /// (defaults: 1 KB messages, auto tree, 20 warmup, 100 timed
    /// iterations, root 0, everyone else a destination, probes off).
    pub fn nic_based(n_nodes: u32) -> Scenario {
        Scenario::new(n_nodes, McastMode::NicBased)
    }

    /// The traditional host-based store-and-forward scheme, same defaults.
    pub fn host_based(n_nodes: u32) -> Scenario {
        Scenario::new(n_nodes, McastMode::HostBased)
    }

    /// Message size in bytes.
    pub fn size(mut self, bytes: usize) -> Scenario {
        self.run.size = bytes;
        self
    }

    /// Tree shape ([`TreeShape::auto`] resolves against the calibrated
    /// postal model at build time).
    pub fn tree(mut self, shape: TreeShape) -> Scenario {
        self.run.shape = shape;
        self
    }

    /// Independent per-packet loss probability (`[0, 1)`).
    pub fn loss(mut self, drop_prob: f64) -> Scenario {
        self.run.faults.drop_prob = drop_prob;
        self
    }

    /// Full fault plan (loss, corruption, targeted drop rules).
    pub fn faults(mut self, plan: FaultPlan) -> Scenario {
        self.run.faults = plan;
        self
    }

    /// Untimed warmup iterations.
    pub fn warmup(mut self, n: u32) -> Scenario {
        self.run.warmup = n;
        self
    }

    /// Timed iterations.
    pub fn iters(mut self, n: u32) -> Scenario {
        self.run.iters = n;
        self
    }

    /// The multicast root (the default destinations and probe follow it
    /// unless set with [`dests`](Scenario::dests) and
    /// [`probe_node`](Scenario::probe_node)).
    pub fn root(mut self, root: NodeId) -> Scenario {
        self.run.root = root;
        self
    }

    /// Explicit destination set (default: every node but the root).
    pub fn dests(mut self, dests: Vec<NodeId>) -> Scenario {
        self.dests = Some(dests);
        self
    }

    /// Which destination returns the application-level ack (default: the
    /// last destination).
    pub fn probe_node(mut self, probe: NodeId) -> Scenario {
        self.probe = Some(probe);
        self
    }

    /// What ends an iteration at the root.
    pub fn ack(mut self, mode: AckMode) -> Scenario {
        self.run.ack = mode;
        self
    }

    /// RNG seed (affects only fault draws).
    pub fn seed(mut self, seed: u64) -> Scenario {
        self.run.seed = seed;
        self
    }

    /// Firmware ablation switches.
    pub fn config(mut self, config: McastConfig) -> Scenario {
        self.run.config = config;
        self
    }

    /// Node parameters.
    pub fn params(mut self, params: GmParams) -> Scenario {
        self.run.params = params;
        self
    }

    /// Network parameters.
    pub fn net(mut self, net: NetParams) -> Scenario {
        self.run.net = net;
        self
    }

    /// Observability configuration (default: [`ProbeConfig::off`], which
    /// records nothing and allocates nothing).
    pub fn probes(mut self, config: ProbeConfig) -> Scenario {
        self.run.probes = config;
        self
    }

    /// Gauge time-series configuration (default: [`SeriesConfig::off`],
    /// which records nothing and allocates nothing).
    pub fn series(mut self, config: SeriesConfig) -> Scenario {
        self.run.series = config;
        self
    }

    /// Health-monitoring configuration (default: [`WatchConfig::off`],
    /// which evaluates nothing and allocates nothing). When enabled, the
    /// built-in detector set derived from [`GmParams`] scans the run's
    /// merged gauge series and counters and the [`Report`] carries the
    /// resulting [`Incident`] stream. Detectors read the gauge series, so
    /// pair this with [`series`](Scenario::series) (and
    /// [`probes`](Scenario::probes) for causal flow evidence).
    pub fn watch(mut self, config: WatchConfig) -> Scenario {
        self.run.watch = config;
        self
    }

    /// Number of shards for parallel execution (default: the
    /// `MYRI_SIM_SHARDS` environment variable, else 1 = sequential).
    /// Sharding never changes results — the merged run is bit-for-bit
    /// identical to the sequential reference — and configurations that
    /// cannot shard (targeted drop rules, indivisible topologies) fall
    /// back to sequential execution automatically.
    pub fn shards(mut self, n: u32) -> Scenario {
        self.run.shards = n;
        self
    }

    /// Validate and resolve into an executable scenario.
    pub fn build(self) -> Result<BuiltScenario, ScenarioError> {
        let Scenario {
            mut run,
            dests,
            probe,
        } = self;
        if run.n_nodes < 2 {
            return Err(ScenarioError::TooFewNodes(run.n_nodes));
        }
        if run.n_nodes > MAX_NODES {
            return Err(ScenarioError::TooManyNodes(run.n_nodes));
        }
        run.dests = dests.unwrap_or_else(|| {
            (0..run.n_nodes)
                .map(NodeId)
                .filter(|&d| d != run.root)
                .collect()
        });
        let Some(&last) = run.dests.last() else {
            return Err(ScenarioError::NoDestinations);
        };
        run.probe = probe.unwrap_or(last);
        let mut sorted = run.dests.clone();
        sorted.sort_unstable();
        if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(ScenarioError::DuplicateDestination(w[0]));
        }
        if let Some(&d) = sorted.iter().find(|d| d.0 >= run.n_nodes) {
            return Err(ScenarioError::DestinationOutOfRange(d));
        }
        if run.root.0 >= run.n_nodes {
            return Err(ScenarioError::DestinationOutOfRange(run.root));
        }
        if sorted.contains(&run.root) {
            return Err(ScenarioError::RootIsDestination(run.root));
        }
        if !run.dests.contains(&run.probe) {
            return Err(ScenarioError::ProbeNotADestination(run.probe));
        }
        for p in [run.faults.drop_prob, run.faults.corrupt_prob] {
            if !(0.0..1.0).contains(&p) {
                return Err(ScenarioError::InvalidProbability(p));
            }
        }
        if run.iters == 0 {
            return Err(ScenarioError::NoIterations);
        }
        if run.size == 0 {
            return Err(ScenarioError::EmptyMessage);
        }
        if run.shape == TreeShape::Auto {
            run.shape = match run.mode {
                McastMode::NicBased => auto_shape(
                    run.size,
                    run.dests.len(),
                    run.n_nodes,
                    &run.params,
                    &run.net,
                ),
                // The traditional scheme the paper compares against.
                McastMode::HostBased => TreeShape::Binomial,
            };
        }
        Ok(BuiltScenario { run })
    }

    /// Build and execute, returning the [`Report`].
    ///
    /// Panics with the validation message on invalid input; use
    /// [`build`](Scenario::build) to handle errors.
    pub fn run(self) -> Report {
        match self.build() {
            Ok(built) => built.run(),
            Err(e) => panic!("invalid scenario: {e}"),
        }
    }
}

/// A validated scenario, ready to execute (or inspect).
#[derive(Clone, Debug)]
pub struct BuiltScenario {
    run: McastRun,
}

impl BuiltScenario {
    /// The fully-resolved run specification (Auto tree already replaced).
    pub fn spec(&self) -> &McastRun {
        &self.run
    }

    /// Execute to completion: drive the cluster to quiescence, harvest
    /// its counters and streams, and run the watch detectors when asked.
    pub fn run(&self) -> Report {
        execute(&self.run)
    }

    /// Execute once with each destination as the probe and keep the
    /// slowest run by mean latency: the paper's max-over-leaves
    /// methodology ("the maximum from all the tests was taken as the
    /// multicast latency").
    pub fn run_max_over_probes(&self) -> Report {
        let mut worst: Option<Report> = None;
        for &probe in &self.run.dests {
            let report = execute(&McastRun {
                probe,
                ..self.run.clone()
            });
            if worst
                .as_ref()
                .is_none_or(|w| report.latency.mean() > w.latency.mean())
            {
                worst = Some(report);
            }
        }
        worst.expect("a built scenario has a destination")
    }
}

/// Everything one scenario execution produced.
#[derive(Debug)]
pub struct Report {
    /// Per-iteration root-observed latency (µs): send post to probe ack.
    pub latency: OnlineStats,
    /// Median per-iteration latency (µs).
    pub latency_p50: f64,
    /// 99th-percentile per-iteration latency (µs).
    pub latency_p99: f64,
    /// Retransmissions across all NICs, multicast and unicast.
    pub retransmissions: u64,
    /// Height of the spanning tree used.
    pub height: usize,
    /// Average interior fan-out of the tree used.
    pub avg_fanout: f64,
    /// Total simulated time.
    pub end_time: SimTime,
    /// Total events dispatched (simulator health metric).
    pub events: u64,
    /// Fraction of the run the root's injection link spent serializing
    /// (the bottleneck the tree shape manages).
    pub root_link_utilization: f64,
    /// Counter snapshot: `nic.*` (summed over nodes), `fabric.*`,
    /// `engine.events` and — on sharded runs — `parallel.*` execution
    /// statistics.
    pub metrics: gm_sim::Metrics,
    /// The recorded probe events (empty unless probes were enabled).
    pub probe: gm_sim::ProbeSink,
    /// `(start, end)` of each timed iteration.
    pub windows: Vec<(SimTime, SimTime)>,
    /// Latency attribution over the timed windows (present when probes
    /// were enabled).
    pub attribution: Option<Attribution>,
    /// The recorded gauge time-series (empty unless series were enabled).
    pub series: gm_sim::SeriesSink,
    /// Health incidents the watch detectors raised over the run, in
    /// canonical order (empty unless watch was enabled).
    pub incidents: Vec<Incident>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_runs_and_reports() {
        let report = Scenario::nic_based(8)
            .size(512)
            .tree(TreeShape::auto())
            .warmup(1)
            .iters(3)
            .probes(ProbeConfig::spans())
            .run();
        assert_eq!(report.latency.count(), 3);
        assert!(report.latency.mean() > 0.0);
        assert!(report.metrics.get("nic.tx_data") > 0);
        assert!(report.metrics.get("engine.events") > 0);
        assert!(!report.probe.is_empty());
        assert_eq!(report.windows.len(), 3);
        let attr = report.attribution.as_ref().expect("probes were on");
        assert!(attr.mean_total_us() > 0.0);
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let report = Scenario::nic_based(4).warmup(1).iters(2).run();
        assert!(report.probe.is_empty());
        assert_eq!(report.probe.allocated_capacity(), 0);
        assert!(report.attribution.is_none());
        // The series sink is off by default and must be just as free.
        assert!(report.series.is_empty());
        assert_eq!(report.series.allocated_capacity(), 0);
    }

    #[test]
    fn validation_catches_bad_input() {
        assert_eq!(
            Scenario::nic_based(1).build().unwrap_err(),
            ScenarioError::TooFewNodes(1)
        );
        let err = Scenario::nic_based(MAX_NODES + 1).build().unwrap_err();
        assert_eq!(err, ScenarioError::TooManyNodes(129));
        assert_eq!(
            err.to_string(),
            "129 nodes exceed the topology limit of 128"
        );
        assert!(Scenario::nic_based(MAX_NODES).build().is_ok());
        assert_eq!(
            Scenario::nic_based(4).iters(0).build().unwrap_err(),
            ScenarioError::NoIterations
        );
        assert_eq!(
            Scenario::nic_based(4).loss(1.5).build().unwrap_err(),
            ScenarioError::InvalidProbability(1.5)
        );
        assert_eq!(
            Scenario::nic_based(4).size(0).build().unwrap_err(),
            ScenarioError::EmptyMessage
        );
        assert_eq!(
            Scenario::nic_based(4)
                .probe_node(NodeId(0))
                .dests(vec![NodeId(1), NodeId(2)])
                .build()
                .unwrap_err(),
            ScenarioError::ProbeNotADestination(NodeId(0))
        );
        assert_eq!(
            Scenario::nic_based(4)
                .dests(vec![NodeId(1), NodeId(1)])
                .build()
                .unwrap_err(),
            ScenarioError::DuplicateDestination(NodeId(1))
        );
        // An explicit probe is checked against the default destinations
        // too, never swapped for one of them.
        for probe in [NodeId(0), NodeId(9)] {
            assert_eq!(
                Scenario::nic_based(4)
                    .probe_node(probe)
                    .build()
                    .unwrap_err(),
                ScenarioError::ProbeNotADestination(probe)
            );
        }
    }

    #[test]
    fn moving_the_root_regenerates_defaults() {
        let built = Scenario::nic_based(4)
            .root(NodeId(3))
            .build()
            .expect("valid");
        assert_eq!(built.spec().root, NodeId(3));
        assert!(!built.spec().dests.contains(&NodeId(3)));
        assert_eq!(built.spec().dests.len(), 3);
        assert!(built.spec().dests.contains(&built.spec().probe));
    }

    #[test]
    fn auto_tree_resolves_before_execution() {
        let built = Scenario::nic_based(16)
            .size(64)
            .tree(TreeShape::auto())
            .build()
            .expect("valid");
        assert_ne!(built.spec().shape, TreeShape::Auto);
        let hb = Scenario::host_based(8)
            .tree(TreeShape::auto())
            .build()
            .expect("valid");
        assert_eq!(hb.spec().shape, TreeShape::Binomial);
    }
}
