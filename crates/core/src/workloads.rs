//! Reusable GM-level benchmark workloads.
//!
//! These reproduce the paper's §6.1 methodology: the root transmits a
//! message to the destination set and waits for an application-level
//! acknowledgment from a designated *probe* destination; warmup iterations
//! synchronize the nodes, then timed iterations are averaged. "The same test
//! was repeated with different leaf nodes returning the acknowledgment. The
//! maximum from all the tests was taken as the multicast latency."
//!
//! Both schemes run through the same apps:
//!
//! * [`McastMode::NicBased`] — the root posts one `McastRequest::Send`; NICs
//!   forward along the preposted tree.
//! * [`McastMode::HostBased`] — the root posts one plain GM unicast per
//!   child and every interior *host* re-sends on receive (the traditional
//!   store-and-forward broadcast the paper compares against).

use std::sync::Mutex;
use std::sync::Arc;

use bytes::Bytes;
use gm::{Cluster, GmParams, HostApp, HostCtx, Notice};
use gm_sim::probe::{Metrics, ProbeConfig, ProbeSink};
use gm_sim::watch::{self, Detector, DetectorKind, Incident, Severity, Thresh, WatchConfig, WatchEngine};
use gm_sim::{
    Histogram, OnlineStats, SeriesConfig, SeriesSink, ShardStats, SimDuration, SimTime,
};
use myrinet::{Fabric, FaultPlan, GroupId, NetParams, NodeId, PortId, Topology};

use crate::ext::McastExt;
use crate::group::{McastConfig, McastNotice, McastRequest};
use crate::tree::{SpanningTree, TreeShape};

/// Port multicast/broadcast data is delivered on.
pub const DATA_PORT: PortId = PortId(0);
/// Port probe acknowledgments return on.
pub const REPLY_PORT: PortId = PortId(1);

const SYNC_TAG: u64 = u64::MAX;

/// Which multicast implementation drives the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum McastMode {
    /// The paper's NIC-based scheme.
    NicBased,
    /// Traditional host-based store-and-forward over unicasts.
    HostBased,
}

/// What ends an iteration at the root.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckMode {
    /// An application-level 1-byte reply from the probe destination (the
    /// Figure 5/4 multicast methodology: "wait for an acknowledgment from
    /// one of the leaf nodes").
    ProbeReply,
    /// The GM-level acknowledgment of the last destination (the Figure 3
    /// multisend methodology: the send completes once every destination's
    /// NIC has acked).
    NicAck,
}

/// Full specification of one measurement run.
#[derive(Clone, Debug)]
pub struct McastRun {
    /// Cluster size (nodes are 0..n).
    pub n_nodes: u32,
    /// Multicast root.
    pub root: NodeId,
    /// Destination set (defaults to everyone but the root).
    pub dests: Vec<NodeId>,
    /// Message size in bytes.
    pub size: usize,
    /// Tree shape.
    pub shape: TreeShape,
    /// Scheme under test.
    pub mode: McastMode,
    /// Untimed warmup iterations (the paper uses 20).
    pub warmup: u32,
    /// Timed iterations (the paper uses 10 000; the simulation is
    /// deterministic, so far fewer suffice).
    pub iters: u32,
    /// Which destination returns the app-level ack.
    pub probe: NodeId,
    /// What ends an iteration at the root.
    pub ack: AckMode,
    /// RNG seed (affects only fault draws).
    pub seed: u64,
    /// Fault injection plan.
    pub faults: FaultPlan,
    /// Firmware ablation switches.
    pub config: McastConfig,
    /// Node parameters.
    pub params: GmParams,
    /// Network parameters.
    pub net: NetParams,
    /// Requested shard count for parallel execution (1 = sequential; the
    /// default honours `MYRI_SIM_SHARDS`). Results are bit-for-bit
    /// identical either way; infeasible configurations (targeted drop
    /// rules, indivisible topologies) silently fall back to sequential.
    pub shards: u32,
    /// Tolerate a run that idles before every timed iteration completes
    /// (normally an assertion failure). `simcheck` counterexample replays
    /// set this: a protocol bug that kills retransmission shows up as the
    /// cluster going idle with the multicast unfinished, and the caller
    /// reads the verdict from the completion count and flow lineage.
    pub allow_incomplete: bool,
}

/// The `MYRI_SIM_SHARDS` default: unset, empty or unparsable means 1.
pub fn env_shards() -> u32 {
    std::env::var("MYRI_SIM_SHARDS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1)
}

impl McastRun {
    /// A run with the paper's defaults: root 0, all other nodes as
    /// destinations, probing the last destination.
    pub fn new(n_nodes: u32, size: usize, mode: McastMode, shape: TreeShape) -> Self {
        assert!(n_nodes >= 2);
        let dests: Vec<NodeId> = (1..n_nodes).map(NodeId).collect();
        McastRun {
            n_nodes,
            root: NodeId(0),
            probe: *dests.last().expect("nonempty"),
            dests,
            size,
            shape,
            mode,
            warmup: 20,
            iters: 100,
            ack: AckMode::ProbeReply,
            seed: 0x6D_6361_7374,
            faults: FaultPlan::none(),
            config: McastConfig::default(),
            params: GmParams::default(),
            net: NetParams::default(),
            shards: env_shards(),
            allow_incomplete: false,
        }
    }
}

/// Everything measured in one run.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Per-iteration root-observed latency (µs): send post to probe ack.
    pub latency: OnlineStats,
    /// Median per-iteration latency (µs).
    pub latency_p50: f64,
    /// 99th-percentile per-iteration latency (µs).
    pub latency_p99: f64,
    /// Multicast retransmissions across all NICs.
    pub retransmissions: u64,
    /// The spanning tree used.
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
}

/// Measurements shared between the root app and the harness.
pub struct Shared {
    /// Per-iteration latency samples (µs).
    pub latency: OnlineStats,
    /// Latency distribution (1 µs buckets up to 100 ms).
    pub latency_hist: Histogram,
    /// Timed iterations completed.
    pub iters_done: u32,
    /// `(start, end)` of each timed iteration — the windows latency
    /// attribution decomposes.
    pub windows: Vec<(SimTime, SimTime)>,
}

/// The root's driver app.
struct RootApp {
    run: McastRun,
    tree: SpanningTree,
    gid: GroupId,
    iter: u32,
    t_start: SimTime,
    /// Outstanding completion notices this iteration (NicAck mode).
    pending: u32,
    shared: Arc<Mutex<Shared>>,
}

impl RootApp {
    fn total(&self) -> u32 {
        self.run.warmup + self.run.iters
    }

    fn begin_iteration(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        let data = Bytes::from(vec![(self.iter % 251) as u8; self.run.size]);
        self.t_start = ctx.now();
        self.pending = match self.run.mode {
            McastMode::NicBased => 1,
            McastMode::HostBased => self.tree.children(self.run.root).len() as u32,
        };
        match self.run.mode {
            McastMode::NicBased => {
                ctx.ext(McastRequest::Send {
                    group: self.gid,
                    data,
                    tag: self.iter as u64,
                });
            }
            McastMode::HostBased => {
                for &c in self.tree.children(self.run.root) {
                    ctx.send(c, DATA_PORT, DATA_PORT, data.clone(), self.iter as u64);
                }
            }
        }
    }

    fn finish_iteration(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        let lat = ctx.now() - self.t_start;
        if self.iter >= self.run.warmup {
            let mut s = self.shared.lock().expect("shared app state mutex poisoned");
            s.latency.record_duration(lat);
            s.latency_hist.record(lat.as_micros_f64());
            s.iters_done += 1;
            s.windows.push((self.t_start, ctx.now()));
        }
        self.iter += 1;
        if self.iter < self.total() {
            self.begin_iteration(ctx);
        }
    }
}

impl HostApp<McastExt> for RootApp {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        ctx.provide_recv(REPLY_PORT, 4);
        if self.run.mode == McastMode::NicBased {
            ctx.ext(McastRequest::CreateGroup {
                group: self.gid,
                port: DATA_PORT,
                root: self.run.root,
                parent: None,
                children: self.tree.children(self.run.root).to_vec(),
            });
        }
        // Let every member finish installing its group entry before the
        // first iteration (the paper's 20 warmup iterations play the same
        // synchronizing role; this keeps warmup #0 representative).
        ctx.compute(SimDuration::from_micros(200), SYNC_TAG);
    }

    fn on_notice(&mut self, n: Notice<McastNotice>, ctx: &mut HostCtx<'_, McastExt>) {
        match n {
            Notice::ComputeDone { tag: SYNC_TAG } => self.begin_iteration(ctx),
            Notice::Recv { port, tag, .. } if port == REPLY_PORT => {
                if self.run.ack != AckMode::ProbeReply {
                    return;
                }
                assert_eq!(tag, self.iter as u64, "probe ack for the wrong iteration");
                ctx.provide_recv(REPLY_PORT, 1);
                self.finish_iteration(ctx);
            }
            Notice::SendComplete { tag, .. } if self.run.ack == AckMode::NicAck => {
                assert_eq!(tag, self.iter as u64);
                self.pending -= 1;
                if self.pending == 0 {
                    self.finish_iteration(ctx);
                }
            }
            Notice::Ext(McastNotice::SendDone { tag, .. }) if self.run.ack == AckMode::NicAck => {
                assert_eq!(tag, self.iter as u64);
                self.pending -= 1;
                if self.pending == 0 {
                    self.finish_iteration(ctx);
                }
            }
            _ => {}
        }
    }
}

/// Every destination's app: consume, forward if host-based, ack if probe.
struct DestApp {
    run: McastRun,
    tree: SpanningTree,
    gid: GroupId,
    me: NodeId,
}

impl HostApp<McastExt> for DestApp {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        ctx.provide_recv(DATA_PORT, 32);
        if self.run.mode == McastMode::NicBased {
            ctx.ext(McastRequest::CreateGroup {
                group: self.gid,
                port: DATA_PORT,
                root: self.run.root,
                parent: Some(self.tree.parent(self.me).expect("dest has a parent")),
                children: self.tree.children(self.me).to_vec(),
            });
        }
    }

    fn on_notice(&mut self, n: Notice<McastNotice>, ctx: &mut HostCtx<'_, McastExt>) {
        if let Notice::Recv {
            port, tag, data, ..
        } = n
        {
            if port != DATA_PORT {
                return;
            }
            assert_eq!(data.len(), self.run.size, "payload length corrupted");
            ctx.provide_recv(DATA_PORT, 1);
            if self.run.mode == McastMode::HostBased {
                // Traditional scheme: the *host* forwards along the tree.
                for &c in self.tree.children(self.me) {
                    ctx.send(c, DATA_PORT, DATA_PORT, data.clone(), tag);
                }
            }
            if self.run.ack == AckMode::ProbeReply && self.me == self.run.probe {
                ctx.send(
                    self.run.root,
                    REPLY_PORT,
                    REPLY_PORT,
                    Bytes::from_static(b"!"),
                    tag,
                );
            }
        }
    }
}

/// Build the cluster for a run, returning it with a handle to the shared
/// measurement state (exposed for tests that want to poke the cluster).
pub fn build_cluster(run: &McastRun) -> (Cluster<McastExt>, Arc<Mutex<Shared>>) {
    assert!(run.dests.contains(&run.probe), "probe must be a destination");
    let topo = Topology::for_nodes(run.n_nodes);
    let fabric = Fabric::with_config(topo, run.net, run.faults.clone(), run.seed);
    let tree = SpanningTree::build(run.root, &run.dests, run.shape);
    let gid = GroupId(1);
    let shared = Arc::new(Mutex::new(Shared {
        latency: OnlineStats::new(),
        latency_hist: Histogram::new(1.0, 100_000),
        iters_done: 0,
        windows: Vec::new(),
    }));
    let config = run.config;
    let mut cluster = Cluster::new(run.params.clone(), fabric, |_| McastExt::with_config(config));
    cluster.set_app(
        run.root,
        Box::new(RootApp {
            run: run.clone(),
            tree: tree.clone(),
            gid,
            iter: 0,
            t_start: SimTime::ZERO,
            pending: 0,
            shared: shared.clone(),
        }),
    );
    for &d in &run.dests {
        cluster.set_app(
            d,
            Box::new(DestApp {
                run: run.clone(),
                tree: tree.clone(),
                gid,
                me: d,
            }),
        );
    }
    (cluster, shared)
}

/// Everything an instrumented run produces: measurements plus the probe
/// event history, per-iteration windows, and a counter snapshot.
pub struct InstrumentedOutput {
    /// The measurements.
    pub output: RunOutput,
    /// The recorded probe events (empty when probes were off).
    pub probe: ProbeSink,
    /// Counter snapshot: `nic.*` (summed over nodes), `fabric.*`,
    /// `engine.events`, `probe.*`/`series.*` (sink health) and — on sharded
    /// runs — `parallel.*` execution statistics.
    pub metrics: Metrics,
    /// `(start, end)` of each timed iteration.
    pub windows: Vec<(SimTime, SimTime)>,
    /// The recorded gauge time-series (empty when series were off).
    pub series: SeriesSink,
    /// Health incidents (empty when the watch layer was off), in canonical
    /// order with causal evidence attached.
    pub incidents: Vec<Incident>,
}

/// Execute one run with an observability configuration. This is the single
/// execution path behind [`Scenario`](crate::Scenario) (and through it
/// [`Workload`](crate::Workload)).
pub fn execute_instrumented(run: &McastRun, probes: ProbeConfig) -> InstrumentedOutput {
    execute_observed(run, probes, SeriesConfig::off())
}

/// Drive a fully-built cluster to quiescence, sequentially or sharded —
/// bit-for-bit the same results either way, so callers work off a uniform
/// `Vec<Cluster>` view. Infeasible sharding requests (single shard,
/// targeted drop rules, indivisible topologies) fall back to the sequential
/// engine. Shared by the [`Scenario`](crate::Scenario) single-collective
/// path and the [`Workload`](crate::Workload) traffic engine.
pub(crate) fn drive_to_quiescence(
    cluster: Cluster<McastExt>,
    shards: u32,
) -> (Vec<Cluster<McastExt>>, SimTime, u64, Vec<ShardStats>) {
    if shards > 1 && cluster.shard_infeasible(shards).is_none() {
        let mut eng = cluster.into_sharded_engine(shards);
        let outcome = eng.run(SimTime::MAX, 2_000_000_000);
        assert_eq!(
            outcome,
            gm_sim::RunOutcome::Idle,
            "sharded run did not converge (possible deadlock)"
        );
        let (now, events) = (eng.now(), eng.events_handled());
        let shard_stats = eng.shard_stats();
        (eng.into_worlds(), now, events, shard_stats)
    } else {
        let mut eng = cluster.into_engine();
        let outcome = eng.run(SimTime::MAX, 2_000_000_000);
        assert_eq!(
            outcome,
            gm_sim::RunOutcome::Idle,
            "run did not converge (possible deadlock)"
        );
        let (now, events) = (eng.now(), eng.events_handled());
        (vec![eng.into_world()], now, events, Vec::new())
    }
}

/// The observability surface harvested from a finished run: counters rolled
/// into [`Metrics`] plus the canonicalized probe and series streams.
pub(crate) struct Harvest {
    pub metrics: Metrics,
    pub probe: ProbeSink,
    pub series: SeriesSink,
}

/// Collect counters, per-shard execution statistics, and the canonicalized
/// probe/series streams from the finished worlds. A sharded run's merged
/// streams are byte-identical to the sequential reference (sorted by
/// `(time, node)` and renumbered).
pub(crate) fn harvest_observability(
    worlds: &mut [Cluster<McastExt>],
    events: u64,
    shard_stats: &[ShardStats],
) -> Harvest {
    let mut metrics = Metrics::new();
    for w in worlds.iter() {
        for n in w.local_nodes() {
            for (name, v) in w.nic(n).counters.iter() {
                metrics.add("nic", name, v);
            }
        }
        for (name, v) in w.fabric().counters().iter() {
            metrics.add("fabric", name, v);
        }
    }
    metrics.set("engine", "events", events);
    // Per-shard execution statistics. These describe *how* the run was
    // executed, not what it computed, so parity checks strip `parallel.*`
    // before comparing sequential and sharded runs.
    if !shard_stats.is_empty() {
        metrics.set("parallel", "shards", shard_stats.len() as u64);
        metrics.set(
            "parallel",
            "windows",
            shard_stats.iter().map(|s| s.windows).max().unwrap_or(0),
        );
        metrics.set(
            "parallel",
            "horizon_tightenings",
            shard_stats.iter().map(|s| s.horizon_tightenings).sum(),
        );
        metrics.set(
            "parallel",
            "barrier_waits",
            shard_stats.iter().map(|s| s.barrier_waits).sum(),
        );
        metrics.set(
            "parallel",
            "idle_windows",
            shard_stats.iter().map(|s| s.idle_windows).sum(),
        );
        for (i, s) in shard_stats.iter().enumerate() {
            metrics.set("parallel", &format!("shard{i}.events"), s.events);
        }
        // Heaviest-vs-lightest shard spread as a percentage of the heaviest
        // — the imbalance weighted partitioning minimizes.
        let max_e = shard_stats.iter().map(|s| s.events).max().unwrap_or(0);
        let min_e = shard_stats.iter().map(|s| s.events).min().unwrap_or(0);
        if let Some(pct) = ((max_e - min_e) * 100).checked_div(max_e) {
            metrics.set("parallel", "event_imbalance_pct", pct);
        }
    }
    let probe = ProbeSink::merge_canonical(
        worlds
            .iter_mut()
            .map(|w| std::mem::replace(&mut w.probe, ProbeSink::disabled()))
            .collect(),
    );
    let series = SeriesSink::merge_canonical(
        worlds
            .iter_mut()
            .map(|w| std::mem::replace(&mut w.series, SeriesSink::disabled()))
            .collect(),
    );
    // Sink-health counters: non-zero drops mean the rings were too small to
    // hold the run and downstream analyses (lineage, critical path, gauge
    // summaries) may be incomplete.
    metrics.set("probe", "dropped_events", probe.evicted());
    metrics.set("series", "dropped_points", series.dropped());
    Harvest {
        metrics,
        probe,
        series,
    }
}

/// The per-shard event-spread threshold (percent of the heaviest shard)
/// past which the execution-diagnostic imbalance detector fires. `exec_`-
/// prefixed: it describes the execution, not the simulated system, so
/// parity checks strip its incidents like `exec_*` gauges.
const EXEC_IMBALANCE_DETECTOR: Detector = Detector {
    id: "exec_shard_imbalance",
    severity: Severity::Info,
    kind: DetectorKind::Counter {
        key: "parallel.event_imbalance_pct",
        min: Thresh::pct(50),
    },
};

/// Run the health detectors over a finished run's merged streams. Returns
/// incidents *without* evidence — extend with caller-computed incidents
/// (fairness, latency baselines), then call [`finish_incidents`].
///
/// Zero cost when off: a disabled config returns an empty `Vec` without
/// allocating. Shard invariance is inherited from the inputs — the merged
/// series/metrics/probe streams are byte-identical at any shard count.
pub(crate) fn evaluate_watch(
    watch: &WatchConfig,
    params: &GmParams,
    harvest: &Harvest,
    end: SimTime,
) -> Vec<Incident> {
    if !watch.is_enabled() {
        return Vec::new();
    }
    let engine = WatchEngine::new(*watch)
        .detectors(params.watch_detectors())
        .detector(EXEC_IMBALANCE_DETECTOR);
    let mut incidents = engine.scan_series(harvest.series.iter());
    incidents.extend(engine.scan_metrics(&harvest.metrics, end));
    incidents
}

/// Attach causal evidence (active flows + critical-path signature per
/// incident window) and put the stream into canonical order. `probe` is the
/// merged sink, read in place.
pub(crate) fn finish_incidents(incidents: &mut [Incident], probe: &ProbeSink) {
    if incidents.is_empty() {
        return;
    }
    watch::attach_evidence(incidents, probe.as_slice());
    watch::sort_canonical(incidents);
}

/// Execute one run with full observability: span probes *and* gauge
/// time-series. Sharded runs additionally record per-shard execution
/// statistics under `parallel.*` metric keys.
pub fn execute_observed(
    run: &McastRun,
    probes: ProbeConfig,
    series: SeriesConfig,
) -> InstrumentedOutput {
    execute_watched(run, probes, series, WatchConfig::off())
}

/// [`execute_observed`] plus online health monitoring: when `watch` is
/// enabled, the built-in detector set (thresholds derived from the run's
/// [`GmParams`], see `GmParams::watch_detectors`) is evaluated over the
/// merged streams and the resulting incidents — with flow/critical-path
/// evidence attached — land in [`InstrumentedOutput::incidents`].
pub fn execute_watched(
    run: &McastRun,
    probes: ProbeConfig,
    series: SeriesConfig,
    watch: WatchConfig,
) -> InstrumentedOutput {
    let tree = SpanningTree::build(run.root, &run.dests, run.shape);
    let (mut cluster, shared) = build_cluster(run);
    cluster.set_probes(probes);
    cluster.set_series(series);
    // Shard placement cost model for the single-collective path: every
    // participant handles each message once, plus one replica per child it
    // forwards to; bystander nodes idle at weight 1.
    let mut weights = vec![1u64; cluster.n_nodes() as usize];
    for node in std::iter::once(run.root).chain(run.dests.iter().copied()) {
        weights[node.idx()] += 1 + tree.children(node).len() as u64;
    }
    cluster.set_partition_weights(weights);

    let (mut worlds, now, events, shard_stats) = drive_to_quiescence(cluster, run.shards);

    let s = shared.lock().expect("shared app state mutex poisoned");
    assert!(
        run.allow_incomplete || s.iters_done == run.iters,
        "not every timed iteration completed ({} of {})",
        s.iters_done,
        run.iters
    );
    let retransmissions: u64 = worlds
        .iter()
        .map(|w| {
            w.local_nodes()
                .map(|n| {
                    let c = &w.nic(n).counters;
                    c.get("mcast_retransmissions") + c.get("retransmissions")
                })
                .sum::<u64>()
        })
        .sum();
    // The root's injection link is owned (and therefore accounted) by the
    // shard that owns the root node.
    let root_world = worlds
        .iter()
        .find(|w| w.local_nodes().any(|n| n == run.root))
        .expect("some shard owns the root");
    let root_link = root_world.fabric().topology().route(run.root, run.probe)[0];
    let root_link_utilization = if now > SimTime::ZERO {
        root_world.fabric().link_busy(root_link).as_micros_f64() / now.as_micros_f64()
    } else {
        0.0
    };
    let output = RunOutput {
        latency: s.latency.clone(),
        latency_p50: s.latency_hist.percentile(50.0),
        latency_p99: s.latency_hist.percentile(99.0),
        retransmissions,
        height: tree.height(),
        avg_fanout: tree.avg_fanout(),
        end_time: now,
        events,
        root_link_utilization,
    };
    let windows = s.windows.clone();
    drop(s);
    let harvest = harvest_observability(&mut worlds, events, &shard_stats);
    let mut incidents = evaluate_watch(&watch, &run.params, &harvest, now);
    finish_incidents(&mut incidents, &harvest.probe);
    InstrumentedOutput {
        output,
        probe: harvest.probe,
        metrics: harvest.metrics,
        windows,
        series: harvest.series,
        incidents,
    }
}

/// Run once per destination as the probe and keep the slowest (the paper's
/// max-over-leaves methodology).
pub fn execute_max_over_probes(run: &McastRun) -> RunOutput {
    let mut worst: Option<RunOutput> = None;
    for &probe in &run.dests {
        let mut r = run.clone();
        r.probe = probe;
        let out = execute_instrumented(&r, ProbeConfig::off()).output;
        let better = worst
            .as_ref()
            .is_none_or(|w| out.latency.mean() > w.latency.mean());
        if better {
            worst = Some(out);
        }
    }
    worst.expect("at least one destination")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shadow the deprecated shim: tests exercise the real path.
    fn execute(run: &McastRun) -> RunOutput {
        execute_instrumented(run, ProbeConfig::off()).output
    }

    #[test]
    fn nic_based_flat_multisend_completes() {
        let mut run = McastRun::new(5, 64, McastMode::NicBased, TreeShape::Flat);
        run.warmup = 2;
        run.iters = 5;
        let out = execute(&run);
        assert_eq!(out.latency.count(), 5);
        assert!(out.latency.mean() > 0.0);
        assert_eq!(out.retransmissions, 0);
        assert_eq!(out.height, 1);
    }

    #[test]
    fn host_based_binomial_completes() {
        let mut run = McastRun::new(8, 256, McastMode::HostBased, TreeShape::Binomial);
        run.warmup = 2;
        run.iters = 5;
        let out = execute(&run);
        assert_eq!(out.latency.count(), 5);
        assert!(out.height >= 3);
    }

    #[test]
    fn nic_based_beats_host_based_small_messages_16_nodes() {
        let nb = {
            let mut r = McastRun::new(
                16,
                64,
                McastMode::NicBased,
                TreeShape::Postal(crate::calibrate::postal_for_size(
                    64,
                    &GmParams::default(),
                    &NetParams::default(),
                    2,
                )),
            );
            r.warmup = 3;
            r.iters = 10;
            execute(&r).latency.mean()
        };
        let hb = {
            let mut r = McastRun::new(16, 64, McastMode::HostBased, TreeShape::Binomial);
            r.warmup = 3;
            r.iters = 10;
            execute(&r).latency.mean()
        };
        assert!(
            nb < hb,
            "NIC-based ({nb:.2}us) should beat host-based ({hb:.2}us)"
        );
    }

    #[test]
    fn percentiles_are_consistent_and_loss_fattens_the_tail() {
        let mut run = McastRun::new(8, 512, McastMode::NicBased, TreeShape::Binomial);
        run.warmup = 2;
        run.iters = 60;
        let clean = execute(&run);
        assert!(clean.latency_p50 <= clean.latency_p99);
        assert!(clean.latency_p50 > 0.0);
        // Clean runs are deterministic: the distribution is a spike.
        assert!(clean.latency_p99 - clean.latency_p50 < 2.0);
        run.faults = FaultPlan::with_loss(0.02);
        let lossy = execute(&run);
        assert!(
            lossy.latency_p99 > lossy.latency_p50 * 5.0,
            "timeout recoveries must fatten the tail: p50 {:.1} p99 {:.1}",
            lossy.latency_p50,
            lossy.latency_p99
        );
    }

    #[test]
    fn survives_random_loss() {
        let mut run = McastRun::new(8, 512, McastMode::NicBased, TreeShape::Binomial);
        run.warmup = 1;
        run.iters = 10;
        run.faults = FaultPlan::with_loss(0.05);
        let out = execute(&run);
        assert_eq!(out.latency.count(), 10);
        assert!(out.retransmissions > 0, "loss must trigger retransmissions");
    }

    #[test]
    fn deterministic_across_executions() {
        let mut run = McastRun::new(6, 128, McastMode::NicBased, TreeShape::Binomial);
        run.warmup = 1;
        run.iters = 5;
        run.faults = FaultPlan::with_loss(0.02);
        let a = execute(&run);
        let b = execute(&run);
        assert_eq!(a.latency.mean(), b.latency.mean());
        assert_eq!(a.events, b.events);
        assert_eq!(a.end_time, b.end_time);
    }
}
