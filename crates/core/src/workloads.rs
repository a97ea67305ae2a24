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

use bytes::Bytes;
use gm::{analyze, drive, harvest, Cluster, GmParams, HostApp, HostCtx, Notice};
use gm_sim::probe::{attribution, ProbeConfig};
use gm_sim::{Histogram, OnlineStats, SeriesConfig, SimDuration, SimTime, WatchConfig};
use myrinet::{Fabric, FaultPlan, GroupId, NetParams, NodeId, PortId, Topology};

use crate::ext::McastExt;
use crate::group::{McastConfig, McastNotice, McastRequest};
use crate::scenario::Report;
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

/// The root's app: it runs the iterations and keeps the measurements,
/// which [`execute`] reads back from the finished run. A caller that runs
/// a [`build_cluster`] cluster itself reads `Driven::app::<RootApp>(run.root)`.
pub struct RootApp {
    run: McastRun,
    tree: SpanningTree,
    gid: GroupId,
    iter: u32,
    t_start: SimTime,
    /// Outstanding completion notices this iteration (NicAck mode).
    pending: u32,
    /// Per-iteration latency samples (µs).
    latency: OnlineStats,
    /// Latency distribution (1 µs buckets up to 100 ms).
    latency_hist: Histogram,
    /// Timed iterations completed.
    pub iters_done: u32,
    /// `(start, end)` of each timed iteration — the windows latency
    /// attribution decomposes.
    windows: Vec<(SimTime, SimTime)>,
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
            self.latency.record_duration(lat);
            self.latency_hist.record(lat.as_micros_f64());
            self.iters_done += 1;
            self.windows.push((self.t_start, ctx.now()));
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

/// Build the cluster for a run (exposed for tests that want to poke the
/// cluster); the root's [`RootApp`] keeps the measurements.
pub fn build_cluster(run: &McastRun) -> Cluster<McastExt> {
    assert!(run.dests.contains(&run.probe), "probe must be a destination");
    let topo = Topology::for_nodes(run.n_nodes);
    let fabric = Fabric::with_config(topo, run.net, run.faults.clone(), run.seed);
    let tree = SpanningTree::build(run.root, &run.dests, run.shape);
    let gid = GroupId(1);
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
            latency: OnlineStats::new(),
            latency_hist: Histogram::new(1.0, 100_000),
            iters_done: 0,
            windows: Vec::new(),
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
    cluster
}

/// Execute one run: build the cluster, drive it to quiescence (sharded
/// when `run.shards > 1`), harvest counters and the merged probe/series
/// streams, and — when `watch` is enabled — evaluate the built-in detector
/// set (thresholds derived from the run's [`GmParams`], see
/// `GmParams::watch_detectors`) into incidents with flow/critical-path
/// evidence attached. This is the single execution path behind
/// [`Scenario`](crate::Scenario).
pub fn execute(
    run: &McastRun,
    probes: ProbeConfig,
    series: SeriesConfig,
    watch: WatchConfig,
) -> Report {
    let tree = SpanningTree::build(run.root, &run.dests, run.shape);
    let mut cluster = build_cluster(run);
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

    let mut driven = drive(cluster, run.shards);
    let harvest = harvest(&mut driven);

    let root = driven.app::<RootApp>(run.root);
    assert!(
        run.allow_incomplete || root.iters_done == run.iters,
        "not every timed iteration completed ({} of {})",
        root.iters_done,
        run.iters
    );
    // The root's injection link is owned (and therefore accounted) by the
    // shard that owns the root node.
    let root_world = driven.world_of(run.root);
    let root_link = root_world.fabric().topology().route(run.root, run.probe)[0];
    let now = driven.end;
    let root_link_utilization = if now > SimTime::ZERO {
        root_world.fabric().link_busy(root_link).as_micros_f64() / now.as_micros_f64()
    } else {
        0.0
    };
    let windows = root.windows.clone();
    let output = RunOutput {
        latency: root.latency.clone(),
        latency_p50: root.latency_hist.percentile(50.0),
        latency_p99: root.latency_hist.percentile(99.0),
        retransmissions: harvest.metrics.get("nic.mcast_retransmissions")
            + harvest.metrics.get("nic.retransmissions"),
        height: tree.height(),
        avg_fanout: tree.avg_fanout(),
        end_time: now,
        events: driven.events,
        root_link_utilization,
    };
    let incidents = analyze(&watch, &run.params, &harvest, now, Vec::new());
    let attribution = (probes.is_enabled() && !windows.is_empty())
        .then(|| attribution::attribute(&harvest.probe.to_vec(), &windows));
    Report {
        output,
        metrics: harvest.metrics,
        probe: harvest.probe,
        windows,
        attribution,
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
        let out = execute(&r, ProbeConfig::off(), SeriesConfig::off(), WatchConfig::off()).output;
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

    fn execute(run: &McastRun) -> RunOutput {
        super::execute(run, ProbeConfig::off(), SeriesConfig::off(), WatchConfig::off()).output
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
