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

use std::sync::Arc;

use gm::{analyze, drive, harvest, Cluster, GmParams, HostApp, HostCtx, Notice};
use gm_sim::probe::{attribution, ProbeConfig};
use gm_sim::{percentile_rank, OnlineStats, SeriesConfig, SimDuration, SimTime, WatchConfig};
use myrinet::{Fabric, FaultPlan, GroupId, NetParams, NodeId, Payload, PortId, Topology};

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

/// Full specification of one measurement run, as
/// [`Scenario::build`](crate::Scenario::build) resolves it.
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
    /// Probe recording.
    pub probes: ProbeConfig,
    /// Gauge time-series recording.
    pub series: SeriesConfig,
    /// Health detectors, run over the finished run's streams.
    pub watch: WatchConfig,
}

/// The `MYRI_SIM_SHARDS` default: unset, empty or unparsable means 1.
pub fn env_shards() -> u32 {
    std::env::var("MYRI_SIM_SHARDS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1)
}

/// The root's app: it runs the iterations and keeps the window of each
/// timed one, from which [`BuiltScenario::run`](crate::BuiltScenario::run)
/// derives the latency statistics. A caller that runs a [`build_cluster`]
/// cluster itself reads `Driven::app::<RootApp>(run.root)`.
pub struct RootApp {
    run: Arc<McastRun>,
    tree: Arc<SpanningTree>,
    gid: GroupId,
    iter: u32,
    t_start: SimTime,
    /// Outstanding completion notices this iteration (NicAck mode).
    pending: u32,
    /// `(start, end)` of each timed iteration — the windows latency
    /// attribution decomposes.
    windows: Vec<(SimTime, SimTime)>,
}

impl RootApp {
    /// `(start, end)` of each timed iteration completed, in order.
    pub fn windows(&self) -> &[(SimTime, SimTime)] {
        &self.windows
    }

    fn total(&self) -> u32 {
        self.run.warmup + self.run.iters
    }

    fn begin_iteration(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        let data = Payload::new(self.iter, self.run.size);
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
                    ctx.send(c, DATA_PORT, DATA_PORT, data, self.iter as u64);
                }
            }
        }
    }

    fn finish_iteration(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        if self.iter >= self.run.warmup {
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
    run: Arc<McastRun>,
    tree: Arc<SpanningTree>,
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
            assert_eq!(
                data,
                Payload::new(tag as u32, self.run.size),
                "payload of another iteration"
            );
            ctx.provide_recv(DATA_PORT, 1);
            if self.run.mode == McastMode::HostBased {
                // Traditional scheme: the *host* forwards along the tree.
                for &c in self.tree.children(self.me) {
                    ctx.send(c, DATA_PORT, DATA_PORT, data, tag);
                }
            }
            if self.run.ack == AckMode::ProbeReply && self.me == self.run.probe {
                let reply = Payload::new(tag as u32, 1);
                ctx.send(self.run.root, REPLY_PORT, REPLY_PORT, reply, tag);
            }
        }
    }
}

/// Build the cluster for a run, its probe and series sinks and its shard
/// weights set from `run` (exposed for tests that want to poke the
/// cluster); the root's [`RootApp`] keeps the measurements. Every node's
/// app shares one copy of the run and of its tree.
pub fn build_cluster(run: &McastRun) -> Cluster<McastExt> {
    assert!(
        run.dests.contains(&run.probe),
        "probe must be a destination"
    );
    let topo = Topology::for_nodes(run.n_nodes);
    let fabric = Fabric::with_config(topo, run.net, run.faults.clone(), run.seed);
    let tree = Arc::new(SpanningTree::build(run.root, &run.dests, run.shape));
    let spec = Arc::new(run.clone());
    let gid = GroupId(1);
    let config = run.config;
    let mut cluster = Cluster::new(run.params.clone(), fabric, |_| {
        McastExt::with_config(config)
    });
    cluster.set_probes(run.probes);
    cluster.set_series(run.series);
    // Shard placement cost model for the single-collective path: every
    // participant handles each message once, plus one replica per child it
    // forwards to; bystander nodes idle at weight 1.
    let mut weights = vec![1u64; cluster.n_nodes() as usize];
    for node in std::iter::once(run.root).chain(run.dests.iter().copied()) {
        weights[node.idx()] += 1 + tree.children(node).len() as u64;
    }
    cluster.set_partition_weights(weights);
    for &d in &run.dests {
        cluster.set_app(
            d,
            Box::new(DestApp {
                run: Arc::clone(&spec),
                tree: Arc::clone(&tree),
                gid,
                me: d,
            }),
        );
    }
    cluster.set_app(
        run.root,
        Box::new(RootApp {
            run: spec,
            tree,
            gid,
            iter: 0,
            t_start: SimTime::ZERO,
            pending: 0,
            windows: Vec::new(),
        }),
    );
    cluster
}

/// Execute one run: build the cluster, drive it to quiescence (sharded
/// when `run.shards > 1`), harvest counters and the merged probe/series
/// streams, and — when `run.watch` is enabled — evaluate the built-in
/// detector set (thresholds derived from the run's [`GmParams`], see
/// `GmParams::watch_detectors`) into incidents with flow/critical-path
/// evidence attached. Panics unless every timed iteration completes.
pub(crate) fn execute(run: &McastRun) -> Report {
    let mut driven = drive(build_cluster(run), run.shards);
    let harvest = harvest(&mut driven);

    let root = driven.app::<RootApp>(run.root);
    let windows = root.windows.clone();
    assert_eq!(
        windows.len(),
        run.iters as usize,
        "not every timed iteration completed"
    );
    let mut latencies: Vec<SimDuration> = windows.iter().map(|&(start, end)| end - start).collect();
    let mut latency = OnlineStats::new();
    for &d in &latencies {
        latency.record_duration(d);
    }
    latencies.sort_unstable();
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
    let incidents = analyze(&run.watch, &run.params, &harvest, now, Vec::new());
    let attribution = run
        .probes
        .is_enabled()
        .then(|| attribution::attribute(harvest.probe.as_slice(), &windows));
    Report {
        latency,
        latency_p50: percentile_us(&latencies, 50.0),
        latency_p99: percentile_us(&latencies, 99.0),
        retransmissions: harvest.metrics.get("nic.mcast_retransmissions")
            + harvest.metrics.get("nic.retransmissions"),
        height: root.tree.height(),
        avg_fanout: root.tree.avg_fanout(),
        end_time: now,
        events: driven.events,
        root_link_utilization,
        metrics: harvest.metrics,
        probe: harvest.probe,
        windows,
        attribution,
        series: harvest.series,
        incidents,
    }
}

/// The `p`-th percentile (0 < p ≤ 100) of `sorted` latencies, in µs on a
/// 1 µs grid: the k-th smallest, k = [`percentile_rank`], cut to a whole
/// microsecond plus one; 0 for no latencies.
fn percentile_us(sorted: &[SimDuration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let k = percentile_rank(sorted.len() as u64, p) as usize;
    sorted[k - 1].as_micros_f64().trunc() + 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;

    #[test]
    fn nic_based_flat_multisend_completes() {
        let out = Scenario::nic_based(5)
            .size(64)
            .tree(TreeShape::Flat)
            .warmup(2)
            .iters(5)
            .run();
        assert_eq!(out.latency.count(), 5);
        assert!(out.latency.mean() > 0.0);
        assert_eq!(out.retransmissions, 0);
        assert_eq!(out.height, 1);
    }

    #[test]
    fn host_based_binomial_completes() {
        let out = Scenario::host_based(8)
            .size(256)
            .tree(TreeShape::Binomial)
            .warmup(2)
            .iters(5)
            .run();
        assert_eq!(out.latency.count(), 5);
        assert!(out.height >= 3);
    }

    #[test]
    fn nic_based_beats_host_based_small_messages_16_nodes() {
        let postal =
            crate::calibrate::postal_for_size(64, &GmParams::default(), &NetParams::default(), 2);
        let nb = Scenario::nic_based(16)
            .size(64)
            .tree(TreeShape::Postal(postal))
            .warmup(3)
            .iters(10)
            .run()
            .latency
            .mean();
        let hb = Scenario::host_based(16)
            .size(64)
            .tree(TreeShape::Binomial)
            .warmup(3)
            .iters(10)
            .run()
            .latency
            .mean();
        assert!(
            nb < hb,
            "NIC-based ({nb:.2}us) should beat host-based ({hb:.2}us)"
        );
    }

    #[test]
    fn percentiles_are_consistent_and_loss_fattens_the_tail() {
        let run = Scenario::nic_based(8)
            .size(512)
            .tree(TreeShape::Binomial)
            .warmup(2)
            .iters(60);
        let clean = run.clone().run();
        assert!(clean.latency_p50 <= clean.latency_p99);
        assert!(clean.latency_p50 > 0.0);
        // Clean runs are deterministic: the distribution is a spike.
        assert!(clean.latency_p99 - clean.latency_p50 < 2.0);
        let lossy = run.faults(FaultPlan::with_loss(0.02)).run();
        assert!(
            lossy.latency_p99 > lossy.latency_p50 * 5.0,
            "timeout recoveries must fatten the tail: p50 {:.1} p99 {:.1}",
            lossy.latency_p50,
            lossy.latency_p99
        );
    }

    #[test]
    fn percentiles_sit_on_a_one_microsecond_grid() {
        let ns = SimDuration::from_nanos;
        // 0.5, 1.5, …, 99.5 µs.
        let mut sorted: Vec<SimDuration> = (0..100).map(|i| ns(i * 1_000 + 500)).collect();
        // The k-th smallest (k = ⌈p/100·n⌉), cut to a whole µs, plus one.
        assert_eq!(percentile_us(&sorted, 50.0), 50.0);
        assert_eq!(percentile_us(&sorted, 99.0), 99.0);
        assert_eq!(percentile_us(&sorted, 100.0), 100.0);
        // The grid has no upper end: 100 ms and more sit on it too.
        sorted.push(SimDuration::from_secs(1));
        assert_eq!(percentile_us(&sorted, 99.0), 100.0);
        assert_eq!(percentile_us(&sorted, 100.0), 1_000_001.0);
        let edge = [ns(99_999_999), ns(100_000_000), ns(250_000_001)];
        assert_eq!(percentile_us(&edge, 33.0), 100_000.0);
        assert_eq!(percentile_us(&edge, 66.0), 100_001.0);
        assert_eq!(percentile_us(&[], 50.0), 0.0);
        // p99.9 of 1,000 is the 999th smallest (998.5 µs), as in a
        // LogHistogram: 99.9/100·1000 in floating point rounds up past 999.
        let thousand: Vec<SimDuration> = (0..1_000).map(|i| ns(i * 1_000 + 500)).collect();
        assert_eq!(percentile_us(&thousand, 99.9), 999.0);
    }

    #[test]
    fn survives_random_loss() {
        let out = Scenario::nic_based(8)
            .size(512)
            .tree(TreeShape::Binomial)
            .warmup(1)
            .iters(10)
            .faults(FaultPlan::with_loss(0.05))
            .run();
        assert_eq!(out.latency.count(), 10);
        assert!(out.retransmissions > 0, "loss must trigger retransmissions");
    }

    #[test]
    fn deterministic_across_executions() {
        let run = Scenario::nic_based(6)
            .size(128)
            .tree(TreeShape::Binomial)
            .warmup(1)
            .iters(5)
            .faults(FaultPlan::with_loss(0.02))
            .build()
            .expect("valid scenario");
        let a = run.run();
        let b = run.run();
        assert_eq!(a.latency.mean(), b.latency.mean());
        assert_eq!(a.events, b.events);
        assert_eq!(a.end_time, b.end_time);
    }
}
