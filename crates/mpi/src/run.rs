//! MPI-run harness: builds a cluster of ranks, runs a program to
//! completion, and returns the collective measurements.

use gm::{drive, harvest, Cluster, GmParams, EAGER_LIMIT};
use gm_sim::probe::{ProbeConfig, ProbeSink};
use gm_sim::{Metrics, OnlineStats, SimDuration, SimTime};
use myrinet::{Fabric, FaultPlan, NetParams, NodeId, Topology};
use nic_mcast::{auto_shape, env_shards, McastConfig, McastExt, TreeShape};

use crate::rank::{BcastImpl, MpiOp, RankApp, RankCfg};
use crate::stats::{fold, Records};

/// Default host memcpy bandwidth for eager bounce-buffer copies
/// (PIII-700-era, bytes/s).
pub const DEFAULT_COPY_BANDWIDTH: u64 = 400_000_000;

/// Everything describing one MPI experiment.
///
/// ```
/// use gm_mpi::{execute_mpi, BcastImpl, MpiRun};
/// use gm_sim::SimDuration;
///
/// // 8 ranks, 512-byte NIC-based broadcasts, 200us average skew.
/// let run = MpiRun::bcast_loop(
///     8, 512, BcastImpl::NicBased, SimDuration::from_micros(800), 2, 10,
/// );
/// let out = execute_mpi(&run);
/// assert_eq!(out.latency.count(), 10);
/// assert!(out.skew_applied.count() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct MpiRun {
    /// Number of ranks.
    pub n_ranks: u32,
    /// The op program each rank repeats.
    pub ops: Vec<MpiOp>,
    /// Optional per-rank program override (length must equal `n_ranks`);
    /// ranks without an override run `ops`.
    pub rank_ops: Option<Vec<Vec<MpiOp>>>,
    /// The communicator: sorted world ranks participating in collectives
    /// (`None` = MPI_COMM_WORLD). Ranks outside the communicator run no
    /// program at all.
    pub comm: Option<Vec<u32>>,
    /// Repetitions (warmup + timed).
    pub repeat: u32,
    /// Broadcast ordinals excluded from aggregates.
    pub warmup: u32,
    /// Broadcast algorithm under test.
    pub bcast: BcastImpl,
    /// Eager/rendezvous switchover.
    pub eager_limit: usize,
    /// Host memcpy bandwidth.
    pub copy_bandwidth: u64,
    /// Tree shape for NIC-based groups. [`TreeShape::Auto`], the default,
    /// resolves through [`auto_shape`] from the first Bcast op's size, as a
    /// `Scenario` or a `Workload` resolves it.
    pub nic_tree: TreeShape,
    /// Allow NIC-based broadcast above the eager limit (future-work
    /// extension; the paper's implementation falls back to host-based).
    pub nic_rndv: bool,
    /// Master seed.
    pub seed: u64,
    /// Node parameters.
    pub params: GmParams,
    /// Network parameters.
    pub net: NetParams,
    /// Fault plan.
    pub faults: FaultPlan,
    /// Multicast firmware ablation switches.
    pub mcast_config: McastConfig,
    /// What the run records (default: nothing).
    pub probes: ProbeConfig,
}

impl MpiRun {
    /// The canonical benchmark loop: `repeat x { Barrier; [Skew]; Bcast }`.
    pub fn bcast_loop(
        n_ranks: u32,
        size: usize,
        bcast: BcastImpl,
        skew_max: SimDuration,
        warmup: u32,
        iters: u32,
    ) -> MpiRun {
        let mut ops = vec![MpiOp::Barrier];
        if skew_max > SimDuration::ZERO {
            ops.push(MpiOp::SkewUniform { max: skew_max });
        }
        ops.push(MpiOp::Bcast { root: 0, size });
        MpiRun {
            n_ranks,
            ops,
            rank_ops: None,
            comm: None,
            repeat: warmup + iters,
            warmup,
            bcast,
            eager_limit: EAGER_LIMIT,
            copy_bandwidth: DEFAULT_COPY_BANDWIDTH,
            nic_tree: TreeShape::Auto,
            nic_rndv: false,
            seed: 0x6D_7069,
            params: GmParams::default(),
            net: NetParams::default(),
            faults: FaultPlan::none(),
            mcast_config: McastConfig::default(),
            probes: ProbeConfig::off(),
        }
    }
}

/// Aggregated results of one MPI run.
#[derive(Clone, Debug)]
pub struct MpiOutput {
    /// Per-iteration broadcast latency (max rank exit − root enter), µs.
    pub latency: OnlineStats,
    /// Time inside `MPI_Bcast` across ranks and iterations, µs.
    pub bcast_cpu: OnlineStats,
    /// Same, non-root ranks only.
    pub bcast_cpu_nonroot: OnlineStats,
    /// Positive skew actually applied, µs.
    pub skew_applied: OnlineStats,
    /// Steady-state barrier round time (consecutive-completion gaps), µs.
    pub barrier_round: OnlineStats,
    /// Total simulated time.
    pub end_time: SimTime,
    /// Events dispatched.
    pub events: u64,
    /// Counter snapshot: NIC counters summed over every node under `nic.`,
    /// fabric counters under `fabric.`, `engine.events`, probe/series sink
    /// health under `probe.`/`series.` and, on sharded runs, `parallel.*`.
    /// Nodes outside the communicator see no traffic, so their counters add
    /// nothing.
    pub metrics: Metrics,
    /// The canonical probe stream (empty unless [`MpiRun::probes`] is on):
    /// the input to lineage reconstruction and critical-path extraction
    /// over an MPI program.
    pub probe: ProbeSink,
}

/// Execute `run` to completion, on the shard count `MYRI_SIM_SHARDS` names
/// (default 1) — bit-for-bit the same results at any count.
pub fn execute_mpi(run: &MpiRun) -> MpiOutput {
    execute_on(run, env_shards())
}

/// [`execute_mpi`] on `shards` shards.
pub(crate) fn execute_on(run: &MpiRun, shards: u32) -> MpiOutput {
    assert!(run.n_ranks >= 2, "need at least two ranks");
    if let Some(per_rank) = &run.rank_ops {
        assert_eq!(per_rank.len(), run.n_ranks as usize, "one program per rank");
    }
    let ops_for = |r: u32| -> &Vec<MpiOp> {
        run.rank_ops
            .as_ref()
            .map(|v| &v[r as usize])
            .unwrap_or(&run.ops)
    };
    let bcasts_in = |ops: &[MpiOp]| {
        ops.iter()
            .filter(|op| matches!(op, MpiOp::Bcast { .. }))
            .count() as u32
    };
    let bcasts_per_repeat = bcasts_in(&run.ops);
    let barriers_per_repeat = run
        .ops
        .iter()
        .filter(|op| matches!(op, MpiOp::Barrier))
        .count() as u32;
    let comm: Vec<u32> = match &run.comm {
        Some(c) => {
            let mut c = c.clone();
            c.sort_unstable();
            c.dedup();
            assert!(c.len() >= 2, "a communicator needs at least two ranks");
            assert!(
                c.iter().all(|&r| r < run.n_ranks),
                "communicator rank out of range"
            );
            c
        }
        None => (0..run.n_ranks).collect(),
    };
    let cfg = RankCfg {
        comm: comm.clone(),
        bcast: run.bcast,
        eager_limit: run.eager_limit,
        copy_bandwidth: run.copy_bandwidth,
        nic_tree: nic_tree(run),
        nic_rndv: run.nic_rndv,
        warmup: run.warmup * bcasts_per_repeat,
        seed: run.seed,
    };
    let topo = Topology::for_nodes(run.n_ranks);
    let fabric = Fabric::with_config(topo, run.net, run.faults.clone(), run.seed);
    let mcfg = run.mcast_config;
    let mut cluster = Cluster::new(run.params.clone(), fabric, |_| McastExt::with_config(mcfg));
    cluster.set_probes(run.probes);
    for &r in &comm {
        let app = RankApp::new(cfg.clone(), r, ops_for(r).clone(), run.repeat);
        cluster.set_app(NodeId(r), Box::new(app));
    }
    let mut driven = drive(cluster, shards);
    let ranks: Vec<&Records> = comm
        .iter()
        .map(|&r| &driven.app::<RankApp>(NodeId(r)).records)
        .collect();
    let completed: usize = ranks.iter().map(|r| r.bcasts.len()).sum();
    let expected: u32 = comm
        .iter()
        .map(|&r| run.repeat * bcasts_in(ops_for(r)))
        .sum();
    assert_eq!(
        completed, expected as usize,
        "every rank must complete every broadcast"
    );
    let s = fold(
        &ranks,
        run.warmup * bcasts_per_repeat,
        run.repeat * bcasts_per_repeat,
        run.repeat * barriers_per_repeat,
    );
    let harvest = harvest(&mut driven);
    MpiOutput {
        latency: s.latency,
        bcast_cpu: s.bcast_cpu,
        bcast_cpu_nonroot: s.bcast_cpu_nonroot,
        skew_applied: s.skew_applied,
        barrier_round: s.barrier_round,
        end_time: driven.end,
        events: driven.events,
        metrics: harvest.metrics,
        probe: harvest.probe,
    }
}

/// [`MpiRun::nic_tree`], with [`TreeShape::Auto`] resolved for the first
/// Bcast op's size over every rank but the root.
fn nic_tree(run: &MpiRun) -> TreeShape {
    if run.nic_tree != TreeShape::Auto {
        return run.nic_tree;
    }
    let bcast_size = run
        .ops
        .iter()
        .find_map(|op| match op {
            MpiOp::Bcast { size, .. } => Some(*size),
            _ => None,
        })
        .unwrap_or(0);
    auto_shape(
        bcast_size.max(1),
        run.n_ranks as usize - 1,
        run.n_ranks,
        &run.params,
        &run.net,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nic_mcast::postal_for_size;

    /// An automatic tree counts 4 links per edge above 16 ranks, where
    /// edges cross the Clos, as a `Scenario` does, and 2 up to 16.
    #[test]
    fn automatic_trees_count_the_links_an_edge_crosses() {
        let run = |n| MpiRun::bcast_loop(n, 64, BcastImpl::NicBased, SimDuration::ZERO, 0, 1);
        let (gp, np) = (GmParams::default(), NetParams::default());
        let postal = |hops| TreeShape::Postal(postal_for_size(64, &gp, &np, hops));
        assert_ne!(postal(4), postal(2));
        assert_eq!(nic_tree(&run(32)), postal(4));
        assert_eq!(nic_tree(&run(16)), postal(2));
    }

    fn bits(s: &OnlineStats) -> [u64; 5] {
        [
            s.count(),
            s.mean().to_bits(),
            s.stddev().to_bits(),
            s.min().to_bits(),
            s.max().to_bits(),
        ]
    }

    /// Skewed broadcast loops fold to the same bits on one shard and on
    /// two: the ranks' records, not the schedule, fix the sample order.
    #[test]
    fn skewed_bcasts_are_bit_identical_across_shard_counts() {
        for bcast in [BcastImpl::NicBased, BcastImpl::HostBinomial] {
            for size in [4usize, 4096] {
                let mut run =
                    MpiRun::bcast_loop(16, size, bcast, SimDuration::from_micros(1600), 2, 6);
                run.probes = ProbeConfig::spans();
                let (a, b) = (execute_on(&run, 1), execute_on(&run, 2));
                let name = format!("{bcast:?} {size} B");
                assert_eq!(
                    b.metrics.get("parallel.shards"),
                    2,
                    "{name}: ran on 2 shards"
                );
                let stats = |o: &MpiOutput| {
                    [
                        &o.latency,
                        &o.bcast_cpu,
                        &o.bcast_cpu_nonroot,
                        &o.skew_applied,
                        &o.barrier_round,
                    ]
                    .map(bits)
                };
                assert!(a.skew_applied.count() > 0, "{name}: no skew applied");
                assert_eq!(stats(&a), stats(&b), "{name}: aggregates differ");
                assert_eq!(a.events, b.events, "{name}: event counts differ");
                assert_eq!(a.end_time, b.end_time, "{name}: end times differ");
                assert_eq!(
                    a.metrics.without_layer("parallel"),
                    b.metrics.without_layer("parallel"),
                    "{name}: counter snapshots differ"
                );
                assert!(!a.probe.is_empty(), "{name}: no probe events");
                assert!(
                    a.probe.to_vec() == b.probe.to_vec(),
                    "{name}: probe streams differ"
                );
            }
        }
    }
}
