//! Extension study (paper future work): a NIC-level barrier built on the
//! multicast group tree — children push UP tokens to their parents entirely
//! in firmware and the root releases everyone through a zero-byte reliable
//! multicast — compared against the host-level dissemination barrier the
//! MPI layer uses.

use bench::{par_map, us, CliOpts, Table};
use gm::{Cluster, GmParams, HostApp, HostCtx, Notice};
use gm_mpi::{execute_mpi, BcastImpl, MpiOp, MpiRun};
use gm_sim::{SimDuration, SimTime};
use myrinet::{Fabric, GroupId, NodeId, PortId, Topology};
use nic_mcast::{McastExt, McastNotice, McastRequest, SpanningTree, TreeShape};
use serde::Serialize;

const PORT: PortId = PortId(0);
const GID: GroupId = GroupId(1);

struct BarrierLoop {
    me: NodeId,
    tree: SpanningTree,
    rounds: u32,
    round: u32,
    t_start: SimTime,
    t_end: SimTime,
    warmup: u32,
}

impl HostApp<McastExt> for BarrierLoop {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        ctx.provide_recv(PORT, 8);
        ctx.ext(McastRequest::CreateGroup {
            group: GID,
            port: PORT,
            root: self.tree.root(),
            parent: self.tree.parent(self.me),
            children: self.tree.children(self.me).to_vec(),
        });
    }
    fn on_notice(&mut self, n: Notice<McastNotice>, ctx: &mut HostCtx<'_, McastExt>) {
        match n {
            Notice::Ext(McastNotice::GroupReady { .. }) => {
                ctx.ext(McastRequest::BarrierEnter {
                    group: GID,
                    tag: 0,
                });
            }
            Notice::Ext(McastNotice::BarrierDone { .. }) => {
                self.round += 1;
                if self.me.0 == 0 {
                    if self.round == self.warmup {
                        self.t_start = ctx.now();
                    }
                    if self.round == self.rounds {
                        self.t_end = ctx.now();
                    }
                }
                if self.round < self.rounds {
                    ctx.ext(McastRequest::BarrierEnter {
                        group: GID,
                        tag: self.round as u64,
                    });
                }
            }
            _ => {}
        }
    }
}

fn nic_barrier_round_us(n: u32, warmup: u32, iters: u32) -> f64 {
    let rounds = warmup + iters;
    let fabric = Fabric::new(Topology::for_nodes(n), 13);
    let dests: Vec<NodeId> = (1..n).map(NodeId).collect();
    let tree = SpanningTree::build(NodeId(0), &dests, TreeShape::Binomial);
    let mut cluster = Cluster::new(GmParams::default(), fabric, |_| McastExt::new());
    for i in 0..n {
        cluster.set_app(
            NodeId(i),
            Box::new(BarrierLoop {
                me: NodeId(i),
                tree: tree.clone(),
                rounds,
                round: 0,
                t_start: SimTime::ZERO,
                t_end: SimTime::ZERO,
                warmup,
            }),
        );
    }
    let run = gm::drive(cluster, 1);
    let root = run.app::<BarrierLoop>(NodeId(0));
    let span = root.t_end.saturating_since(root.t_start);
    span.as_micros_f64() / iters as f64
}

fn host_barrier_round_us(n: u32, warmup: u32, iters: u32) -> f64 {
    let mut run = MpiRun::bcast_loop(n, 1, BcastImpl::HostBinomial, SimDuration::ZERO, 0, 1);
    run.ops = vec![MpiOp::Barrier];
    run.repeat = warmup + iters;
    run.warmup = warmup;
    execute_mpi(&run).barrier_round.mean()
}

#[derive(Serialize)]
struct Point {
    nodes: u32,
    host_us: f64,
    nic_us: f64,
    improvement: f64,
}

fn main() {
    let opts = CliOpts::parse();
    let results: Vec<Point> = par_map(vec![4u32, 8, 16, 32, 64], |&n| {
        let host_us = host_barrier_round_us(n, opts.warmup, opts.iters);
        let nic_us = nic_barrier_round_us(n, opts.warmup, opts.iters);
        Point {
            nodes: n,
            host_us,
            nic_us,
            improvement: host_us / nic_us,
        }
    });
    let mut t = Table::new(
        "NIC-level barrier vs host dissemination barrier (per-round time)",
        &["nodes", "host dissem (us)", "NIC tree (us)", "factor"],
    );
    for p in &results {
        t.row(vec![
            p.nodes.to_string(),
            us(p.host_us),
            us(p.nic_us),
            format!("{:.2}", p.improvement),
        ]);
    }
    t.print();
    println!(
        "\nThe gather-up / multicast-release barrier runs entirely in NIC\n\
         firmware: no host wakeups on interior nodes, so rounds cost a tree\n\
         traversal instead of log2(n) host-level message exchanges."
    );
    bench::write_json("ext_nic_barrier", &results);
}
