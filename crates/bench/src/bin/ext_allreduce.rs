//! Extension study (paper future work): NIC-level Allreduce — named
//! explicitly in §7 ("for example, Allreduce and Alltoall broadcast") —
//! against a host-level reduce-then-broadcast over the same binomial tree
//! (the classic MPI implementation).

use bench::{par_map, us, CliOpts, Table};
use gm::{Cluster, GmParams, HostApp, HostCtx, Notice};
use gm_sim::SimTime;
use myrinet::{Fabric, GroupId, NodeId, Payload, PortId, Topology};
use nic_mcast::{McastExt, McastNotice, McastRequest, ReduceOp, SpanningTree, TreeShape};
use serde::Serialize;

const PORT: PortId = PortId(0);
const GID: GroupId = GroupId(1);

/// Steady-state round time measured at node 0 between completion `warmup`
/// and completion `rounds`.
#[derive(Default)]
struct Timing {
    t_start: SimTime,
    t_end: SimTime,
}

// --- NIC-level allreduce loop -----------------------------------------------

struct NicReduceLoop {
    me: NodeId,
    tree: SpanningTree,
    rounds: u32,
    round: u32,
    warmup: u32,
    timing: Timing,
}

impl HostApp<McastExt> for NicReduceLoop {
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
                ctx.ext(McastRequest::AllreduceEnter {
                    group: GID,
                    value: self.me.0 as u64,
                    op: ReduceOp::Sum,
                    tag: 0,
                });
            }
            Notice::Ext(McastNotice::AllreduceDone { result, .. }) => {
                let n_nodes = self.tree.dests().len() as u64 + 1;
                assert_eq!(result, n_nodes * (n_nodes - 1) / 2, "wrong sum");
                self.round += 1;
                if self.me.0 == 0 {
                    if self.round == self.warmup {
                        self.timing.t_start = ctx.now();
                    }
                    if self.round == self.rounds {
                        self.timing.t_end = ctx.now();
                    }
                }
                if self.round < self.rounds {
                    ctx.ext(McastRequest::AllreduceEnter {
                        group: GID,
                        value: self.me.0 as u64,
                        op: ReduceOp::Sum,
                        tag: self.round as u64,
                    });
                }
            }
            _ => {}
        }
    }
}

// --- Host-level reduce + broadcast loop ---------------------------------------

/// Classic MPI-style allreduce over GM point-to-point: gather partial sums
/// up a binomial tree, root broadcasts the result back down. All host-level.
struct HostReduceLoop {
    me: NodeId,
    tree: SpanningTree,
    rounds: u32,
    round: u32,
    warmup: u32,
    /// Child partials received this round.
    got: u32,
    acc: u64,
    timing: Timing,
}

impl HostReduceLoop {
    fn children(&self) -> usize {
        self.tree.children(self.me).len()
    }

    fn maybe_send_up(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        if self.got as usize != self.children() {
            return;
        }
        match self.tree.parent(self.me) {
            Some(parent) => {
                let partial = Payload::new(0, 8).with_value(self.acc);
                ctx.send(parent, PORT, PORT, partial, self.round as u64);
            }
            None => {
                // Root holds the result: broadcast it down.
                self.broadcast_down(ctx, self.acc);
                self.complete(ctx, self.acc);
            }
        }
    }

    fn broadcast_down(&mut self, ctx: &mut HostCtx<'_, McastExt>, result: u64) {
        for &c in self.tree.children(self.me) {
            let release = Payload::new(0, 8).with_value(result);
            ctx.send(c, PORT, PORT, release, (1 << 32) | self.round as u64);
        }
    }

    fn complete(&mut self, ctx: &mut HostCtx<'_, McastExt>, result: u64) {
        let n_nodes = self.tree.dests().len() as u64 + 1;
        assert_eq!(result, n_nodes * (n_nodes - 1) / 2);
        self.round += 1;
        if self.me.0 == 0 {
            if self.round == self.warmup {
                self.timing.t_start = ctx.now();
            }
            if self.round == self.rounds {
                self.timing.t_end = ctx.now();
            }
        }
        if self.round < self.rounds {
            self.begin(ctx);
        }
    }

    fn begin(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        self.got = 0;
        self.acc = self.me.0 as u64;
        self.maybe_send_up(ctx);
    }
}

impl HostApp<McastExt> for HostReduceLoop {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        ctx.provide_recv(PORT, 16);
        self.got = 0;
        self.acc = self.me.0 as u64;
        self.maybe_send_up(ctx);
    }
    fn on_notice(&mut self, n: Notice<McastNotice>, ctx: &mut HostCtx<'_, McastExt>) {
        if let Notice::Recv { tag, data, .. } = n {
            ctx.provide_recv(PORT, 1);
            let value = data.value();
            if tag & (1 << 32) != 0 {
                // Result coming down: forward and complete.
                self.broadcast_down(ctx, value);
                self.complete(ctx, value);
            } else {
                // A child's partial.
                self.acc = self.acc.wrapping_add(value);
                self.got += 1;
                self.maybe_send_up(ctx);
            }
        }
    }
}

fn round_us<A: HostApp<McastExt>>(
    n: u32,
    rounds: u32,
    warmup: u32,
    mk: impl Fn(NodeId, SpanningTree) -> A,
    timing: impl Fn(&A) -> &Timing,
) -> f64 {
    let fabric = Fabric::new(Topology::for_nodes(n), 17);
    let dests: Vec<NodeId> = (1..n).map(NodeId).collect();
    let tree = SpanningTree::build(NodeId(0), &dests, TreeShape::Binomial);
    let mut cluster = Cluster::new(GmParams::default(), fabric, |_| McastExt::new());
    for i in 0..n {
        cluster.set_app(NodeId(i), Box::new(mk(NodeId(i), tree.clone())));
    }
    let run = gm::drive(cluster, 1);
    let t = timing(run.app::<A>(NodeId(0)));
    let span = t.t_end.saturating_since(t.t_start);
    span.as_micros_f64() / (rounds - warmup) as f64
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
    let rounds = opts.warmup + opts.iters;
    let results: Vec<Point> = par_map(vec![4u32, 8, 16, 32, 64], |&n| {
        let host_loop = |me, tree| HostReduceLoop {
            me,
            tree,
            rounds,
            round: 0,
            warmup: opts.warmup,
            got: 0,
            acc: 0,
            timing: Timing::default(),
        };
        let host_us = round_us(n, rounds, opts.warmup, host_loop, |a| &a.timing);
        let nic_loop = |me, tree| NicReduceLoop {
            me,
            tree,
            rounds,
            round: 0,
            warmup: opts.warmup,
            timing: Timing::default(),
        };
        let nic_us = round_us(n, rounds, opts.warmup, nic_loop, |a| &a.timing);
        Point {
            nodes: n,
            host_us,
            nic_us,
            improvement: host_us / nic_us,
        }
    });
    let mut t = Table::new(
        "NIC-level allreduce (sum) vs host reduce+broadcast (per-round time)",
        &["nodes", "host (us)", "NIC (us)", "factor"],
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
        "\nThe reduction combines inside firmware on the way up and the result\n\
         rides the reliable multicast down: two host wakeups per node per\n\
         round (enter + result) instead of one per tree edge."
    );
    opts.write_json("ext_allreduce", &results);
}
