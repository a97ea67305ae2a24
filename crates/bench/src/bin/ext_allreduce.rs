//! Extension study (paper future work): NIC-level Allreduce — named
//! explicitly in §7 ("for example, Allreduce and Alltoall broadcast") —
//! against a host-level reduce-then-broadcast over the same binomial tree
//! (the classic MPI implementation).

use std::sync::Mutex;
use std::sync::Arc;

use bench::{par_map, us, CliOpts, Table};
use bytes::Bytes;
use gm::{Cluster, GmParams, HostApp, HostCtx, Notice};
use gm_sim::SimTime;
use myrinet::{Fabric, GroupId, NodeId, PortId, Topology};
use nic_mcast::{McastExt, McastNotice, McastRequest, ReduceOp, SpanningTree, TreeShape};
use serde::Serialize;

const PORT: PortId = PortId(0);
const GID: GroupId = GroupId(1);

/// Steady-state round time measured at node 0 between completion `warmup`
/// and completion `rounds`.
struct Timing {
    t_start: Arc<Mutex<SimTime>>,
    t_end: Arc<Mutex<SimTime>>,
}

// --- NIC-level allreduce loop -----------------------------------------------

struct NicReduceLoop {
    me: NodeId,
    tree: SpanningTree,
    rounds: u32,
    round: u32,
    warmup: u32,
    timing: Arc<Timing>,
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
                        *self.timing.t_start.lock().expect("shared app state mutex poisoned") = ctx.now();
                    }
                    if self.round == self.rounds {
                        *self.timing.t_end.lock().expect("shared app state mutex poisoned") = ctx.now();
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
    timing: Arc<Timing>,
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
                ctx.send(
                    parent,
                    PORT,
                    PORT,
                    Bytes::copy_from_slice(&self.acc.to_le_bytes()),
                    self.round as u64,
                );
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
            ctx.send(
                c,
                PORT,
                PORT,
                Bytes::copy_from_slice(&result.to_le_bytes()),
                (1 << 32) | self.round as u64,
            );
        }
    }

    fn complete(&mut self, ctx: &mut HostCtx<'_, McastExt>, result: u64) {
        let n_nodes = self.tree.dests().len() as u64 + 1;
        assert_eq!(result, n_nodes * (n_nodes - 1) / 2);
        self.round += 1;
        if self.me.0 == 0 {
            if self.round == self.warmup {
                *self.timing.t_start.lock().expect("shared app state mutex poisoned") = ctx.now();
            }
            if self.round == self.rounds {
                *self.timing.t_end.lock().expect("shared app state mutex poisoned") = ctx.now();
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
            let value = u64::from_le_bytes(data[..8].try_into().expect("8 bytes"));
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

fn round_us<A, F>(n: u32, rounds: u32, warmup: u32, mk: F) -> f64
where
    A: HostApp<McastExt> + Send + 'static,
    F: Fn(NodeId, SpanningTree, Arc<Timing>) -> A,
{
    let fabric = Fabric::new(Topology::for_nodes(n), 17);
    let dests: Vec<NodeId> = (1..n).map(NodeId).collect();
    let tree = SpanningTree::build(NodeId(0), &dests, TreeShape::Binomial);
    let timing = Arc::new(Timing {
        t_start: Arc::new(Mutex::new(SimTime::ZERO)),
        t_end: Arc::new(Mutex::new(SimTime::ZERO)),
    });
    let mut cluster = Cluster::new(GmParams::default(), fabric, |_| McastExt::new());
    for i in 0..n {
        cluster.set_app(NodeId(i), Box::new(mk(NodeId(i), tree.clone(), timing.clone())));
    }
    gm::drive(cluster, 1);
    let span = timing.t_end.lock().expect("shared app state mutex poisoned").saturating_since(*timing.t_start.lock().expect("shared app state mutex poisoned"));
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
        let host_us = round_us(n, rounds, opts.warmup, |me, tree, timing| HostReduceLoop {
            me,
            tree,
            rounds,
            round: 0,
            warmup: opts.warmup,
            got: 0,
            acc: 0,
            timing,
        });
        let nic_us = round_us(n, rounds, opts.warmup, |me, tree, timing| NicReduceLoop {
            me,
            tree,
            rounds,
            round: 0,
            warmup: opts.warmup,
            timing,
        });
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
    bench::write_json("ext_allreduce", &results);
}
