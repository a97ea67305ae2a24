//! Extension study (paper future work): All-to-all broadcast — the other
//! collective §7 names. Every node is the root of its own multicast group
//! and all roots fire simultaneously; the metric is the makespan until
//! every node holds every other node's message.
//!
//! This is the stress case for the scheme's decentralized design: N
//! concurrent groups, every NIC simultaneously a root, a forwarder and a
//! leaf, with no central credit manager to congest (the FM/MC weakness from
//! Figure 1).

use std::sync::Arc;

use bench::{factor, par_map, us, CliOpts, Table};
use bytes::Bytes;
use gm::{Cluster, GmParams, HostApp, HostCtx, Notice};
use gm_sim::SimTime;
use myrinet::{Fabric, GroupId, NodeId, PortId, Topology};
use nic_mcast::{McastExt, McastNotice, McastRequest, SpanningTree, TreeShape};
use serde::Serialize;

const PORT: PortId = PortId(0);

fn trees(n: u32) -> Vec<SpanningTree> {
    (0..n)
        .map(|r| {
            let dests: Vec<NodeId> = (0..n).filter(|&x| x != r).map(NodeId).collect();
            SpanningTree::build(NodeId(r), &dests, TreeShape::Binomial)
        })
        .collect()
}

struct NbAll {
    me: NodeId,
    n: u32,
    size: usize,
    trees: Arc<Vec<SpanningTree>>,
    ready: u32,
    got: u32,
    /// When the node held all n-1 foreign messages.
    done: SimTime,
}

impl HostApp<McastExt> for NbAll {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        ctx.provide_recv(PORT, 4 * self.n as usize);
        for r in 0..self.n {
            let tree = &self.trees[r as usize];
            ctx.ext(McastRequest::CreateGroup {
                group: GroupId(r),
                port: PORT,
                root: NodeId(r),
                parent: tree.parent(self.me),
                children: tree.children(self.me).to_vec(),
            });
        }
    }
    fn on_notice(&mut self, n: Notice<McastNotice>, ctx: &mut HostCtx<'_, McastExt>) {
        match n {
            Notice::Ext(McastNotice::GroupReady { .. }) => {
                self.ready += 1;
                if self.ready == self.n {
                    ctx.ext(McastRequest::Send {
                        group: GroupId(self.me.0),
                        data: Bytes::from(vec![self.me.0 as u8; self.size]),
                        tag: self.me.0 as u64,
                    });
                }
            }
            Notice::Recv { tag, data, .. } => {
                ctx.provide_recv(PORT, 1);
                assert_eq!(data.len(), self.size);
                assert!(data.iter().all(|&b| b == tag as u8));
                self.got += 1;
                if self.got == self.n - 1 {
                    self.done = ctx.now();
                }
            }
            _ => {}
        }
    }
}

struct HbAll {
    me: NodeId,
    n: u32,
    size: usize,
    trees: Arc<Vec<SpanningTree>>,
    got: u32,
    /// When the node held all n-1 foreign messages.
    done: SimTime,
}

impl HbAll {
    fn forward(&self, ctx: &mut HostCtx<'_, McastExt>, root: u32, data: &Bytes) {
        for &c in self.trees[root as usize].children(self.me) {
            ctx.send(c, PORT, PORT, data.clone(), root as u64);
        }
    }
}

impl HostApp<McastExt> for HbAll {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        ctx.provide_recv(PORT, 4 * self.n as usize);
        let data = Bytes::from(vec![self.me.0 as u8; self.size]);
        self.forward(ctx, self.me.0, &data);
    }
    fn on_notice(&mut self, n: Notice<McastNotice>, ctx: &mut HostCtx<'_, McastExt>) {
        if let Notice::Recv { tag, data, .. } = n {
            ctx.provide_recv(PORT, 1);
            let root = tag as u32;
            self.forward(ctx, root, &data);
            self.got += 1;
            if self.got == self.n - 1 {
                self.done = ctx.now();
            }
        }
    }
}

fn makespan(n: u32, size: usize, nic: bool) -> f64 {
    let fabric = Fabric::new(Topology::for_nodes(n), 23);
    let shared = Arc::new(trees(n));
    let mut cluster = Cluster::new(GmParams::default(), fabric, |_| McastExt::new());
    for i in 0..n {
        if nic {
            cluster.set_app(
                NodeId(i),
                Box::new(NbAll {
                    me: NodeId(i),
                    n,
                    size,
                    trees: shared.clone(),
                    ready: 0,
                    got: 0,
                    done: SimTime::ZERO,
                }),
            );
        } else {
            cluster.set_app(
                NodeId(i),
                Box::new(HbAll {
                    me: NodeId(i),
                    n,
                    size,
                    trees: shared.clone(),
                    got: 0,
                    done: SimTime::ZERO,
                }),
            );
        }
    }
    let run = gm::drive(cluster, 1);
    let d: Vec<SimTime> = (0..n)
        .map(NodeId)
        .map(|i| {
            if nic {
                run.app::<NbAll>(i).done
            } else {
                run.app::<HbAll>(i).done
            }
        })
        .collect();
    assert!(d.iter().all(|&t| t > SimTime::ZERO), "someone never finished");
    d.iter().map(|t| t.as_micros_f64()).fold(0.0, f64::max)
}

#[derive(Serialize)]
struct Point {
    nodes: u32,
    size: usize,
    hb_us: f64,
    nb_us: f64,
    improvement: f64,
}

fn main() {
    let _opts = CliOpts::parse();
    let mut points = Vec::new();
    for &n in &[4u32, 8, 16] {
        for &size in &[64usize, 1024, 8192] {
            points.push((n, size));
        }
    }
    let results: Vec<Point> = par_map(points, |&(n, size)| {
        let hb = makespan(n, size, false);
        let nb = makespan(n, size, true);
        Point {
            nodes: n,
            size,
            hb_us: hb,
            nb_us: nb,
            improvement: hb / nb,
        }
    });
    let mut t = Table::new(
        "All-to-all broadcast makespan (every node roots a simultaneous multicast)",
        &["nodes", "size", "host-based", "NIC-based", "factor"],
    );
    for p in &results {
        t.row(vec![
            p.nodes.to_string(),
            p.size.to_string(),
            us(p.hb_us),
            us(p.nb_us),
            factor(p.hb_us, p.nb_us),
        ]);
    }
    t.print();
    println!(
        "\nWith N concurrent trees the host-based scheme pays N-1 receive\n\
         wakeups plus forwarding work on every node; the NIC-based scheme's\n\
         per-group state keeps the hosts out of it entirely."
    );
    bench::write_json("ext_allbcast", &results);
}
