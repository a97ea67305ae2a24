//! Extension study: sustained multicast *throughput* (the paper's §5 notes
//! that tree quality depends on "the desired performance metrics, latency
//! or throughput" but only evaluates latency). The root streams `burst`
//! back-to-back messages without waiting; throughput is payload bytes
//! delivered to every destination over the makespan.

use bench::{factor, par_map, CliOpts, Table};
use bytes::Bytes;
use gm::{Cluster, GmParams, HostApp, HostCtx, Notice};
use gm_sim::SimTime;
use myrinet::{Fabric, GroupId, NodeId, PortId, Topology};
use nic_mcast::{McastExt, McastNotice, McastRequest, SpanningTree, TreeShape};
use serde::Serialize;

const PORT: PortId = PortId(0);
const GID: GroupId = GroupId(1);

struct StreamRoot {
    tree: SpanningTree,
    size: usize,
    burst: u32,
    nic: bool,
}

impl HostApp<McastExt> for StreamRoot {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        if self.nic {
            ctx.ext(McastRequest::CreateGroup {
                group: GID,
                port: PORT,
                root: self.tree.root(),
                parent: None,
                children: self.tree.children(self.tree.root()).to_vec(),
            });
        } else {
            self.blast(ctx);
        }
    }
    fn on_notice(&mut self, n: Notice<McastNotice>, ctx: &mut HostCtx<'_, McastExt>) {
        if matches!(n, Notice::Ext(McastNotice::GroupReady { .. })) {
            self.blast(ctx);
        }
    }
}

impl StreamRoot {
    fn blast(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        for i in 0..self.burst {
            let data = Bytes::from(vec![(i % 251) as u8; self.size]);
            if self.nic {
                ctx.ext(McastRequest::Send {
                    group: GID,
                    data,
                    tag: i as u64,
                });
            } else {
                for &c in self.tree.children(self.tree.root()) {
                    ctx.send(c, PORT, PORT, data.clone(), i as u64);
                }
            }
        }
    }
}

struct StreamDest {
    me: NodeId,
    tree: SpanningTree,
    burst: u32,
    nic: bool,
    got: u32,
    /// When the last message of the burst arrived.
    done_at: SimTime,
}

impl HostApp<McastExt> for StreamDest {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        ctx.provide_recv(PORT, 2 * self.burst as usize);
        if self.nic {
            ctx.ext(McastRequest::CreateGroup {
                group: GID,
                port: PORT,
                root: self.tree.root(),
                parent: Some(self.tree.parent(self.me).expect("member")),
                children: self.tree.children(self.me).to_vec(),
            });
        }
    }
    fn on_notice(&mut self, n: Notice<McastNotice>, ctx: &mut HostCtx<'_, McastExt>) {
        if let Notice::Recv { tag, data, .. } = n {
            if !self.nic {
                for &c in self.tree.children(self.me) {
                    ctx.send(c, PORT, PORT, data.clone(), tag);
                }
            }
            self.got += 1;
            if self.got == self.burst {
                self.done_at = ctx.now();
            }
        }
    }
}

/// Aggregate delivered goodput in MB/s: burst*size bytes to each of n-1
/// destinations over the makespan.
fn throughput(n: u32, size: usize, burst: u32, nic: bool, shape: TreeShape) -> f64 {
    let fabric = Fabric::new(Topology::for_nodes(n), 29);
    let dests: Vec<NodeId> = (1..n).map(NodeId).collect();
    let tree = SpanningTree::build(NodeId(0), &dests, shape);
    let mut cluster = Cluster::new(GmParams::default(), fabric, |_| McastExt::new());
    cluster.set_app(
        NodeId(0),
        Box::new(StreamRoot {
            tree: tree.clone(),
            size,
            burst,
            nic,
        }),
    );
    for &d in &dests {
        cluster.set_app(
            d,
            Box::new(StreamDest {
                me: d,
                tree: tree.clone(),
                burst,
                nic,
                got: 0,
                done_at: SimTime::ZERO,
            }),
        );
    }
    let run = gm::drive(cluster, 1);
    let d: Vec<SimTime> = dests
        .iter()
        .map(|&m| run.app::<StreamDest>(m).done_at)
        .collect();
    assert!(d.iter().all(|&t| t > SimTime::ZERO), "missing deliveries");
    let makespan = d.iter().cloned().fold(SimTime::ZERO, SimTime::max);
    let bytes = burst as u64 * size as u64 * (n as u64 - 1);
    bytes as f64 / makespan.as_micros_f64() // B/us == MB/s
}

#[derive(Serialize)]
struct Point {
    nodes: u32,
    size: usize,
    hb_mbs: f64,
    nb_mbs: f64,
    improvement: f64,
}

fn main() {
    let opts = CliOpts::parse();
    let burst = opts.iters.max(20);
    let mut points = Vec::new();
    for &n in &[4u32, 8, 16] {
        for &size in &[1024usize, 4096, 16384] {
            points.push((n, size));
        }
    }
    let results: Vec<Point> = par_map(points, |&(n, size)| {
        let hb = throughput(n, size, burst, false, TreeShape::Binomial);
        // Streaming favours maximal pipelining: root egress of one copy and
        // per-packet forwarding the whole way — the chain.
        let nb_chain = throughput(n, size, burst, true, TreeShape::Chain);
        let nb_kary = throughput(n, size, burst, true, TreeShape::KAry(2));
        let nb = nb_chain.max(nb_kary);
        Point {
            nodes: n,
            size,
            hb_mbs: hb,
            nb_mbs: nb,
            improvement: nb / hb,
        }
    });
    let mut t = Table::new(
        &format!("Sustained multicast goodput, {burst}-message bursts (MB/s aggregate)"),
        &["nodes", "size", "HB MB/s", "NB MB/s", "NB/HB"],
    );
    for p in &results {
        t.row(vec![
            p.nodes.to_string(),
            p.size.to_string(),
            format!("{:.1}", p.hb_mbs),
            format!("{:.1}", p.nb_mbs),
            factor(p.nb_mbs, p.hb_mbs).to_string(),
        ]);
    }
    t.print();
    println!(
        "\nThroughput is the regime the paper left unmeasured: per-packet NIC\n\
         forwarding sustains the wire rate down the tree while host-based\n\
         forwarding re-serializes every message at every level."
    );
    bench::write_json("ext_throughput", &results);
}
