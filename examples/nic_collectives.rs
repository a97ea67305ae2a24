//! The future-work collectives in action: a NIC-level barrier and a
//! NIC-level allreduce on the same multicast group, driven through the
//! public API. The whole collective — gathering UP tokens, combining
//! partial values, releasing the result — happens inside the simulated NIC
//! firmware; the hosts only enter and get notified.
//!
//! Run with: `cargo run --release --example nic_collectives`

use myri_mcast::gm::{Cluster, GmParams, HostApp, HostCtx, Notice};
use myri_mcast::mcast::{McastExt, McastNotice, McastRequest, ReduceOp, SpanningTree, TreeShape};
use myri_mcast::net::{Fabric, GroupId, NodeId, PortId, Topology};
use myri_mcast::sim::SimTime;

const PORT: PortId = PortId(0);
const GID: GroupId = GroupId(1);
const N: u32 = 8;

struct App {
    me: NodeId,
    tree: SpanningTree,
    phase: u32,
    /// What node 0 saw complete, in order.
    log: Vec<String>,
}

impl HostApp<McastExt> for App {
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
                // Phase 1: everyone meets at a NIC-level barrier.
                ctx.ext(McastRequest::BarrierEnter { group: GID, tag: 1 });
            }
            Notice::Ext(McastNotice::BarrierDone { tag, .. }) => {
                if self.me.0 == 0 {
                    self.log.push(format!("[{}] barrier {tag} done", ctx.now()));
                }
                self.phase += 1;
                // Phase 2: sum every node's id; phase 3: max of id*id.
                if self.phase == 1 {
                    ctx.ext(McastRequest::AllreduceEnter {
                        group: GID,
                        value: self.me.0 as u64,
                        op: ReduceOp::Sum,
                        tag: 2,
                    });
                }
            }
            Notice::Ext(McastNotice::AllreduceDone { result, tag, .. }) => {
                if self.me.0 == 0 {
                    self.log
                        .push(format!("[{}] allreduce {tag} => {result}", ctx.now()));
                }
                self.phase += 1;
                if self.phase == 2 {
                    let expect: u64 = (0..N as u64).sum();
                    assert_eq!(result, expect);
                    ctx.ext(McastRequest::AllreduceEnter {
                        group: GID,
                        value: (self.me.0 as u64) * (self.me.0 as u64),
                        op: ReduceOp::Max,
                        tag: 3,
                    });
                } else {
                    assert_eq!(result, ((N - 1) as u64).pow(2));
                }
            }
            _ => {}
        }
    }
}

fn main() {
    let fabric = Fabric::new(Topology::for_nodes(N), 7);
    let dests: Vec<NodeId> = (1..N).map(NodeId).collect();
    let tree = SpanningTree::build(NodeId(0), &dests, TreeShape::Binomial);
    let mut cluster = Cluster::new(GmParams::default(), fabric, |_| McastExt::new());
    for i in 0..N {
        cluster.set_app(
            NodeId(i),
            Box::new(App {
                me: NodeId(i),
                tree: tree.clone(),
                phase: 0,
                log: Vec::new(),
            }),
        );
    }
    let run = myri_mcast::gm::drive(cluster, 1);
    let end = run.end;
    println!("NIC-level collectives over an {N}-node group (binomial tree):\n");
    for line in &run.app::<App>(NodeId(0)).log {
        println!("  {line}");
    }
    println!(
        "\nbarrier -> sum(0..{N}) -> max(i^2), all combined in NIC firmware;\n\
         total simulated time {end} (including group setup)."
    );
    assert!(end > SimTime::ZERO);
}
