//! The group's delivery-port binding (protection axis): a multicast group
//! bound to port B must deliver only on port B, even when port A has
//! credits too.

use std::sync::Mutex;
use std::sync::Arc;

use bytes::Bytes;
use myri_mcast::gm::{Cluster, GmParams, HostApp, HostCtx, Notice};
use myri_mcast::net::{Fabric, GroupId, NodeId, PortId, Topology};

const PA: PortId = PortId(0);
const PB: PortId = PortId(1);

type Log = Arc<Mutex<Vec<(PortId, u64)>>>;

#[test]
fn multicast_groups_deliver_only_on_their_port() {
    use myri_mcast::mcast::{McastExt, McastNotice, McastRequest, SpanningTree, TreeShape};

    struct GroupHost {
        me: NodeId,
        tree: SpanningTree,
        log: Log,
    }
    impl HostApp<McastExt> for GroupHost {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
            // Credits on both ports; the group is bound to port B.
            ctx.provide_recv(PA, 8);
            ctx.provide_recv(PB, 8);
            ctx.ext(McastRequest::CreateGroup {
                group: GroupId(1),
                port: PB,
                root: NodeId(0),
                parent: self.tree.parent(self.me),
                children: self.tree.children(self.me).to_vec(),
            });
        }
        fn on_notice(&mut self, n: Notice<McastNotice>, ctx: &mut HostCtx<'_, McastExt>) {
            match n {
                Notice::Ext(McastNotice::GroupReady { .. }) if self.me.0 == 0 => {
                    ctx.ext(McastRequest::Send {
                        group: GroupId(1),
                        data: Bytes::from_static(b"grp"),
                        tag: 9,
                    });
                }
                Notice::Recv { port, tag, .. } => {
                    self.log.lock().unwrap().push((port, tag));
                }
                _ => {}
            }
        }
    }
    let n = 4u32;
    let dests: Vec<NodeId> = (1..n).map(NodeId).collect();
    let tree = SpanningTree::build(NodeId(0), &dests, TreeShape::Binomial);
    let logs: Vec<Log> = (0..n).map(|_| Log::default()).collect();
    let mut c = Cluster::new(
        GmParams::default(),
        Fabric::new(Topology::for_nodes(n), 3),
        |_| McastExt::new(),
    );
    for i in 0..n {
        c.set_app(
            NodeId(i),
            Box::new(GroupHost {
                me: NodeId(i),
                tree: tree.clone(),
                log: logs[i as usize].clone(),
            }),
        );
    }
    c.into_engine(1).run_to_idle();
    for (i, log) in logs.iter().enumerate().skip(1) {
        let got = log.lock().unwrap();
        assert_eq!(got.len(), 1, "node {i}");
        assert_eq!(got[0], (PB, 9), "delivery bound to the group's port");
    }
}
