//! Property-based tests of the NIC-based multicast: arbitrary membership,
//! tree shape, message schedules and loss rates — every destination must
//! receive every message exactly once, in order, bit-intact.

use bytes::Bytes;
use gm::{Cluster, GmParams, HostApp, HostCtx, Notice};
use gm_sim::{SimDuration, SimTime};
use myrinet::{Fabric, FaultPlan, GroupId, NetParams, NodeId, PortId, Topology};
use nic_mcast::{McastExt, McastNotice, McastRequest, PostalParams, SpanningTree, TreeShape};
use proptest::prelude::*;

const PORT: PortId = PortId(0);
const G: GroupId = GroupId(1);

struct Root {
    tree: SpanningTree,
    msgs: Vec<(usize, u8)>,
}

impl HostApp<McastExt> for Root {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        ctx.ext(McastRequest::CreateGroup {
            group: G,
            port: PORT,
            root: self.tree.root(),
            parent: None,
            children: self.tree.children(self.tree.root()).to_vec(),
        });
    }
    fn on_notice(&mut self, n: Notice<McastNotice>, ctx: &mut HostCtx<'_, McastExt>) {
        if matches!(n, Notice::Ext(McastNotice::GroupReady { .. })) {
            for (i, &(len, fill)) in self.msgs.iter().enumerate() {
                ctx.ext(McastRequest::Send {
                    group: G,
                    data: Bytes::from(vec![fill; len]),
                    tag: i as u64,
                });
            }
        }
    }
}

struct Member {
    me: NodeId,
    tree: SpanningTree,
    /// Deliveries: (tag, length, first byte).
    log: Vec<(u64, usize, u8)>,
}

impl HostApp<McastExt> for Member {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        ctx.provide_recv(PORT, 64);
        ctx.ext(McastRequest::CreateGroup {
            group: G,
            port: PORT,
            root: self.tree.root(),
            parent: Some(self.tree.parent(self.me).expect("member")),
            children: self.tree.children(self.me).to_vec(),
        });
    }
    fn on_notice(&mut self, n: Notice<McastNotice>, ctx: &mut HostCtx<'_, McastExt>) {
        if let Notice::Recv { tag, data, .. } = n {
            ctx.provide_recv(PORT, 1);
            let fill = data.first().copied().unwrap_or(0);
            self.log.push((tag, data.len(), fill));
        }
    }
}

fn shapes() -> impl Strategy<Value = TreeShape> {
    prop_oneof![
        Just(TreeShape::Binomial),
        Just(TreeShape::Flat),
        Just(TreeShape::Chain),
        (1u32..4).prop_map(TreeShape::KAry),
        (1u64..20, 1u64..20).prop_map(|(l, t)| TreeShape::Postal(PostalParams::new(
            SimDuration::from_micros(l),
            SimDuration::from_micros(t),
        ))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn everyone_gets_everything_in_order(
        n in 2u32..12,
        shape in shapes(),
        msgs in proptest::collection::vec((1usize..9000, any::<u8>()), 1..10),
        loss in 0.0f64..0.15,
        seed in any::<u64>(),
    ) {
        let fabric = Fabric::with_config(
            Topology::for_nodes(n),
            NetParams::default(),
            FaultPlan::with_loss(loss),
            seed,
        );
        let dests: Vec<NodeId> = (1..n).map(NodeId).collect();
        let tree = SpanningTree::build(NodeId(0), &dests, shape);
        let mut cluster = Cluster::new(GmParams::default(), fabric, |_| McastExt::new());
        cluster.set_app(
            NodeId(0),
            Box::new(Root {
                tree: tree.clone(),
                msgs: msgs.clone(),
            }),
        );
        for &d in &dests {
            cluster.set_app(
                d,
                Box::new(Member {
                    me: d,
                    tree: tree.clone(),
                    log: Vec::new(),
                }),
            );
        }
        let mut eng = cluster.into_engine(1);
        let outcome = eng.run(SimTime::MAX, 200_000_000);
        prop_assert_eq!(outcome, gm_sim::RunOutcome::Idle, "multicast hung");
        for &d in &dests {
            let got = &eng.world(0).app::<Member>(d).log;
            prop_assert_eq!(got.len(), msgs.len(), "dest {} count", d.0);
            for (k, &(tag, len, fill)) in got.iter().enumerate() {
                prop_assert_eq!(tag, k as u64, "dest {} order", d.0);
                prop_assert_eq!(len, msgs[k].0);
                prop_assert_eq!(fill, msgs[k].1);
            }
        }
        // No packets left unaccounted: every NIC's records drained.
        for i in 0..n {
            prop_assert_eq!(
                eng.world(0).ext(NodeId(i)).outstanding(G),
                0,
                "node {} still holds records",
                i
            );
        }
    }
}
