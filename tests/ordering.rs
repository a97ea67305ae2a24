//! Ordering and concurrency guarantees of the NIC-based multicast, driven
//! through the public API with hand-rolled host applications.

use bytes::Bytes;
use myri_mcast::gm::{drive, Cluster, Driven, GmParams, HostApp, HostCtx, Notice};
use myri_mcast::mcast::{McastExt, McastNotice, McastRequest, SpanningTree, TreeShape};
use myri_mcast::net::{Fabric, FaultPlan, GroupId, NetParams, NodeId, PortId, Topology};
use myri_mcast::sim::SimTime;

const PORT: PortId = PortId(0);

/// Deliveries a destination saw: (tag, data).
type DeliveryLog = Vec<(u64, Bytes)>;

/// Root app: installs its group entry and fires `count` back-to-back
/// multicasts without waiting for anything.
struct BurstRoot {
    gid: GroupId,
    tree: SpanningTree,
    count: u64,
    /// `SendDone` notices seen.
    done: u64,
}

impl HostApp<McastExt> for BurstRoot {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        ctx.ext(McastRequest::CreateGroup {
            group: self.gid,
            port: PORT,
            root: self.tree.root(),
            parent: None,
            children: self.tree.children(self.tree.root()).to_vec(),
        });
    }

    fn on_notice(&mut self, n: Notice<McastNotice>, ctx: &mut HostCtx<'_, McastExt>) {
        match n {
            Notice::Ext(McastNotice::GroupReady { .. }) => {
                // Fire the whole burst at once: messages of different sizes
                // (some multi-packet) must still arrive in post order.
                for i in 0..self.count {
                    let len = 100 + (i as usize * 2309) % 9000;
                    let fill = (i % 251) as u8;
                    ctx.ext(McastRequest::Send {
                        group: self.gid,
                        data: Bytes::from(vec![fill; len]),
                        tag: i,
                    });
                }
            }
            Notice::Ext(McastNotice::SendDone { .. }) => {
                self.done += 1;
            }
            _ => {}
        }
    }
}

/// Destination app: installs its entry and logs every delivery.
struct Logger {
    gid: GroupId,
    tree: SpanningTree,
    me: NodeId,
    log: DeliveryLog,
}

impl HostApp<McastExt> for Logger {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        ctx.provide_recv(PORT, 64);
        ctx.ext(McastRequest::CreateGroup {
            group: self.gid,
            port: PORT,
            root: self.tree.root(),
            parent: Some(self.tree.parent(self.me).expect("non-root")),
            children: self.tree.children(self.me).to_vec(),
        });
    }

    fn on_notice(&mut self, n: Notice<McastNotice>, ctx: &mut HostCtx<'_, McastExt>) {
        if let Notice::Recv { tag, data, .. } = n {
            ctx.provide_recv(PORT, 1);
            self.log.push((tag, data));
        }
    }
}

fn burst_cluster(n: u32, shape: TreeShape, count: u64, faults: FaultPlan) -> Cluster<McastExt> {
    let topo = Topology::for_nodes(n);
    let fabric = Fabric::with_config(topo, NetParams::default(), faults, 77);
    let dests: Vec<NodeId> = (1..n).map(NodeId).collect();
    let tree = SpanningTree::build(NodeId(0), &dests, shape);
    let gid = GroupId(9);
    let mut cluster = Cluster::new(GmParams::default(), fabric, |_| McastExt::new());
    cluster.set_app(
        NodeId(0),
        Box::new(BurstRoot {
            gid,
            tree: tree.clone(),
            count,
            done: 0,
        }),
    );
    for &d in &dests {
        cluster.set_app(
            d,
            Box::new(Logger {
                gid,
                tree: tree.clone(),
                me: d,
                log: DeliveryLog::new(),
            }),
        );
    }
    cluster
}

/// The delivery logs of the `Logger`s on nodes `1..n`.
fn logger_logs(d: &Driven<McastExt>, n: u32) -> Vec<&DeliveryLog> {
    (1..n).map(|i| &d.app::<Logger>(NodeId(i)).log).collect()
}

fn assert_burst_delivery(logs: &[&DeliveryLog], count: u64) {
    for (i, log) in logs.iter().enumerate() {
        assert_eq!(
            log.len(),
            count as usize,
            "destination {} received {} of {count} messages",
            i + 1,
            log.len()
        );
        for (k, (tag, data)) in log.iter().enumerate() {
            assert_eq!(*tag, k as u64, "delivery order violated at dest {}", i + 1);
            let expect_len = 100 + (k * 2309) % 9000;
            assert_eq!(data.len(), expect_len, "length corrupted");
            let fill = (k % 251) as u8;
            assert!(
                data.iter().all(|&b| b == fill),
                "payload corrupted at dest {} msg {k}",
                i + 1
            );
        }
    }
}

#[test]
fn burst_of_mixed_size_multicasts_arrives_in_order_everywhere() {
    for shape in [TreeShape::Binomial, TreeShape::Flat, TreeShape::Chain, TreeShape::KAry(2)] {
        let d = drive(burst_cluster(8, shape, 12, FaultPlan::none()), 1);
        assert_burst_delivery(&logger_logs(&d, 8), 12);
        assert_eq!(
            d.app::<BurstRoot>(NodeId(0)).done,
            12,
            "root must see every SendDone"
        );
    }
}

#[test]
fn burst_survives_random_loss_in_order() {
    let d = drive(
        burst_cluster(8, TreeShape::Binomial, 10, FaultPlan::with_loss(0.03)),
        1,
    );
    assert_burst_delivery(&logger_logs(&d, 8), 10);
    assert_eq!(d.app::<BurstRoot>(NodeId(0)).done, 10);
    // Loss must actually have occurred for this test to mean anything.
    let dropped: u64 = d.worlds[0].fabric().counters().get("dropped_random");
    assert!(dropped > 0, "expected some loss at 3%");
}

#[test]
fn two_concurrent_groups_with_interleaved_membership() {
    // Group A: root 0 over 1..8; group B: root 7 over 0..7. Both burst at
    // once; every member of each group gets each group's messages in order.
    let n = 8u32;
    let topo = Topology::for_nodes(n);
    let fabric = Fabric::with_config(topo, NetParams::default(), FaultPlan::none(), 5);
    let dests_a: Vec<NodeId> = (1..n).map(NodeId).collect();
    let dests_b: Vec<NodeId> = (0..7).map(NodeId).collect();
    let tree_a = SpanningTree::build(NodeId(0), &dests_a, TreeShape::Binomial);
    let tree_b = SpanningTree::build(NodeId(7), &dests_b, TreeShape::Binomial);
    let (ga, gb) = (GroupId(1), GroupId(2));

    /// Member of both groups; roots of one group are members of the other.
    struct DualApp {
        me: NodeId,
        ga: GroupId,
        gb: GroupId,
        tree_a: SpanningTree,
        tree_b: SpanningTree,
        count: u64,
        log: DeliveryLog,
        ready: u32,
    }
    impl HostApp<McastExt> for DualApp {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
            ctx.provide_recv(PORT, 64);
            let install = |ctx: &mut HostCtx<'_, McastExt>, gid, tree: &SpanningTree, me| {
                if tree.root() == me {
                    ctx.ext(McastRequest::CreateGroup {
                        group: gid,
                        port: PORT,
                        root: me,
                        parent: None,
                        children: tree.children(me).to_vec(),
                    });
                } else {
                    ctx.ext(McastRequest::CreateGroup {
                        group: gid,
                        port: PORT,
                        root: tree.root(),
                        parent: Some(tree.parent(me).expect("member")),
                        children: tree.children(me).to_vec(),
                    });
                }
            };
            install(ctx, self.ga, &self.tree_a.clone(), self.me);
            install(ctx, self.gb, &self.tree_b.clone(), self.me);
        }
        fn on_notice(&mut self, n: Notice<McastNotice>, ctx: &mut HostCtx<'_, McastExt>) {
            match n {
                Notice::Ext(McastNotice::GroupReady { .. }) => {
                    self.ready += 1;
                    if self.ready == 2 {
                        let my_group = if self.me == self.tree_a.root() {
                            Some(self.ga)
                        } else if self.me == self.tree_b.root() {
                            Some(self.gb)
                        } else {
                            None
                        };
                        if let Some(g) = my_group {
                            for i in 0..self.count {
                                ctx.ext(McastRequest::Send {
                                    group: g,
                                    data: Bytes::from(vec![g.0 as u8; 500]),
                                    tag: i,
                                });
                            }
                        }
                    }
                }
                Notice::Recv { tag, data, .. } => {
                    ctx.provide_recv(PORT, 1);
                    self.log.push((tag, data));
                }
                _ => {}
            }
        }
    }

    let mut cluster = Cluster::new(GmParams::default(), fabric, |_| McastExt::new());
    for i in 0..n {
        cluster.set_app(
            NodeId(i),
            Box::new(DualApp {
                me: NodeId(i),
                ga,
                gb,
                tree_a: tree_a.clone(),
                tree_b: tree_b.clone(),
                count: 6,
                log: DeliveryLog::new(),
                ready: 0,
            }),
        );
    }
    let d = drive(cluster, 1);
    assert!(d.end > SimTime::ZERO);
    for i in 0..n {
        let log = &d.app::<DualApp>(NodeId(i)).log;
        // Node 0 only receives group B (6 msgs); node 7 only group A; the
        // rest receive both (12).
        let expect = if i == 0 || i == 7 { 6 } else { 12 };
        assert_eq!(log.len(), expect, "node {i}");
        // Per-group delivery order is preserved.
        for g in [1u8, 2] {
            let tags: Vec<u64> = log
                .iter()
                .filter(|(_, d)| d.first() == Some(&g))
                .map(|(t, _)| *t)
                .collect();
            if !tags.is_empty() {
                assert_eq!(tags, (0..6).collect::<Vec<u64>>(), "node {i} group {g}");
            }
        }
    }
}

#[test]
fn scarce_receive_credits_recover_via_retransmission() {
    // Destinations prepost only 2 credits for a 12-message burst and
    // replenish one per delivery: the NIC must drop messages without
    // tokens and recover them on the root's timeout, preserving order.
    let n = 4u32;
    let topo = Topology::for_nodes(n);
    let fabric = Fabric::new(topo, 3);
    let dests: Vec<NodeId> = (1..n).map(NodeId).collect();
    let tree = SpanningTree::build(NodeId(0), &dests, TreeShape::Flat);
    let gid = GroupId(4);
    let mut cluster = Cluster::new(GmParams::default(), fabric, |_| McastExt::new());
    cluster.set_app(
        NodeId(0),
        Box::new(BurstRoot {
            gid,
            tree: tree.clone(),
            count: 12,
            done: 0,
        }),
    );

    struct StingyLogger {
        inner: Logger,
    }
    impl HostApp<McastExt> for StingyLogger {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
            ctx.provide_recv(PORT, 1);
            ctx.ext(McastRequest::CreateGroup {
                group: self.inner.gid,
                port: PORT,
                root: self.inner.tree.root(),
                parent: Some(self.inner.tree.parent(self.inner.me).expect("non-root")),
                children: self.inner.tree.children(self.inner.me).to_vec(),
            });
        }
        fn on_notice(&mut self, n: Notice<McastNotice>, ctx: &mut HostCtx<'_, McastExt>) {
            if let Notice::Recv { tag, data, .. } = n {
                self.inner.log.push((tag, data));
                // Dawdle before reposting the credit so the next message
                // finds the pool empty and must be recovered by timeout.
                ctx.compute(myri_mcast::sim::SimDuration::from_micros(40), 1_000_000);
                ctx.provide_recv(PORT, 1);
            }
        }
    }

    for &d in &dests {
        cluster.set_app(
            d,
            Box::new(StingyLogger {
                inner: Logger {
                    gid,
                    tree: tree.clone(),
                    me: d,
                    log: DeliveryLog::new(),
                },
            }),
        );
    }
    let d = drive(cluster, 1);
    let logs: Vec<&DeliveryLog> = (1..n)
        .map(|i| &d.app::<StingyLogger>(NodeId(i)).inner.log)
        .collect();
    assert_burst_delivery(&logs, 12);
    assert_eq!(d.app::<BurstRoot>(NodeId(0)).done, 12);
    let token_drops: u64 = (1..n)
        .map(|i| d.worlds[0].nic(NodeId(i)).counters.get("rx_drop_no_token"))
        .sum();
    assert!(token_drops > 0, "the credit wall must have been hit");
}
