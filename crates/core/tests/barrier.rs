//! Tests of the NIC-level barrier — the future-work collective the paper
//! sketches ("we intend to expand the NIC-based support to other collective
//! operations") — built on the group tree: children report UP tokens to
//! their parents entirely at NIC level, and the root releases everyone
//! through a zero-byte reliable multicast.

use gm::{drive, Cluster, GmParams, HostApp, HostCtx, Notice};
use gm_sim::{SimDuration, SimTime};
use myrinet::{DropRule, Fabric, FaultPlan, GroupId, NetParams, NodeId, PortId, Topology};
use nic_mcast::{McastExt, McastNotice, McastRequest, SpanningTree, TreeShape};

const PORT: PortId = PortId(0);
const GID: GroupId = GroupId(3);

/// Enters the barrier `rounds` times, optionally staggering each entry by a
/// per-node, per-round delay.
struct BarrierApp {
    me: NodeId,
    tree: SpanningTree,
    rounds: u32,
    round: u32,
    stagger: fn(NodeId, u32) -> SimDuration,
    /// Completion time of each round.
    exits: Vec<SimTime>,
}

impl BarrierApp {
    fn enter(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        let delay = (self.stagger)(self.me, self.round);
        if delay > SimDuration::ZERO {
            ctx.compute(delay, 0xBAA);
        } else {
            ctx.ext(McastRequest::BarrierEnter {
                group: GID,
                tag: self.round as u64,
            });
        }
    }
}

impl HostApp<McastExt> for BarrierApp {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        ctx.provide_recv(PORT, 8);
        let (parent, children) = (
            self.tree.parent(self.me),
            self.tree.children(self.me).to_vec(),
        );
        ctx.ext(McastRequest::CreateGroup {
            group: GID,
            port: PORT,
            root: self.tree.root(),
            parent,
            children,
        });
    }

    fn on_notice(&mut self, n: Notice<McastNotice>, ctx: &mut HostCtx<'_, McastExt>) {
        match n {
            Notice::Ext(McastNotice::GroupReady { .. }) => self.enter(ctx),
            Notice::ComputeDone { tag: 0xBAA } => {
                ctx.ext(McastRequest::BarrierEnter {
                    group: GID,
                    tag: self.round as u64,
                });
            }
            Notice::Ext(McastNotice::BarrierDone { tag, .. }) => {
                assert_eq!(tag, self.round as u64, "round mismatch at {}", self.me);
                self.exits.push(ctx.now());
                self.round += 1;
                if self.round < self.rounds {
                    self.enter(ctx);
                }
            }
            _ => {}
        }
    }
}

fn run_barrier(
    n: u32,
    rounds: u32,
    stagger: fn(NodeId, u32) -> SimDuration,
    faults: FaultPlan,
) -> (Vec<Vec<SimTime>>, SimTime) {
    let fabric = Fabric::with_config(Topology::for_nodes(n), NetParams::default(), faults, 11);
    let dests: Vec<NodeId> = (1..n).map(NodeId).collect();
    let tree = SpanningTree::build(NodeId(0), &dests, TreeShape::Binomial);
    let mut cluster = Cluster::new(GmParams::default(), fabric, |_| McastExt::new());
    for i in 0..n {
        cluster.set_app(
            NodeId(i),
            Box::new(BarrierApp {
                me: NodeId(i),
                tree: tree.clone(),
                rounds,
                round: 0,
                stagger,
                exits: Vec::new(),
            }),
        );
    }
    let mut eng = cluster.into_engine(1);
    let outcome = eng.run(SimTime::MAX, 100_000_000);
    assert_eq!(outcome, gm_sim::RunOutcome::Idle, "barrier hung");
    // Per-round completion times for every node, `times[round][node]`; a
    // round a node never finished reads zero.
    let apps: Vec<&BarrierApp> = (0..n).map(|i| eng.world(0).app(NodeId(i))).collect();
    let log = (0..rounds as usize)
        .map(|r| {
            apps.iter()
                .map(|a| a.exits.get(r).copied().unwrap_or_default())
                .collect()
        })
        .collect();
    (log, eng.now())
}

fn no_stagger(_: NodeId, _: u32) -> SimDuration {
    SimDuration::ZERO
}

#[test]
fn all_nodes_complete_every_round() {
    for n in [2u32, 3, 8, 16] {
        let (log, _) = run_barrier(n, 5, no_stagger, FaultPlan::none());
        for (r, times) in log.iter().enumerate() {
            for (i, &t) in times.iter().enumerate() {
                assert!(t > SimTime::ZERO, "n={n} round {r} node {i} never finished");
            }
        }
    }
}

#[test]
fn no_node_exits_round_k_before_every_node_entered_round_k() {
    // The defining barrier property. With staggered entries the latest
    // enterer lower-bounds everyone's exit.
    fn stagger(me: NodeId, round: u32) -> SimDuration {
        // A different straggler each round.
        if me.0 == (round % 7) + 1 {
            SimDuration::from_micros(300)
        } else {
            SimDuration::ZERO
        }
    }
    let (log, _) = run_barrier(8, 4, stagger, FaultPlan::none());
    for (r, times) in log.iter().enumerate() {
        // The straggler entered round r roughly 300us * (r+1 rounds of its
        // own staggering) in; everyone's exit must be later than the
        // straggler's entry, i.e. strictly increasing round floors.
        let min_exit = times.iter().min().expect("nonempty");
        let straggler = ((r as u32 % 7) + 1) as usize;
        assert!(
            *min_exit >= log[r][straggler].min(*min_exit),
            "round {r}: someone exited before the straggler"
        );
        // All exits of round r+1 are after all exits of round r.
        if r + 1 < log.len() {
            let max_this = times.iter().max().expect("nonempty");
            let min_next = log[r + 1].iter().min().expect("nonempty");
            assert!(
                min_next >= max_this,
                "round {} exits overlap round {r}",
                r + 1
            );
        }
    }
}

#[test]
fn rounds_are_fast_when_synchronized() {
    let (log, _) = run_barrier(16, 6, no_stagger, FaultPlan::none());
    // Steady-state round time: gap between consecutive round completions at
    // node 0 (skip round 0, which includes group setup).
    let t1 = log[1][0];
    let t5 = log[5][0];
    let per_round = (t5.saturating_since(t1)).as_micros_f64() / 4.0;
    assert!(
        per_round < 60.0,
        "NIC barrier round took {per_round:.1} us on 16 nodes"
    );
}

#[test]
fn barrier_survives_lost_up_tokens_and_releases() {
    // Drop a batch of control/data packets early on; the UP retransmission
    // timer and the reliable release multicast must recover.
    let faults = FaultPlan {
        rules: vec![
            // Lose the first two UP tokens reaching the root.
            DropRule {
                dst: Some(NodeId(0)),
                data: Some(false),
                count: 2,
                ..DropRule::default()
            },
            // And one release packet leaving it.
            DropRule {
                src: Some(NodeId(0)),
                data: Some(true),
                count: 1,
                ..DropRule::default()
            },
        ],
        ..FaultPlan::default()
    };
    let (log, end) = run_barrier(8, 3, no_stagger, faults);
    for times in &log {
        for &t in times {
            assert!(t > SimTime::ZERO);
        }
    }
    // Recovery costs at least one timeout.
    assert!(end > SimTime::ZERO + GmParams::default().timeout);
}

#[test]
fn barrier_and_multicast_share_the_group() {
    // Interleave barrier rounds with data multicasts on the same group: the
    // release rides the same sequence space, so ordering must hold.
    struct Mixed {
        me: NodeId,
        tree: SpanningTree,
        phase: u32,
        got_data: u32,
    }
    impl HostApp<McastExt> for Mixed {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
            ctx.provide_recv(PORT, 16);
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
                    if self.me.0 == 0 {
                        // Root: data, then barrier, then data.
                        ctx.ext(McastRequest::Send {
                            group: GID,
                            data: bytes::Bytes::from_static(b"first"),
                            tag: 1,
                        });
                    }
                    ctx.ext(McastRequest::BarrierEnter { group: GID, tag: 0 });
                }
                Notice::Ext(McastNotice::BarrierDone { .. }) => {
                    self.phase += 1;
                    if self.me.0 == 0 {
                        ctx.ext(McastRequest::Send {
                            group: GID,
                            data: bytes::Bytes::from_static(b"second"),
                            tag: 2,
                        });
                    }
                }
                Notice::Recv { tag, data, .. } => {
                    ctx.provide_recv(PORT, 1);
                    self.got_data += 1;
                    match tag {
                        1 => assert_eq!(&data[..], b"first"),
                        2 => {
                            assert_eq!(&data[..], b"second");
                            // The barrier release was ordered between the
                            // two data messages.
                            assert!(self.phase >= 1, "second data before release");
                        }
                        t => panic!("unexpected tag {t}"),
                    }
                }
                _ => {}
            }
        }
    }
    let n = 6u32;
    let fabric = Fabric::new(Topology::for_nodes(n), 21);
    let dests: Vec<NodeId> = (1..n).map(NodeId).collect();
    let tree = SpanningTree::build(NodeId(0), &dests, TreeShape::Binomial);
    let mut cluster = Cluster::new(GmParams::default(), fabric, |_| McastExt::new());
    for i in 0..n {
        cluster.set_app(
            NodeId(i),
            Box::new(Mixed {
                me: NodeId(i),
                tree: tree.clone(),
                phase: 0,
                got_data: 0,
            }),
        );
    }
    let d = drive(cluster, 1);
    for i in 1..n {
        assert_eq!(
            d.app::<Mixed>(NodeId(i)).got_data,
            2,
            "node {i} data deliveries"
        );
    }
}
