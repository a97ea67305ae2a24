//! Tests of the NIC-level allreduce (the second future-work collective the
//! paper names: "for example, Allreduce and Alltoall broadcast"). Partial
//! values combine up the group tree inside firmware; the final result comes
//! back down as an 8-byte reliable multicast.

use gm::{Cluster, GmParams, HostApp, HostCtx, Notice};
use gm_sim::{SimDuration, SimTime};
use myrinet::{Fabric, FaultPlan, GroupId, NetParams, NodeId, PortId, Topology};
use nic_mcast::{McastExt, McastNotice, McastRequest, ReduceOp, SpanningTree, TreeShape};

const PORT: PortId = PortId(0);
const GID: GroupId = GroupId(2);

struct ReduceApp {
    me: NodeId,
    tree: SpanningTree,
    op: ReduceOp,
    rounds: u32,
    round: u32,
    /// Per-round contribution of this node.
    contribute: fn(NodeId, u32) -> u64,
    stagger: fn(NodeId, u32) -> SimDuration,
    /// Per round: (result, completion time).
    results: Vec<(u64, SimTime)>,
}

impl ReduceApp {
    fn enter(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        let delay = (self.stagger)(self.me, self.round);
        if delay > SimDuration::ZERO {
            ctx.compute(delay, 0xA11);
        } else {
            self.post(ctx);
        }
    }
    fn post(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        ctx.ext(McastRequest::AllreduceEnter {
            group: GID,
            value: (self.contribute)(self.me, self.round),
            op: self.op,
            tag: self.round as u64,
        });
    }
}

impl HostApp<McastExt> for ReduceApp {
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
            Notice::Ext(McastNotice::GroupReady { .. }) => self.enter(ctx),
            Notice::ComputeDone { tag: 0xA11 } => self.post(ctx),
            Notice::Ext(McastNotice::AllreduceDone { result, tag, .. }) => {
                assert_eq!(tag, self.round as u64);
                self.results.push((result, ctx.now()));
                self.round += 1;
                if self.round < self.rounds {
                    self.enter(ctx);
                }
            }
            _ => {}
        }
    }
}

fn run(
    n: u32,
    op: ReduceOp,
    rounds: u32,
    contribute: fn(NodeId, u32) -> u64,
    stagger: fn(NodeId, u32) -> SimDuration,
    faults: FaultPlan,
) -> Vec<Vec<(u64, SimTime)>> {
    let fabric = Fabric::with_config(Topology::for_nodes(n), NetParams::default(), faults, 31);
    let dests: Vec<NodeId> = (1..n).map(NodeId).collect();
    let tree = SpanningTree::build(NodeId(0), &dests, TreeShape::Binomial);
    let mut cluster = Cluster::new(GmParams::default(), fabric, |_| McastExt::new());
    for i in 0..n {
        cluster.set_app(
            NodeId(i),
            Box::new(ReduceApp {
                me: NodeId(i),
                tree: tree.clone(),
                op,
                rounds,
                round: 0,
                contribute,
                stagger,
                results: Vec::new(),
            }),
        );
    }
    let mut eng = cluster.into_engine(1);
    let outcome = eng.run(SimTime::MAX, 100_000_000);
    assert_eq!(outcome, gm_sim::RunOutcome::Idle, "allreduce hung");
    // results[round][node]; a round a node never finished reads (0, 0).
    let apps: Vec<&ReduceApp> = (0..n).map(|i| eng.world(0).app(NodeId(i))).collect();
    (0..rounds as usize)
        .map(|r| {
            apps.iter()
                .map(|a| a.results.get(r).copied().unwrap_or_default())
                .collect()
        })
        .collect()
}

fn no_stagger(_: NodeId, _: u32) -> SimDuration {
    SimDuration::ZERO
}

#[test]
fn sum_over_every_cluster_size() {
    for n in [2u32, 3, 7, 8, 16] {
        let out = run(
            n,
            ReduceOp::Sum,
            3,
            |me, round| (me.0 as u64 + 1) * (round as u64 + 1),
            no_stagger,
            FaultPlan::none(),
        );
        for (round, row) in out.iter().enumerate() {
            let expect: u64 = (0..n as u64).map(|i| (i + 1) * (round as u64 + 1)).sum();
            for (i, &(result, t)) in row.iter().enumerate() {
                assert_eq!(result, expect, "n={n} round={round} node={i}");
                assert!(t > SimTime::ZERO);
            }
        }
    }
}

#[test]
fn min_and_max_reduce_correctly() {
    let contribute = |me: NodeId, _: u32| ((me.0 as u64 * 37) % 11) + 1;
    let values: Vec<u64> = (0..8u32).map(|i| ((i as u64 * 37) % 11) + 1).collect();
    let out = run(8, ReduceOp::Min, 1, contribute, no_stagger, FaultPlan::none());
    let expect_min = *values.iter().min().unwrap();
    assert!(out[0].iter().all(|&(r, _)| r == expect_min));

    let out = run(8, ReduceOp::Max, 1, contribute, no_stagger, FaultPlan::none());
    let expect_max = *values.iter().max().unwrap();
    assert!(out[0].iter().all(|&(r, _)| r == expect_max));
}

#[test]
fn per_round_values_do_not_leak_across_rounds() {
    // Each round contributes disjoint values; a stale child partial from
    // round r-1 would corrupt round r's sum.
    let out = run(
        8,
        ReduceOp::Sum,
        5,
        |me, round| 1000u64.pow(0) * (round as u64 * 100 + me.0 as u64),
        no_stagger,
        FaultPlan::none(),
    );
    for (round, row) in out.iter().enumerate() {
        let expect: u64 = (0..8u64).map(|i| round as u64 * 100 + i).sum();
        assert!(
            row.iter().all(|&(r, _)| r == expect),
            "round {round}: {row:?}"
        );
    }
}

#[test]
fn skewed_entries_still_reduce_exactly_once() {
    fn stagger(me: NodeId, round: u32) -> SimDuration {
        SimDuration::from_micros(((me.0 + round) % 5) as u64 * 120)
    }
    let out = run(
        16,
        ReduceOp::Sum,
        4,
        |me, round| me.0 as u64 + round as u64,
        stagger,
        FaultPlan::none(),
    );
    for (round, row) in out.iter().enumerate() {
        let expect: u64 = (0..16u64).map(|i| i + round as u64).sum();
        assert!(row.iter().all(|&(r, _)| r == expect), "round {round}");
    }
}

#[test]
fn allreduce_survives_packet_loss() {
    let out = run(
        8,
        ReduceOp::Sum,
        4,
        |me, _| me.0 as u64 + 1,
        no_stagger,
        FaultPlan::with_loss(0.03),
    );
    let expect: u64 = (1..=8).sum();
    for (round, row) in out.iter().enumerate() {
        assert!(
            row.iter().all(|&(r, _)| r == expect),
            "round {round}: {row:?}"
        );
    }
}

#[test]
fn no_member_finishes_before_the_last_entry() {
    // Allreduce is also a synchronization point: nobody can hold the
    // result before every contribution went in.
    fn stagger(me: NodeId, _: u32) -> SimDuration {
        if me.0 == 5 {
            SimDuration::from_micros(400)
        } else {
            SimDuration::ZERO
        }
    }
    let out = run(8, ReduceOp::Sum, 1, |me, _| me.0 as u64, stagger, FaultPlan::none());
    for &(_, t) in &out[0] {
        assert!(
            t >= SimTime::ZERO + SimDuration::from_micros(400),
            "someone exited before the straggler entered: {t}"
        );
    }
}
