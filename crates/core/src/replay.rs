//! Replaying `simcheck` counterexample traces through the real simulator.
//!
//! The model checker (`crates/simcheck`) explores an abstract rendering of
//! the protocol built from the same `gm_proto` transition functions the
//! firmware model runs. When it finds a violation it emits a minimal trace
//! whose only environment actions are targeted packet drops. This module
//! turns such a trace into a concrete [`Scenario`]: the drops become
//! one-shot [`DropRule`]s, the seeded [`ProtoMutation`] (if any) is threaded
//! into [`GmParams`], and the delivery outcome is read back through the
//! flow-lineage machinery ([`FlowGraph`] over `FLOW_DELIVERY` records) so
//! model and implementation verdicts compare member-by-member.

use std::collections::BTreeSet;

use gm::{flow_tag, GmParams};
use gm_proto::ProtoMutation;
use gm_sim::{FlowGraph, ProbeConfig};
use myrinet::{DropRule, FaultPlan, NodeId, MTU};

use crate::scenario::Scenario;
use crate::tree::TreeShape;
use crate::workloads::AckMode;

/// One targeted drop from a checker trace: the first wire transmission of
/// the multicast data packet `seq` on the tree edge `src -> dst` is lost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayDrop {
    /// Transmitting node.
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// Multicast sequence number of the dropped packet.
    pub seq: u64,
}

/// A checker trace distilled to what the simulator needs to reproduce it.
#[derive(Clone, Debug)]
pub struct ReplaySpec {
    /// Cluster size; node 0 is the multicast root, the tree is
    /// [`TreeShape::Binomial`] over ids `1..nodes` (the checker models the
    /// same shape).
    pub nodes: u32,
    /// Message length in packets; the message is `packets * MTU` bytes so
    /// the simulator fragments it into exactly this many wire packets.
    pub packets: u32,
    /// The deliberately seeded protocol bug, [`ProtoMutation::None`] for a
    /// faithful run.
    pub mutation: ProtoMutation,
    /// Targeted first-transmission drops, in trace order.
    pub drops: Vec<ReplayDrop>,
}

/// What one replayed run did, in the same vocabulary the checker uses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Members whose application received the message (a `FLOW_DELIVERY`
    /// record exists for the flow `(root, tag, member)`).
    pub delivered: BTreeSet<u32>,
    /// Whether the root's `SendDone` completion notice arrived (every child
    /// acknowledged every packet).
    pub send_done: bool,
    /// Multicast retransmissions summed over all NICs.
    pub retransmissions: u64,
}

/// Execute one checker trace through the full simulator.
///
/// The run uses one timed iteration with [`AckMode::NicAck`] (the iteration
/// ends when the root's NIC reports full acknowledgment), so a protocol bug
/// that kills retransmission shows up as `send_done == false` and a missing
/// member in `delivered` — exactly the shape of the checker's verdict.
pub fn replay(spec: &ReplaySpec) -> ReplayOutcome {
    let rules = spec
        .drops
        .iter()
        .map(|d| DropRule {
            src: Some(NodeId(d.src)),
            dst: Some(NodeId(d.dst)),
            mcast: Some(true),
            data: Some(true),
            seq: Some(d.seq),
            count: 1,
        })
        .collect();
    let params = GmParams {
        mutation: spec.mutation,
        ..GmParams::default()
    };
    let report = Scenario::nic_based(spec.nodes)
        .size(spec.packets as usize * MTU)
        .tree(TreeShape::Binomial)
        .warmup(0)
        .iters(1)
        .allow_incomplete()
        .ack(AckMode::NicAck)
        .faults(FaultPlan {
            rules,
            ..FaultPlan::none()
        })
        .params(params)
        .probes(ProbeConfig::spans())
        .run();
    // Delivery verdict via causal lineage: the workload tags iteration 0
    // with tag 0, and each member's copy is the flow (root=0, tag, member).
    let tag = flow_tag(0);
    let graph = FlowGraph::build(report.probe.as_slice());
    let delivered: BTreeSet<u32> = graph
        .delivered()
        .into_iter()
        .filter(|f| f.origin() == 0 && f.tag() == tag)
        .map(gm_sim::FlowId::dest)
        .collect();
    ReplayOutcome {
        delivered,
        send_done: report.latency.count() == 1,
        retransmissions: report.retransmissions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_replay_delivers_everywhere() {
        let out = replay(&ReplaySpec {
            nodes: 3,
            packets: 2,
            mutation: ProtoMutation::None,
            drops: vec![],
        });
        assert_eq!(out.delivered, BTreeSet::from([1, 2]));
        assert!(out.send_done);
        assert_eq!(out.retransmissions, 0);
    }

    #[test]
    fn targeted_drop_is_recovered_by_retransmission() {
        let out = replay(&ReplaySpec {
            nodes: 3,
            packets: 2,
            mutation: ProtoMutation::None,
            drops: vec![ReplayDrop {
                src: 0,
                dst: 1,
                seq: 1,
            }],
        });
        assert_eq!(out.delivered, BTreeSet::from([1, 2]));
        assert!(out.send_done);
        assert!(out.retransmissions > 0, "the drop must cost a retransmission");
    }
}
