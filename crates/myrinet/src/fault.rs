//! Fault injection: the paper's reliability mechanisms (acks, timeout,
//! retransmission) only matter because "bit error-rates are low in modern
//! networks, [but] they are not zero". This module lets tests and ablations
//! drop or corrupt packets, either probabilistically or by targeted rule.

use crate::packet::{NodeId, Packet};

/// Why a packet never reached its destination.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// Random loss (bit-error model).
    Random,
    /// Matched a targeted drop rule.
    Rule(usize),
    /// CRC corruption: delivered but discarded by the receiving NIC.
    Corrupt,
}

/// Selects packets for a targeted drop.
#[derive(Clone, Debug, Default)]
pub struct DropRule {
    /// Only packets injected by this node.
    pub src: Option<NodeId>,
    /// Only packets destined to this node.
    pub dst: Option<NodeId>,
    /// Only multicast (true) or only unicast (false) protocol packets.
    pub mcast: Option<bool>,
    /// Only data-bearing (true) or only control (false) packets.
    pub data: Option<bool>,
    /// Only packets with this sequence number.
    pub seq: Option<u64>,
    /// How many matching packets to drop (decremented; 0 = exhausted).
    pub count: u32,
}

impl DropRule {
    /// Drop the next `count` data packets from `src` to `dst`.
    pub fn data_between(src: NodeId, dst: NodeId, count: u32) -> DropRule {
        DropRule {
            src: Some(src),
            dst: Some(dst),
            data: Some(true),
            count,
            ..DropRule::default()
        }
    }

    fn matches(&self, pkt: &Packet) -> bool {
        self.count > 0
            && self.src.is_none_or(|s| s == pkt.src)
            && self.dst.is_none_or(|d| d == pkt.dst)
            && self.mcast.is_none_or(|m| m == pkt.kind.is_mcast())
            && self.data.is_none_or(|d| d == pkt.kind.is_data())
            && self.seq.is_none_or(|q| q == pkt.kind.seq())
    }
}

/// The full fault configuration for a run.
///
/// ```
/// use myrinet::{DropRule, FaultPlan, NodeId};
///
/// // 1% random loss plus a targeted burst: drop the next three data
/// // packets headed for node 5.
/// let plan = FaultPlan {
///     drop_prob: 0.01,
///     corrupt_prob: 0.0,
///     rules: vec![DropRule {
///         dst: Some(NodeId(5)),
///         data: Some(true),
///         count: 3,
///         ..DropRule::default()
///     }],
/// };
/// assert_eq!(plan.rules.len(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Probability each packet is lost in transit.
    pub drop_prob: f64,
    /// Probability each packet arrives corrupted (receiver discards it).
    pub corrupt_prob: f64,
    /// Targeted one-shot drop rules, checked in order.
    pub rules: Vec<DropRule>,
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Uniform random loss with probability `p`.
    pub fn with_loss(p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p));
        FaultPlan {
            drop_prob: p,
            ..FaultPlan::default()
        }
    }

    /// Decide this packet's fate. `unit_draw` is a fresh U[0,1) sample used
    /// for both probabilistic checks (split into disjoint subintervals so a
    /// single draw keeps the RNG stream consumption packet-count-stable).
    pub fn check(&mut self, pkt: &Packet, unit_draw: f64) -> Option<DropReason> {
        for (i, rule) in self.rules.iter_mut().enumerate() {
            if rule.matches(pkt) {
                rule.count -= 1;
                return Some(DropReason::Rule(i));
            }
        }
        if unit_draw < self.drop_prob {
            return Some(DropReason::Random);
        }
        if unit_draw < self.drop_prob + self.corrupt_prob {
            return Some(DropReason::Corrupt);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{PacketKind, Payload, PortId};

    fn data_pkt(src: u32, dst: u32, seq: u64) -> Packet {
        Packet {
            src: NodeId(src),
            dst: NodeId(dst),
            kind: PacketKind::Data {
                port: PortId(0),
                src_port: PortId(0),
                seq,
                offset: 0,
                tag: 0,
            },
            payload: Payload::new(0, 4),
            len: 4,
        }
    }

    #[test]
    fn no_faults_passes_everything() {
        let mut plan = FaultPlan::none();
        assert_eq!(plan.check(&data_pkt(0, 1, 0), 0.0), None);
    }

    #[test]
    fn probabilistic_drop_uses_draw() {
        let mut plan = FaultPlan::with_loss(0.1);
        assert_eq!(
            plan.check(&data_pkt(0, 1, 0), 0.05),
            Some(DropReason::Random)
        );
        assert_eq!(plan.check(&data_pkt(0, 1, 0), 0.15), None);
    }

    #[test]
    fn corrupt_band_above_drop_band() {
        let mut plan = FaultPlan {
            drop_prob: 0.1,
            corrupt_prob: 0.1,
            rules: vec![],
        };
        assert_eq!(
            plan.check(&data_pkt(0, 1, 0), 0.05),
            Some(DropReason::Random)
        );
        assert_eq!(
            plan.check(&data_pkt(0, 1, 0), 0.15),
            Some(DropReason::Corrupt)
        );
        assert_eq!(plan.check(&data_pkt(0, 1, 0), 0.25), None);
    }

    #[test]
    fn rule_counts_down_and_expires() {
        let mut plan = FaultPlan {
            rules: vec![DropRule::data_between(NodeId(0), NodeId(1), 2)],
            ..FaultPlan::default()
        };
        assert_eq!(
            plan.check(&data_pkt(0, 1, 0), 0.9),
            Some(DropReason::Rule(0))
        );
        assert_eq!(
            plan.check(&data_pkt(0, 1, 1), 0.9),
            Some(DropReason::Rule(0))
        );
        assert_eq!(plan.check(&data_pkt(0, 1, 2), 0.9), None);
    }

    #[test]
    fn rule_filters_by_fields() {
        let mut plan = FaultPlan {
            rules: vec![DropRule {
                seq: Some(7),
                mcast: Some(false),
                count: 10,
                ..DropRule::default()
            }],
            ..FaultPlan::default()
        };
        assert_eq!(plan.check(&data_pkt(3, 4, 6), 0.9), None);
        assert_eq!(
            plan.check(&data_pkt(3, 4, 7), 0.9),
            Some(DropReason::Rule(0))
        );
        // Ack with seq 7 is not data but matches mcast=false and seq.
        let ack = Packet::ack(NodeId(0), NodeId(1), PortId(0), 7);
        assert_eq!(plan.check(&ack, 0.9), Some(DropReason::Rule(0)));
    }
}
