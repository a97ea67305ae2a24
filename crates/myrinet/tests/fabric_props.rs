//! Property-based tests of the fabric: route validity on arbitrary cluster
//! sizes, timing monotonicity, and loss accounting.

use gm_sim::{SimDuration, SimTime};
use myrinet::{
    Fabric, FaultPlan, LinkEnds, NetParams, NodeId, Packet, PacketKind, Payload, PortId, RxOutcome,
    Topology,
};
use proptest::prelude::*;

fn pkt(src: u32, dst: u32, len: usize) -> Packet {
    Packet {
        src: NodeId(src),
        dst: NodeId(dst),
        kind: PacketKind::Data {
            port: PortId(0),
            src_port: PortId(0),
            seq: 0,
            offset: 0,
            tag: 0,
        },
        payload: Payload::new(0, len),
        len: len as u32,
    }
}

/// Both stages of one transfer back to back, as an unsharded run does: the
/// packet's fate and tail arrival.
fn send(f: &mut Fabric, now: SimTime, p: &Packet) -> RxOutcome {
    let tx = f.tx_stage(now, p.clone());
    f.rx_stage(&tx.handoff)
}

proptest! {
    #[test]
    fn routes_chain_correctly_for_any_size(n in 2u32..=128, a in 0u32..128, b in 0u32..128) {
        let (a, b) = (a % n, b % n);
        prop_assume!(a != b);
        let topo = Topology::for_nodes(n);
        let route = topo.route(NodeId(a), NodeId(b));
        prop_assert!(!route.is_empty());
        // Endpoints chain: Inject(a, s0), [Inter...], Eject(sk, b).
        let mut prev = None;
        for (i, &l) in route.iter().enumerate() {
            match topo.link_ends(l) {
                LinkEnds::Inject(node, sw) => {
                    prop_assert_eq!(i, 0);
                    prop_assert_eq!(node, NodeId(a));
                    prev = Some(sw);
                }
                LinkEnds::Inter(from, to) => {
                    prop_assert_eq!(Some(from), prev);
                    prev = Some(to);
                }
                LinkEnds::Eject(sw, node) => {
                    prop_assert_eq!(i, route.len() - 1);
                    prop_assert_eq!(Some(sw), prev);
                    prop_assert_eq!(node, NodeId(b));
                }
            }
        }
    }

    #[test]
    fn latency_grows_with_size(n in 2u32..64, len_a in 0usize..8192, extra in 1usize..8192) {
        let topo = Topology::for_nodes(n);
        let t1 = {
            let mut f = Fabric::new(topo.clone(), 1);
            match send(&mut f, SimTime::ZERO, &pkt(0, n - 1, len_a)) {
                RxOutcome::Delivered { at } => at,
                _ => unreachable!("no faults"),
            }
        };
        let t2 = {
            let mut f = Fabric::new(topo, 1);
            match send(&mut f, SimTime::ZERO, &pkt(0, n - 1, len_a + extra)) {
                RxOutcome::Delivered { at } => at,
                _ => unreachable!("no faults"),
            }
        };
        prop_assert!(t2 > t1, "bigger packets must arrive later");
    }

    #[test]
    fn unloaded_latency_predicts_first_injection(n in 2u32..64, len in 0usize..16384) {
        let topo = Topology::for_nodes(n);
        let mut f = Fabric::new(topo, 9);
        let p = pkt(1 % n, n - 1, len);
        prop_assume!(p.src != p.dst);
        let hops = f.topology().route(p.src, p.dst).len();
        let predicted = f.unloaded_latency(hops, p.wire_bytes());
        match send(&mut f, SimTime::ZERO, &p) {
            RxOutcome::Delivered { at } => {
                prop_assert_eq!(at, SimTime::ZERO + predicted);
            }
            _ => unreachable!("no faults"),
        }
    }

    #[test]
    fn back_to_back_packets_serialize(n in 2u32..32, len in 1usize..4096, count in 2usize..10) {
        let topo = Topology::for_nodes(n);
        let mut f = Fabric::new(topo, 2);
        let mut last = SimTime::ZERO;
        let ser = f.serialization(&pkt(0, 1, len));
        for i in 0..count {
            match send(&mut f, SimTime::ZERO, &pkt(0, 1, len)) {
                RxOutcome::Delivered { at } => {
                    if i > 0 {
                        // Each subsequent packet arrives at least one
                        // serialization later than its predecessor.
                        prop_assert!(at >= last + ser);
                    }
                    last = at;
                }
                _ => unreachable!("no faults"),
            }
        }
    }

    #[test]
    fn loss_accounting_balances(loss in 0.0f64..0.5, count in 10usize..200) {
        let topo = Topology::for_nodes(2);
        let mut f = Fabric::with_config(topo, NetParams::default(), FaultPlan::with_loss(loss), 42);
        let mut t = SimTime::ZERO;
        let mut delivered = 0u64;
        for _ in 0..count {
            if matches!(send(&mut f, t, &pkt(0, 1, 100)), RxOutcome::Delivered { .. }) {
                delivered += 1;
            }
            t += SimDuration::from_micros(100);
        }
        let c = f.counters();
        prop_assert_eq!(c.get("delivered"), delivered);
        prop_assert_eq!(c.get("delivered") + c.get("dropped_random"), count as u64);
    }
}
