//! Protection: one of the paper's Figure 1 axes. GM gives each process its
//! own port with private receive credits; traffic addressed to one port can
//! never consume another port's resources or be delivered to it.

use bytes::Bytes;
use gm::{drive, Cluster, GmParams, HostApp, HostCtx, Never, NoExt, Notice};
use myrinet::{Fabric, NodeId, PortId, Topology};

const PA: PortId = PortId(0);
const PB: PortId = PortId(1);

/// Deliveries a receiver saw: (port, tag).
type Log = Vec<(PortId, u64)>;

/// Hosts two logical endpoints: credits only on port A.
struct TwoPortHost {
    log: Log,
}

impl HostApp<NoExt> for TwoPortHost {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
        ctx.provide_recv(PA, 8);
        // Port B gets nothing: its traffic must not steal A's credits.
    }
    fn on_notice(&mut self, n: Notice<Never>, ctx: &mut HostCtx<'_, NoExt>) {
        if let Notice::Recv { port, tag, .. } = n {
            ctx.provide_recv(port, 1);
            self.log.push((port, tag));
        }
    }
}

struct DualSender;

impl HostApp<NoExt> for DualSender {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
        // Interleave traffic to both ports.
        for i in 0..6u64 {
            let port = if i % 2 == 0 { PA } else { PB };
            ctx.send(NodeId(1), port, port, Bytes::from(vec![i as u8; 100]), i);
        }
    }
    fn on_notice(&mut self, _: Notice<Never>, _: &mut HostCtx<'_, NoExt>) {}
}

#[test]
fn credits_are_per_port_and_traffic_never_crosses() {
    let mut c = Cluster::new(
        GmParams::default(),
        Fabric::new(Topology::for_nodes(2), 1),
        |_| NoExt,
    );
    c.set_app(NodeId(0), Box::new(DualSender));
    c.set_app(NodeId(1), Box::new(TwoPortHost { log: Log::new() }));
    let mut eng = c.into_engine(1);
    // Port B's messages will retry forever (no credits ever posted), so run
    // bounded and check what got through.
    eng.run_until(gm_sim::SimTime::from_nanos(100_000_000));
    let got = &eng.world(0).app::<TwoPortHost>(NodeId(1)).log;
    // All three port-A messages arrived, in order, despite interleaved
    // port-B traffic stalling.
    let a_tags: Vec<u64> = got.iter().filter(|(p, _)| *p == PA).map(|(_, t)| *t).collect();
    assert_eq!(a_tags, vec![0, 2, 4]);
    // Nothing was ever delivered on port B...
    assert!(got.iter().all(|(p, _)| *p == PA));
    // ...because its packets hit the per-port credit wall, not port A's.
    let drops = eng.world(0).nic(NodeId(1)).counters.get("rx_drop_no_token");
    assert!(drops > 0, "port B traffic must be refused, not delivered");
}

#[test]
fn connections_are_independent_per_port_pair() {
    // Sequence numbers on (port A) and (port B) connections are separate:
    // heavy traffic on one does not reorder or block the other.
    struct BothPorts {
        log: Log,
    }
    impl HostApp<NoExt> for BothPorts {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
            ctx.provide_recv(PA, 32);
            ctx.provide_recv(PB, 32);
        }
        fn on_notice(&mut self, n: Notice<Never>, ctx: &mut HostCtx<'_, NoExt>) {
            if let Notice::Recv { port, tag, .. } = n {
                ctx.provide_recv(port, 1);
                self.log.push((port, tag));
            }
        }
    }
    struct Mixed;
    impl HostApp<NoExt> for Mixed {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
            // A large message on port A, then small ones on port B: the B
            // messages overtake A's completion (ports do not serialize).
            ctx.send(NodeId(1), PA, PA, Bytes::from(vec![1u8; 60_000]), 100);
            for i in 0..4u64 {
                ctx.send(NodeId(1), PB, PB, Bytes::from(vec![2u8; 16]), i);
            }
        }
        fn on_notice(&mut self, _: Notice<Never>, _: &mut HostCtx<'_, NoExt>) {}
    }
    let mut c = Cluster::new(
        GmParams::default(),
        Fabric::new(Topology::for_nodes(2), 2),
        |_| NoExt,
    );
    c.set_app(NodeId(0), Box::new(Mixed));
    c.set_app(NodeId(1), Box::new(BothPorts { log: Log::new() }));
    let d = drive(c, 1);
    let got = &d.app::<BothPorts>(NodeId(1)).log;
    assert_eq!(got.len(), 5);
    let b_tags: Vec<u64> = got.iter().filter(|(p, _)| *p == PB).map(|(_, t)| *t).collect();
    assert_eq!(b_tags, vec![0, 1, 2, 3], "port B in order");
    // The port-B messages all landed before the 60 KB port-A message
    // finished (wire-interleaved packets, independent reassembly).
    let a_pos = got.iter().position(|(p, _)| *p == PA).expect("A arrived");
    assert!(a_pos >= 1, "some B message should beat the bulk A message");
}
