//! The paper's §6.1 claim as a test: "Our modification to GM was done by
//! leaving the code for other types of communications mostly unchanged. The
//! evaluation indicated that it has no noticeable impact on the performance
//! of non-multicast communications."
//!
//! We run identical unicast workloads on the unmodified firmware (`NoExt`)
//! and with the multicast extension installed (idle group present) and
//! require the timelines to be bit-identical.

use bytes::Bytes;
use myri_mcast::gm::{drive, Cluster, GmParams, HostApp, HostCtx, NicExtension, NoExt, Notice};
use myri_mcast::mcast::{McastExt, McastRequest};
use myri_mcast::net::{Fabric, GroupId, NodeId, PortId, Topology};
use myri_mcast::sim::SimTime;

const P0: PortId = PortId(0);

struct Pinger {
    size: usize,
    remaining: u32,
    /// When each reply arrived.
    times: Vec<SimTime>,
}

impl<X: NicExtension> HostApp<X> for Pinger {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, X>) {
        ctx.provide_recv(P0, 2);
        ctx.send(NodeId(1), P0, P0, Bytes::from(vec![0; self.size]), 0);
    }
    fn on_notice(&mut self, n: Notice<X::Notice>, ctx: &mut HostCtx<'_, X>) {
        if let Notice::Recv { .. } = n {
            self.times.push(ctx.now());
            self.remaining -= 1;
            ctx.provide_recv(P0, 1);
            if self.remaining > 0 {
                ctx.send(NodeId(1), P0, P0, Bytes::from(vec![0; self.size]), 0);
            }
        }
    }
}

struct Echo {
    size: usize,
}

impl<X: NicExtension> HostApp<X> for Echo {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, X>) {
        ctx.provide_recv(P0, 2);
    }
    fn on_notice(&mut self, n: Notice<X::Notice>, ctx: &mut HostCtx<'_, X>) {
        if let Notice::Recv { .. } = n {
            ctx.provide_recv(P0, 1);
            ctx.send(NodeId(0), P0, P0, Bytes::from(vec![0; self.size]), 0);
        }
    }
}

/// Wraps the pinger and additionally installs an idle multicast group.
struct PingerWithGroup(Pinger);

impl HostApp<McastExt> for PingerWithGroup {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        ctx.ext(McastRequest::CreateGroup {
            group: GroupId(1),
            port: P0,
            root: NodeId(0),
            parent: None,
            children: vec![NodeId(1)],
        });
        HostApp::<McastExt>::on_start(&mut self.0, ctx);
    }
    fn on_notice(
        &mut self,
        n: Notice<<McastExt as NicExtension>::Notice>,
        ctx: &mut HostCtx<'_, McastExt>,
    ) {
        self.0.on_notice(n, ctx);
    }
}

#[test]
fn idle_multicast_firmware_leaves_unicast_timelines_bit_identical() {
    for size in [1usize, 512, 4096, 16384] {
        let baseline = {
            let mut c = Cluster::new(
                GmParams::default(),
                Fabric::new(Topology::for_nodes(2), 1),
                |_| NoExt,
            );
            c.set_app(
                NodeId(0),
                Box::new(Pinger {
                    size,
                    remaining: 25,
                    times: Vec::new(),
                }),
            );
            c.set_app(NodeId(1), Box::new(Echo { size }));
            drive(c, 1).app::<Pinger>(NodeId(0)).times.clone()
        };
        let with_ext = {
            let mut c = Cluster::new(
                GmParams::default(),
                Fabric::new(Topology::for_nodes(2), 1),
                |_| McastExt::new(),
            );
            c.set_app(
                NodeId(0),
                Box::new(PingerWithGroup(Pinger {
                    size,
                    remaining: 25,
                    times: Vec::new(),
                })),
            );
            c.set_app(NodeId(1), Box::new(Echo { size }));
            let run = drive(c, 1);
            run.app::<PingerWithGroup>(NodeId(0)).0.times.clone()
        };
        assert_eq!(baseline.len(), 25);
        // Group installation happens concurrently with the first ping, so
        // the first RTT may shift by the (sub-microsecond) host post; every
        // steady-state round trip must be bit-identical.
        let base_gaps: Vec<_> = baseline.windows(2).map(|w| w[1] - w[0]).collect();
        let ext_gaps: Vec<_> = with_ext.windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(
            base_gaps, ext_gaps,
            "size {size}: multicast firmware perturbed unicast timing"
        );
    }
}
