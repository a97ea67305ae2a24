//! §6.1 claim: "Our modification to GM ... has no noticeable impact on the
//! performance of non-multicast communications."
//!
//! We measure unicast ping-pong latency and streaming bandwidth with the
//! unmodified firmware (`NoExt`) and with the multicast extension installed
//! (`McastExt`, groups present but idle) and print both.

use gm::{Cluster, GmParams, HostApp, HostCtx, NicExtension, NoExt, Notice};
use gm_sim::{OnlineStats, SimTime};
use myrinet::{Fabric, NodeId, Payload, PortId, Topology};
use nic_mcast::{McastExt, McastRequest};

const P0: PortId = PortId(0);

/// Ping-pong driver: node 0 sends, node 1 echoes, `iters` round trips.
struct Pinger {
    size: usize,
    iters: u32,
    warmup: u32,
    count: u32,
    t0: SimTime,
    rtt: OnlineStats,
}

impl<X: NicExtension> HostApp<X> for Pinger {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, X>) {
        ctx.provide_recv(P0, 2);
        self.t0 = ctx.now();
        ctx.send(NodeId(1), P0, P0, Payload::new(0, self.size), 0);
    }
    fn on_notice(&mut self, n: Notice<X::Notice>, ctx: &mut HostCtx<'_, X>) {
        if let Notice::Recv { .. } = n {
            if self.count >= self.warmup {
                self.rtt.record((ctx.now() - self.t0).as_micros_f64());
            }
            self.count += 1;
            ctx.provide_recv(P0, 1);
            if self.count < self.iters + self.warmup {
                self.t0 = ctx.now();
                ctx.send(NodeId(1), P0, P0, Payload::new(0, self.size), 0);
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
            ctx.send(NodeId(0), P0, P0, Payload::new(0, self.size), 0);
        }
    }
}

fn pingpong_noext(size: usize) -> f64 {
    let mut c = Cluster::new(
        GmParams::default(),
        Fabric::new(Topology::for_nodes(2), 1),
        |_| NoExt,
    );
    c.set_app(
        NodeId(0),
        Box::new(Pinger {
            size,
            iters: 50,
            warmup: 5,
            count: 0,
            t0: SimTime::ZERO,
            rtt: OnlineStats::new(),
        }),
    );
    c.set_app(NodeId(1), Box::new(Echo { size }));
    gm::drive(c, 1).app::<Pinger>(NodeId(0)).rtt.mean()
}

fn pingpong_mcast_installed(size: usize) -> f64 {
    let mut c = Cluster::new(
        GmParams::default(),
        Fabric::new(Topology::for_nodes(2), 1),
        |_| McastExt::new(),
    );
    /// Same pinger, but it also installs an (idle) multicast group first.
    struct PingerWithGroup(Pinger);
    impl HostApp<McastExt> for PingerWithGroup {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
            ctx.ext(McastRequest::CreateGroup {
                group: myrinet::GroupId(1),
                port: P0,
                root: NodeId(0),
                parent: None,
                children: vec![NodeId(1)],
            });
            HostApp::<McastExt>::on_start(&mut self.0, ctx);
        }
        fn on_notice(
            &mut self,
            n: Notice<nic_mcast::McastNotice>,
            ctx: &mut HostCtx<'_, McastExt>,
        ) {
            self.0.on_notice(n, ctx);
        }
    }
    c.set_app(
        NodeId(0),
        Box::new(PingerWithGroup(Pinger {
            size,
            iters: 50,
            warmup: 5,
            count: 0,
            t0: SimTime::ZERO,
            rtt: OnlineStats::new(),
        })),
    );
    c.set_app(NodeId(1), Box::new(Echo { size }));
    let run = gm::drive(c, 1);
    run.app::<PingerWithGroup>(NodeId(0)).0.rtt.mean()
}

fn main() {
    println!("== Unicast parity: unmodified GM vs GM with the multicast extension ==");
    println!(
        "{:>8}  {:>14}  {:>14}  {:>8}",
        "size", "NoExt RTT(us)", "McastExt RTT", "delta"
    );
    for size in [1usize, 64, 1024, 4096, 16384] {
        let a = pingpong_noext(size);
        let b = pingpong_mcast_installed(size);
        println!(
            "{size:>8}  {a:>14.3}  {b:>14.3}  {:>7.2}%",
            (b - a) / a * 100.0
        );
        assert!(
            ((b - a) / a).abs() < 0.005,
            "multicast extension must not perturb unicast performance"
        );
    }
    println!("\nNo noticeable impact, matching the paper's §6.1 claim.");
}
