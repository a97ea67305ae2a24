//! The classic GM diagnostic, recreated: unicast half-round-trip latency
//! and streaming bandwidth for every message size (the original `gm_allsize`
//! shipped with Myricom's GM). Validates the substrate's calibration
//! against era numbers (LANai 9 / PCI64B: ~7 µs short-message latency,
//! bandwidth approaching the 250 MB/s wire limit).

use bench::{par_map, Table};
use gm::{Cluster, GmParams, HostApp, HostCtx, Never, NoExt, Notice};
use gm_sim::SimTime;
use myrinet::{Fabric, NodeId, Payload, PortId, Topology};
use serde::Serialize;

const P0: PortId = PortId(0);

/// Ping-pong: node 0 measures `iters` half round trips.
struct Pinger {
    size: usize,
    iters: u32,
    warmup: u32,
    count: u32,
    t0: SimTime,
    rtt_sum_us: f64,
}

impl HostApp<NoExt> for Pinger {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
        ctx.provide_recv(P0, 2);
        self.t0 = ctx.now();
        ctx.send(NodeId(1), P0, P0, Payload::new(0, self.size), 0);
    }
    fn on_notice(&mut self, n: Notice<Never>, ctx: &mut HostCtx<'_, NoExt>) {
        if let Notice::Recv { .. } = n {
            if self.count >= self.warmup {
                self.rtt_sum_us += (ctx.now() - self.t0).as_micros_f64();
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

impl HostApp<NoExt> for Echo {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
        ctx.provide_recv(P0, 2);
    }
    fn on_notice(&mut self, n: Notice<Never>, ctx: &mut HostCtx<'_, NoExt>) {
        if let Notice::Recv { .. } = n {
            ctx.provide_recv(P0, 1);
            ctx.send(NodeId(0), P0, P0, Payload::new(0, self.size), 0);
        }
    }
}

/// Streaming: node 0 blasts `count` messages; bandwidth at the receiver.
struct Blaster {
    size: usize,
    count: u32,
}

impl HostApp<NoExt> for Blaster {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
        for i in 0..self.count {
            ctx.send(NodeId(1), P0, P0, Payload::new(0, self.size), i as u64);
        }
    }
    fn on_notice(&mut self, _: Notice<Never>, _: &mut HostCtx<'_, NoExt>) {}
}

struct Counter {
    expect: u32,
    got: u32,
    done_at: SimTime,
}

impl HostApp<NoExt> for Counter {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
        ctx.provide_recv(P0, self.expect as usize);
    }
    fn on_notice(&mut self, n: Notice<Never>, ctx: &mut HostCtx<'_, NoExt>) {
        if let Notice::Recv { .. } = n {
            self.got += 1;
            ctx.provide_recv(P0, 1);
            if self.got == self.expect {
                self.done_at = ctx.now();
            }
        }
    }
}

fn half_rtt_us(size: usize, iters: u32) -> f64 {
    let mut c = Cluster::new(
        GmParams::default(),
        Fabric::new(Topology::for_nodes(2), 1),
        |_| NoExt,
    );
    c.set_app(
        NodeId(0),
        Box::new(Pinger {
            size,
            iters,
            warmup: 5,
            count: 0,
            t0: SimTime::ZERO,
            rtt_sum_us: 0.0,
        }),
    );
    c.set_app(NodeId(1), Box::new(Echo { size }));
    let s = gm::drive(c, 1).app::<Pinger>(NodeId(0)).rtt_sum_us;
    s / iters as f64 / 2.0
}

fn bandwidth_mbs(size: usize, count: u32) -> f64 {
    let mut c = Cluster::new(
        GmParams::default(),
        Fabric::new(Topology::for_nodes(2), 1),
        |_| NoExt,
    );
    c.set_app(NodeId(0), Box::new(Blaster { size, count }));
    c.set_app(
        NodeId(1),
        Box::new(Counter {
            expect: count,
            got: 0,
            done_at: SimTime::ZERO,
        }),
    );
    let run = gm::drive(c, 1);
    let t = run.app::<Counter>(NodeId(1)).done_at.as_micros_f64();
    assert!(t > 0.0, "stream incomplete");
    (size as u64 * count as u64) as f64 / t
}

#[derive(Serialize)]
struct Point {
    size: usize,
    half_rtt_us: f64,
    bandwidth_mbs: f64,
}

fn main() {
    let sizes: Vec<usize> = (0..=17).map(|p| 1usize << p).collect(); // 1B..128KB
    let results: Vec<Point> = par_map(sizes, |&size| Point {
        size,
        half_rtt_us: half_rtt_us(size, 50),
        bandwidth_mbs: bandwidth_mbs(size, 60),
    });
    let mut t = Table::new(
        "gm_allsize: unicast latency and bandwidth (simulated GM-2)",
        &["size", "latency (us)", "bandwidth (MB/s)"],
    );
    for p in &results {
        t.row(vec![
            p.size.to_string(),
            format!("{:.2}", p.half_rtt_us),
            format!("{:.1}", p.bandwidth_mbs),
        ]);
    }
    t.print();
    println!(
        "\nCalibration targets: ~7 us short-message latency, large-message\n\
         bandwidth approaching the 250 MB/s Myrinet-2000 wire rate."
    );
    bench::write_json("gm_allsize", &results);
}
