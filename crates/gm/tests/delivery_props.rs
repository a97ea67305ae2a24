//! Property-based tests of GM's reliable ordered delivery: arbitrary
//! message schedules under arbitrary loss rates must arrive exactly once,
//! in order, each the very message sent.

use gm::{drive, Cluster, GmParams, HostApp, HostCtx, Never, NoExt, Notice};
use myrinet::{Fabric, FaultPlan, NetParams, NodeId, Payload, PortId, Topology};
use proptest::prelude::*;

const P0: PortId = PortId(0);

#[derive(Clone, Debug)]
struct Msg {
    dst: u32,
    len: usize,
}

fn msgs_strategy() -> impl Strategy<Value = Vec<Msg>> {
    proptest::collection::vec(
        (1u32..4, 0usize..10_000).prop_map(|(dst, len)| Msg { dst, len }),
        1..25,
    )
}

/// The message posted `i`th: its index is its identity.
fn payload(i: usize, m: &Msg) -> Payload {
    Payload::new(i as u32, m.len)
}

struct Blaster {
    msgs: Vec<Msg>,
}

impl HostApp<NoExt> for Blaster {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
        for (i, m) in self.msgs.iter().enumerate() {
            ctx.send(NodeId(m.dst), P0, P0, payload(i, m), i as u64);
        }
    }
    fn on_notice(&mut self, _: Notice<Never>, _: &mut HostCtx<'_, NoExt>) {}
}

struct Sink {
    /// Messages received: (tag, data).
    log: Vec<(u64, Payload)>,
}

impl HostApp<NoExt> for Sink {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
        ctx.provide_recv(P0, 64);
    }
    fn on_notice(&mut self, n: Notice<Never>, ctx: &mut HostCtx<'_, NoExt>) {
        if let Notice::Recv { tag, data, .. } = n {
            ctx.provide_recv(P0, 1);
            self.log.push((tag, data));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_schedules_survive_arbitrary_loss(
        msgs in msgs_strategy(),
        loss in 0.0f64..0.25,
        seed in any::<u64>(),
    ) {
        let fabric = Fabric::with_config(
            Topology::for_nodes(4),
            NetParams::default(),
            FaultPlan::with_loss(loss),
            seed,
        );
        let mut cluster = Cluster::new(GmParams::default(), fabric, |_| NoExt);
        cluster.set_app(NodeId(0), Box::new(Blaster { msgs: msgs.clone() }));
        for d in 1..4u32 {
            cluster.set_app(NodeId(d), Box::new(Sink { log: Vec::new() }));
        }
        let mut eng = cluster.into_engine(1);
        let outcome = eng.run(gm_sim::SimTime::MAX, 50_000_000);
        prop_assert_eq!(outcome, gm_sim::RunOutcome::Idle, "stuck under loss");

        // Per destination: exactly the messages addressed to it, in post
        // order, each the message sent.
        for dst in 1..4u32 {
            let expect: Vec<(u64, &Msg)> = msgs
                .iter()
                .enumerate()
                .filter(|(_, m)| m.dst == dst)
                .map(|(i, m)| (i as u64, m))
                .collect();
            let got = &eng.world(0).app::<Sink>(NodeId(dst)).log;
            prop_assert_eq!(got.len(), expect.len(), "count at dst {}", dst);
            for ((tag, data), (etag, em)) in got.iter().zip(&expect) {
                prop_assert_eq!(tag, etag, "order at dst {}", dst);
                prop_assert_eq!(*data, payload(*etag as usize, em), "payload integrity");
            }
        }
    }

    #[test]
    fn delivery_time_is_deterministic_in_the_seed(
        msgs in msgs_strategy(),
        loss in 0.0f64..0.1,
        seed in any::<u64>(),
    ) {
        let run = || {
            let fabric = Fabric::with_config(
                Topology::for_nodes(4),
                NetParams::default(),
                FaultPlan::with_loss(loss),
                seed,
            );
            let mut cluster = Cluster::new(GmParams::default(), fabric, |_| NoExt);
            cluster.set_app(NodeId(0), Box::new(Blaster { msgs: msgs.clone() }));
            for d in 1..4u32 {
                cluster.set_app(NodeId(d), Box::new(Sink { log: Vec::new() }));
            }
            let d = drive(cluster, 1);
            (d.end, d.events)
        };
        prop_assert_eq!(run(), run());
    }
}
