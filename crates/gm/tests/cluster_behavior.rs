//! Cluster-level behaviours: host-CPU serialization of notice delivery,
//! client-side send parking under token exhaustion, and protocol tracing.

use gm::{drive, probes, Cluster, GmParams, HostApp, HostCtx, Never, NoExt, Notice};
use gm_sim::probe::{Phase, ProbeConfig, ProbeEvent, ProbeId};
use gm_sim::{SimDuration, SimTime};
use myrinet::{Fabric, NodeId, Payload, PortId, Topology};

const P0: PortId = PortId(0);

#[test]
fn notices_wait_for_a_busy_host() {
    // The receiver computes for 500us immediately; a message arriving at
    // ~6us must only be delivered when the CPU frees up.
    struct BusyReceiver {
        delivered_at: SimTime,
    }
    impl HostApp<NoExt> for BusyReceiver {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
            ctx.provide_recv(P0, 1);
            ctx.compute(SimDuration::from_micros(500), 1);
        }
        fn on_notice(&mut self, n: Notice<Never>, ctx: &mut HostCtx<'_, NoExt>) {
            if let Notice::Recv { .. } = n {
                self.delivered_at = ctx.now();
            }
        }
    }
    struct Sender;
    impl HostApp<NoExt> for Sender {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
            ctx.send(NodeId(1), P0, P0, Payload::new(0, 2), 0);
        }
        fn on_notice(&mut self, _: Notice<Never>, _: &mut HostCtx<'_, NoExt>) {}
    }
    let mut c = Cluster::new(
        GmParams::default(),
        Fabric::new(Topology::for_nodes(2), 1),
        |_| NoExt,
    );
    c.set_app(NodeId(0), Box::new(Sender));
    c.set_app(
        NodeId(1),
        Box::new(BusyReceiver {
            delivered_at: SimTime::ZERO,
        }),
    );
    let at = drive(c, 1).app::<BusyReceiver>(NodeId(1)).delivered_at;
    assert!(
        at >= SimTime::ZERO + SimDuration::from_micros(500),
        "notice delivered at {at} while the host was computing"
    );
    // ...but immediately after, not much later.
    assert!(at < SimTime::ZERO + SimDuration::from_micros(510));
}

#[test]
fn sends_park_when_tokens_run_out_and_replay_in_order() {
    // A sender bursts far more messages than it has send tokens while the
    // receiver acks slowly enough that tokens cannot recycle instantly.
    let params = GmParams {
        send_tokens: 3,
        ..GmParams::default()
    };
    const MSGS: u64 = 20;

    struct Burst;
    impl HostApp<NoExt> for Burst {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
            for i in 0..MSGS {
                ctx.send(NodeId(1), P0, P0, Payload::new(i as u32, 2000), i);
            }
        }
        fn on_notice(&mut self, _: Notice<Never>, _: &mut HostCtx<'_, NoExt>) {}
    }
    struct Sink {
        got: Vec<u64>,
    }
    impl HostApp<NoExt> for Sink {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
            ctx.provide_recv(P0, MSGS as usize);
        }
        fn on_notice(&mut self, n: Notice<Never>, ctx: &mut HostCtx<'_, NoExt>) {
            if let Notice::Recv { tag, .. } = n {
                ctx.provide_recv(P0, 1);
                self.got.push(tag);
            }
        }
    }
    let mut c = Cluster::new(params, Fabric::new(Topology::for_nodes(2), 2), |_| NoExt);
    c.set_app(NodeId(0), Box::new(Burst));
    c.set_app(NodeId(1), Box::new(Sink { got: Vec::new() }));
    let d = drive(c, 1);
    assert_eq!(
        d.app::<Sink>(NodeId(1)).got,
        (0..MSGS).collect::<Vec<u64>>(),
        "parked sends must replay in post order"
    );
    // The pool really was exhausted at some point.
    assert!(d.worlds[0].nic(NodeId(0)).counters.get("acked_packets") >= MSGS);
}

#[test]
fn trace_captures_the_full_protocol_pipeline() {
    struct Sender;
    impl HostApp<NoExt> for Sender {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
            ctx.send(NodeId(1), P0, P0, Payload::new(0, 6), 0);
        }
        fn on_notice(&mut self, _: Notice<Never>, _: &mut HostCtx<'_, NoExt>) {}
    }
    struct Receiver;
    impl HostApp<NoExt> for Receiver {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
            ctx.provide_recv(P0, 1);
        }
        fn on_notice(&mut self, _: Notice<Never>, _: &mut HostCtx<'_, NoExt>) {}
    }
    let mut c = Cluster::new(
        GmParams::default(),
        Fabric::new(Topology::for_nodes(2), 3),
        |_| NoExt,
    );
    c.set_app(NodeId(0), Box::new(Sender));
    c.set_app(NodeId(1), Box::new(Receiver));
    c.set_probes(ProbeConfig::spans());
    let events: Vec<ProbeEvent> = drive(c, 1).worlds[0].probe.iter().copied().collect();
    // The pipeline appears in causal order on the sender...
    let idx = |node: u32, pred: &dyn Fn(&ProbeEvent) -> bool| {
        events.iter().position(|e| e.node() == node && pred(e))
    };
    let span_begin = |id: &'static ProbeId, label: &'static str| {
        move |e: &ProbeEvent| e.id() == id && e.phase() == Phase::Begin && e.label() == label
    };
    let host_call = idx(0, &|e| {
        *e.id() == probes::HOST_CALL && e.phase() == Phase::Mark && e.label() == "send"
    })
    .expect("host call");
    let lanai = idx(0, &span_begin(&probes::LANAI, "send_token")).expect("lanai");
    let dma = idx(0, &span_begin(&probes::PCI_DMA, "dma")).expect("sdma");
    let tx = idx(0, &span_begin(&probes::WIRE_TX, "tx")).expect("tx");
    assert!(host_call < lanai && lanai < dma && dma < tx);
    // ...and the receiver sees arrival, then its own notice.
    let rx = idx(1, &|e| {
        *e.id() == probes::RX_ARRIVE && e.phase() == Phase::Mark
    })
    .expect("rx");
    let notice = idx(1, &|e| {
        *e.id() == probes::NOTICE && e.phase() == Phase::Mark && e.label() == "recv"
    })
    .expect("notice");
    assert!(rx < notice);
    // A shard records as its clock runs, so its buffer is in time order:
    // the canonical merge relies on it.
    assert!(events.is_sorted_by_key(ProbeEvent::time));
}

#[test]
fn staggered_app_starts_are_honoured() {
    struct Stamp {
        at: SimTime,
    }
    impl HostApp<NoExt> for Stamp {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
            self.at = ctx.now();
        }
        fn on_notice(&mut self, _: Notice<Never>, _: &mut HostCtx<'_, NoExt>) {}
    }
    let mut c = Cluster::new(
        GmParams::default(),
        Fabric::new(Topology::for_nodes(3), 4),
        |_| NoExt,
    );
    for i in 0..3 {
        c.set_app(NodeId(i), Box::new(Stamp { at: SimTime::ZERO }));
        c.set_start(NodeId(i), SimTime::from_nanos(1_000 * u64::from(i)));
    }
    let d = drive(c, 1);
    for i in 0..3 {
        assert_eq!(
            d.app::<Stamp>(NodeId(i)).at.as_nanos(),
            1_000 * u64::from(i)
        );
    }
}
