//! Cluster-level behaviours: host-CPU serialization of notice delivery,
//! client-side send parking under token exhaustion, and protocol tracing.

use std::sync::Mutex;
use std::sync::Arc;

use bytes::Bytes;
use gm::{probes, Cluster, GmParams, HostApp, HostCtx, Never, NoExt, Notice};
use gm_sim::probe::{Phase, ProbeConfig, ProbeEvent, ProbeId};
use gm_sim::{SimDuration, SimTime};
use myrinet::{Fabric, NodeId, PortId, Topology};

const P0: PortId = PortId(0);

#[test]
fn notices_wait_for_a_busy_host() {
    // The receiver computes for 500us immediately; a message arriving at
    // ~6us must only be delivered when the CPU frees up.
    struct BusyReceiver {
        delivered_at: Arc<Mutex<SimTime>>,
    }
    impl HostApp<NoExt> for BusyReceiver {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
            ctx.provide_recv(P0, 1);
            ctx.compute(SimDuration::from_micros(500), 1);
        }
        fn on_notice(&mut self, n: Notice<Never>, ctx: &mut HostCtx<'_, NoExt>) {
            if let Notice::Recv { .. } = n {
                *self.delivered_at.lock().unwrap() = ctx.now();
            }
        }
    }
    struct Sender;
    impl HostApp<NoExt> for Sender {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
            ctx.send(NodeId(1), P0, P0, Bytes::from_static(b"hi"), 0);
        }
        fn on_notice(&mut self, _: Notice<Never>, _: &mut HostCtx<'_, NoExt>) {}
    }
    let delivered_at = Arc::new(Mutex::new(SimTime::ZERO));
    let mut c = Cluster::new(GmParams::default(), Fabric::new(Topology::for_nodes(2), 1), |_| NoExt);
    c.set_app(NodeId(0), Box::new(Sender));
    c.set_app(
        NodeId(1),
        Box::new(BusyReceiver {
            delivered_at: delivered_at.clone(),
        }),
    );
    c.into_engine(1).run_to_idle();
    let at = *delivered_at.lock().unwrap();
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
                ctx.send(NodeId(1), P0, P0, Bytes::from(vec![i as u8; 2000]), i);
            }
        }
        fn on_notice(&mut self, _: Notice<Never>, _: &mut HostCtx<'_, NoExt>) {}
    }
    struct Sink {
        got: Arc<Mutex<Vec<u64>>>,
    }
    impl HostApp<NoExt> for Sink {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
            ctx.provide_recv(P0, MSGS as usize);
        }
        fn on_notice(&mut self, n: Notice<Never>, ctx: &mut HostCtx<'_, NoExt>) {
            if let Notice::Recv { tag, .. } = n {
                ctx.provide_recv(P0, 1);
                self.got.lock().unwrap().push(tag);
            }
        }
    }
    let got = Arc::new(Mutex::new(Vec::new()));
    let mut c = Cluster::new(params, Fabric::new(Topology::for_nodes(2), 2), |_| NoExt);
    c.set_app(NodeId(0), Box::new(Burst));
    c.set_app(NodeId(1), Box::new(Sink { got: got.clone() }));
    let mut eng = c.into_engine(1);
    eng.run_to_idle();
    assert_eq!(
        *got.lock().unwrap(),
        (0..MSGS).collect::<Vec<u64>>(),
        "parked sends must replay in post order"
    );
    // The pool really was exhausted at some point.
    assert!(eng.world(0).nic(NodeId(0)).counters.get("acked_packets") >= MSGS);
}

#[test]
fn trace_captures_the_full_protocol_pipeline() {
    struct Sender;
    impl HostApp<NoExt> for Sender {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
            ctx.send(NodeId(1), P0, P0, Bytes::from_static(b"traced"), 0);
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
    let mut c = Cluster::new(GmParams::default(), Fabric::new(Topology::for_nodes(2), 3), |_| NoExt);
    c.set_app(NodeId(0), Box::new(Sender));
    c.set_app(NodeId(1), Box::new(Receiver));
    c.set_probes(ProbeConfig::spans());
    let mut eng = c.into_engine(1);
    eng.run_to_idle();
    let events: Vec<ProbeEvent> = eng.world(0).probe.iter().copied().collect();
    // The pipeline appears in causal order on the sender...
    let idx = |node: u32, pred: &dyn Fn(&ProbeEvent) -> bool| {
        events.iter().position(|e| e.node == node && pred(e))
    };
    let span_begin = |id: ProbeId, label: &'static str| {
        move |e: &ProbeEvent| e.id == id && e.phase == Phase::Begin && e.label == label
    };
    let host_call = idx(0, &|e| {
        e.id == probes::HOST_CALL && e.phase == Phase::Mark && e.label == "send"
    })
    .expect("host call");
    let lanai = idx(0, &span_begin(probes::LANAI, "send_token")).expect("lanai");
    let dma = idx(0, &span_begin(probes::PCI_DMA, "dma")).expect("sdma");
    let tx = idx(0, &span_begin(probes::WIRE_TX, "tx")).expect("tx");
    assert!(host_call < lanai && lanai < dma && dma < tx);
    // ...and the receiver sees arrival, then its own notice.
    let rx = idx(1, &|e| e.id == probes::RX_ARRIVE && e.phase == Phase::Mark).expect("rx");
    let notice = idx(1, &|e| {
        e.id == probes::NOTICE && e.phase == Phase::Mark && e.label == "recv"
    })
    .expect("notice");
    assert!(rx < notice);
    // Sequence numbers never regress (Complete spans open in the past, so
    // `time` alone is not monotone — `seq` is the deterministic order).
    for w in events.windows(2) {
        assert!(w[0].seq < w[1].seq);
    }
}

#[test]
fn staggered_app_starts_are_honoured() {
    struct Stamp {
        at: Arc<Mutex<SimTime>>,
    }
    impl HostApp<NoExt> for Stamp {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
            *self.at.lock().unwrap() = ctx.now();
        }
        fn on_notice(&mut self, _: Notice<Never>, _: &mut HostCtx<'_, NoExt>) {}
    }
    let stamps: Vec<Arc<Mutex<SimTime>>> = (0..3).map(|_| Arc::default()).collect();
    let mut c = Cluster::new(GmParams::default(), Fabric::new(Topology::for_nodes(3), 4), |_| NoExt);
    for (i, s) in stamps.iter().enumerate() {
        c.set_app(NodeId(i as u32), Box::new(Stamp { at: s.clone() }));
        c.set_start(NodeId(i as u32), SimTime::from_nanos(1_000 * i as u64));
    }
    c.into_engine(1).run_to_idle();
    for (i, s) in stamps.iter().enumerate() {
        assert_eq!(s.lock().unwrap().as_nanos(), 1_000 * i as u64);
    }
}
