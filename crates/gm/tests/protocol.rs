//! End-to-end tests of the base GM protocol: reliable ordered delivery over
//! the simulated fabric, with and without injected faults.

use std::sync::Mutex;
use std::sync::Arc;

use bytes::Bytes;
use gm::{Cluster, GmParams, HostApp, HostCtx, Never, NoExt, Notice};
use gm_sim::{SimDuration, SimTime};
use myrinet::{DropRule, Fabric, FaultPlan, NetParams, NodeId, PortId, Topology};

const P0: PortId = PortId(0);

/// Messages observed by a receiver: (src, tag, data).
type RecvLog = Arc<Mutex<Vec<(NodeId, u64, Bytes)>>>;
/// Completion tags observed by a sender.
type DoneLog = Arc<Mutex<Vec<u64>>>;

/// Sends a scripted list of messages back to back (next send posted when the
/// previous completes if `serial`, or all at once).
struct ScriptedSender {
    msgs: Vec<(NodeId, Bytes, u64)>,
    serial: bool,
    next: usize,
    done: DoneLog,
    done_at: Arc<Mutex<SimTime>>,
}

impl ScriptedSender {
    fn new(msgs: Vec<(NodeId, Bytes, u64)>, serial: bool, done: DoneLog) -> Self {
        ScriptedSender {
            msgs,
            serial,
            next: 0,
            done,
            done_at: Arc::new(Mutex::new(SimTime::ZERO)),
        }
    }
}

impl HostApp<NoExt> for ScriptedSender {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
        if self.serial {
            if let Some((dst, data, tag)) = self.msgs.first().cloned() {
                self.next = 1;
                ctx.send(dst, P0, P0, data, tag);
            }
        } else {
            for (dst, data, tag) in self.msgs.clone() {
                ctx.send(dst, P0, P0, data, tag);
            }
            self.next = self.msgs.len();
        }
    }

    fn on_notice(&mut self, n: Notice<Never>, ctx: &mut HostCtx<'_, NoExt>) {
        if let Notice::SendComplete { tag, .. } = n {
            self.done.lock().unwrap().push(tag);
            *self.done_at.lock().unwrap() = ctx.now();
            if self.serial && self.next < self.msgs.len() {
                let (dst, data, tag) = self.msgs[self.next].clone();
                self.next += 1;
                ctx.send(dst, P0, P0, data, tag);
            }
        }
    }
}

/// Provides `credits` receive buffers and records everything received.
struct Sink {
    credits: usize,
    log: RecvLog,
    last_at: Arc<Mutex<SimTime>>,
}

impl Sink {
    fn new(credits: usize, log: RecvLog) -> Self {
        Sink {
            credits,
            log,
            last_at: Arc::new(Mutex::new(SimTime::ZERO)),
        }
    }
}

impl HostApp<NoExt> for Sink {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
        ctx.provide_recv(P0, self.credits);
    }

    fn on_notice(&mut self, n: Notice<Never>, ctx: &mut HostCtx<'_, NoExt>) {
        if let Notice::Recv { src, tag, data, .. } = n {
            self.log.lock().unwrap().push((src, tag, data));
            *self.last_at.lock().unwrap() = ctx.now();
        }
    }
}

fn cluster(n: u32, faults: FaultPlan, seed: u64) -> Cluster<NoExt> {
    let fabric = Fabric::with_config(Topology::for_nodes(n), NetParams::default(), faults, seed);
    Cluster::new(GmParams::default(), fabric, |_| NoExt)
}

fn payload(len: usize, fill: u8) -> Bytes {
    Bytes::from(vec![fill; len])
}

#[test]
fn single_small_message_latency_is_era_plausible() {
    let mut c = cluster(2, FaultPlan::none(), 1);
    let recv: RecvLog = Arc::default();
    let done: DoneLog = Arc::default();
    c.set_app(
        NodeId(0),
        Box::new(ScriptedSender::new(
            vec![(NodeId(1), payload(8, 0xAB), 1)],
            true,
            done,
        )),
    );
    let sink = Sink::new(1, recv.clone());
    let recv_at = sink.last_at.clone();
    c.set_app(NodeId(1), Box::new(sink));
    let mut eng = c.into_engine(1);
    eng.run_to_idle();
    let log = recv.lock().unwrap();
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].2, payload(8, 0xAB));
    // One-way latency must land in GM-2's era ballpark: 4..12 us.
    let us = recv_at.lock().unwrap().as_micros_f64();
    assert!((4.0..12.0).contains(&us), "one-way latency was {us} us");
}

#[test]
fn multi_packet_message_reassembles() {
    // 3.5 packets worth of data with distinguishable content.
    let data: Vec<u8> = (0..14_336u32).map(|i| (i % 251) as u8).collect();
    let data = Bytes::from(data);
    let mut c = cluster(2, FaultPlan::none(), 2);
    let recv: RecvLog = Arc::default();
    c.set_app(
        NodeId(0),
        Box::new(ScriptedSender::new(
            vec![(NodeId(1), data.clone(), 9)],
            true,
            Arc::default(),
        )),
    );
    c.set_app(
        NodeId(1),
        Box::new(Sink::new(1, recv.clone())),
    );
    c.into_engine(1).run_to_idle();
    let log = recv.lock().unwrap();
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].1, 9);
    assert_eq!(log[0].2, data, "reassembled payload must match exactly");
}

#[test]
fn zero_length_message_is_delivered() {
    let mut c = cluster(2, FaultPlan::none(), 3);
    let recv: RecvLog = Arc::default();
    c.set_app(
        NodeId(0),
        Box::new(ScriptedSender::new(
            vec![(NodeId(1), Bytes::new(), 4)],
            true,
            Arc::default(),
        )),
    );
    c.set_app(
        NodeId(1),
        Box::new(Sink::new(1, recv.clone())),
    );
    c.into_engine(1).run_to_idle();
    let log = recv.lock().unwrap();
    assert_eq!(log.len(), 1);
    assert!(log[0].2.is_empty());
}

#[test]
fn messages_on_one_connection_arrive_in_order() {
    let msgs: Vec<(NodeId, Bytes, u64)> = (0..20)
        .map(|i| (NodeId(1), payload(100 + i as usize * 37, i as u8), i))
        .collect();
    let mut c = cluster(2, FaultPlan::none(), 4);
    let recv: RecvLog = Arc::default();
    let done: DoneLog = Arc::default();
    c.set_app(
        NodeId(0),
        Box::new(ScriptedSender::new(msgs, false, done.clone())),
    );
    c.set_app(
        NodeId(1),
        Box::new(Sink::new(20, recv.clone())),
    );
    c.into_engine(1).run_to_idle();
    let log = recv.lock().unwrap();
    assert_eq!(log.len(), 20);
    for (i, (_, tag, data)) in log.iter().enumerate() {
        assert_eq!(*tag, i as u64, "messages must arrive in post order");
        assert_eq!(data.len(), 100 + i * 37);
    }
    assert_eq!(done.lock().unwrap().len(), 20);
}

#[test]
fn lost_data_packet_is_retransmitted() {
    let faults = FaultPlan {
        rules: vec![DropRule::data_between(NodeId(0), NodeId(1), 1)],
        ..FaultPlan::default()
    };
    let mut c = cluster(2, faults, 5);
    let recv: RecvLog = Arc::default();
    c.set_app(
        NodeId(0),
        Box::new(ScriptedSender::new(
            vec![(NodeId(1), payload(64, 1), 1)],
            true,
            Arc::default(),
        )),
    );
    c.set_app(
        NodeId(1),
        Box::new(Sink::new(1, recv.clone())),
    );
    let mut eng = c.into_engine(1);
    eng.run_to_idle();
    assert_eq!(recv.lock().unwrap().len(), 1, "message survives the drop");
    // Recovery needed at least one timeout period.
    assert!(eng.now() > SimTime::ZERO + GmParams::default().timeout);
    assert!(eng.world(0).nic(NodeId(0)).counters.get("retransmissions") >= 1);
}

#[test]
fn lost_ack_is_recovered_without_duplicate_delivery() {
    let faults = FaultPlan {
        rules: vec![myrinet::DropRule {
            src: Some(NodeId(1)),
            dst: Some(NodeId(0)),
            data: Some(false),
            count: 1,
            ..myrinet::DropRule::default()
        }],
        ..FaultPlan::default()
    };
    let mut c = cluster(2, faults, 6);
    let recv: RecvLog = Arc::default();
    let done: DoneLog = Arc::default();
    c.set_app(
        NodeId(0),
        Box::new(ScriptedSender::new(
            vec![(NodeId(1), payload(64, 2), 3)],
            true,
            done.clone(),
        )),
    );
    c.set_app(
        NodeId(1),
        Box::new(Sink::new(2, recv.clone())),
    );
    c.into_engine(1).run_to_idle();
    assert_eq!(recv.lock().unwrap().len(), 1, "no duplicate delivery on ack loss");
    assert_eq!(done.lock().unwrap().as_slice(), &[3], "sender still completes");
}

#[test]
fn heavy_random_loss_still_delivers_everything() {
    let msgs: Vec<(NodeId, Bytes, u64)> = (0..30)
        .map(|i| (NodeId(1), payload(777, i as u8), i))
        .collect();
    let mut c = cluster(2, FaultPlan::with_loss(0.15), 7);
    let recv: RecvLog = Arc::default();
    c.set_app(
        NodeId(0),
        Box::new(ScriptedSender::new(msgs, false, Arc::default())),
    );
    c.set_app(
        NodeId(1),
        Box::new(Sink::new(30, recv.clone())),
    );
    c.into_engine(1).run_to_idle();
    let log = recv.lock().unwrap();
    assert_eq!(log.len(), 30);
    for (i, (_, tag, data)) in log.iter().enumerate() {
        assert_eq!(*tag, i as u64, "in-order despite loss");
        assert_eq!(data.len(), 777);
        assert!(data.iter().all(|&b| b == i as u8), "payload integrity");
    }
}

#[test]
fn missing_receive_token_stalls_until_recovered_by_retransmit() {
    // Receiver preposts only 1 credit but two messages arrive; the second
    // is dropped at the NIC until the app (on first recv) posts another.
    struct LazySink {
        log: RecvLog,
    }
    impl HostApp<NoExt> for LazySink {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
            ctx.provide_recv(P0, 1);
        }
        fn on_notice(&mut self, n: Notice<Never>, ctx: &mut HostCtx<'_, NoExt>) {
            if let Notice::Recv { src, tag, data, .. } = n {
                self.log.lock().unwrap().push((src, tag, data));
                // Dawdle before reposting a credit, guaranteeing the second
                // message's packet finds the token pool empty.
                ctx.compute(SimDuration::from_micros(50), 0);
                ctx.provide_recv(P0, 1);
            }
        }
    }
    let msgs = vec![
        (NodeId(1), payload(8, 1), 0),
        (NodeId(1), payload(8, 2), 1),
    ];
    let mut c = cluster(2, FaultPlan::none(), 8);
    let recv: RecvLog = Arc::default();
    c.set_app(
        NodeId(0),
        Box::new(ScriptedSender::new(msgs, false, Arc::default())),
    );
    c.set_app(NodeId(1), Box::new(LazySink { log: recv.clone() }));
    let mut eng = c.into_engine(1);
    eng.run_to_idle();
    assert_eq!(recv.lock().unwrap().len(), 2);
    let drops = eng.world(0).nic(NodeId(1)).counters.get("rx_drop_no_token");
    assert!(drops >= 1, "second message must have hit the token wall");
}

#[test]
fn bidirectional_traffic_does_not_interfere() {
    let mut c = cluster(2, FaultPlan::none(), 9);
    let recv0: RecvLog = Arc::default();
    let recv1: RecvLog = Arc::default();

    /// Sends and receives simultaneously.
    struct Both {
        peer: NodeId,
        n: u64,
        log: RecvLog,
    }
    impl HostApp<NoExt> for Both {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
            ctx.provide_recv(P0, self.n as usize);
            for i in 0..self.n {
                ctx.send(self.peer, P0, P0, Bytes::from(vec![i as u8; 256]), i);
            }
        }
        fn on_notice(&mut self, n: Notice<Never>, _ctx: &mut HostCtx<'_, NoExt>) {
            if let Notice::Recv { src, tag, data, .. } = n {
                self.log.lock().unwrap().push((src, tag, data));
            }
        }
    }
    c.set_app(
        NodeId(0),
        Box::new(Both {
            peer: NodeId(1),
            n: 10,
            log: recv0.clone(),
        }),
    );
    c.set_app(
        NodeId(1),
        Box::new(Both {
            peer: NodeId(0),
            n: 10,
            log: recv1.clone(),
        }),
    );
    c.into_engine(1).run_to_idle();
    assert_eq!(recv0.lock().unwrap().len(), 10);
    assert_eq!(recv1.lock().unwrap().len(), 10);
}

#[test]
fn fan_in_many_senders_one_receiver() {
    let n = 8u32;
    let mut c = cluster(n, FaultPlan::none(), 10);
    let recv: RecvLog = Arc::default();
    for s in 1..n {
        c.set_app(
            NodeId(s),
            Box::new(ScriptedSender::new(
                vec![(NodeId(0), payload(1024, s as u8), s as u64)],
                true,
                Arc::default(),
            )),
        );
    }
    c.set_app(
        NodeId(0),
        Box::new(Sink::new((n - 1) as usize, recv.clone())),
    );
    c.into_engine(1).run_to_idle();
    let log = recv.lock().unwrap();
    assert_eq!(log.len(), (n - 1) as usize);
    let mut srcs: Vec<u32> = log.iter().map(|(s, ..)| s.0).collect();
    srcs.sort_unstable();
    assert_eq!(srcs, (1..n).collect::<Vec<_>>());
}

#[test]
fn larger_messages_take_longer() {
    let mut lat = Vec::new();
    for len in [64usize, 4096, 16384] {
        let mut c = cluster(2, FaultPlan::none(), 11);
        let recv: RecvLog = Arc::default();
        c.set_app(
            NodeId(0),
            Box::new(ScriptedSender::new(
                vec![(NodeId(1), payload(len, 0), 0)],
                true,
                Arc::default(),
            )),
        );
        let sink = Sink::new(1, recv.clone());
        let recv_at = sink.last_at.clone();
        c.set_app(NodeId(1), Box::new(sink));
        let mut eng = c.into_engine(1);
        eng.run_to_idle();
        assert_eq!(recv.lock().unwrap().len(), 1);
        lat.push(recv_at.lock().unwrap().as_micros_f64());
    }
    assert!(lat[0] < lat[1] && lat[1] < lat[2], "latency ordering: {lat:?}");
    // 16 KB spans 4 packets; wire time alone is ~66 us.
    assert!(lat[2] > 60.0, "16 KB exchange too fast: {} us", lat[2]);
}

#[test]
fn determinism_same_seed_same_timeline() {
    let run = || {
        let msgs: Vec<(NodeId, Bytes, u64)> = (0..10)
            .map(|i| (NodeId(1), payload(500, i as u8), i))
            .collect();
        let mut c = cluster(2, FaultPlan::with_loss(0.1), 99);
        let recv: RecvLog = Arc::default();
        c.set_app(
            NodeId(0),
            Box::new(ScriptedSender::new(msgs, false, Arc::default())),
        );
        c.set_app(
            NodeId(1),
            Box::new(Sink::new(10, recv.clone())),
        );
        let mut eng = c.into_engine(1);
        eng.run_to_idle();
        let received = recv.lock().unwrap().len();
        (eng.now(), eng.events_handled(), received)
    };
    assert_eq!(run(), run());
}

#[test]
fn host_cpu_time_accounts_compute_and_overhead() {
    struct Computer;
    impl HostApp<NoExt> for Computer {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
            ctx.compute(SimDuration::from_micros(100), 1);
        }
        fn on_notice(&mut self, n: Notice<Never>, ctx: &mut HostCtx<'_, NoExt>) {
            if matches!(n, Notice::ComputeDone { tag: 1 }) {
                ctx.send(NodeId(1), P0, P0, Bytes::from_static(b"x"), 2);
            }
        }
    }
    let mut c = cluster(2, FaultPlan::none(), 12);
    let recv: RecvLog = Arc::default();
    c.set_app(NodeId(0), Box::new(Computer));
    c.set_app(
        NodeId(1),
        Box::new(Sink::new(1, recv.clone())),
    );
    let mut eng = c.into_engine(1);
    eng.run_to_idle();
    assert_eq!(recv.lock().unwrap().len(), 1);
    let busy = eng.world(0).host(NodeId(0)).busy_total();
    // 100us compute + sub-us send post.
    assert!(busy >= SimDuration::from_micros(100));
    assert!(busy < SimDuration::from_micros(102));
    // The message could only have been sent after the compute block.
    assert!(eng.now() > SimTime::ZERO + SimDuration::from_micros(100));
}

#[test]
fn ack_coalescing_cuts_control_traffic_without_losing_anything() {
    let run_with = |coalesce_us: u64| {
        let params = GmParams {
            ack_coalesce: SimDuration::from_micros(coalesce_us),
            ..GmParams::default()
        };
        let fabric = Fabric::with_config(
            Topology::for_nodes(2),
            NetParams::default(),
            FaultPlan::none(),
            13,
        );
        let mut c = Cluster::new(params, fabric, |_| NoExt);
        let msgs: Vec<(NodeId, Bytes, u64)> = (0..10)
            .map(|i| (NodeId(1), payload(12_000, i as u8), i)) // 3 packets each
            .collect();
        let recv: RecvLog = Arc::default();
        let done: DoneLog = Arc::default();
        c.set_app(
            NodeId(0),
            Box::new(ScriptedSender::new(msgs, false, done.clone())),
        );
        c.set_app(NodeId(1), Box::new(Sink::new(10, recv.clone())));
        let mut eng = c.into_engine(1);
        eng.run_to_idle();
        assert_eq!(recv.lock().unwrap().len(), 10, "all messages delivered");
        assert_eq!(done.lock().unwrap().len(), 10, "all sends completed");
        let acks = eng.world(0).nic(NodeId(1)).counters.get("tx_acks");
        let retx = eng.world(0).nic(NodeId(0)).counters.get("retransmissions");
        assert_eq!(retx, 0, "coalescing must not trigger timeouts");
        acks
    };
    let per_packet = run_with(0);
    let coalesced = run_with(30);
    assert_eq!(per_packet, 30, "one ack per packet (10 msgs x 3 pkts)");
    assert!(
        coalesced <= per_packet / 2,
        "coalescing should slash ack count: {coalesced} vs {per_packet}"
    );
}
