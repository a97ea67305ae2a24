//! End-to-end tests of the base GM protocol: reliable ordered delivery over
//! the simulated fabric, with and without injected faults.

use gm::{drive, Cluster, Driven, GmParams, HostApp, HostCtx, Never, NoExt, Notice};
use gm_sim::{SimDuration, SimTime};
use myrinet::{DropRule, Fabric, FaultPlan, NetParams, NodeId, Payload, PortId, Topology};

const P0: PortId = PortId(0);

/// Sends a scripted list of messages back to back (next send posted when the
/// previous completes if `serial`, or all at once).
struct ScriptedSender {
    msgs: Vec<(NodeId, Payload, u64)>,
    serial: bool,
    next: usize,
    /// Completion tags, in completion order.
    done: Vec<u64>,
}

impl ScriptedSender {
    fn new(msgs: Vec<(NodeId, Payload, u64)>, serial: bool) -> Self {
        ScriptedSender {
            msgs,
            serial,
            next: 0,
            done: Vec::new(),
        }
    }
}

impl HostApp<NoExt> for ScriptedSender {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
        if self.serial {
            if let Some(&(dst, data, tag)) = self.msgs.first() {
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
            self.done.push(tag);
            if self.serial && self.next < self.msgs.len() {
                let (dst, data, tag) = self.msgs[self.next];
                self.next += 1;
                ctx.send(dst, P0, P0, data, tag);
            }
        }
    }
}

/// Provides `credits` receive buffers and records everything received.
struct Sink {
    credits: usize,
    /// Messages received: (src, tag, data).
    log: Vec<(NodeId, u64, Payload)>,
    /// When the last message arrived.
    last_at: SimTime,
}

impl Sink {
    fn new(credits: usize) -> Self {
        Sink {
            credits,
            log: Vec::new(),
            last_at: SimTime::ZERO,
        }
    }
}

impl HostApp<NoExt> for Sink {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
        ctx.provide_recv(P0, self.credits);
    }

    fn on_notice(&mut self, n: Notice<Never>, ctx: &mut HostCtx<'_, NoExt>) {
        if let Notice::Recv { src, tag, data, .. } = n {
            self.log.push((src, tag, data));
            self.last_at = ctx.now();
        }
    }
}

fn cluster(n: u32, faults: FaultPlan, seed: u64) -> Cluster<NoExt> {
    let fabric = Fabric::with_config(Topology::for_nodes(n), NetParams::default(), faults, seed);
    Cluster::new(GmParams::default(), fabric, |_| NoExt)
}

/// Message `id` of `len` bytes.
fn payload(len: usize, id: u32) -> Payload {
    Payload::new(id, len)
}

/// Install `sender` on node 0 and `receiver` on node 1, and drive `c` until
/// no event is pending.
fn pair(
    mut c: Cluster<NoExt>,
    sender: impl HostApp<NoExt>,
    receiver: impl HostApp<NoExt>,
) -> Driven<NoExt> {
    c.set_app(NodeId(0), Box::new(sender));
    c.set_app(NodeId(1), Box::new(receiver));
    drive(c, 1)
}

#[test]
fn single_small_message_latency_is_era_plausible() {
    let sender = ScriptedSender::new(vec![(NodeId(1), payload(8, 0xAB), 1)], true);
    let d = pair(cluster(2, FaultPlan::none(), 1), sender, Sink::new(1));
    let sink = d.app::<Sink>(NodeId(1));
    assert_eq!(sink.log.len(), 1);
    assert_eq!(sink.log[0].2, payload(8, 0xAB));
    // One-way latency must land in GM-2's era ballpark: 4..12 us.
    let us = sink.last_at.as_micros_f64();
    assert!((4.0..12.0).contains(&us), "one-way latency was {us} us");
}

#[test]
fn multi_packet_message_reassembles() {
    // 3.5 packets worth of one message.
    let data = payload(14_336, 0xD15);
    let sender = ScriptedSender::new(vec![(NodeId(1), data, 9)], true);
    let d = pair(cluster(2, FaultPlan::none(), 2), sender, Sink::new(1));
    let log = &d.app::<Sink>(NodeId(1)).log;
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].1, 9);
    assert_eq!(
        log[0].2, data,
        "the reassembled message must be the one sent"
    );
}

#[test]
fn zero_length_message_is_delivered() {
    let sender = ScriptedSender::new(vec![(NodeId(1), Payload::EMPTY, 4)], true);
    let d = pair(cluster(2, FaultPlan::none(), 3), sender, Sink::new(1));
    let log = &d.app::<Sink>(NodeId(1)).log;
    assert_eq!(log.len(), 1);
    assert!(log[0].2.is_empty());
}

#[test]
fn messages_on_one_connection_arrive_in_order() {
    let msgs: Vec<(NodeId, Payload, u64)> = (0..20)
        .map(|i| (NodeId(1), payload(100 + i as usize * 37, i as u32), i))
        .collect();
    let sender = ScriptedSender::new(msgs, false);
    let d = pair(cluster(2, FaultPlan::none(), 4), sender, Sink::new(20));
    let log = &d.app::<Sink>(NodeId(1)).log;
    assert_eq!(log.len(), 20);
    for (i, (_, tag, data)) in log.iter().enumerate() {
        assert_eq!(*tag, i as u64, "messages must arrive in post order");
        assert_eq!(*data, payload(100 + i * 37, i as u32));
    }
    assert_eq!(d.app::<ScriptedSender>(NodeId(0)).done.len(), 20);
}

#[test]
fn lost_data_packet_is_retransmitted() {
    let faults = FaultPlan {
        rules: vec![DropRule::data_between(NodeId(0), NodeId(1), 1)],
        ..FaultPlan::default()
    };
    let sender = ScriptedSender::new(vec![(NodeId(1), payload(64, 1), 1)], true);
    let d = pair(cluster(2, faults, 5), sender, Sink::new(1));
    assert_eq!(
        d.app::<Sink>(NodeId(1)).log.len(),
        1,
        "message survives the drop"
    );
    // Recovery needed at least one timeout period.
    assert!(d.end > SimTime::ZERO + GmParams::default().timeout);
    assert!(d.worlds[0].nic(NodeId(0)).counters.get("retransmissions") >= 1);
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
    let sender = ScriptedSender::new(vec![(NodeId(1), payload(64, 2), 3)], true);
    let d = pair(cluster(2, faults, 6), sender, Sink::new(2));
    assert_eq!(
        d.app::<Sink>(NodeId(1)).log.len(),
        1,
        "no duplicate delivery on ack loss"
    );
    let done = &d.app::<ScriptedSender>(NodeId(0)).done;
    assert_eq!(done.as_slice(), &[3], "sender still completes");
}

#[test]
fn heavy_random_loss_still_delivers_everything() {
    let msgs: Vec<(NodeId, Payload, u64)> = (0..30)
        .map(|i| (NodeId(1), payload(777, i as u32), i))
        .collect();
    let sender = ScriptedSender::new(msgs, false);
    let d = pair(
        cluster(2, FaultPlan::with_loss(0.15), 7),
        sender,
        Sink::new(30),
    );
    let log = &d.app::<Sink>(NodeId(1)).log;
    assert_eq!(log.len(), 30);
    for (i, (_, tag, data)) in log.iter().enumerate() {
        assert_eq!(*tag, i as u64, "in-order despite loss");
        assert_eq!(*data, payload(777, i as u32), "payload integrity");
    }
}

#[test]
fn missing_receive_token_stalls_until_recovered_by_retransmit() {
    // Receiver preposts only 1 credit but two messages arrive; the second
    // is dropped at the NIC until the app (on first recv) posts another.
    struct LazySink {
        received: usize,
    }
    impl HostApp<NoExt> for LazySink {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
            ctx.provide_recv(P0, 1);
        }
        fn on_notice(&mut self, n: Notice<Never>, ctx: &mut HostCtx<'_, NoExt>) {
            if let Notice::Recv { .. } = n {
                self.received += 1;
                // Dawdle before reposting a credit, guaranteeing the second
                // message's packet finds the token pool empty.
                ctx.compute(SimDuration::from_micros(50), 0);
                ctx.provide_recv(P0, 1);
            }
        }
    }
    let msgs = vec![(NodeId(1), payload(8, 1), 0), (NodeId(1), payload(8, 2), 1)];
    let sender = ScriptedSender::new(msgs, false);
    let d = pair(
        cluster(2, FaultPlan::none(), 8),
        sender,
        LazySink { received: 0 },
    );
    assert_eq!(d.app::<LazySink>(NodeId(1)).received, 2);
    let drops = d.worlds[0].nic(NodeId(1)).counters.get("rx_drop_no_token");
    assert!(drops >= 1, "second message must have hit the token wall");
}

#[test]
fn bidirectional_traffic_does_not_interfere() {
    /// Sends and receives simultaneously.
    struct Both {
        peer: NodeId,
        n: u64,
        received: usize,
    }
    impl HostApp<NoExt> for Both {
        fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
            ctx.provide_recv(P0, self.n as usize);
            for i in 0..self.n {
                ctx.send(self.peer, P0, P0, payload(256, i as u32), i);
            }
        }
        fn on_notice(&mut self, n: Notice<Never>, _ctx: &mut HostCtx<'_, NoExt>) {
            if let Notice::Recv { .. } = n {
                self.received += 1;
            }
        }
    }
    let both = |peer| Both {
        peer: NodeId(peer),
        n: 10,
        received: 0,
    };
    let d = pair(cluster(2, FaultPlan::none(), 9), both(1), both(0));
    assert_eq!(d.app::<Both>(NodeId(0)).received, 10);
    assert_eq!(d.app::<Both>(NodeId(1)).received, 10);
}

#[test]
fn fan_in_many_senders_one_receiver() {
    let n = 8u32;
    let mut c = cluster(n, FaultPlan::none(), 10);
    for s in 1..n {
        let msgs = vec![(NodeId(0), payload(1024, s), s as u64)];
        c.set_app(NodeId(s), Box::new(ScriptedSender::new(msgs, true)));
    }
    c.set_app(NodeId(0), Box::new(Sink::new((n - 1) as usize)));
    let d = drive(c, 1);
    let log = &d.app::<Sink>(NodeId(0)).log;
    assert_eq!(log.len(), (n - 1) as usize);
    let mut srcs: Vec<u32> = log.iter().map(|(s, ..)| s.0).collect();
    srcs.sort_unstable();
    assert_eq!(srcs, (1..n).collect::<Vec<_>>());
}

#[test]
fn larger_messages_take_longer() {
    let mut lat = Vec::new();
    for len in [64usize, 4096, 16384] {
        let sender = ScriptedSender::new(vec![(NodeId(1), payload(len, 0), 0)], true);
        let d = pair(cluster(2, FaultPlan::none(), 11), sender, Sink::new(1));
        let sink = d.app::<Sink>(NodeId(1));
        assert_eq!(sink.log.len(), 1);
        lat.push(sink.last_at.as_micros_f64());
    }
    assert!(
        lat[0] < lat[1] && lat[1] < lat[2],
        "latency ordering: {lat:?}"
    );
    // 16 KB spans 4 packets; wire time alone is ~66 us.
    assert!(lat[2] > 60.0, "16 KB exchange too fast: {} us", lat[2]);
}

#[test]
fn determinism_same_seed_same_timeline() {
    let run = || {
        let msgs: Vec<(NodeId, Payload, u64)> = (0..10)
            .map(|i| (NodeId(1), payload(500, i as u32), i))
            .collect();
        let sender = ScriptedSender::new(msgs, false);
        let d = pair(
            cluster(2, FaultPlan::with_loss(0.1), 99),
            sender,
            Sink::new(10),
        );
        let received = d.app::<Sink>(NodeId(1)).log.len();
        (d.end, d.events, received)
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
                ctx.send(NodeId(1), P0, P0, payload(1, 0), 2);
            }
        }
    }
    let d = pair(cluster(2, FaultPlan::none(), 12), Computer, Sink::new(1));
    assert_eq!(d.app::<Sink>(NodeId(1)).log.len(), 1);
    let busy = d.worlds[0].host(NodeId(0)).busy_total();
    // 100us compute + sub-us send post.
    assert!(busy >= SimDuration::from_micros(100));
    assert!(busy < SimDuration::from_micros(102));
    // The message could only have been sent after the compute block.
    assert!(d.end > SimTime::ZERO + SimDuration::from_micros(100));
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
        let c = Cluster::new(params, fabric, |_| NoExt);
        let msgs: Vec<(NodeId, Payload, u64)> = (0..10)
            .map(|i| (NodeId(1), payload(12_000, i as u32), i)) // 3 packets each
            .collect();
        let d = pair(c, ScriptedSender::new(msgs, false), Sink::new(10));
        assert_eq!(
            d.app::<Sink>(NodeId(1)).log.len(),
            10,
            "all messages delivered"
        );
        let done = &d.app::<ScriptedSender>(NodeId(0)).done;
        assert_eq!(done.len(), 10, "all sends completed");
        let acks = d.worlds[0].nic(NodeId(1)).counters.get("tx_acks");
        let retx = d.worlds[0].nic(NodeId(0)).counters.get("retransmissions");
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
