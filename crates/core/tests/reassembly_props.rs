//! Reassembly under loss and duplication, at the NIC. A message is a
//! descriptor, so integrity means two things: every message a NIC delivers
//! is the descriptor that was sent, in send order, and a NIC delivers it
//! only after the packets it accepted cover `[0, len)` exactly once.
//!
//! A small harness plays the cluster's part for a few bare `NicCore`s. It
//! runs each NIC's LANai, PCI and transmit engine until nothing moves,
//! carries packets between NICs over a wire that drops and duplicates them,
//! and fires the earliest timer when everything is quiet. Timing is not
//! modelled: what is checked is the order of acceptances and deliveries. A
//! receiver's `rx_data` (unicast) or `mcast_rx` (multicast) counter says
//! whether the NIC accepted the packet just handed to it.

use std::collections::{BTreeMap, VecDeque};

use gm::{GmParams, NicCore, NicExtension, NoExt, Notice, SendArgs, TimerTag, TxJob};
use gm_sim::{DetRng, SimTime};
use myrinet::{GroupId, NodeId, Packet, PacketKind, Payload, PortId, MTU};
use nic_mcast::{McastExt, McastRequest};
use proptest::prelude::*;

const PORT: PortId = PortId(0);
const G: GroupId = GroupId(1);
/// Harness steps before a run counts as stuck.
const STEP_CAP: u64 = 2_000_000;

/// Packets a message of `len` bytes travels in.
fn packets(len: usize) -> u32 {
    len.div_ceil(MTU).max(1) as u32
}

/// Coverage of one message at one receiver: the descriptor its packets
/// carried, the prefix `[0, covered)` accepted so far, and how many packets
/// that took.
struct Cover {
    payload: Payload,
    covered: u32,
    packets: u32,
}

/// A few NICs, a faulty wire between them, and the timers they armed.
struct Net<X: NicExtension> {
    nics: Vec<(NicCore<X>, X)>,
    wire: VecDeque<Packet>,
    timers: Vec<(SimTime, usize, TimerTag<X::Tag>)>,
    now: SimTime,
    rng: DetRng,
    loss: f64,
    dup: f64,
    /// Swap the descriptors of two same-length data packets of different
    /// messages that sit next to each other on the wire.
    swap: bool,
    /// The counter a receiver bumps when it accepts a data packet.
    accepted: &'static str,
    /// Per node: the messages it has accepted packets of, by id.
    cover: Vec<BTreeMap<u32, Cover>>,
    /// Per node: the messages it delivered, in delivery order.
    delivered: Vec<Vec<Payload>>,
}

impl<X: NicExtension> Net<X> {
    fn new(n: usize, ext: impl Fn() -> X, accepted: &'static str, faults: (f64, f64, u64)) -> Self {
        let (loss, dup, seed) = faults;
        Net {
            nics: (0..n as u32)
                .map(|i| (NicCore::new(NodeId(i), GmParams::default()), ext()))
                .collect(),
            wire: VecDeque::new(),
            timers: Vec::new(),
            now: SimTime::ZERO,
            rng: DetRng::new(seed, "reassembly wire"),
            loss,
            dup,
            swap: false,
            accepted,
            cover: (0..n).map(|_| BTreeMap::new()).collect(),
            delivered: vec![Vec::new(); n],
        }
    }

    /// Run node `i`'s engines until nothing moves; whether anything did.
    fn pump(&mut self, i: usize) -> bool {
        let mut moved = false;
        loop {
            let (nic, ext) = &mut self.nics[i];
            let mut step = false;
            if nic.lanai_start().is_some() {
                nic.lanai_finish(ext);
                step = true;
            }
            if nic.pci_start().is_some() {
                nic.pci_finish(ext);
                step = true;
            }
            if let Some(TxJob { pkt, cb }) = nic.tx_start() {
                self.put_on_wire(pkt);
                let (nic, _) = &mut self.nics[i];
                nic.tx_drained(cb);
                step = true;
            }
            let (nic, ext) = &mut self.nics[i];
            if nic.take_resource_signal() {
                ext.resources_available(nic);
                step = true;
            }
            for (delay, tag) in nic.drain_timer_reqs() {
                self.timers.push((self.now + delay, i, tag));
            }
            self.take_notices(i);
            if !step {
                return moved;
            }
            moved = true;
        }
    }

    fn put_on_wire(&mut self, mut pkt: Packet) {
        if self.swap && pkt.kind.is_data() {
            if let Some(prev) = self.wire.iter_mut().rev().find(|p| p.kind.is_data()) {
                let same_len = prev.payload.len() == pkt.payload.len();
                if same_len && prev.payload != pkt.payload {
                    std::mem::swap(&mut prev.payload, &mut pkt.payload);
                    self.swap = false;
                }
            }
        }
        self.wire.push_back(pkt);
    }

    /// Check and log the messages node `i` delivered since the last look.
    fn take_notices(&mut self, i: usize) {
        for notice in self.nics[i].0.drain_notices() {
            let Notice::Recv { data, .. } = notice else {
                continue;
            };
            let c = self.cover[i].remove(&data.id()).unwrap_or_else(|| {
                panic!("node {i} delivered {data:?} before accepting any of it")
            });
            assert_eq!(
                c.payload, data,
                "node {i} delivered another message than it received"
            );
            assert_eq!(
                (c.covered as usize, c.packets),
                (data.len(), packets(data.len())),
                "node {i} delivered {data:?} before [0, len) was covered exactly once"
            );
            self.delivered[i].push(data);
        }
    }

    /// Hand `pkt` to its destination and record the piece it covers if the
    /// NIC accepts it.
    fn arrive(&mut self, pkt: Packet) {
        let i = pkt.dst.idx();
        let (payload, len) = (pkt.payload, pkt.len);
        let offset = match pkt.kind {
            PacketKind::Data { offset, .. } | PacketKind::Mcast { offset, .. } => Some(offset),
            _ => None,
        };
        let (nic, ext) = &mut self.nics[i];
        let before = nic.counters.get(self.accepted);
        nic.packet_arrived(pkt);
        while nic.lanai_start().is_some() {
            nic.lanai_finish(ext);
        }
        if nic.counters.get(self.accepted) > before {
            let offset = offset.expect("only data packets are accepted");
            let c = self.cover[i].entry(payload.id()).or_insert(Cover {
                payload,
                covered: 0,
                packets: 0,
            });
            assert_eq!(
                c.payload,
                payload,
                "node {i}: two messages share id {}",
                payload.id()
            );
            assert_eq!(
                offset, c.covered,
                "node {i} accepted offset {offset} of {payload:?} with [0, {}) covered",
                c.covered
            );
            c.covered += len;
            c.packets += 1;
        }
        self.pump(i);
    }

    /// Run until every queue is empty and no timer is left.
    fn run(&mut self) {
        for _ in 0..STEP_CAP {
            let mut moved = false;
            for i in 0..self.nics.len() {
                moved |= self.pump(i);
            }
            if let Some(pkt) = self.wire.pop_front() {
                let u = self.rng.unit();
                if u < self.loss {
                    continue;
                }
                if u < self.loss + self.dup {
                    // A copy arrives again later, behind what is on the wire.
                    self.wire.push_back(pkt.clone());
                }
                self.arrive(pkt);
                continue;
            }
            if moved {
                continue;
            }
            let Some(k) = (0..self.timers.len()).min_by_key(|&k| self.timers[k].0) else {
                return;
            };
            let (at, i, tag) = self.timers.remove(k);
            self.now = self.now.max(at);
            for (nic, _) in &mut self.nics {
                nic.set_now(self.now);
            }
            let (nic, ext) = &mut self.nics[i];
            nic.timer_fired(tag, ext);
        }
        panic!("the NICs did not go quiet in {STEP_CAP} steps");
    }

    /// Every message `node` was sent, delivered once, whole, in send order.
    fn check(&self, node: usize, sent: &[Payload]) -> Result<(), String> {
        if !self.cover[node].is_empty() {
            return Err(format!("node {node} holds partly covered messages"));
        }
        if self.delivered[node] != sent {
            return Err(format!(
                "node {node} delivered {:?}, sent {sent:?}",
                self.delivered[node]
            ));
        }
        Ok(())
    }
}

/// Message lengths at the packet boundaries, and several MTUs.
const EDGES: [usize; 9] = [
    0,
    1,
    MTU - 1,
    MTU,
    MTU + 1,
    2 * MTU,
    2 * MTU + 1,
    3 * MTU - 1,
    3 * MTU,
];

/// One to seven messages, each of a length in [`EDGES`].
fn lengths() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec((0..EDGES.len()).prop_map(|k| EDGES[k]), 1..8)
}

/// Message `i` of `len` bytes: its index is its identity.
fn message(i: usize, len: usize) -> Payload {
    Payload::new(i as u32, len)
}

/// Node 0 sends `lens` to nodes 1 and 2 in turn, over unicast Go-Back-N.
fn unicast(lens: &[usize], faults: (f64, f64, u64), swap: bool) -> (Net<NoExt>, [Vec<Payload>; 3]) {
    let mut net = Net::new(3, || NoExt, "rx_data", faults);
    net.swap = swap;
    let mut sent: [Vec<Payload>; 3] = Default::default();
    for d in 1..3 {
        net.nics[d].0.host_provide_recv(PORT, 64);
    }
    for (i, &len) in lens.iter().enumerate() {
        let (dst, data) = (1 + i % 2, message(i, len));
        let args = SendArgs {
            dst: NodeId(dst as u32),
            dst_port: PORT,
            src_port: PORT,
            data,
            tag: i as u64,
        };
        assert!(net.nics[0].0.host_send(args), "a send token is free");
        sent[dst].push(data);
    }
    net.run();
    (net, sent)
}

/// Node 0 multicasts `lens` over the tree 0 → {1, 2}, 1 → {3}: node 1
/// forwards while it reassembles.
fn multicast(lens: &[usize], faults: (f64, f64, u64)) -> (Net<McastExt>, Vec<Payload>) {
    let mut net = Net::new(4, McastExt::new, "mcast_rx", faults);
    let tree: [(Option<u32>, &[u32]); 4] = [
        (None, &[1, 2]),
        (Some(0), &[3]),
        (Some(0), &[]),
        (Some(1), &[]),
    ];
    let sent: Vec<Payload> = lens
        .iter()
        .enumerate()
        .map(|(i, &len)| message(i, len))
        .collect();
    for node in 1..4 {
        net.nics[node].0.host_provide_recv(PORT, 64);
    }
    let mut post = |node: usize, req: McastRequest| {
        let (nic, ext) = &mut net.nics[node];
        let cost = ext.request_cost(&req, nic.params());
        nic.host_ext_request(cost, req);
    };
    for (node, &(parent, children)) in tree.iter().enumerate() {
        let create = McastRequest::CreateGroup {
            group: G,
            port: PORT,
            root: NodeId(0),
            parent: parent.map(NodeId),
            children: children.iter().copied().map(NodeId).collect(),
        };
        post(node, create);
    }
    for (i, &data) in sent.iter().enumerate() {
        let tag = i as u64;
        post(
            0,
            McastRequest::Send {
                group: G,
                data,
                tag,
            },
        );
    }
    net.run();
    (net, sent)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unicast_delivers_each_message_after_covering_it_once(
        lens in lengths(),
        loss in 0.0f64..0.3,
        dup in 0.0f64..0.3,
        seed in any::<u64>(),
    ) {
        let (net, sent) = unicast(&lens, (loss, dup, seed), false);
        for (d, sent) in sent.iter().enumerate().skip(1) {
            prop_assert_eq!(net.check(d, sent), Ok(()));
        }
    }

    #[test]
    fn multicast_delivers_each_message_after_covering_it_once(
        lens in lengths(),
        loss in 0.0f64..0.3,
        dup in 0.0f64..0.3,
        seed in any::<u64>(),
    ) {
        let (net, sent) = multicast(&lens, (loss, dup, seed));
        for m in 1..4 {
            prop_assert_eq!(net.check(m, &sent), Ok(()));
        }
    }
}

/// The faults bite: with every length at once under 20% loss and 20%
/// duplication, senders retransmit and receivers turn away duplicates, and
/// every message still arrives whole.
#[test]
fn every_edge_length_survives_loss_and_duplicates() {
    let faults = (0.2, 0.2, 7);
    let (net, sent) = unicast(&EDGES, faults, false);
    for (d, sent) in sent.iter().enumerate().skip(1) {
        assert_eq!(net.check(d, sent), Ok(()));
    }
    let count = |node: usize, counter| net.nics[node].0.counters.get(counter);
    assert!(count(0, "retransmissions") > 0);
    assert!(count(1, "rx_out_of_order") + count(2, "rx_out_of_order") > 0);

    let (net, sent) = multicast(&EDGES, faults);
    for m in 1..4 {
        assert_eq!(net.check(m, &sent), Ok(()));
    }
    let count = |node: usize, counter| net.nics[node].0.counters.get(counter);
    assert!(count(0, "mcast_retransmissions") > 0);
    assert!((1..4).map(|m| count(m, "mcast_out_of_order")).sum::<u64>() > 0);
}

/// Bytes of a constant fill could not tell two messages of one length
/// apart; descriptors can. A wire that swaps two such messages fails the
/// check.
#[test]
fn a_swap_of_two_same_length_messages_is_caught() {
    let lens = [MTU - 1, MTU - 1];
    let (clean, sent) = unicast(&lens, (0.0, 0.0, 1), false);
    assert_eq!(clean.check(1, &sent[1]), Ok(()));
    let (swapped, sent) = unicast(&lens, (0.0, 0.0, 1), true);
    let err = swapped.check(1, &sent[1]).expect_err("the swap is seen");
    assert!(err.contains("node 1 delivered"), "{err}");
}
