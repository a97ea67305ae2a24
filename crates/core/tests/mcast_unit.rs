//! Direct unit tests of the multicast firmware: `McastExt` driven through a
//! bare `NicCore`, no event engine — each test hand-plays the cluster's
//! role and inspects the NIC's outgoing intents.

use gm::{GmParams, NicCore, NicExtension, Notice, TxJob};
use myrinet::{GroupId, NodeId, Packet, PacketKind, Payload, PortId};
use nic_mcast::{McastExt, McastNotice, McastRequest};

const PORT: PortId = PortId(0);
const G: GroupId = GroupId(1);

fn nic(node: u32) -> (NicCore<McastExt>, McastExt) {
    (
        NicCore::new(NodeId(node), GmParams::default()),
        McastExt::new(),
    )
}

fn drain_lanai(n: &mut NicCore<McastExt>, ext: &mut McastExt) {
    while n.lanai_start().is_some() {
        n.lanai_finish(ext);
    }
}

/// Run the LANai + PCI until quiescent, collecting transmitted packets and
/// firing descriptor callbacks like the transmit engine would.
fn pump_all(n: &mut NicCore<McastExt>, ext: &mut McastExt) -> Vec<Packet> {
    let mut out = Vec::new();
    loop {
        let mut progressed = false;
        while n.lanai_start().is_some() {
            n.lanai_finish(ext);
            progressed = true;
        }
        while n.pci_start().is_some() {
            n.pci_finish(ext);
            progressed = true;
        }
        while let Some(TxJob { pkt, cb }) = n.tx_start() {
            out.push(pkt);
            n.tx_drained(cb);
            progressed = true;
        }
        if !progressed {
            return out;
        }
    }
}

fn install_root(n: &mut NicCore<McastExt>, ext: &mut McastExt, children: &[u32]) {
    let req = McastRequest::CreateGroup {
        group: G,
        port: PORT,
        root: NodeId(0),
        parent: None,
        children: children.iter().map(|&c| NodeId(c)).collect(),
    };
    let cost = ext.request_cost(&req, n.params());
    n.host_ext_request(cost, req);
    drain_lanai(n, ext);
}

fn install_member(n: &mut NicCore<McastExt>, ext: &mut McastExt, parent: u32, children: &[u32]) {
    n.host_provide_recv(PORT, 64);
    let req = McastRequest::CreateGroup {
        group: G,
        port: PORT,
        root: NodeId(0),
        parent: Some(NodeId(parent)),
        children: children.iter().map(|&c| NodeId(c)).collect(),
    };
    let cost = ext.request_cost(&req, n.params());
    n.host_ext_request(cost, req);
    drain_lanai(n, ext);
}

#[test]
fn group_install_notifies_ready() {
    let (mut n, mut ext) = nic(0);
    install_root(&mut n, &mut ext, &[1, 2]);
    let notices = n.drain_notices();
    assert!(matches!(
        notices.as_slice(),
        [Notice::Ext(McastNotice::GroupReady { group: G })]
    ));
    assert_eq!(ext.group_count(), 1);
}

#[test]
fn multisend_emits_one_replica_per_child_in_order() {
    let (mut n, mut ext) = nic(0);
    install_root(&mut n, &mut ext, &[1, 2, 3]);
    n.drain_notices();
    let hello = Payload::new(11, 5);
    let req = McastRequest::Send {
        group: G,
        data: hello,
        tag: 9,
    };
    let cost = ext.request_cost(&req, n.params());
    n.host_ext_request(cost, req);
    let pkts = pump_all(&mut n, &mut ext);
    let dsts: Vec<u32> = pkts.iter().map(|p| p.dst.0).collect();
    assert_eq!(
        dsts,
        vec![1, 2, 3],
        "replica chain visits children in order"
    );
    for p in &pkts {
        let PacketKind::Mcast { seq, tag, .. } = p.kind else {
            panic!("non-mcast packet {:?}", p.kind)
        };
        assert_eq!((seq, tag, p.len), (0, 9, 5));
        assert_eq!(p.payload, hello);
    }
    // One outstanding record until the children ack.
    assert_eq!(ext.outstanding(G), 1);
}

#[test]
fn acks_clear_records_only_when_all_children_acked() {
    let (mut n, mut ext) = nic(0);
    install_root(&mut n, &mut ext, &[1, 2]);
    n.drain_notices();
    let req = McastRequest::Send {
        group: G,
        data: Payload::new(0, 1),
        tag: 4,
    };
    let cost = ext.request_cost(&req, n.params());
    n.host_ext_request(cost, req);
    pump_all(&mut n, &mut ext);

    n.packet_arrived(Packet::mcast_ack(NodeId(1), NodeId(0), G, 0));
    drain_lanai(&mut n, &mut ext);
    assert_eq!(ext.outstanding(G), 1, "one child acked is not enough");
    assert!(n.drain_notices().is_empty());

    n.packet_arrived(Packet::mcast_ack(NodeId(2), NodeId(0), G, 0));
    drain_lanai(&mut n, &mut ext);
    assert_eq!(ext.outstanding(G), 0);
    let notices = n.drain_notices();
    assert!(matches!(
        notices.as_slice(),
        [Notice::Ext(McastNotice::SendDone { group: G, tag: 4 })]
    ));
}

#[test]
fn forwarder_relays_before_any_host_interaction() {
    // Node 1: parent 0, child 2. Feed it a multicast packet and check the
    // forwarded replica leaves before any host notice exists.
    let (mut n, mut ext) = nic(1);
    install_member(&mut n, &mut ext, 0, &[2]);
    n.drain_notices();
    let pkt = Packet {
        src: NodeId(0),
        dst: NodeId(1),
        kind: PacketKind::Mcast {
            group: G,
            seq: 0,
            offset: 0,
            tag: 7,
            root: NodeId(0),
        },
        payload: Payload::new(7, 3),
        len: 3,
    };
    n.packet_arrived(pkt);
    drain_lanai(&mut n, &mut ext);
    // Before any DMA completes, the forward and the ack are already queued.
    let mut wire = Vec::new();
    while let Some(TxJob { pkt, cb }) = n.tx_start() {
        wire.push(pkt);
        n.tx_drained(cb);
    }
    assert_eq!(wire.len(), 2);
    assert!(
        matches!(wire[0].kind, PacketKind::Mcast { seq: 0, .. }) && wire[0].dst == NodeId(2),
        "forward first: {:?}",
        wire[0].kind
    );
    assert!(matches!(wire[1].kind, PacketKind::McastAck { seq: 0, .. }));
    assert!(
        n.drain_notices().is_empty(),
        "host not involved in forwarding"
    );
    // Only after the RDMA completes does the host hear about the message.
    let pkts = pump_all(&mut n, &mut ext);
    assert!(pkts.is_empty());
    let notices = n.drain_notices();
    assert!(
        matches!(&notices[..], [Notice::Recv { tag: 7, data, .. }] if *data == Payload::new(7, 3)),
        "got {notices:?}"
    );
}

#[test]
fn out_of_order_multicast_packet_is_dropped_and_reacked() {
    let (mut n, mut ext) = nic(1);
    install_member(&mut n, &mut ext, 0, &[]);
    n.drain_notices();
    let mk = |seq: u64| Packet {
        src: NodeId(0),
        dst: NodeId(1),
        kind: PacketKind::Mcast {
            group: G,
            seq,
            offset: 0,
            tag: seq,
            root: NodeId(0),
        },
        payload: Payload::new(0, 1),
        len: 1,
    };
    // seq 2 before 0/1: dropped, no ack possible yet (nothing in order).
    n.packet_arrived(mk(2));
    drain_lanai(&mut n, &mut ext);
    assert_eq!(n.counters.get("mcast_out_of_order"), 1);
    assert!(n.tx_start().is_none());
    // In-order 0 accepted, acked.
    n.packet_arrived(mk(0));
    drain_lanai(&mut n, &mut ext);
    let TxJob { pkt, cb } = n.tx_start().expect("ack");
    assert!(matches!(pkt.kind, PacketKind::McastAck { seq: 0, .. }));
    n.tx_drained(cb);
    // A late duplicate of 0 re-acks cumulatively.
    n.packet_arrived(mk(0));
    drain_lanai(&mut n, &mut ext);
    let TxJob { pkt, cb } = n.tx_start().expect("re-ack");
    assert!(matches!(pkt.kind, PacketKind::McastAck { seq: 0, .. }));
    n.tx_drained(cb);
    assert_eq!(n.counters.get("mcast_out_of_order"), 2);
}

#[test]
fn timeout_retransmits_only_to_unacked_children() {
    let (mut n, mut ext) = nic(0);
    install_root(&mut n, &mut ext, &[1, 2, 3]);
    n.drain_notices();
    let req = McastRequest::Send {
        group: G,
        data: Payload::new(0, 3),
        tag: 0,
    };
    let cost = ext.request_cost(&req, n.params());
    n.host_ext_request(cost, req);
    pump_all(&mut n, &mut ext);
    let timers = n.drain_timer_reqs();
    assert!(!timers.is_empty(), "group timer armed after the chain");

    // Children 1 and 3 ack; child 2 stays silent.
    n.packet_arrived(Packet::mcast_ack(NodeId(1), NodeId(0), G, 0));
    n.packet_arrived(Packet::mcast_ack(NodeId(3), NodeId(0), G, 0));
    drain_lanai(&mut n, &mut ext);

    // Fire the timer well past the timeout.
    let due = n.params().timeout * 3;
    n.set_now(gm_sim::SimTime::ZERO + due);
    for (_delay, tag) in timers {
        n.timer_fired(tag, &mut ext);
    }
    let pkts = pump_all(&mut n, &mut ext);
    assert_eq!(pkts.len(), 1, "exactly one retransmission: {pkts:?}");
    assert_eq!(pkts[0].dst, NodeId(2), "only the silent child");
    assert_eq!(n.counters.get("mcast_retransmissions"), 1);
}

#[test]
fn unknown_group_packets_are_counted_and_dropped() {
    let (mut n, mut ext) = nic(1);
    n.host_provide_recv(PORT, 4);
    let pkt = Packet {
        src: NodeId(0),
        dst: NodeId(1),
        kind: PacketKind::Mcast {
            group: GroupId(99),
            seq: 0,
            offset: 0,
            tag: 0,
            root: NodeId(0),
        },
        payload: Payload::new(0, 1),
        len: 1,
    };
    n.packet_arrived(pkt);
    drain_lanai(&mut n, &mut ext);
    assert_eq!(n.counters.get("mcast_unknown_group"), 1);
    assert!(n.tx_start().is_none(), "no ack for unknown groups");
    assert_eq!(n.recv_buffers_free(), n.params().recv_buffers);
}

#[test]
fn degenerate_group_with_no_children_completes_immediately() {
    let (mut n, mut ext) = nic(0);
    install_root(&mut n, &mut ext, &[]);
    n.drain_notices();
    let req = McastRequest::Send {
        group: G,
        data: Payload::new(0, 4),
        tag: 1,
    };
    let cost = ext.request_cost(&req, n.params());
    n.host_ext_request(cost, req);
    drain_lanai(&mut n, &mut ext);
    let notices = n.drain_notices();
    assert!(matches!(
        notices.as_slice(),
        [Notice::Ext(McastNotice::SendDone { tag: 1, .. })]
    ));
}

#[test]
fn multipacket_message_reassembles_at_leaf() {
    let (mut n, mut ext) = nic(1);
    install_member(&mut n, &mut ext, 0, &[]);
    n.drain_notices();
    let payload = Payload::new(5, 6000);
    for (i, offset) in [0u32, 4096].into_iter().enumerate() {
        let pkt = Packet {
            src: NodeId(0),
            dst: NodeId(1),
            kind: PacketKind::Mcast {
                group: G,
                seq: i as u64,
                offset,
                tag: 5,
                root: NodeId(0),
            },
            payload,
            len: payload.packet_len(offset),
        };
        n.packet_arrived(pkt);
    }
    let _ = pump_all(&mut n, &mut ext);
    let notices = n.drain_notices();
    let delivered: Vec<_> = notices
        .iter()
        .filter_map(|no| match no {
            Notice::Recv { tag, data, .. } => Some((*tag, *data)),
            _ => None,
        })
        .collect();
    assert_eq!(delivered.len(), 1);
    assert_eq!(delivered[0].0, 5);
    assert_eq!(delivered[0].1, payload);
}

#[test]
fn group_reinstall_replaces_membership() {
    let (mut n, mut ext) = nic(0);
    install_root(&mut n, &mut ext, &[1, 2]);
    n.drain_notices();
    install_root(&mut n, &mut ext, &[3]);
    n.drain_notices();
    let req = McastRequest::Send {
        group: G,
        data: Payload::new(0, 2),
        tag: 0,
    };
    let cost = ext.request_cost(&req, n.params());
    n.host_ext_request(cost, req);
    let pkts = pump_all(&mut n, &mut ext);
    assert_eq!(pkts.len(), 1);
    assert_eq!(pkts[0].dst, NodeId(3), "new membership in force");
    assert_eq!(ext.group_count(), 1);
}

#[test]
fn work_items_cost_what_the_config_says() {
    let (n, ext) = nic(0);
    let p = n.params();
    let create = McastRequest::CreateGroup {
        group: G,
        port: PORT,
        root: NodeId(0),
        parent: None,
        children: vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)],
    };
    assert_eq!(
        ext.request_cost(&create, p),
        p.group_install_base + p.group_install_per_child * 4
    );
    let send = McastRequest::Send {
        group: G,
        data: Payload::EMPTY,
        tag: 0,
    };
    assert_eq!(ext.request_cost(&send, p), p.ext_req_proc);
}

#[test]
fn replica_chain_holds_exactly_one_send_buffer() {
    let (mut n, mut ext) = nic(0);
    install_root(&mut n, &mut ext, &[1, 2, 3, 4, 5]);
    n.drain_notices();
    let req = McastRequest::Send {
        group: G,
        data: Payload::new(0, 3),
        tag: 0,
    };
    let cost = ext.request_cost(&req, n.params());
    n.host_ext_request(cost, req);
    drain_lanai(&mut n, &mut ext);
    n.pci_start().expect("sdma");
    n.pci_finish(&mut ext);
    let total = n.params().send_buffers;
    // Mid-chain: one buffer held across all five replicas.
    for expect_dst in 1..=5u32 {
        assert_eq!(n.send_buffers_free(), total - 1, "replica {expect_dst}");
        let TxJob { pkt, cb } = n.tx_start().expect("replica");
        assert_eq!(pkt.dst, NodeId(expect_dst));
        n.tx_drained(cb);
        drain_lanai(&mut n, &mut ext); // run the descriptor callback
    }
    assert_eq!(n.send_buffers_free(), total, "buffer released after chain");
}

mod policies {
    //! The ablation-policy code paths, pinned at the unit level.

    use super::*;
    use nic_mcast::{FwdTokenPolicy, McastConfig, MultisendImpl, RetxBufferPolicy};

    fn nic_with(node: u32, config: McastConfig) -> (NicCore<McastExt>, McastExt) {
        (
            NicCore::new(NodeId(node), GmParams::default()),
            McastExt::with_config(config),
        )
    }

    #[test]
    fn per_dest_token_impl_pays_processing_per_destination() {
        let cfg = McastConfig {
            multisend: MultisendImpl::PerDestToken,
            ..McastConfig::default()
        };
        let (mut n, mut ext) = nic_with(0, cfg);
        install_root(&mut n, &mut ext, &[1, 2, 3]);
        n.drain_notices();
        let req = McastRequest::Send {
            group: G,
            data: Payload::new(0, 2),
            tag: 0,
        };
        let cost = ext.request_cost(&req, n.params());
        n.host_ext_request(cost, req);
        // The request processing itself, then one token-processing work
        // item per destination: 4 LANai work items in total, each costed.
        let mut costs = Vec::new();
        loop {
            // Interleave DMA/tx completion so the pipeline can progress.
            while n.pci_start().is_some() {
                n.pci_finish(&mut ext);
            }
            while let Some(TxJob { cb, .. }) = n.tx_start() {
                n.tx_drained(cb);
            }
            match n.lanai_start() {
                Some(c) => {
                    costs.push(c);
                    n.lanai_finish(&mut ext);
                }
                None => break,
            }
        }
        let token_procs = costs
            .iter()
            .filter(|&&c| c == n.params().send_token_proc)
            .count();
        // The Send request itself costs ext_req_proc (same magnitude as a
        // token processing) plus one token-processing item per destination.
        assert_eq!(token_procs, 4, "request + one token proc per destination");
    }

    #[test]
    fn free_pool_forwarding_consumes_and_returns_send_tokens() {
        let cfg = McastConfig {
            fwd_token: FwdTokenPolicy::FreePool,
            ..McastConfig::default()
        };
        let (mut n, mut ext) = nic_with(1, cfg);
        install_member(&mut n, &mut ext, 0, &[2]);
        n.drain_notices();
        let before = {
            // Fill-count probe: take everything, count, put back.
            let mut k = 0;
            while n.take_send_token() {
                k += 1;
            }
            for _ in 0..k {
                n.return_send_token();
            }
            k
        };
        let pkt = Packet {
            src: NodeId(0),
            dst: NodeId(1),
            kind: PacketKind::Mcast {
                group: G,
                seq: 0,
                offset: 0,
                tag: 0,
                root: NodeId(0),
            },
            payload: Payload::new(0, 1),
            len: 1,
        };
        n.packet_arrived(pkt);
        drain_lanai(&mut n, &mut ext);
        // While the record is outstanding the pool is one short.
        let mut during = 0;
        while n.take_send_token() {
            during += 1;
        }
        for _ in 0..during {
            n.return_send_token();
        }
        assert_eq!(during, before - 1, "forwarding borrowed a pool token");
        // Drain forwarding + rdma, then ack from the child: token returns.
        let _ = pump_all(&mut n, &mut ext);
        n.packet_arrived(Packet::mcast_ack(NodeId(2), NodeId(1), G, 0));
        drain_lanai(&mut n, &mut ext);
        let mut after = 0;
        while n.take_send_token() {
            after += 1;
        }
        for _ in 0..after {
            n.return_send_token();
        }
        assert_eq!(after, before, "token returned on full acknowledgment");
    }

    #[test]
    fn hold_sram_keeps_the_receive_buffer_until_children_ack() {
        let cfg = McastConfig {
            retx_buffer: RetxBufferPolicy::HoldSram,
            ..McastConfig::default()
        };
        let (mut n, mut ext) = nic_with(1, cfg);
        install_member(&mut n, &mut ext, 0, &[2]);
        n.drain_notices();
        let total = n.params().recv_buffers;
        let pkt = Packet {
            src: NodeId(0),
            dst: NodeId(1),
            kind: PacketKind::Mcast {
                group: G,
                seq: 0,
                offset: 0,
                tag: 0,
                root: NodeId(0),
            },
            payload: Payload::new(0, 1),
            len: 1,
        };
        n.packet_arrived(pkt);
        let _ = pump_all(&mut n, &mut ext);
        // Forward chain done, RDMA done — but the buffer is still pinned.
        assert_eq!(
            n.recv_buffers_free(),
            total - 1,
            "hold-SRAM pins the buffer past forwarding"
        );
        n.packet_arrived(Packet::mcast_ack(NodeId(2), NodeId(1), G, 0));
        drain_lanai(&mut n, &mut ext);
        assert_eq!(n.recv_buffers_free(), total, "released on ack");
    }

    #[test]
    fn host_memory_policy_frees_the_buffer_at_forward_completion() {
        let (mut n, mut ext) = nic(1);
        install_member(&mut n, &mut ext, 0, &[2]);
        n.drain_notices();
        let total = n.params().recv_buffers;
        let pkt = Packet {
            src: NodeId(0),
            dst: NodeId(1),
            kind: PacketKind::Mcast {
                group: G,
                seq: 0,
                offset: 0,
                tag: 0,
                root: NodeId(0),
            },
            payload: Payload::new(0, 1),
            len: 1,
        };
        n.packet_arrived(pkt);
        let _ = pump_all(&mut n, &mut ext);
        // No ack yet, but the buffer is already back (retransmission would
        // re-download from host memory).
        assert_eq!(n.recv_buffers_free(), total);
        assert_eq!(ext.outstanding(G), 1, "record still awaits the ack");
    }
}

#[test]
fn zero_length_multicast_is_delivered() {
    let (mut n, mut ext) = nic(1);
    install_member(&mut n, &mut ext, 0, &[]);
    n.drain_notices();
    let pkt = Packet {
        src: NodeId(0),
        dst: NodeId(1),
        kind: PacketKind::Mcast {
            group: G,
            seq: 0,
            offset: 0,
            tag: 77,
            root: NodeId(0),
        },
        payload: Payload::EMPTY,
        len: 0,
    };
    n.packet_arrived(pkt);
    let _ = pump_all(&mut n, &mut ext);
    let notices = n.drain_notices();
    assert!(
        matches!(&notices[..], [Notice::Recv { tag: 77, data, .. }] if data.is_empty()),
        "got {notices:?}"
    );
}
