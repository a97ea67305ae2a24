//! The NIC model: a LANai-like serial firmware processor, SDMA/RDMA engines
//! on a shared PCI bus, limited SRAM packet buffers, send/receive tokens, and
//! the GM Go-Back-N protocol state machines.
//!
//! [`NicCore`] holds all NIC state and exposes two surfaces:
//!
//! * **Cluster surface** — `host_*`, `packet_arrived`, `lanai_*`, `pci_*`,
//!   `tx_*`, `timer_fired`, and the `drain_*` intent queues. The cluster
//!   world calls these on events and converts drained intents into new
//!   scheduled events. The NIC never touches the scheduler directly, which
//!   keeps it unit-testable without an engine.
//! * **Extension surface** — buffer/token/DMA/timer/notify primitives used
//!   by [`NicExtension`] implementations (the multicast firmware).

use std::collections::{BTreeMap, VecDeque};

use gm_sim::{Counters, FlowId, SimDuration, SimTime};
use myrinet::{GroupId, NodeId, Packet, PacketKind, Payload, PortId};

use crate::ext::NicExtension;
use crate::params::GmParams;
use gm_proto::{self as proto, Credits, GbnRx, GbnTx, Pool, RxVerdict};

/// Identifies one direction of a GM connection: the remote node plus the
/// (sender port, receiver port) pair.
///
/// Note: acknowledgments carry only the receiver's port, so a node must not
/// open two connections to the same `(peer, dst_port)` from different
/// source ports (GM's subport pairing makes the same assumption; every
/// workload here uses symmetric `src_port == dst_port`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ConnKey {
    /// The remote node.
    pub peer: NodeId,
    /// Port on the sending node.
    pub src_port: PortId,
    /// Port on the receiving node.
    pub dst_port: PortId,
}

/// Arguments of a host send call (`gm_send_with_callback` analogue).
#[derive(Clone, Debug)]
pub struct SendArgs {
    /// Destination node.
    pub dst: NodeId,
    /// Destination port.
    pub dst_port: PortId,
    /// Sending port.
    pub src_port: PortId,
    /// The message (lives in registered host memory).
    pub data: Payload,
    /// Opaque tag returned in the completion notice and delivered with the
    /// message.
    pub tag: u64,
}

/// NIC-to-host notifications.
#[derive(Clone, Debug)]
pub enum Notice<N> {
    /// A send token completed (all packets acknowledged).
    SendComplete {
        /// The sending port.
        port: PortId,
        /// The tag from [`SendArgs`].
        tag: u64,
    },
    /// A complete message arrived and was copied to host memory.
    Recv {
        /// The receiving port.
        port: PortId,
        /// Sending node.
        src: NodeId,
        /// Sending port.
        src_port: PortId,
        /// Sender's tag.
        tag: u64,
        /// The message, as the sender posted it.
        data: Payload,
    },
    /// A host compute block finished (host-internal; never from the NIC).
    ComputeDone {
        /// The tag passed to `compute`.
        tag: u64,
    },
    /// An extension notification.
    Ext(N),
}

/// Transmit-complete descriptor callback tags.
#[derive(Clone, Debug)]
pub enum Cb<T> {
    /// No callback.
    None,
    /// Base protocol: free the send buffer and stamp the send record.
    Base {
        /// Connection of the record.
        conn: ConnKey,
        /// Sequence number of the record.
        seq: u64,
    },
    /// Base protocol: control packet (no buffer), nothing to do.
    Control,
    /// Extension callback (the GM-2 descriptor callback mechanism).
    Ext(T),
}

/// Timer identifiers.
#[derive(Clone, Debug)]
pub enum TimerTag<T> {
    /// Base per-connection retransmission timer (with arm generation).
    Conn {
        /// Connection the timer guards.
        conn: ConnKey,
        /// Generation at arm time; stale generations are ignored.
        gen: u64,
    },
    /// Coalesced-ack flush timer for a receive connection.
    AckFlush {
        /// Receive connection to ack.
        conn: ConnKey,
    },
    /// Extension timer.
    Ext(T),
}

/// A queued LANai work item, paired with its processing cost at enqueue.
#[derive(Debug)]
pub enum Work<X: NicExtension> {
    /// Turn a host send event into a send token and start packetizing.
    SendToken {
        /// Token to activate.
        token: u64,
    },
    /// Process a received unicast data packet.
    RxData(Packet),
    /// Process a received unicast ack.
    RxAck(Packet),
    /// Process a received multicast-typed packet (goes to the extension).
    RxExt(Packet),
    /// Process a host extension request.
    HostReq(X::Request),
    /// Run an extension transmit-complete callback.
    Callback(X::Tag),
    /// Run a deferred extension work item.
    ExtWork(X::Tag),
}

/// A PCI DMA job, paired with its byte count at enqueue.
#[derive(Debug)]
pub enum PciJob<X: NicExtension> {
    /// Download one packet of a message from host memory (first send).
    Sdma {
        /// Connection owning the record.
        conn: ConnKey,
        /// Record sequence.
        seq: u64,
    },
    /// Re-download a packet for Go-Back-N retransmission.
    Retx {
        /// Connection owning the record.
        conn: ConnKey,
        /// Record sequence.
        seq: u64,
    },
    /// Upload received packet data to the host receive buffer.
    Rdma {
        /// Receive connection.
        conn: ConnKey,
        /// Which in-progress message the data belongs to.
        msg_uid: u64,
        /// Payload bytes uploaded.
        bytes: u32,
    },
    /// Extension-owned transfer.
    Ext(X::Tag),
}

/// A packet ready for the transmit DMA engine.
#[derive(Debug)]
pub struct TxJob<T> {
    /// The packet to put on the wire.
    pub pkt: Packet,
    /// Descriptor callback to run when serialization completes.
    pub cb: Cb<T>,
}

/// Fold a 64-bit GM message tag onto the 31-bit [`FlowId`] tag space.
///
/// The top bit of a message tag marks NIC-level collective releases (see
/// `BARRIER_TAG_BIT` in the multicast firmware); a plain truncation would
/// alias round `r` with data tag `r`. Mapping bit 63 onto bit 30 keeps
/// control rounds and data iterations distinct flows. Every flow-from-tag
/// derivation must go through this one function so all layers agree.
pub fn flow_tag(tag: u64) -> u64 {
    (tag & ((1 << 30) - 1)) | ((tag >> 63) << 30)
}

/// The causal flow a wire packet belongs to (see `gm_sim::flow`).
///
/// Data packets carry `(src, tag, dst)`; multicast packets carry the root as
/// origin so every hop of a forwarded message shares one flow per
/// destination. Acks and control packets are not part of any delivery
/// lineage.
pub fn flow_of_packet(pkt: &Packet) -> FlowId {
    match &pkt.kind {
        PacketKind::Data { tag, .. } => FlowId::new(pkt.src.0, flow_tag(*tag), pkt.dst.0),
        PacketKind::Mcast { tag, root, .. } => FlowId::new(root.0, flow_tag(*tag), pkt.dst.0),
        PacketKind::Ack { .. } | PacketKind::McastAck { .. } | PacketKind::Ctl { .. } => {
            FlowId::NONE
        }
    }
}

// ---------------------------------------------------------------------------
// Internal protocol state
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct SendRecord {
    seq: u64,
    token: u64,
    offset: u32,
    /// Payload bytes of this packet.
    len: u32,
    /// Set when the packet's serialization onto the wire completed; `None`
    /// while the packet is still queued for SDMA/transmit (or re-queued for
    /// retransmission).
    sent_at: Option<SimTime>,
    retries: u32,
}

#[derive(Debug, Default)]
struct SendConn {
    tx: GbnTx,
    records: VecDeque<SendRecord>,
    pending_tokens: VecDeque<u64>,
    active_token: Option<u64>,
    /// Packets awaiting a send buffer on this connection (the NIC
    /// round-robins across connections, like GM's per-port send queues).
    sdma_wait: VecDeque<SdmaReq>,
    timer_gen: u64,
    timer_armed: bool,
}

#[derive(Debug)]
struct SendTokenState {
    dst: NodeId,
    dst_port: PortId,
    src_port: PortId,
    data: Payload,
    tag: u64,
    next_offset: u32,
    unacked: usize,
    done_creating: bool,
}

/// A message being reassembled. Go-Back-N accepts packets in order, so the
/// bytes received so far are always the prefix `[0, received)`: coverage is
/// one counter, and no bytes are copied.
#[derive(Debug)]
struct InProgressMsg {
    uid: u64,
    /// The message, from its first packet.
    data: Payload,
    tag: u64,
    received: u32,
    rdma_done: u32,
}

/// Receive-side connection state. Several messages can be in flight at once:
/// the last one is still receiving packets while earlier ones finish their
/// RDMA into host memory.
#[derive(Debug, Default)]
struct RecvConn {
    rx: GbnRx,
    next_uid: u64,
    msgs: VecDeque<InProgressMsg>,
    /// An ack-flush timer is pending for this connection.
    ack_armed: bool,
}

/// One packet waiting for a send buffer (per-connection queue).
#[derive(Debug, Clone, Copy)]
struct SdmaReq {
    seq: u64,
    retx: bool,
}

// ---------------------------------------------------------------------------
// NicCore
// ---------------------------------------------------------------------------

/// All state of one NIC.
pub struct NicCore<X: NicExtension> {
    node: NodeId,
    params: GmParams,
    now: SimTime,

    // LANai processor: work items with their costs, in FIFO order. While
    // `lanai_busy`, the front item is the one running; it leaves the queue
    // when its completion event fires.
    lanai_busy: bool,
    work_q: VecDeque<(SimDuration, Work<X>)>,

    // PCI bus: DMA jobs with their byte counts, the running one in front.
    pci_busy: bool,
    pci_q: VecDeque<(u64, PciJob<X>)>,

    // Transmit engine. The packet on the wire leaves the queue at start;
    // the cluster keeps its callback until it drains.
    tx_busy: bool,
    tx_q: VecDeque<TxJob<X::Tag>>,

    // SRAM buffers (counted pools from the pure protocol core; conservation
    // is debug-asserted at every grant/release site, mirroring the simcheck
    // invariant).
    send_bufs: Pool,
    recv_bufs: Pool,
    /// Round-robin rotation of connections with queued SDMA requests (each
    /// connection appears at most once).
    sdma_rotation: VecDeque<ConnKey>,

    // Group table (indexed slab; capacity is an exhaustible NIC resource
    // exactly like tokens and SRAM — see GmParams::group_table_slots).
    group_table: proto::GroupTable<GroupId>,

    // Tokens.
    send_token_pool: Pool,
    tokens: BTreeMap<u64, SendTokenState>,
    next_token: u64,
    recv_tokens: BTreeMap<PortId, Credits>,

    // Protocol state.
    send_conns: BTreeMap<ConnKey, SendConn>,
    recv_conns: BTreeMap<ConnKey, RecvConn>,

    // Intents drained by the cluster. `pub(crate)` so the cluster's hot
    // pump loop can `drain(..)` in place (keeping the Vec's capacity)
    // instead of swapping in a fresh Vec per pump.
    pub(crate) notices: Vec<Notice<X::Notice>>,
    pub(crate) timer_reqs: Vec<(SimDuration, TimerTag<X::Tag>)>,

    // Extension resource-wait handshake.
    ext_waiting: bool,
    resource_freed: bool,

    /// Retransmitted packets, base protocol and extension together (see
    /// [`NicCore::add_retransmissions`]).
    retx_total: u64,

    /// Protocol counters (packets, drops, retransmissions...).
    pub counters: Counters,
}

impl<X: NicExtension> NicCore<X> {
    /// A fresh NIC for `node`.
    pub fn new(node: NodeId, params: GmParams) -> Self {
        NicCore {
            node,
            send_bufs: Pool::new(params.send_buffers),
            recv_bufs: Pool::new(params.recv_buffers),
            send_token_pool: Pool::new(params.send_tokens),
            group_table: proto::GroupTable::new(params.group_table_slots),
            params,
            now: SimTime::ZERO,
            lanai_busy: false,
            work_q: VecDeque::new(),
            pci_busy: false,
            pci_q: VecDeque::new(),
            tx_busy: false,
            tx_q: VecDeque::new(),
            sdma_rotation: VecDeque::new(),
            tokens: BTreeMap::new(),
            next_token: 0,
            recv_tokens: BTreeMap::new(),
            send_conns: BTreeMap::new(),
            recv_conns: BTreeMap::new(),
            notices: Vec::new(),
            timer_reqs: Vec::new(),
            ext_waiting: false,
            resource_freed: false,
            retx_total: 0,
            counters: Counters::new(),
        }
    }

    /// This NIC's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current simulated time (updated by the cluster before each call).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node's parameter set.
    pub fn params(&self) -> &GmParams {
        &self.params
    }

    /// Advance the NIC's view of time. Called by the cluster at dispatch.
    pub fn set_now(&mut self, now: SimTime) {
        debug_assert!(now >= self.now);
        self.now = now;
    }

    // -- Host surface --------------------------------------------------------

    /// A host send event arrived at the NIC (doorbell). Queues LANai work to
    /// translate it into a send token.
    ///
    /// Returns `false` if the node is out of send tokens (callers should
    /// treat this as backpressure; the cluster's host model retries).
    pub fn host_send(&mut self, args: SendArgs) -> bool {
        assert!(args.dst != self.node, "GM loopback send is not modelled");
        if !self.send_token_pool.try_take() {
            self.counters.bump("send_token_stall");
            return false;
        }
        self.debug_check_conservation();
        let id = self.next_token;
        self.next_token += 1;
        self.tokens.insert(
            id,
            SendTokenState {
                dst: args.dst,
                dst_port: args.dst_port,
                src_port: args.src_port,
                data: args.data,
                tag: args.tag,
                next_offset: 0,
                unacked: 0,
                done_creating: false,
            },
        );
        self.work_q
            .push_back((self.params.send_token_proc, Work::SendToken { token: id }));
        true
    }

    /// The host preposted `n` receive buffers on `port`.
    pub fn host_provide_recv(&mut self, port: PortId, n: usize) {
        self.recv_tokens
            .entry(port)
            .or_default()
            .grant(n as u64);
        self.debug_check_conservation();
    }

    /// Receive tokens currently available on `port`.
    pub fn recv_tokens(&self, port: PortId) -> usize {
        self.recv_tokens
            .get(&port)
            .map_or(0, |c| c.available() as usize)
    }

    /// Free send tokens (host sends park until one is available).
    pub fn send_tokens_free(&self) -> usize {
        self.send_token_pool.free()
    }

    /// Queue LANai work for a host extension request (cost supplied by the
    /// extension's `request_cost`).
    pub fn host_ext_request(&mut self, cost: SimDuration, req: X::Request) {
        self.work_q.push_back((cost, Work::HostReq(req)));
    }

    // -- Wire surface --------------------------------------------------------

    /// A packet's tail arrived from the fabric.
    pub fn packet_arrived(&mut self, pkt: Packet) {
        match &pkt.kind {
            PacketKind::Ack { .. } | PacketKind::McastAck { .. } | PacketKind::Ctl { .. } => {
                // Control packets are consumed from the small receive FIFO
                // and never occupy an SRAM packet buffer.
                let cost = self.params.ack_proc;
                let work = if pkt.kind.is_mcast() {
                    Work::RxExt(pkt)
                } else {
                    Work::RxAck(pkt)
                };
                self.work_q.push_back((cost, work));
            }
            PacketKind::Data { .. } | PacketKind::Mcast { .. } => {
                if !self.recv_bufs.try_take() {
                    // GM behaviour: no buffer, drop; the sender's timeout
                    // recovers the packet.
                    self.counters.bump("rx_drop_no_sram");
                    return;
                }
                let cost = self.params.recv_proc;
                let work = if pkt.kind.is_mcast() {
                    Work::RxExt(pkt)
                } else {
                    Work::RxData(pkt)
                };
                self.work_q.push_back((cost, work));
            }
        }
    }

    // -- LANai processor -----------------------------------------------------

    /// If the LANai is idle and work is queued, start the next item; it
    /// stays at the front of the queue while it runs. The caller schedules
    /// [`lanai_finish`](Self::lanai_finish) after the returned cost.
    pub fn lanai_start(&mut self) -> Option<SimDuration> {
        if self.lanai_busy {
            return None;
        }
        let &(cost, _) = self.work_q.front()?;
        self.lanai_busy = true;
        Some(cost)
    }

    /// The running LANai work item (between
    /// [`lanai_start`](Self::lanai_start) and
    /// [`lanai_finish`](Self::lanai_finish)).
    fn running_work(&self) -> &Work<X> {
        debug_assert!(self.lanai_busy, "no LANai work item is running");
        &self.work_q.front().expect("a LANai work item is running").1
    }

    /// Display label of the running work item (probe spans).
    pub fn work_kind(&self) -> &'static str {
        match self.running_work() {
            Work::SendToken { .. } => "send_token",
            Work::RxData(_) => "rx_data",
            Work::RxAck(_) => "rx_ack",
            Work::RxExt(_) => "rx_ext",
            Work::HostReq(_) => "host_req",
            Work::Callback(_) => "callback",
            Work::ExtWork(_) => "ext_work",
        }
    }

    /// Apply the effects of the running work item, which leaves the queue.
    pub fn lanai_finish(&mut self, ext: &mut X) {
        self.lanai_busy = false;
        let (_cost, work) = self
            .work_q
            .pop_front()
            .expect("a LANai work item is running");
        match work {
            Work::SendToken { token } => self.activate_token(token),
            Work::RxData(pkt) => self.rx_data(&pkt),
            Work::RxAck(pkt) => self.rx_ack(&pkt),
            Work::RxExt(pkt) => ext.packet(self, pkt),
            Work::HostReq(req) => ext.host_request(self, req),
            Work::Callback(tag) => ext.tx_callback(self, tag),
            Work::ExtWork(tag) => ext.work(self, tag),
        }
    }

    // -- Transmit engine -----------------------------------------------------

    /// If the wire is idle and a packet is queued, start transmitting it.
    /// The caller injects the packet into the fabric and schedules
    /// [`tx_drained`](Self::tx_drained) at the fabric's `src_free` time.
    pub fn tx_start(&mut self) -> Option<TxJob<X::Tag>> {
        if self.tx_busy {
            return None;
        }
        let job = self.tx_q.pop_front()?;
        self.tx_busy = true;
        Some(job)
    }

    /// The transmit DMA engine finished serializing the current packet.
    pub fn tx_drained(&mut self, cb: Cb<X::Tag>) {
        self.tx_busy = false;
        match cb {
            Cb::None | Cb::Control => {}
            Cb::Base { conn, seq } => {
                self.free_send_buffer();
                if let Some(rec) = self
                    .send_conns
                    .get_mut(&conn)
                    .and_then(|c| c.records.iter_mut().find(|r| r.seq == seq))
                {
                    rec.sent_at = Some(self.now);
                }
                self.arm_conn_timer(conn);
            }
            Cb::Ext(tag) => {
                // The descriptor's callback handler runs on the LANai.
                self.work_q
                    .push_back((self.params.callback_proc, Work::Callback(tag)));
            }
        }
    }

    // -- PCI bus -------------------------------------------------------------

    /// If the PCI bus is idle and a DMA is queued, start it; it stays at
    /// the front of the queue while it runs. The caller schedules
    /// [`pci_finish`](Self::pci_finish) after the returned time.
    pub fn pci_start(&mut self) -> Option<SimDuration> {
        if self.pci_busy {
            return None;
        }
        let &(bytes, _) = self.pci_q.front()?;
        self.pci_busy = true;
        Some(self.params.dma_time(bytes))
    }

    /// Apply the effects of the running DMA transfer, which leaves the
    /// queue.
    pub fn pci_finish(&mut self, ext: &mut X) {
        self.pci_busy = false;
        let (_bytes, job) = self.pci_q.pop_front().expect("a DMA transfer is running");
        match job {
            PciJob::Sdma { conn, seq } | PciJob::Retx { conn, seq } => {
                self.sdma_complete(conn, seq);
            }
            PciJob::Rdma {
                conn,
                msg_uid,
                bytes,
            } => self.rdma_complete(conn, msg_uid, bytes),
            PciJob::Ext(tag) => ext.dma_done(self, tag),
        }
    }

    // -- Timers --------------------------------------------------------------

    /// A previously requested timer fired.
    pub fn timer_fired(&mut self, tag: TimerTag<X::Tag>, ext: &mut X) {
        match tag {
            TimerTag::Conn { conn, gen } => self.conn_timeout(conn, gen),
            TimerTag::AckFlush { conn } => self.flush_ack(conn),
            TimerTag::Ext(tag) => ext.timer(self, tag),
        }
    }

    /// Send the pending cumulative ack for a receive connection.
    fn flush_ack(&mut self, key: ConnKey) {
        let Some(conn) = self.recv_conns.get_mut(&key) else {
            return;
        };
        conn.ack_armed = false;
        if let Some(a) = conn.rx.cum_ack() {
            let ack = Packet::ack(self.node, key.peer, key.dst_port, a);
            self.counters.bump("tx_acks");
            self.tx_q.push_back(TxJob {
                pkt: ack,
                cb: Cb::Control,
            });
        }
    }

    // -- Intent drains -------------------------------------------------------

    /// True if the LANai has queued work and is idle (the cluster should
    /// pump).
    pub fn wants_pump(&self) -> bool {
        (!self.lanai_busy && !self.work_q.is_empty())
            || (!self.pci_busy && !self.pci_q.is_empty())
            || (!self.tx_busy && !self.tx_q.is_empty())
            || !self.notices.is_empty()
            || !self.timer_reqs.is_empty()
            || (self.ext_waiting && self.resource_freed)
    }

    /// Take all pending NIC-to-host notices.
    pub fn drain_notices(&mut self) -> Vec<Notice<X::Notice>> {
        std::mem::take(&mut self.notices)
    }

    /// Take all pending timer arm requests.
    pub fn drain_timer_reqs(&mut self) -> Vec<(SimDuration, TimerTag<X::Tag>)> {
        std::mem::take(&mut self.timer_reqs)
    }

    // -- Extension surface ---------------------------------------------------

    /// Queue a packet for transmission with an optional descriptor callback.
    ///
    /// Extension packets do not consume base send buffers; the extension
    /// does its own buffer accounting.
    pub fn ext_tx(&mut self, pkt: Packet, cb: Cb<X::Tag>) {
        self.tx_q.push_back(TxJob { pkt, cb });
    }

    /// Queue a deferred LANai work item at `cost`.
    pub fn ext_work(&mut self, cost: SimDuration, tag: X::Tag) {
        self.work_q.push_back((cost, Work::ExtWork(tag)));
    }

    /// Queue an extension DMA of `bytes` over the shared PCI bus.
    pub fn ext_dma(&mut self, bytes: u64, tag: X::Tag) {
        self.pci_q.push_back((bytes, PciJob::Ext(tag)));
    }

    /// Arm an extension timer.
    pub fn ext_timer(&mut self, delay: SimDuration, tag: X::Tag) {
        self.timer_reqs.push((delay, TimerTag::Ext(tag)));
    }

    /// Post an extension notice to the host.
    pub fn ext_notify(&mut self, notice: X::Notice) {
        self.notices.push(Notice::Ext(notice));
    }

    /// Post a receive notice to the host (the extension delivers multicast
    /// messages through the same host receive path as unicast).
    pub fn notify_recv(&mut self, port: PortId, src: NodeId, src_port: PortId, tag: u64, data: Payload) {
        self.notices.push(Notice::Recv {
            port,
            src,
            src_port,
            tag,
            data,
        });
    }

    /// Consume one receive token on `port`. Returns false (and counts) if
    /// none are available.
    pub fn take_recv_token(&mut self, port: PortId) -> bool {
        let ok = self
            .recv_tokens
            .get_mut(&port)
            .is_some_and(Credits::try_consume);
        if ok {
            self.debug_check_conservation();
        } else {
            self.counters.bump("rx_drop_no_token");
        }
        ok
    }

    /// Try to claim a send SRAM buffer.
    pub fn alloc_send_buffer(&mut self) -> bool {
        let ok = self.send_bufs.try_take();
        if ok {
            self.debug_check_conservation();
        }
        ok
    }

    /// Return a send SRAM buffer and let waiting SDMA requests proceed.
    pub fn free_send_buffer(&mut self) {
        self.send_bufs.put();
        self.debug_check_conservation();
        self.resource_freed = true;
        self.pump_sdma();
    }

    /// Return a receive SRAM buffer (extension forwarding path).
    pub fn free_recv_buffer(&mut self) {
        self.recv_bufs.put();
        self.debug_check_conservation();
        self.resource_freed = true;
    }

    /// The extension declares it is blocked on an SRAM buffer or token; the
    /// cluster will invoke `resources_available` once something frees up.
    pub fn signal_resource_wait(&mut self) {
        self.ext_waiting = true;
    }

    /// Cluster-side check: should `resources_available` run now?
    pub fn take_resource_signal(&mut self) -> bool {
        if self.ext_waiting && self.resource_freed {
            self.ext_waiting = false;
            self.resource_freed = false;
            true
        } else {
            false
        }
    }

    /// Try to claim a send token from the free pool (used only by the
    /// ablation that retransmits from pool tokens instead of transforming
    /// the receive token; can deadlock, as the paper warns).
    pub fn take_send_token(&mut self) -> bool {
        let ok = self.send_token_pool.try_take();
        if ok {
            self.debug_check_conservation();
        }
        ok
    }

    /// Return a pool send token.
    pub fn return_send_token(&mut self) {
        self.send_token_pool.put();
        self.debug_check_conservation();
        self.resource_freed = true;
    }

    /// Free send SRAM buffers currently available (for tests/ablations).
    pub fn send_buffers_free(&self) -> usize {
        self.send_bufs.free()
    }

    /// Free receive SRAM buffers currently available.
    pub fn recv_buffers_free(&self) -> usize {
        self.recv_bufs.free()
    }

    // -- Group table (indexed per-group NIC state) ---------------------------

    /// Claim a group-table slot for `id`. Returns `false` when the table is
    /// full (the caller must queue the install — see the admission queue in
    /// the multicast extension) or when `id` is already installed.
    pub fn group_alloc(&mut self, id: GroupId) -> bool {
        let ok = self.group_table.alloc(id).is_some();
        debug_assert!(
            self.group_table.is_conserved(),
            "group-table conservation: slot leaked or double-allocated"
        );
        ok
    }

    /// Release the group-table slot held by `id`. Freeing a slot is a
    /// resource-release event, exactly like returning a send token: it wakes
    /// anything stalled on table capacity.
    pub fn group_free(&mut self, id: GroupId) {
        let slot = self.group_table.release(id);
        debug_assert!(
            slot.is_some(),
            "group-table conservation: freed a group that holds no slot"
        );
        debug_assert!(
            self.group_table.is_conserved(),
            "group-table conservation: slot leaked or double-freed"
        );
        self.resource_freed = true;
    }

    /// Group-table slots currently occupied (telemetry gauge).
    pub fn groups_used(&self) -> usize {
        self.group_table.used()
    }

    /// Count `n` packets queued for retransmission under `counter`, and in
    /// the NIC's running total of every retransmission. The base protocol
    /// counts `retransmissions`; an extension names its own counter.
    pub fn add_retransmissions(&mut self, counter: &'static str, n: u64) {
        self.counters.add(counter, n);
        self.retx_total += n;
    }

    /// Packets retransmitted so far, base protocol and extension together
    /// (telemetry gauge).
    pub fn retransmissions(&self) -> u64 {
        self.retx_total
    }

    /// Runtime mirror of simcheck's token-conservation invariant (I2):
    /// checked at every grant/release site in debug builds so ordinary
    /// simulation runs cheaply cross-validate the model. Release builds
    /// compile this to nothing.
    fn debug_check_conservation(&self) {
        debug_assert!(
            self.send_bufs.is_conserved(),
            "token conservation: send-buffer pool leaked or double-freed"
        );
        debug_assert!(
            self.recv_bufs.is_conserved(),
            "token conservation: recv-buffer pool leaked or double-freed"
        );
        debug_assert!(
            self.send_token_pool.is_conserved(),
            "token conservation: send-token pool leaked or double-freed"
        );
        debug_assert!(
            self.recv_tokens.values().all(Credits::is_conserved),
            "token conservation: receive credits consumed beyond grants"
        );
        debug_assert!(
            self.group_table.is_conserved(),
            "token conservation: group-table slots leaked or double-allocated"
        );
    }

    // -- Flow attribution ----------------------------------------------------

    /// The causal flow the running LANai work item belongs to (valid
    /// between `lanai_start` and `lanai_finish`). Extension work resolves
    /// through [`NicExtension::flow_of_tag`]/[`flow_of_request`]; acks
    /// resolve to [`FlowId::NONE`] (they end a window, not a delivery).
    ///
    /// [`flow_of_request`]: NicExtension::flow_of_request
    pub fn flow_of_work(&self, ext: &X) -> FlowId {
        match self.running_work() {
            Work::SendToken { token } => match self.tokens.get(token) {
                Some(t) => FlowId::new(self.node.0, flow_tag(t.tag), t.dst.0),
                None => FlowId::NONE,
            },
            Work::RxData(pkt) | Work::RxExt(pkt) => flow_of_packet(pkt),
            Work::RxAck(_) => FlowId::NONE,
            Work::HostReq(req) => ext.flow_of_request(self.node.0, req),
            Work::Callback(tag) | Work::ExtWork(tag) => ext.flow_of_tag(self.node.0, tag),
        }
    }

    /// The causal flow the running PCI DMA job moves bytes for (valid
    /// between `pci_start` and `pci_finish`): SDMA/retransmit jobs resolve
    /// through the send record's token, RDMA jobs through the receive
    /// connection's in-progress message.
    pub fn flow_of_pci(&self, ext: &X) -> FlowId {
        debug_assert!(self.pci_busy, "no DMA transfer is running");
        match &self.pci_q.front().expect("a DMA transfer is running").1 {
            PciJob::Sdma { conn, seq } | PciJob::Retx { conn, seq } => {
                let tag = self
                    .send_conns
                    .get(conn)
                    .and_then(|c| c.records.iter().find(|r| r.seq == *seq))
                    .and_then(|r| self.tokens.get(&r.token))
                    .map(|t| t.tag);
                match tag {
                    Some(tag) => FlowId::new(self.node.0, flow_tag(tag), conn.peer.0),
                    None => FlowId::NONE,
                }
            }
            PciJob::Rdma { conn, msg_uid, .. } => {
                let tag = self
                    .recv_conns
                    .get(conn)
                    .and_then(|c| c.msgs.iter().find(|m| m.uid == *msg_uid))
                    .map(|m| m.tag);
                match tag {
                    Some(tag) => FlowId::new(conn.peer.0, flow_tag(tag), self.node.0),
                    None => FlowId::NONE,
                }
            }
            PciJob::Ext(tag) => ext.flow_of_tag(self.node.0, tag),
        }
    }

    /// The causal flow a base receive notice delivers ([`FlowId::NONE`] for
    /// send completions and compute ticks; extension notices resolve through
    /// [`NicExtension::flow_of_notice`]).
    pub fn flow_of_notice(&self, notice: &Notice<X::Notice>, ext: &X) -> FlowId {
        match notice {
            Notice::Recv { src, tag, .. } => FlowId::new(src.0, flow_tag(*tag), self.node.0),
            Notice::Ext(n) => ext.flow_of_notice(self.node.0, n),
            Notice::SendComplete { .. } | Notice::ComputeDone { .. } => FlowId::NONE,
        }
    }

    // -- Telemetry gauges ----------------------------------------------------

    /// LANai work items waiting behind the running one (telemetry gauge).
    pub fn lanai_queue_len(&self) -> usize {
        self.work_q.len() - usize::from(self.lanai_busy)
    }

    /// PCI DMA jobs waiting behind the running one (telemetry gauge).
    pub fn pci_queue_len(&self) -> usize {
        self.pci_q.len() - usize::from(self.pci_busy)
    }

    /// Packets queued for the transmit DMA engine (telemetry gauge).
    pub fn tx_queue_len(&self) -> usize {
        self.tx_q.len()
    }

    /// Send tokens currently in use (telemetry gauge).
    pub fn send_tokens_used(&self) -> usize {
        self.send_token_pool.in_use()
    }

    /// SRAM packet buffers currently in use, send + receive (telemetry
    /// gauge: the paper's firmware competes for this pool).
    pub fn sram_buffers_used(&self) -> usize {
        self.send_bufs.in_use() + self.recv_bufs.in_use()
    }

    /// Receive tokens available across all ports (telemetry gauge).
    pub fn recv_tokens_avail(&self) -> usize {
        self.recv_tokens.values().map(|c| c.available() as usize).sum()
    }

    // -- Base protocol internals ----------------------------------------------

    fn conn_for_token(&self, t: &SendTokenState) -> ConnKey {
        ConnKey {
            peer: t.dst,
            src_port: t.src_port,
            dst_port: t.dst_port,
        }
    }

    /// LANai finished translating a host send event: make the token active
    /// on its connection (or queue it behind earlier messages).
    fn activate_token(&mut self, token: u64) {
        let t = &self.tokens[&token];
        let key = self.conn_for_token(t);
        let conn = self.send_conns.entry(key).or_default();
        conn.pending_tokens.push_back(token);
        self.pump_conn(key);
    }

    /// Advance a connection: activate the next token and create packet
    /// records up to the Go-Back-N window.
    fn pump_conn(&mut self, key: ConnKey) {
        loop {
            let Some(conn) = self.send_conns.get_mut(&key) else {
                return;
            };
            if conn.active_token.is_none() {
                conn.active_token = conn.pending_tokens.pop_front();
            }
            let Some(tid) = conn.active_token else {
                return;
            };
            let token = self.tokens.get_mut(&tid).expect("active token exists");
            let len = token.data.len() as u32;
            let mut made_progress = false;
            while !token.done_creating
                && conn.tx.can_admit(conn.records.len(), self.params.send_window)
            {
                let off = token.next_offset;
                let chunk = token.data.packet_len(off);
                let seq = conn.tx.assign_seq();
                conn.records.push_back(SendRecord {
                    seq,
                    token: tid,
                    offset: off,
                    len: chunk,
                    sent_at: None,
                    retries: 0,
                });
                token.unacked += 1;
                token.next_offset = off + chunk;
                if token.next_offset >= len {
                    token.done_creating = true;
                }
                conn.sdma_wait.push_back(SdmaReq { seq, retx: false });
                made_progress = true;
            }
            if token.done_creating {
                // Allow the next message on this connection to start
                // packetizing (its packets follow in seq order).
                conn.active_token = None;
                if conn.pending_tokens.is_empty() {
                    break;
                }
                continue;
            }
            if !made_progress {
                break;
            }
        }
        self.enroll_sdma(key);
        self.pump_sdma();
    }

    /// Put `key` into the SDMA round-robin if it has waiting requests.
    fn enroll_sdma(&mut self, key: ConnKey) {
        let waiting = self
            .send_conns
            .get(&key)
            .is_some_and(|c| !c.sdma_wait.is_empty());
        if waiting && !self.sdma_rotation.contains(&key) {
            self.sdma_rotation.push_back(key);
        }
    }

    /// Start SDMA downloads while send buffers are available, taking one
    /// request per connection in rotation (GM round-robins across its
    /// per-port send queues, so bulk traffic cannot starve other ports).
    fn pump_sdma(&mut self) {
        while self.send_bufs.free() > 0 {
            let Some(key) = self.sdma_rotation.pop_front() else {
                return;
            };
            let Some(conn) = self.send_conns.get_mut(&key) else {
                continue;
            };
            let Some(req) = conn.sdma_wait.pop_front() else {
                continue;
            };
            if !conn.sdma_wait.is_empty() {
                self.sdma_rotation.push_back(key);
            }
            // The record may have been acked while waiting (retransmit race).
            let Some(rec) = self
                .send_conns
                .get(&key)
                .and_then(|c| c.records.iter().find(|r| r.seq == req.seq))
            else {
                self.enroll_sdma(key);
                continue;
            };
            let took = self.send_bufs.try_take();
            debug_assert!(took, "loop guard guarantees a free send buffer");
            let bytes = u64::from(rec.len);
            let job = if req.retx {
                PciJob::Retx {
                    conn: key,
                    seq: req.seq,
                }
            } else {
                PciJob::Sdma {
                    conn: key,
                    seq: req.seq,
                }
            };
            self.pci_q.push_back((bytes, job));
        }
    }

    /// A packet finished downloading into a send buffer: put it on the wire.
    fn sdma_complete(&mut self, key: ConnKey, seq: u64) {
        let Some(rec) = self
            .send_conns
            .get(&key)
            .and_then(|c| c.records.iter().find(|r| r.seq == seq))
        else {
            // Acked while the DMA was in flight; release the buffer.
            self.free_send_buffer();
            return;
        };
        let token = &self.tokens[&rec.token];
        let pkt = Packet {
            src: self.node,
            dst: key.peer,
            kind: PacketKind::Data {
                port: key.dst_port,
                src_port: key.src_port,
                seq,
                offset: rec.offset,
                tag: token.tag,
            },
            payload: token.data,
            len: rec.len,
        };
        self.counters.bump("tx_data");
        self.tx_q.push_back(TxJob {
            pkt,
            cb: Cb::Base { conn: key, seq },
        });
    }

    /// Arm the retransmission timer for a connection if not already armed.
    fn arm_conn_timer(&mut self, key: ConnKey) {
        let Some(conn) = self.send_conns.get_mut(&key) else {
            return;
        };
        if conn.timer_armed || conn.records.is_empty() {
            return;
        }
        conn.timer_armed = true;
        conn.timer_gen += 1;
        let gen = conn.timer_gen;
        self.timer_reqs
            .push((self.params.timeout, TimerTag::Conn { conn: key, gen }));
    }

    /// Retransmission timer fired for a connection.
    fn conn_timeout(&mut self, key: ConnKey, gen: u64) {
        let timeout = self.params.timeout;
        let now = self.now;
        let Some(conn) = self.send_conns.get_mut(&key) else {
            return;
        };
        if gen != conn.timer_gen {
            return; // stale timer
        }
        conn.timer_armed = false;
        if conn.records.is_empty() {
            return;
        }
        // Oldest transmitted-and-unacked record decides.
        let oldest_sent = conn.records.iter().filter_map(|r| r.sent_at).min();
        match oldest_sent {
            None => {
                // Nothing on the wire yet (all waiting for SDMA); check later.
                conn.timer_armed = true;
                conn.timer_gen += 1;
                let gen = conn.timer_gen;
                self.timer_reqs
                    .push((timeout, TimerTag::Conn { conn: key, gen }));
            }
            Some(sent) if now.saturating_since(sent) >= timeout => {
                // Go-Back-N: retransmit every sent-and-unacked record, oldest
                // first ("retransmit the packet, as well as all the later
                // packets from the same port").
                let mut retx: Vec<u64> = Vec::new();
                let mut max_retries = 0u32;
                for r in conn.records.iter_mut() {
                    if r.sent_at.is_some() {
                        r.sent_at = None;
                        r.retries += 1;
                        max_retries = max_retries.max(r.retries);
                        retx.push(r.seq);
                    }
                }
                for &seq in retx.iter().rev() {
                    conn.sdma_wait.push_front(SdmaReq { seq, retx: true });
                }
                conn.timer_armed = true;
                conn.timer_gen += 1;
                let gen = conn.timer_gen;
                self.add_retransmissions("retransmissions", retx.len() as u64);
                // Exponential backoff: never beat a congested network while
                // it is already draining our duplicates.
                let delay = timeout * (1u64 << max_retries.min(5));
                self.timer_reqs
                    .push((delay, TimerTag::Conn { conn: key, gen }));
                self.enroll_sdma(key);
                self.pump_sdma();
            }
            Some(sent) => {
                // Not yet due: re-check when the oldest record matures.
                conn.timer_armed = true;
                conn.timer_gen += 1;
                let gen = conn.timer_gen;
                let remaining = timeout - now.saturating_since(sent);
                self.timer_reqs
                    .push((remaining, TimerTag::Conn { conn: key, gen }));
            }
        }
    }

    /// Received a unicast data packet (LANai cost already charged).
    fn rx_data(&mut self, pkt: &Packet) {
        let &PacketKind::Data {
            port,
            src_port,
            seq,
            offset,
            tag,
        } = &pkt.kind
        else {
            unreachable!("rx_data called on non-data packet");
        };
        let key = ConnKey {
            peer: pkt.src,
            src_port,
            dst_port: port,
        };
        let verdict = self.recv_conns.entry(key).or_default().rx.verdict(seq);
        if let RxVerdict::OutOfOrder { reack } = verdict {
            // Out of order (Go-Back-N): drop, re-ack the last in-order seq
            // immediately (duplicates signal the sender is retransmitting,
            // so never delay this one).
            self.counters.bump("rx_out_of_order");
            self.free_recv_buffer();
            if let Some(a) = reack {
                let ack = Packet::ack(self.node, key.peer, port, a);
                self.counters.bump("tx_acks");
                self.tx_q.push_back(TxJob {
                    pkt: ack,
                    cb: Cb::Control,
                });
            }
            return;
        }
        if offset == 0 {
            // A new message needs a receive token.
            if !self.take_recv_token(port) {
                // No token: drop without acking; sender retries.
                self.free_recv_buffer();
                return;
            }
            let conn = self.recv_conns.get_mut(&key).expect("conn exists");
            let uid = conn.next_uid;
            conn.next_uid += 1;
            conn.msgs.push_back(InProgressMsg {
                uid,
                data: pkt.payload,
                tag,
                received: 0,
                rdma_done: 0,
            });
        }
        let conn = self.recv_conns.get_mut(&key).expect("conn exists");
        // In-order delivery means mid-message packets always extend the
        // youngest open message.
        let msg = conn
            .msgs
            .back_mut()
            .expect("mid-message packet without an open message");
        debug_assert_eq!(pkt.payload, msg.data, "packet of another message");
        debug_assert_eq!(
            offset, msg.received,
            "message {:?}: a packet that does not continue the covered prefix",
            msg.data
        );
        msg.received += pkt.len;
        let msg_uid = msg.uid;
        conn.rx.accept();
        self.counters.bump("rx_data");
        // Ack the packet (possibly coalesced) and upload its payload to the
        // host buffer. The receive SRAM buffer stays occupied until the
        // RDMA drains.
        self.ack_or_coalesce(key, seq);
        self.pci_q.push_back((
            u64::from(pkt.len),
            PciJob::Rdma {
                conn: key,
                msg_uid,
                bytes: pkt.len,
            },
        ));
    }

    /// Either ack `seq` right away or arm the coalescing flush timer.
    fn ack_or_coalesce(&mut self, key: ConnKey, seq: u64) {
        let window = self.params.ack_coalesce;
        if window == SimDuration::ZERO {
            let ack = Packet::ack(self.node, key.peer, key.dst_port, seq);
            self.counters.bump("tx_acks");
            self.tx_q.push_back(TxJob {
                pkt: ack,
                cb: Cb::Control,
            });
            return;
        }
        let conn = self.recv_conns.get_mut(&key).expect("conn exists");
        if !conn.ack_armed {
            conn.ack_armed = true;
            self.timer_reqs.push((window, TimerTag::AckFlush { conn: key }));
        } else {
            // A flush is already pending: this ack merges into it.
            self.counters.bump("acks_coalesced");
        }
    }

    /// A received packet's payload finished uploading to host memory.
    fn rdma_complete(&mut self, key: ConnKey, msg_uid: u64, bytes: u32) {
        self.free_recv_buffer();
        let conn = self.recv_conns.get_mut(&key).expect("conn exists");
        let idx = conn
            .msgs
            .iter()
            .position(|m| m.uid == msg_uid)
            .expect("rdma for an open message");
        let msg = &mut conn.msgs[idx];
        msg.rdma_done += bytes;
        let len = msg.data.len() as u32;
        if msg.rdma_done >= len && msg.received >= len {
            let msg = conn.msgs.remove(idx).expect("index valid");
            debug_assert_eq!(
                msg.received, len,
                "message {:?} delivered before [0, len) was covered exactly once",
                msg.data
            );
            self.notices.push(Notice::Recv {
                port: key.dst_port,
                src: key.peer,
                src_port: key.src_port,
                tag: msg.tag,
                data: msg.data,
            });
        }
    }

    /// Received a cumulative ack for a unicast connection.
    fn rx_ack(&mut self, pkt: &Packet) {
        let &PacketKind::Ack { port, seq } = &pkt.kind else {
            unreachable!("rx_ack called on non-ack packet");
        };
        // Find the send connection this ack belongs to. The ack carries the
        // receiver's port; ports pair uniquely per peer in our workloads.
        let key = self
            .send_conns
            .keys()
            .find(|k| k.peer == pkt.src && k.dst_port == port)
            .copied();
        let Some(key) = key else {
            self.counters.bump("rx_stray_ack");
            return;
        };
        let conn = self.send_conns.get_mut(&key).expect("key exists");
        // A cumulative ack for `seq` means `seq + 1` packets are confirmed;
        // the shared release-horizon function decides how many records that
        // frees (the seeded off-by-one mutation lives in there).
        let horizon = proto::release_horizon(seq + 1, self.params.mutation);
        let mut completed: Vec<u64> = Vec::new();
        while let Some(front) = conn.records.front() {
            if front.seq >= horizon {
                break;
            }
            let rec = conn.records.pop_front().expect("nonempty");
            completed.push(rec.token);
        }
        if completed.is_empty() {
            return;
        }
        self.counters.add("acked_packets", completed.len() as u64);
        for tid in completed {
            let token = self.tokens.get_mut(&tid).expect("token exists");
            token.unacked -= 1;
            if token.done_creating && token.unacked == 0 {
                let token = self.tokens.remove(&tid).expect("token exists");
                self.send_token_pool.put();
                self.debug_check_conservation();
                self.notices.push(Notice::SendComplete {
                    port: token.src_port,
                    tag: token.tag,
                });
            }
        }
        // Window space may have opened for the active message.
        self.pump_conn(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ext::NoExt;

    const P0: PortId = PortId(0);

    fn nic() -> (NicCore<NoExt>, NoExt) {
        (NicCore::new(NodeId(0), GmParams::default()), NoExt)
    }

    fn args(dst: u32, len: usize, tag: u64) -> SendArgs {
        SendArgs {
            dst: NodeId(dst),
            dst_port: P0,
            src_port: P0,
            data: Payload::new(tag as u32, len),
            tag,
        }
    }

    /// Drive the LANai until its work queue drains, like the cluster would.
    fn drain_lanai(n: &mut NicCore<NoExt>, ext: &mut NoExt) {
        while n.lanai_start().is_some() {
            n.lanai_finish(ext);
        }
    }

    #[test]
    fn send_token_pool_is_bounded() {
        let (mut n, _) = nic();
        let limit = n.params().send_tokens;
        for i in 0..limit {
            assert!(n.host_send(args(1, 8, i as u64)), "token {i} available");
        }
        assert!(!n.host_send(args(1, 8, 999)), "pool exhausted");
        assert_eq!(n.counters.get("send_token_stall"), 1);
    }

    #[test]
    fn send_pipeline_produces_packets_in_seq_order() {
        let (mut n, mut ext) = nic();
        assert!(n.host_send(args(1, 10_000, 5))); // 3 packets
        drain_lanai(&mut n, &mut ext);
        // Packetization queued SDMA jobs; complete them and collect tx.
        let mut seqs = Vec::new();
        while n.pci_start().is_some() {
            n.pci_finish(&mut ext);
            while let Some(TxJob { pkt, cb }) = n.tx_start() {
                if let PacketKind::Data { seq, offset, .. } = pkt.kind {
                    seqs.push((seq, offset, pkt.len));
                    assert_eq!(pkt.payload, Payload::new(5, 10_000));
                }
                n.tx_drained(cb);
            }
        }
        assert_eq!(seqs, vec![(0, 0, 4096), (1, 4096, 4096), (2, 8192, 1808)]);
        // Transmissions armed the retransmission timer.
        assert!(!n.drain_timer_reqs().is_empty());
    }

    #[test]
    fn receive_path_reassembles_and_acks() {
        let (mut n, mut ext) = nic();
        n.host_provide_recv(P0, 1);
        let payload = Payload::new(3, 100);
        let pkt = Packet {
            src: NodeId(1),
            dst: NodeId(0),
            kind: PacketKind::Data {
                port: P0,
                src_port: P0,
                seq: 0,
                offset: 0,
                tag: 42,
            },
            payload,
            len: 100,
        };
        n.packet_arrived(pkt);
        drain_lanai(&mut n, &mut ext);
        // An ack went out...
        let TxJob { pkt: ack, cb } = n.tx_start().expect("ack queued");
        assert!(matches!(ack.kind, PacketKind::Ack { seq: 0, .. }));
        n.tx_drained(cb);
        // ...and the RDMA completion delivers the message.
        n.pci_start().expect("rdma queued");
        n.pci_finish(&mut ext);
        let notices = n.drain_notices();
        assert_eq!(notices.len(), 1);
        match &notices[0] {
            Notice::Recv { tag, data, src, .. } => {
                assert_eq!(*tag, 42);
                assert_eq!(*data, payload);
                assert_eq!(*src, NodeId(1));
            }
            other => panic!("unexpected notice {other:?}"),
        }
    }

    #[test]
    fn out_of_order_packet_dropped_and_reacked() {
        let (mut n, mut ext) = nic();
        n.host_provide_recv(P0, 4);
        let mk = |seq| Packet {
            src: NodeId(1),
            dst: NodeId(0),
            kind: PacketKind::Data {
                port: P0,
                src_port: P0,
                seq,
                offset: 0,
                tag: seq,
            },
            payload: Payload::new(seq as u32, 4),
            len: 4,
        };
        // seq 1 before seq 0: dropped without consuming a token, no ack
        // (nothing in order yet).
        n.packet_arrived(mk(1));
        drain_lanai(&mut n, &mut ext);
        assert_eq!(n.counters.get("rx_out_of_order"), 1);
        assert!(n.tx_start().is_none(), "no ack before first in-order pkt");
        assert_eq!(n.recv_tokens(P0), 4);
        assert_eq!(n.recv_buffers_free(), n.params().recv_buffers);
    }

    #[test]
    fn no_sram_buffer_drops_without_processing() {
        let params = GmParams {
            recv_buffers: 1,
            ..GmParams::default()
        };
        let mut n: NicCore<NoExt> = NicCore::new(NodeId(0), params);
        let mut ext = NoExt;
        n.host_provide_recv(P0, 4);
        let mk = |seq| Packet {
            src: NodeId(1),
            dst: NodeId(0),
            kind: PacketKind::Data {
                port: P0,
                src_port: P0,
                seq,
                offset: 0,
                tag: 0,
            },
            payload: Payload::new(seq as u32, 4),
            len: 4,
        };
        // Two arrivals back-to-back with one buffer: the second drops.
        n.packet_arrived(mk(0));
        n.packet_arrived(mk(1));
        assert_eq!(n.counters.get("rx_drop_no_sram"), 1);
        drain_lanai(&mut n, &mut ext);
    }

    #[test]
    fn cumulative_ack_completes_token_and_returns_it() {
        let (mut n, mut ext) = nic();
        let free_before = {
            // consume all tx/pci to get the message on the wire
            assert!(n.host_send(args(1, 5000, 9))); // 2 packets
            drain_lanai(&mut n, &mut ext);
            while n.pci_start().is_some() {
                n.pci_finish(&mut ext);
                while let Some(TxJob { cb, .. }) = n.tx_start() {
                    n.tx_drained(cb);
                }
            }
            n.params().send_tokens
        };
        // Cumulative ack for both packets at once.
        n.packet_arrived(Packet::ack(NodeId(1), NodeId(0), P0, 1));
        drain_lanai(&mut n, &mut ext);
        let notices = n.drain_notices();
        assert!(
            matches!(notices.as_slice(), [Notice::SendComplete { tag: 9, .. }]),
            "got {notices:?}"
        );
        // The token is back: we can fill the pool completely again.
        for i in 0..free_before {
            assert!(n.host_send(args(1, 8, i as u64)));
        }
    }

    #[test]
    fn stray_ack_is_counted_not_crashing() {
        let (mut n, mut ext) = nic();
        n.packet_arrived(Packet::ack(NodeId(3), NodeId(0), P0, 7));
        drain_lanai(&mut n, &mut ext);
        assert_eq!(n.counters.get("rx_stray_ack"), 1);
    }

    #[test]
    fn wants_pump_reflects_queued_intents() {
        let (mut n, _) = nic();
        assert!(!n.wants_pump());
        assert!(n.host_send(args(1, 8, 0)));
        assert!(n.wants_pump(), "lanai work pending");
    }

    #[test]
    fn queue_gauges_leave_out_the_running_job() {
        let (mut n, mut ext) = nic();
        assert!(n.host_send(args(1, 8, 0)));
        assert_eq!(n.lanai_queue_len(), 1);
        n.lanai_start().expect("an idle LANai starts the item");
        assert_eq!(n.lanai_queue_len(), 0, "the running item is not waiting");
        assert!(!n.wants_pump(), "a busy LANai starts nothing else");
        n.lanai_finish(&mut ext);
        assert_eq!(n.pci_queue_len(), 1);
        n.pci_start().expect("an idle bus starts the SDMA");
        assert_eq!(n.pci_queue_len(), 0, "the running DMA is not waiting");
    }
}
