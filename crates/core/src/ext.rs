//! The NIC-based multicast firmware: the paper's contribution.
//!
//! Installed into each NIC through GM-2's descriptor/callback surface
//! ([`gm::NicExtension`]), this module implements:
//!
//! * **NIC-based multisend** — the host posts *one* request; the NIC
//!   downloads each packet once and re-queues it to successive children from
//!   the transmit-complete callback, rewriting only the header. The repeated
//!   host-request processing of the host-based scheme disappears.
//! * **NIC-based forwarding** — an intermediate NIC that accepts a multicast
//!   packet immediately re-queues it toward its own children (before the
//!   rest of the message has even arrived), while the payload is DMA'd to
//!   the host in parallel. No host involvement on the forwarding path.
//! * **Reliable one-to-many Go-Back-N** — every member tracks a receive
//!   sequence, a send sequence and a per-child acked array; on timeout,
//!   packets are retransmitted *only* to the children that have not
//!   acknowledged them, from the host-memory replica (the receive token is
//!   transformed into a send token, so no extra NIC resources are needed).

use gm_sim::{FlowId, SimTime};
use myrinet::{GroupId, NodeId, Packet, PacketKind, Payload};

use gm::{flow_tag, Cb, GmParams, NicCore, NicExtension};
use gm_proto::{self as proto, RxVerdict};

use crate::group::MultisendImpl;
use crate::group::{
    CollKind, FwdTokenPolicy, GroupState, InMsg, McastConfig, McastNotice, McastRec, McastRequest,
    RetxBufferPolicy,
};

use std::collections::{BTreeMap, VecDeque};

/// Opaque tags threaded through callbacks, DMA jobs, work items and timers.
#[derive(Clone, Debug)]
pub enum McastTag {
    /// Root: a packet finished downloading into a send buffer.
    SdmaDone {
        /// Group.
        group: GroupId,
        /// Packet sequence.
        seq: u64,
    },
    /// Root: the replica to `children[idx]` finished serializing.
    Replica {
        /// Group.
        group: GroupId,
        /// Packet sequence.
        seq: u64,
        /// Child index just sent.
        idx: usize,
    },
    /// Forwarder: the forwarded replica to `children[idx]` finished
    /// serializing (transmitted straight from the receive buffer).
    FwdReplica {
        /// Group.
        group: GroupId,
        /// Packet sequence.
        seq: u64,
        /// Child index just sent.
        idx: usize,
    },
    /// A received packet's payload finished uploading to host memory.
    RdmaDone {
        /// Group.
        group: GroupId,
        /// Packet sequence (for buffer refcounting).
        seq: u64,
        /// Byte count uploaded.
        bytes: u32,
    },
    /// A retransmission finished re-downloading from host memory.
    RetxDma {
        /// Group.
        group: GroupId,
        /// Packet sequence.
        seq: u64,
        /// Target child.
        child: NodeId,
    },
    /// A single-target transmission (retransmit or per-dest-token send)
    /// finished serializing.
    SingleSent {
        /// Group.
        group: GroupId,
        /// Packet sequence.
        seq: u64,
        /// Target child.
        child: NodeId,
        /// Whether a send SRAM buffer was held (and must be freed).
        buf: bool,
    },
    /// Per-destination token processing (the multisend ablation).
    PerDestProc {
        /// Group.
        group: GroupId,
        /// Packet sequence.
        seq: u64,
        /// Target child.
        child: NodeId,
    },
    /// Group retransmission timer.
    GroupTimer {
        /// Group.
        group: GroupId,
        /// Arm generation (stale fires are ignored).
        gen: u64,
    },
    /// Barrier UP-token retransmission timer.
    BarrierTimer {
        /// Group.
        group: GroupId,
        /// The round the UP belongs to.
        round: u64,
    },
}

/// Opcode of the barrier's child-to-parent "subtree entered" token.
pub const OP_BARRIER_UP: u8 = 1;

/// Barrier release messages travel as zero-byte multicasts whose tag has
/// this bit set (low bits carry the round).
pub const BARRIER_TAG_BIT: u64 = 1 << 63;

/// Length of an allreduce release: the result is one `u64` on the wire,
/// carried in the release's value word.
const RESULT_BYTES: usize = 8;

/// A queued single-target transmission request.
#[derive(Clone, Copy, Debug)]
struct SingleTx {
    group: GroupId,
    seq: u64,
    child: NodeId,
}

/// A `CreateGroup` that arrived while the NIC group table was full, parked
/// until a slot frees. Admission order is `(arrival time, group id)` — a
/// total order identical on every shard layout.
#[derive(Clone, Debug)]
struct PendingGroup {
    at: SimTime,
    group: GroupId,
    port: myrinet::PortId,
    root: NodeId,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
}

/// The multicast firmware state for one NIC.
#[derive(Debug, Default)]
pub struct McastExt {
    /// Ablation switches (paper defaults).
    pub config: McastConfig,
    groups: BTreeMap<GroupId, GroupState>,
    /// Root packets waiting for a send SRAM buffer.
    sdma_pending: VecDeque<(GroupId, u64)>,
    /// Retransmissions / per-dest sends waiting for a buffer.
    single_pending: VecDeque<SingleTx>,
    /// Forward chains stalled on a free-pool send token (ablation).
    fwd_stalled: VecDeque<(GroupId, u64)>,
    /// Outstanding references to a held receive/send buffer per packet.
    buf_refs: BTreeMap<(GroupId, u64), u8>,
    /// Installs parked on a full group table, sorted by `(arrival, group)`.
    admission: Vec<PendingGroup>,
    /// Tombstones of departed groups: the cumulative ack at leave time, so
    /// stray retransmissions to an ex-member are re-acked instead of
    /// silently dropped (which would strand the parent in timeout loops).
    left: BTreeMap<GroupId, Option<u64>>,
}

impl McastExt {
    /// Firmware with the paper's design choices.
    pub fn new() -> Self {
        McastExt::default()
    }

    /// Firmware with explicit ablation switches.
    pub fn with_config(config: McastConfig) -> Self {
        McastExt {
            config,
            ..McastExt::default()
        }
    }

    /// Number of installed groups (diagnostics).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Outstanding (unacked) packets for `group` (diagnostics).
    pub fn outstanding(&self, group: GroupId) -> usize {
        self.groups.get(&group).map_or(0, |g| g.records.len())
    }

    // -- flow attribution --------------------------------------------------------

    /// `(origin, folded tag)` of the message `(group, seq)`: from the
    /// forwarding record when one exists, else from the oldest
    /// still-uploading in-progress message (leaf receives keep no record).
    fn flow_parts(&self, group: GroupId, seq: u64) -> Option<(u32, u64)> {
        let g = self.groups.get(&group)?;
        let tag = g
            .records
            .iter()
            .find(|r| r.seq == seq)
            .map(|r| r.tag)
            .or_else(|| g.in_msgs.iter().find(|m| m.uploading()).map(|m| m.tag))?;
        Some((g.root.0, flow_tag(tag)))
    }

    // -- packet construction ---------------------------------------------------

    fn data_pkt(src: NodeId, dst: NodeId, group: GroupId, rec: &McastRec, root: NodeId) -> Packet {
        Packet {
            src,
            dst,
            kind: PacketKind::Mcast {
                group,
                seq: rec.seq,
                offset: rec.offset,
                tag: rec.tag,
                root,
            },
            payload: rec.payload,
            len: rec.len(),
        }
    }

    // -- root send path ----------------------------------------------------------

    fn start_send(&mut self, core: &mut NicCore<Self>, group: GroupId, data: Payload, tag: u64) {
        let Some(g) = self.groups.get_mut(&group) else {
            core.counters.bump("mcast_send_unknown_group");
            return;
        };
        assert!(
            g.parent.is_none(),
            "only the root may initiate a multicast on its group"
        );
        if g.children.is_empty() {
            // Degenerate group: nothing to send.
            core.ext_notify(McastNotice::SendDone { group, tag });
            return;
        }
        let len = data.len() as u32;
        let first_seq = g.tx.next_seq();
        let mut off = 0;
        loop {
            let seq = g.tx.assign_seq();
            g.records.push_back(McastRec {
                seq,
                offset: off,
                tag,
                payload: data,
                last_tx: None,
                retries: 0,
            });
            off += data.packet_len(off);
            if off >= len {
                break;
            }
        }
        let last_seq = g.tx.next_seq() - 1;
        g.out_msgs.push_back((tag, last_seq));
        core.counters
            .add("mcast_packets_out", last_seq - first_seq + 1);
        match self.config.multisend {
            MultisendImpl::Callback => {
                for seq in first_seq..=last_seq {
                    self.sdma_pending.push_back((group, seq));
                }
                self.pump_sdma(core);
            }
            MultisendImpl::PerDestToken => {
                // Approach 1: one token-processing work item per
                // (destination, packet), exactly the repetition the
                // NIC-based multisend exists to avoid.
                let children = self.groups[&group].children.clone();
                for seq in first_seq..=last_seq {
                    for &child in &children {
                        core.ext_work(
                            core.params().send_token_proc,
                            McastTag::PerDestProc { group, seq, child },
                        );
                    }
                }
            }
        }
    }

    fn pump_sdma(&mut self, core: &mut NicCore<Self>) {
        while let Some(&(group, seq)) = self.sdma_pending.front() {
            let bytes = match self.groups.get_mut(&group).and_then(|g| g.record(seq)) {
                Some(rec) => u64::from(rec.len()),
                None => {
                    self.sdma_pending.pop_front();
                    continue;
                }
            };
            if !core.alloc_send_buffer() {
                core.signal_resource_wait();
                return;
            }
            self.sdma_pending.pop_front();
            core.ext_dma(bytes, McastTag::SdmaDone { group, seq });
        }
    }

    /// Start the replica chain for a packet sitting in a send buffer.
    fn start_chain(&mut self, core: &mut NicCore<Self>, group: GroupId, seq: u64) {
        let me = core.node();
        let Some(g) = self.groups.get_mut(&group) else {
            core.free_send_buffer();
            return;
        };
        let (first_child, root) = (g.children[0], g.root);
        let Some(rec) = g.record(seq) else {
            // Fully acked while the DMA was in flight.
            core.free_send_buffer();
            return;
        };
        let pkt = Self::data_pkt(me, first_child, group, rec, root);
        core.counters.bump("mcast_tx");
        core.ext_tx(pkt, Cb::Ext(McastTag::Replica { group, seq, idx: 0 }));
    }

    /// Transmit-complete callback on the root's replica chain: rewrite the
    /// header for the next child and requeue (the GM-2 descriptor-callback
    /// trick), or release the buffer after the last child.
    fn replica_done(&mut self, core: &mut NicCore<Self>, group: GroupId, seq: u64, idx: usize) {
        let me = core.node();
        let now = core.now();
        let Some(g) = self.groups.get_mut(&group) else {
            core.free_send_buffer();
            return;
        };
        let root = g.root;
        let next = proto::next_replica(g.children.len(), idx).map(|i| g.children[i]);
        if let Some(rec) = g.record(seq) {
            rec.last_tx = Some(now);
            if let Some(child) = next {
                let pkt = Self::data_pkt(me, child, group, rec, root);
                core.counters.bump("mcast_tx");
                core.ext_tx(
                    pkt,
                    Cb::Ext(McastTag::Replica {
                        group,
                        seq,
                        idx: idx + 1,
                    }),
                );
                return;
            }
        } else if let Some(child) = next {
            // Record already acked away mid-chain (possible with zero-loss
            // fast acks); keep the chain going from the refs we no longer
            // have — nothing to send, fall through to release.
            let _ = child;
        }
        core.free_send_buffer();
        self.arm_timer(core, group);
        self.pump_sdma(core);
        self.pump_single(core);
    }

    // -- forwarding path --------------------------------------------------------

    fn on_mcast_data(&mut self, core: &mut NicCore<Self>, pkt: Packet) {
        let PacketKind::Mcast {
            group,
            seq,
            offset,
            tag,
            root: _,
        } = pkt.kind
        else {
            unreachable!("on_mcast_data on non-mcast packet")
        };
        let me = core.node();
        let Some(g) = self.groups.get_mut(&group) else {
            core.free_recv_buffer();
            if let Some(&cum) = self.left.get(&group) {
                // We already left this group; the parent is retransmitting a
                // packet whose ack got lost. Re-ack the cumulative horizon
                // so its timeout loop terminates.
                core.counters.bump("mcast_left_reack");
                if let Some(a) = cum {
                    core.ext_tx(Packet::mcast_ack(me, pkt.src, group, a), Cb::None);
                }
            } else {
                core.counters.bump("mcast_unknown_group");
            }
            return;
        };
        let parent = g.parent.expect("non-root received a multicast packet");
        if let RxVerdict::OutOfOrder { reack } = g.rx.verdict(seq) {
            core.counters.bump("mcast_out_of_order");
            core.free_recv_buffer();
            // Re-ack the last in-order packet so the parent's acked array
            // advances even if our ack was lost.
            if let Some(a) = reack {
                core.ext_tx(Packet::mcast_ack(me, parent, group, a), Cb::None);
            }
            return;
        }
        let is_collective = tag & BARRIER_TAG_BIT != 0;
        if is_collective {
            // Collective release: pure NIC-level control riding the
            // reliable multicast path. No receive token, no host copy.
            debug_assert!(
                pkt.payload.is_empty() || pkt.payload.len() == RESULT_BYTES,
                "release payload {:?}",
                pkt.payload
            );
            return self.accept_barrier_release(core, pkt.payload, group, seq);
        }
        if offset == 0 {
            // A new message needs a receive token ("the receive token is
            // presumed to be available to receive any message").
            if !core.take_recv_token(g.port) {
                core.free_recv_buffer();
                return; // no ack: the parent's timeout recovers this packet
            }
            let g = self.groups.get_mut(&group).expect("group exists");
            g.in_msgs.push_back(InMsg {
                tag,
                data: pkt.payload,
                received: 0,
                rdma_done: 0,
            });
        }
        let g = self.groups.get_mut(&group).expect("group exists");
        g.rx.accept();
        let msg = g.in_msgs.back_mut().expect("open message");
        debug_assert_eq!(pkt.payload, msg.data, "packet of another message");
        debug_assert_eq!(
            offset, msg.received,
            "message {:?}: a packet that does not continue the covered prefix",
            msg.data
        );
        msg.received += pkt.len;
        core.counters.bump("mcast_rx");

        let has_children = !g.children.is_empty();
        let hold_sram = self.config.retx_buffer == RetxBufferPolicy::HoldSram;
        // One ref for the RDMA upload, one for the forwarding chain, one
        // held until all children ack (HoldSram ablation only).
        self.buf_refs
            .insert((group, seq), proto::fwd_buf_refs(has_children, hold_sram));

        // Forward before acking: the replica chain is the latency-critical
        // path ("an intermediate NIC can forward the packets of a message
        // without waiting for the arrival of the complete message").
        if has_children {
            let g = self.groups.get_mut(&group).expect("group exists");
            g.records.push_back(McastRec {
                seq,
                offset,
                tag,
                payload: pkt.payload,
                last_tx: None,
                retries: 0,
            });
            let need_pool_token = self.config.fwd_token == FwdTokenPolicy::FreePool;
            if need_pool_token && !core.take_send_token() {
                // Ablation: forwarding stalls until a pool token frees up —
                // the deadlock the paper's receive-token transformation
                // avoids.
                core.counters.bump("mcast_fwd_token_stall");
                self.fwd_stalled.push_back((group, seq));
                core.signal_resource_wait();
            } else {
                self.launch_forward(core, group, seq);
            }
        }

        // Ack the parent and upload the payload to host memory in parallel
        // with forwarding.
        core.ext_tx(Packet::mcast_ack(me, parent, group, seq), Cb::None);
        core.ext_dma(
            u64::from(pkt.len),
            McastTag::RdmaDone {
                group,
                seq,
                bytes: pkt.len,
            },
        );
    }

    fn launch_forward(&mut self, core: &mut NicCore<Self>, group: GroupId, seq: u64) {
        let me = core.node();
        let g = self.groups.get_mut(&group).expect("group exists");
        let (first_child, root) = (g.children[0], g.root);
        let Some(rec) = g.record(seq) else {
            // Already acked (cannot normally happen before first transmit).
            self.dec_ref(core, group, seq);
            return;
        };
        let pkt = Self::data_pkt(me, first_child, group, rec, root);
        core.counters.bump("mcast_fwd");
        core.ext_tx(pkt, Cb::Ext(McastTag::FwdReplica { group, seq, idx: 0 }));
    }

    fn fwd_replica_done(&mut self, core: &mut NicCore<Self>, group: GroupId, seq: u64, idx: usize) {
        let me = core.node();
        let now = core.now();
        if let Some(g) = self.groups.get_mut(&group) {
            let root = g.root;
            let next = proto::next_replica(g.children.len(), idx).map(|i| g.children[i]);
            if let Some(rec) = g.record(seq) {
                rec.last_tx = Some(now);
                if let Some(child) = next {
                    let pkt = Self::data_pkt(me, child, group, rec, root);
                    core.counters.bump("mcast_fwd");
                    core.ext_tx(
                        pkt,
                        Cb::Ext(McastTag::FwdReplica {
                            group,
                            seq,
                            idx: idx + 1,
                        }),
                    );
                    return;
                }
            }
        }
        // Chain complete (or record acked away): drop the chain's buffer ref.
        self.dec_ref(core, group, seq);
        self.arm_timer(core, group);
    }

    fn rdma_done(&mut self, core: &mut NicCore<Self>, group: GroupId, seq: u64, bytes: u32) {
        if let Some(g) = self.groups.get_mut(&group) {
            // FIFO PCI completions: credit the oldest message still
            // uploading.
            if let Some(msg) = g.in_msgs.iter_mut().find(|m| m.uploading()) {
                msg.rdma_done += bytes;
            }
            // Deliver every fully-arrived, fully-uploaded message in order.
            while let Some(front) = g.in_msgs.front() {
                let len = front.data.len() as u32;
                if front.received >= len && front.rdma_done >= len {
                    let m = g.in_msgs.pop_front().expect("nonempty");
                    debug_assert_eq!(
                        m.received, len,
                        "message {:?} delivered before [0, len) was covered exactly once",
                        m.data
                    );
                    let (port, root) = (g.port, g.root);
                    core.notify_recv(port, root, port, m.tag, m.data);
                    core.counters.bump("mcast_delivered");
                } else {
                    break;
                }
            }
        }
        self.dec_ref(core, group, seq);
        self.try_finish_leave(core, group);
    }

    fn dec_ref(&mut self, core: &mut NicCore<Self>, group: GroupId, seq: u64) {
        let Some(refs) = self.buf_refs.get_mut(&(group, seq)) else {
            return;
        };
        *refs -= 1;
        if *refs == 0 {
            self.buf_refs.remove(&(group, seq));
            core.free_recv_buffer();
            self.try_finish_leave(core, group);
        }
    }

    // -- group lifecycle (table slots are an exhaustible NIC resource) ------------

    /// Install a group now if a table slot is free, else park the request on
    /// the admission queue (deterministic `(arrival, group)` order). A
    /// re-install of a live group replaces its tree in place without
    /// consuming a second slot, exactly as before the table was modeled.
    fn install_or_queue(
        &mut self,
        core: &mut NicCore<Self>,
        group: GroupId,
        port: myrinet::PortId,
        root: NodeId,
        parent: Option<NodeId>,
        children: Vec<NodeId>,
    ) {
        self.left.remove(&group);
        if let Some(existing) = self.groups.get_mut(&group) {
            *existing = GroupState::new(port, root, parent, children);
            core.counters.bump("mcast_group_installs");
            core.ext_notify(McastNotice::GroupReady { group });
            return;
        }
        // Strict FIFO: never let a new install jump ahead of parked ones —
        // admission in NIC-arrival order is what guarantees liveness when
        // groups span nodes whose tables exhaust at different times.
        if self.admission.is_empty() && core.group_alloc(group) {
            self.groups
                .insert(group, GroupState::new(port, root, parent, children));
            core.counters.bump("mcast_group_installs");
            core.ext_notify(McastNotice::GroupReady { group });
        } else {
            core.counters.bump("mcast_group_admission_waits");
            let pending = PendingGroup {
                at: core.now(),
                group,
                port,
                root,
                parent,
                children,
            };
            let pos = self
                .admission
                .partition_point(|p| (p.at, p.group) <= (pending.at, pending.group));
            self.admission.insert(pos, pending);
        }
    }

    /// Admit parked installs into freshly-freed table slots, in order.
    fn admit_pending(&mut self, core: &mut NicCore<Self>) {
        while !self.admission.is_empty() {
            let next = &self.admission[0];
            if !core.group_alloc(next.group) {
                return; // table still full (or a duplicate raced in)
            }
            let p = self.admission.remove(0);
            self.left.remove(&p.group);
            self.groups.insert(
                p.group,
                GroupState::new(p.port, p.root, p.parent, p.children),
            );
            core.counters.bump("mcast_group_installs");
            core.ext_notify(McastNotice::GroupReady { group: p.group });
        }
    }

    /// Complete a pending leave once the group has quiesced: no unacked
    /// records, no in-flight reassembly, no outstanding root messages, no
    /// held buffer references, no open collective round. Frees the table
    /// slot (waking the admission queue) and leaves a re-ack tombstone.
    fn try_finish_leave(&mut self, core: &mut NicCore<Self>, group: GroupId) {
        let Some(g) = self.groups.get(&group) else {
            return;
        };
        if !g.leaving {
            return;
        }
        let busy = !g.records.is_empty()
            || !g.in_msgs.is_empty()
            || !g.out_msgs.is_empty()
            || g.bar_entered
            || self
                .buf_refs
                .range((group, 0)..=(group, u64::MAX))
                .next()
                .is_some();
        if busy {
            return;
        }
        let g = self.groups.remove(&group).expect("checked above");
        self.left.insert(group, g.rx.cum_ack());
        core.group_free(group);
        core.counters.bump("mcast_group_frees");
        core.ext_notify(McastNotice::GroupLeft { group });
        self.admit_pending(core);
    }

    // -- NIC-level collectives (future-work extension) ----------------------------

    fn collective_enter(
        &mut self,
        core: &mut NicCore<Self>,
        group: GroupId,
        tag: u64,
        kind: CollKind,
        value: u64,
    ) {
        let Some(g) = self.groups.get_mut(&group) else {
            core.counters.bump("mcast_barrier_unknown_group");
            return;
        };
        assert!(!g.bar_entered, "host re-entered an open collective round");
        g.bar_entered = true;
        g.bar_tag = tag;
        g.bar_kind = kind;
        g.bar_value = value;
        self.barrier_progress(core, group);
    }

    /// Try to advance the collective at this node: once the local host has
    /// entered and every child subtree has reported UP, either release (at
    /// the root, through the reliable multicast path) or push our subtree's
    /// partial value up to the parent.
    fn barrier_progress(&mut self, core: &mut NicCore<Self>, group: GroupId) {
        let me = core.node();
        let timeout = core.params().timeout;
        let Some(g) = self.groups.get_mut(&group) else {
            return;
        };
        if !g.bar_entered {
            return;
        }
        let round = g.bar_round;
        let subtree_ready = g.bar_up.iter().all(|&c| c > round);
        if !subtree_ready {
            return;
        }
        // Fold this subtree's partial value (barrier folds nothing).
        let partial = match g.bar_kind {
            CollKind::Barrier => 0,
            CollKind::Allreduce(op) => g
                .bar_child_val
                .iter()
                .fold(g.bar_value, |acc, &v| op.apply(acc, v)),
        };
        match g.parent {
            None => {
                // Root: complete locally and release everyone through the
                // reliable multicast path (ordered with data messages).
                let tag = g.bar_tag;
                let kind = g.bar_kind;
                g.bar_round += 1;
                g.bar_entered = false;
                g.bar_up_sent = false;
                core.counters.bump("mcast_barrier_rounds");
                let release = match kind {
                    CollKind::Barrier => {
                        core.ext_notify(McastNotice::BarrierDone { group, tag });
                        Payload::EMPTY
                    }
                    CollKind::Allreduce(_) => {
                        core.ext_notify(McastNotice::AllreduceDone {
                            group,
                            result: partial,
                            tag,
                        });
                        Payload::new(0, RESULT_BYTES).with_value(partial)
                    }
                };
                self.start_send(core, group, release, BARRIER_TAG_BIT | round);
            }
            Some(parent) => {
                if g.bar_up_sent {
                    return;
                }
                g.bar_up_sent = true;
                core.ext_tx(
                    Packet::ctl(me, parent, group, OP_BARRIER_UP, round, partial),
                    Cb::None,
                );
                // Re-send the UP until the release arrives (UP tokens are
                // not otherwise acknowledged).
                core.ext_timer(timeout, McastTag::BarrierTimer { group, round });
            }
        }
    }

    /// A collective release (multicast with the collective tag bit) was
    /// accepted in sequence: complete the round at this member and let the
    /// normal forwarding machinery push it to the children. A zero-byte
    /// release is a barrier; an 8-byte release carries the allreduce result
    /// in its value word.
    fn accept_barrier_release(
        &mut self,
        core: &mut NicCore<Self>,
        release: Payload,
        group: GroupId,
        seq: u64,
    ) {
        let me = core.node();
        let g = self.groups.get_mut(&group).expect("checked by caller");
        let parent = g.parent.expect("non-root");
        g.rx.accept();
        debug_assert!(g.bar_entered, "release precedes local entry");
        let tag = g.bar_tag;
        g.bar_round += 1;
        g.bar_entered = false;
        g.bar_up_sent = false;
        core.counters.bump("mcast_barrier_rounds");
        if release.len() == RESULT_BYTES {
            let result = release.value();
            core.ext_notify(McastNotice::AllreduceDone { group, result, tag });
        } else {
            core.ext_notify(McastNotice::BarrierDone { group, tag });
        }

        // Forward the release down the tree exactly like a data packet
        // (records + per-child acks keep it reliable), then ack the parent.
        let g = self.groups.get_mut(&group).expect("group exists");
        let has_children = !g.children.is_empty();
        if has_children {
            self.buf_refs.insert((group, seq), 1);
            let g = self.groups.get_mut(&group).expect("group exists");
            g.records.push_back(McastRec {
                seq,
                offset: 0,
                tag: BARRIER_TAG_BIT | (g.bar_round - 1),
                payload: release,
                last_tx: None,
                retries: 0,
            });
            self.launch_forward(core, group, seq);
        } else {
            core.free_recv_buffer();
        }
        core.ext_tx(Packet::mcast_ack(me, parent, group, seq), Cb::None);
    }

    /// A control packet arrived (currently only barrier UP tokens).
    fn on_ctl(&mut self, core: &mut NicCore<Self>, pkt: Packet) {
        let PacketKind::Ctl {
            group,
            op,
            seq,
            value,
        } = pkt.kind
        else {
            unreachable!("on_ctl on non-ctl packet")
        };
        debug_assert_eq!(op, OP_BARRIER_UP, "unknown ctl opcode {op}");
        let Some(g) = self.groups.get_mut(&group) else {
            core.counters.bump("mcast_ctl_unknown_group");
            return;
        };
        let Some(ci) = g.child_index(pkt.src) else {
            core.counters.bump("mcast_ctl_stray");
            return;
        };
        // Count semantics: UP for round r means the child subtree is ready
        // for every round <= r. Retransmitted UPs overwrite with the same
        // value; stale rounds never regress the counter.
        if seq + 1 >= g.bar_up[ci] {
            g.bar_child_val[ci] = value;
        }
        g.bar_up[ci] = g.bar_up[ci].max(seq + 1);
        self.barrier_progress(core, group);
    }

    /// UP-token retransmission: fire until the release moves us past the
    /// round the token belongs to.
    fn on_barrier_timer(&mut self, core: &mut NicCore<Self>, group: GroupId, round: u64) {
        let me = core.node();
        let timeout = core.params().timeout;
        let Some(g) = self.groups.get_mut(&group) else {
            return;
        };
        if g.bar_round != round || !g.bar_up_sent {
            return; // round completed; token no longer needed
        }
        let parent = g.parent.expect("only non-roots send UP");
        let partial = match g.bar_kind {
            CollKind::Barrier => 0,
            CollKind::Allreduce(op) => g
                .bar_child_val
                .iter()
                .fold(g.bar_value, |acc, &v| op.apply(acc, v)),
        };
        core.counters.bump("mcast_barrier_up_retx");
        core.ext_tx(
            Packet::ctl(me, parent, group, OP_BARRIER_UP, round, partial),
            Cb::None,
        );
        core.ext_timer(timeout, McastTag::BarrierTimer { group, round });
    }

    // -- acknowledgments ---------------------------------------------------------

    fn on_mcast_ack(&mut self, core: &mut NicCore<Self>, pkt: Packet) {
        let PacketKind::McastAck { group, seq } = pkt.kind else {
            unreachable!("on_mcast_ack on non-ack packet")
        };
        let hold_sram = self.config.retx_buffer == RetxBufferPolicy::HoldSram;
        let free_pool = self.config.fwd_token == FwdTokenPolicy::FreePool;
        let Some(g) = self.groups.get_mut(&group) else {
            core.counters.bump("mcast_stray_ack");
            return;
        };
        let Some(ci) = g.child_index(pkt.src) else {
            core.counters.bump("mcast_stray_ack");
            return;
        };
        g.acked.on_ack(ci, seq);
        let min_acked = g.min_acked();
        let is_forwarder = g.parent.is_some();
        // Records strictly below the release horizon are globally acked and
        // may be freed (the seeded off-by-one mutation widens the horizon —
        // freeing a record no one confirmed, which kills retransmission).
        let horizon = proto::release_horizon(min_acked, core.params().mutation);
        // Only a forwarder under the HoldSram or FreePool ablation has
        // anything to release per record, so only it collects them.
        let collect = is_forwarder && (hold_sram || free_pool);
        let mut freed: Vec<u64> = Vec::new();
        while let Some(front) = g.records.front() {
            if front.seq >= horizon {
                break;
            }
            let rec = g.records.pop_front().expect("nonempty");
            if collect {
                freed.push(rec.seq);
            }
        }
        // Root: complete messages whose last packet is globally acked.
        // Barrier releases complete silently (the host already got its
        // BarrierDone when the release was initiated).
        if g.parent.is_none() {
            while let Some(&(tag, last_seq)) = g.out_msgs.front() {
                if last_seq >= min_acked {
                    break;
                }
                g.out_msgs.pop_front();
                if tag & BARRIER_TAG_BIT == 0 {
                    core.ext_notify(McastNotice::SendDone { group, tag });
                }
            }
        }
        for seq in freed {
            if hold_sram {
                self.dec_ref(core, group, seq);
            }
            if free_pool {
                core.return_send_token();
            }
        }
        self.try_finish_leave(core, group);
    }

    // -- retransmission -----------------------------------------------------------

    fn arm_timer(&mut self, core: &mut NicCore<Self>, group: GroupId) {
        let timeout = core.params().timeout;
        let Some(g) = self.groups.get_mut(&group) else {
            return;
        };
        if g.timer_armed || g.records.is_empty() {
            return;
        }
        g.timer_armed = true;
        g.timer_gen += 1;
        let gen = g.timer_gen;
        core.ext_timer(timeout, McastTag::GroupTimer { group, gen });
    }

    fn on_timer(&mut self, core: &mut NicCore<Self>, group: GroupId, gen: u64) {
        let timeout = core.params().timeout;
        let now = core.now();
        let Some(g) = self.groups.get_mut(&group) else {
            return;
        };
        if gen != g.timer_gen {
            return;
        }
        g.timer_armed = false;
        if g.records.is_empty() {
            return;
        }
        // Retransmit each overdue packet only to the children that have not
        // acknowledged it (§5: "retransmission ... only for the destinations
        // which have not acknowledged").
        let mut queued = 0u64;
        let mut earliest_due: Option<SimTime> = None;
        let mut max_retries = 0u32;
        let children = g.children.clone();
        let acked = g.acked.clone();
        let mut to_queue: Vec<SingleTx> = Vec::new();
        for rec in g.records.iter_mut() {
            let Some(last) = rec.last_tx else {
                // Not transmitted yet (still in a chain); check again later.
                earliest_due = Some(earliest_due.map_or(now + timeout, |e| e.min(now + timeout)));
                continue;
            };
            let due_at = last + timeout;
            if due_at > now {
                earliest_due = Some(earliest_due.map_or(due_at, |e: SimTime| e.min(due_at)));
                continue;
            }
            rec.retries += 1;
            max_retries = max_retries.max(rec.retries);
            for (ci, &child) in children.iter().enumerate() {
                if acked.needs(ci, rec.seq) {
                    to_queue.push(SingleTx {
                        group,
                        seq: rec.seq,
                        child,
                    });
                    queued += 1;
                }
            }
            rec.last_tx = Some(now); // pending retransmit counts as a round
        }
        core.add_retransmissions("mcast_retransmissions", queued);
        self.single_pending.extend(to_queue);
        // Re-arm.
        let g = self.groups.get_mut(&group).expect("group exists");
        g.timer_armed = true;
        g.timer_gen += 1;
        let gen = g.timer_gen;
        // Back off exponentially once retransmitting (see GmParams::timeout).
        let delay = if queued > 0 {
            timeout * proto::backoff_multiplier(max_retries)
        } else {
            earliest_due.map_or(timeout, |e| {
                e.saturating_since(now)
                    .max(gm_sim::SimDuration::from_nanos(1))
            })
        };
        core.ext_timer(delay, McastTag::GroupTimer { group, gen });
        self.pump_single(core);
    }

    /// Drive queued single-target transmissions (retransmits and the
    /// per-destination-token ablation's sends).
    fn pump_single(&mut self, core: &mut NicCore<Self>) {
        let hold_sram = self.config.retx_buffer == RetxBufferPolicy::HoldSram;
        while let Some(&SingleTx { group, seq, child }) = self.single_pending.front() {
            let me = core.node();
            let Some(g) = self.groups.get_mut(&group) else {
                self.single_pending.pop_front();
                continue;
            };
            let still_needed = g
                .child_index(child)
                .map(|ci| g.acked.needs(ci, seq))
                .unwrap_or(false);
            let root = g.root;
            let rec_exists = g.record(seq).is_some();
            if !still_needed || !rec_exists {
                self.single_pending.pop_front();
                continue;
            }
            let is_forwarder = g.parent.is_some();
            if hold_sram && is_forwarder {
                // Data still sits in the held SRAM buffer: transmit directly.
                self.single_pending.pop_front();
                let g = self.groups.get_mut(&group).expect("group exists");
                let rec = g.record(seq).expect("record exists");
                let pkt = Self::data_pkt(me, child, group, rec, root);
                core.counters.bump("mcast_retx_tx");
                core.ext_tx(
                    pkt,
                    Cb::Ext(McastTag::SingleSent {
                        group,
                        seq,
                        child,
                        buf: false,
                    }),
                );
            } else {
                // Re-download the packet from the registered host memory.
                if !core.alloc_send_buffer() {
                    core.signal_resource_wait();
                    return;
                }
                self.single_pending.pop_front();
                let g = self.groups.get_mut(&group).expect("group exists");
                let bytes = u64::from(g.record(seq).expect("record exists").len());
                core.ext_dma(bytes, McastTag::RetxDma { group, seq, child });
            }
        }
    }

    fn retx_dma_done(&mut self, core: &mut NicCore<Self>, group: GroupId, seq: u64, child: NodeId) {
        let me = core.node();
        let Some(g) = self.groups.get_mut(&group) else {
            core.free_send_buffer();
            return;
        };
        let root = g.root;
        let Some(rec) = g.record(seq) else {
            core.free_send_buffer();
            return;
        };
        let pkt = Self::data_pkt(me, child, group, rec, root);
        core.counters.bump("mcast_retx_tx");
        core.ext_tx(
            pkt,
            Cb::Ext(McastTag::SingleSent {
                group,
                seq,
                child,
                buf: true,
            }),
        );
    }

    fn single_sent(&mut self, core: &mut NicCore<Self>, group: GroupId, seq: u64, buf: bool) {
        let now = core.now();
        if buf {
            core.free_send_buffer();
        }
        if let Some(rec) = self.groups.get_mut(&group).and_then(|g| g.record(seq)) {
            rec.last_tx = Some(now);
        }
        self.arm_timer(core, group);
        self.pump_single(core);
        self.pump_sdma(core);
    }
}

impl NicExtension for McastExt {
    type Request = McastRequest;
    type Notice = McastNotice;
    type Tag = McastTag;

    fn request_cost(&self, req: &McastRequest, params: &GmParams) -> gm_sim::SimDuration {
        match req {
            McastRequest::CreateGroup { children, .. } => {
                params.group_install_base + params.group_install_per_child * children.len() as u64
            }
            McastRequest::Send { .. } => params.ext_req_proc,
            // Entering a collective or marking a leave is a tiny table
            // update.
            McastRequest::BarrierEnter { .. }
            | McastRequest::AllreduceEnter { .. }
            | McastRequest::Leave { .. } => params.ack_proc,
        }
    }

    fn host_request(&mut self, core: &mut NicCore<Self>, req: McastRequest) {
        match req {
            McastRequest::CreateGroup {
                group,
                port,
                root,
                parent,
                children,
            } => {
                self.install_or_queue(core, group, port, root, parent, children);
            }
            McastRequest::Send { group, data, tag } => {
                self.start_send(core, group, data, tag);
            }
            McastRequest::Leave { group } => {
                if let Some(g) = self.groups.get_mut(&group) {
                    g.leaving = true;
                    self.try_finish_leave(core, group);
                } else {
                    core.counters.bump("mcast_leave_unknown_group");
                }
            }
            McastRequest::BarrierEnter { group, tag } => {
                self.collective_enter(core, group, tag, CollKind::Barrier, 0);
            }
            McastRequest::AllreduceEnter {
                group,
                value,
                op,
                tag,
            } => {
                self.collective_enter(core, group, tag, CollKind::Allreduce(op), value);
            }
        }
    }

    fn packet(&mut self, core: &mut NicCore<Self>, pkt: Packet) {
        match pkt.kind {
            PacketKind::Mcast { .. } => self.on_mcast_data(core, pkt),
            PacketKind::McastAck { .. } => self.on_mcast_ack(core, pkt),
            PacketKind::Ctl { .. } => self.on_ctl(core, pkt),
            ref k => unreachable!("extension got non-multicast packet {k:?}"),
        }
    }

    fn tx_callback(&mut self, core: &mut NicCore<Self>, tag: McastTag) {
        match tag {
            McastTag::Replica { group, seq, idx } => self.replica_done(core, group, seq, idx),
            McastTag::FwdReplica { group, seq, idx } => {
                self.fwd_replica_done(core, group, seq, idx);
            }
            McastTag::SingleSent {
                group, seq, buf, ..
            } => self.single_sent(core, group, seq, buf),
            t => unreachable!("unexpected tx callback {t:?}"),
        }
    }

    fn work(&mut self, core: &mut NicCore<Self>, tag: McastTag) {
        match tag {
            McastTag::PerDestProc { group, seq, child } => {
                self.single_pending
                    .push_back(SingleTx { group, seq, child });
                self.pump_single(core);
            }
            t => unreachable!("unexpected work item {t:?}"),
        }
    }

    fn dma_done(&mut self, core: &mut NicCore<Self>, tag: McastTag) {
        match tag {
            McastTag::SdmaDone { group, seq } => self.start_chain(core, group, seq),
            McastTag::RdmaDone { group, seq, bytes } => self.rdma_done(core, group, seq, bytes),
            McastTag::RetxDma { group, seq, child } => {
                self.retx_dma_done(core, group, seq, child);
            }
            t => unreachable!("unexpected dma completion {t:?}"),
        }
    }

    fn timer(&mut self, core: &mut NicCore<Self>, tag: McastTag) {
        match tag {
            McastTag::GroupTimer { group, gen } => self.on_timer(core, group, gen),
            McastTag::BarrierTimer { group, round } => {
                self.on_barrier_timer(core, group, round);
            }
            t => unreachable!("unexpected timer {t:?}"),
        }
    }

    fn resources_available(&mut self, core: &mut NicCore<Self>) {
        // Retry stalled forward chains first (they hold receive buffers),
        // then retransmissions, then fresh root packets.
        while let Some(&(group, seq)) = self.fwd_stalled.front() {
            if !core.take_send_token() {
                core.signal_resource_wait();
                break;
            }
            self.fwd_stalled.pop_front();
            self.launch_forward(core, group, seq);
        }
        self.pump_single(core);
        self.pump_sdma(core);
    }

    fn flow_of_request(&self, node: u32, req: &McastRequest) -> FlowId {
        match req {
            // The root's own work on a multicast (request processing, the
            // one-time SDMA) belongs to its self-flow `(root, tag, root)`;
            // per-destination flows link back to it causally.
            McastRequest::Send { tag, .. } => FlowId::new(node, flow_tag(*tag), node),
            _ => FlowId::NONE,
        }
    }

    fn flow_of_tag(&self, node: u32, tag: &McastTag) -> FlowId {
        match tag {
            // Work on this node's own copy of the message.
            McastTag::SdmaDone { group, seq } | McastTag::RdmaDone { group, seq, .. } => {
                match self.flow_parts(*group, *seq) {
                    Some((root, t)) => FlowId::new(root, t, node),
                    None => FlowId::NONE,
                }
            }
            // Replica chains: the hop belongs to the child being fed.
            McastTag::Replica { group, seq, idx } | McastTag::FwdReplica { group, seq, idx } => {
                let child = self
                    .groups
                    .get(group)
                    .and_then(|g| g.children.get(*idx))
                    .copied();
                match (self.flow_parts(*group, *seq), child) {
                    (Some((root, t)), Some(child)) => FlowId::new(root, t, child.0),
                    _ => FlowId::NONE,
                }
            }
            // Selective retransmissions target one child explicitly.
            McastTag::RetxDma { group, seq, child }
            | McastTag::SingleSent {
                group, seq, child, ..
            }
            | McastTag::PerDestProc { group, seq, child } => match self.flow_parts(*group, *seq) {
                Some((root, t)) => FlowId::new(root, t, child.0),
                None => FlowId::NONE,
            },
            McastTag::GroupTimer { .. } | McastTag::BarrierTimer { .. } => FlowId::NONE,
        }
    }
}
