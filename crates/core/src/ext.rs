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
//!   the host in parallel. No host involvement on the forwarding path. The
//!   root's multisend and a forwarder's relay run the same replica step;
//!   only the buffer the chain holds differs.
//! * **Reliable one-to-many Go-Back-N** — every member tracks a receive
//!   sequence, a send sequence and a per-child acked array; on timeout,
//!   packets are retransmitted *only* to the children that have not
//!   acknowledged them, from the host-memory replica (the receive token is
//!   transformed into a send token, so no extra NIC resources are needed).

use gm_sim::{FlowId, SimTime};
use myrinet::{GroupId, NodeId, Packet, PacketKind, Payload};

use gm::{flow_tag, Cb, GmParams, NicCore, NicExtension};
use gm_proto::{self as proto, CollKind, RxVerdict};

use crate::group::MultisendImpl;
use crate::group::{
    FwdTokenPolicy, GroupState, InMsg, McastConfig, McastNotice, McastRec, McastRequest,
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
    /// The replica to `children[idx]` finished serializing: the root's from
    /// its send buffer, a forwarder's straight from its receive buffer.
    Replica {
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
    RetxDma(SingleTx),
    /// A single-target transmission finished serializing.
    SingleSent {
        /// What was sent.
        tx: SingleTx,
        /// Whether a send SRAM buffer was held (and must be freed).
        buf: bool,
    },
    /// Per-destination token processing (the multisend ablation).
    PerDestProc(SingleTx),
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

/// One packet bound for one child alone: a retransmission, or a send of
/// the per-destination-token ablation.
#[derive(Clone, Copy, Debug)]
pub struct SingleTx {
    /// Group.
    pub group: GroupId,
    /// Packet sequence.
    pub seq: u64,
    /// Target child.
    pub child: NodeId,
}

/// A `CreateGroup` as the firmware installs it: at once, or parked while
/// the NIC group table is full until a slot frees. Admission order is
/// `(arrival time, group id)` — a total order identical on every shard
/// layout.
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
                            McastTag::PerDestProc(SingleTx { group, seq, child }),
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

    // -- replica chains ------------------------------------------------------------

    /// Start the replica chain of a packet: the root's sits in the send
    /// buffer it was downloaded to, a forwarder's in the receive buffer it
    /// arrived in.
    fn start_chain(&mut self, core: &mut NicCore<Self>, group: GroupId, seq: u64) {
        if !self.send_replica(core, group, seq, None) {
            self.drop_chain_buffer(core, group, seq);
        }
    }

    /// Transmit-complete callback on a replica chain: requeue the packet to
    /// the next child, or end the chain after the last one.
    fn replica_done(&mut self, core: &mut NicCore<Self>, group: GroupId, seq: u64, idx: usize) {
        if self.send_replica(core, group, seq, Some(idx)) {
            return;
        }
        let root = self.drop_chain_buffer(core, group, seq);
        self.arm_timer(core, group);
        if root {
            self.pump_sdma(core);
            self.pump_single(core);
        }
    }

    /// One step of a replica chain, the same for the root's multisend and a
    /// forwarder's relay: stamp the packet's last transmission (`done` is
    /// the child whose replica just finished, `None` at the start), pick the
    /// next child, rewrite the header for it and requeue — the GM-2
    /// descriptor-callback trick. `false` ends the chain: every child has
    /// its replica, or the record was acked away.
    fn send_replica(
        &mut self,
        core: &mut NicCore<Self>,
        group: GroupId,
        seq: u64,
        done: Option<usize>,
    ) -> bool {
        let me = core.node();
        let now = core.now();
        let Some(g) = self.groups.get_mut(&group) else {
            return false;
        };
        let (root, forwarder) = (g.root, g.parent.is_some());
        let next = match done {
            None => Some(0),
            Some(idx) => proto::next_replica(g.children.len(), idx),
        };
        let next = next.map(|idx| (idx, g.children[idx]));
        let Some(rec) = g.record(seq) else {
            return false;
        };
        if done.is_some() {
            rec.last_tx = Some(now);
        }
        let Some((idx, child)) = next else {
            return false;
        };
        let pkt = Self::data_pkt(me, child, group, rec, root);
        core.counters
            .bump(if forwarder { "mcast_fwd" } else { "mcast_tx" });
        core.ext_tx(pkt, Cb::Ext(McastTag::Replica { group, seq, idx }));
        true
    }

    /// Release the buffer an ended chain held, and say whether it was the
    /// root's: a forwarder drops its chain's reference on the receive
    /// buffer, the root frees its send buffer.
    fn drop_chain_buffer(&mut self, core: &mut NicCore<Self>, group: GroupId, seq: u64) -> bool {
        if self.buf_refs.contains_key(&(group, seq)) {
            self.dec_ref(core, group, seq);
            false
        } else {
            core.free_send_buffer();
            true
        }
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
        let rec = McastRec {
            seq,
            offset,
            tag,
            payload: pkt.payload,
            last_tx: None,
            retries: 0,
        };
        if tag & BARRIER_TAG_BIT != 0 {
            // Collective release: pure NIC-level control riding the
            // reliable multicast path. No receive token, no host copy.
            debug_assert!(
                pkt.payload.is_empty() || pkt.payload.len() == RESULT_BYTES,
                "release payload {:?}",
                pkt.payload
            );
            self.accept_barrier_release(core, group, pkt.payload);
            return self.accept_and_forward(core, group, rec, false);
        }
        if offset == 0 {
            // A new message needs a receive token ("the receive token is
            // presumed to be available to receive any message").
            if !core.take_recv_token(g.port) {
                core.free_recv_buffer();
                return; // no ack: the parent's timeout recovers this packet
            }
            g.in_msgs.push_back(InMsg {
                tag,
                data: pkt.payload,
                received: 0,
                rdma_done: 0,
            });
        }
        let msg = g.in_msgs.back_mut().expect("open message");
        debug_assert_eq!(pkt.payload, msg.data, "packet of another message");
        debug_assert_eq!(
            offset, msg.received,
            "message {:?}: a packet that does not continue the covered prefix",
            msg.data
        );
        msg.received += pkt.len;
        core.counters.bump("mcast_rx");
        self.accept_and_forward(core, group, rec, true);
        // Upload the payload to host memory in parallel with forwarding.
        core.ext_dma(
            u64::from(pkt.len),
            McastTag::RdmaDone {
                group,
                seq,
                bytes: pkt.len,
            },
        );
    }

    /// Accept the in-sequence packet `rec` from the parent, data or a
    /// collective release alike: record it, reference its receive buffer
    /// once per user (the host upload when `upload`, the replica chain, and
    /// the held copy under `HoldSram`), start forwarding it, then ack.
    /// Forwarding comes first because the replica chain is the
    /// latency-critical path ("an intermediate NIC can forward the packets
    /// of a message without waiting for the arrival of the complete
    /// message").
    fn accept_and_forward(
        &mut self,
        core: &mut NicCore<Self>,
        group: GroupId,
        rec: McastRec,
        upload: bool,
    ) {
        let (me, seq) = (core.node(), rec.seq);
        let hold_sram = self.config.retx_buffer == RetxBufferPolicy::HoldSram;
        let g = self.groups.get_mut(&group).expect("checked by caller");
        let parent = g.parent.expect("non-root");
        g.rx.accept();
        let has_children = !g.children.is_empty();
        if has_children {
            g.records.push_back(rec);
        }
        match proto::fwd_buf_refs(has_children, hold_sram) - u8::from(!upload) {
            0 => core.free_recv_buffer(),
            refs => {
                self.buf_refs.insert((group, seq), refs);
            }
        }
        if has_children {
            let need_pool_token = self.config.fwd_token == FwdTokenPolicy::FreePool;
            if need_pool_token && !core.take_send_token() {
                // Ablation: forwarding stalls until a pool token frees up —
                // the deadlock the paper's receive-token transformation
                // avoids.
                core.counters.bump("mcast_fwd_token_stall");
                self.fwd_stalled.push_back((group, seq));
                core.signal_resource_wait();
            } else {
                self.start_chain(core, group, seq);
            }
        }
        core.ext_tx(Packet::mcast_ack(me, parent, group, seq), Cb::None);
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
    fn install_or_queue(&mut self, core: &mut NicCore<Self>, install: PendingGroup) {
        // Strict FIFO: never let a new install jump ahead of parked ones —
        // admission in NIC-arrival order is what guarantees liveness when
        // groups span nodes whose tables exhaust at different times.
        if self.groups.contains_key(&install.group)
            || (self.admission.is_empty() && core.group_alloc(install.group))
        {
            return self.install(core, install);
        }
        // A rejoin waiting for a slot is no longer an ex-member.
        self.left.remove(&install.group);
        core.counters.bump("mcast_group_admission_waits");
        let pos = self
            .admission
            .partition_point(|p| (p.at, p.group) <= (install.at, install.group));
        self.admission.insert(pos, install);
    }

    /// Admit parked installs into freshly-freed table slots, in order.
    fn admit_pending(&mut self, core: &mut NicCore<Self>) {
        while !self.admission.is_empty() {
            if !core.group_alloc(self.admission[0].group) {
                return; // table still full (or a duplicate raced in)
            }
            let install = self.admission.remove(0);
            self.install(core, install);
        }
    }

    /// Install (or replace in place) a group whose table slot is held, and
    /// tell the host it is ready.
    fn install(&mut self, core: &mut NicCore<Self>, p: PendingGroup) {
        self.left.remove(&p.group);
        self.groups.insert(
            p.group,
            GroupState::new(p.port, p.root, p.parent, p.children),
        );
        core.counters.bump("mcast_group_installs");
        core.ext_notify(McastNotice::GroupReady { group: p.group });
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
            || g.coll.is_open()
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
        g.coll.enter(tag, kind, value);
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
        if !g.coll.subtree_ready() {
            return;
        }
        let (round, result) = (g.coll.round(), g.coll.fold());
        match g.parent {
            None => {
                // Root: complete locally and release everyone through the
                // reliable multicast path (ordered with data messages).
                let tag = g.coll.advance();
                Self::round_done(core, group, tag, result);
                let release = result.map_or(Payload::EMPTY, |v| {
                    Payload::new(0, RESULT_BYTES).with_value(v)
                });
                self.start_send(core, group, release, BARRIER_TAG_BIT | round);
            }
            Some(parent) => {
                if !g.coll.send_up() {
                    return;
                }
                let partial = result.unwrap_or(0);
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
    /// accepted in sequence. All it adds to a data packet's acceptance is
    /// completing the round at this member: a zero-byte release is a
    /// barrier's, an 8-byte one carries the allreduce result in its value
    /// word.
    fn accept_barrier_release(
        &mut self,
        core: &mut NicCore<Self>,
        group: GroupId,
        release: Payload,
    ) {
        let g = self.groups.get_mut(&group).expect("checked by caller");
        debug_assert!(g.coll.is_open(), "release precedes local entry");
        let tag = g.coll.advance();
        let result = (release.len() == RESULT_BYTES).then(|| release.value());
        Self::round_done(core, group, tag, result);
    }

    /// A collective round completed at this node: tell the host, with the
    /// result when the round was an allreduce.
    fn round_done(core: &mut NicCore<Self>, group: GroupId, tag: u64, result: Option<u64>) {
        core.counters.bump("mcast_barrier_rounds");
        core.ext_notify(match result {
            None => McastNotice::BarrierDone { group, tag },
            Some(result) => McastNotice::AllreduceDone { group, result, tag },
        });
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
        g.coll.on_up(ci, seq, value);
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
        if !g.coll.up_outstanding(round) {
            return; // round completed; token no longer needed
        }
        let parent = g.parent.expect("only non-roots send UP");
        let partial = g.coll.fold().unwrap_or(0);
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
        let min_acked = g.acked.min_acked();
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
        for rec in g.records.iter_mut() {
            // A packet still in its first chain is checked again later.
            let due_at = rec.last_tx.unwrap_or(now) + timeout;
            if rec.last_tx.is_none() || due_at > now {
                earliest_due = Some(earliest_due.map_or(due_at, |e: SimTime| e.min(due_at)));
                continue;
            }
            rec.retries += 1;
            max_retries = max_retries.max(rec.retries);
            for (ci, &child) in g.children.iter().enumerate() {
                if g.acked.needs(ci, rec.seq) {
                    self.single_pending.push_back(SingleTx {
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
        // Re-arm.
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
        while let Some(&tx) = self.single_pending.front() {
            let SingleTx { group, seq, child } = tx;
            let Some(g) = self.groups.get_mut(&group) else {
                self.single_pending.pop_front();
                continue;
            };
            let still_needed = g
                .child_index(child)
                .is_some_and(|ci| g.acked.needs(ci, seq));
            let forwarder = g.parent.is_some();
            let Some(bytes) = g.record(seq).filter(|_| still_needed).map(|r| r.len()) else {
                self.single_pending.pop_front();
                continue;
            };
            if hold_sram && forwarder {
                // Data still sits in the held SRAM buffer: transmit directly.
                debug_assert!(
                    self.buf_refs.contains_key(&(group, seq)),
                    "a forwarder retransmits {group:?} seq {seq} from a held SRAM buffer \
                     it no longer holds"
                );
                self.single_pending.pop_front();
                self.send_single(core, tx, false);
            } else {
                // Re-download the packet from the registered host memory.
                if !core.alloc_send_buffer() {
                    core.signal_resource_wait();
                    return;
                }
                self.single_pending.pop_front();
                core.ext_dma(u64::from(bytes), McastTag::RetxDma(tx));
            }
        }
    }

    /// Send `tx` from a send buffer it was downloaded to (`buf`, freed once
    /// it is sent) or from the SRAM buffer a `HoldSram` forwarder still
    /// holds. `false` when its record is gone.
    fn send_single(&mut self, core: &mut NicCore<Self>, tx: SingleTx, buf: bool) -> bool {
        let me = core.node();
        let Some(g) = self.groups.get_mut(&tx.group) else {
            return false;
        };
        let root = g.root;
        let Some(rec) = g.record(tx.seq) else {
            return false;
        };
        let pkt = Self::data_pkt(me, tx.child, tx.group, rec, root);
        core.counters.bump("mcast_retx_tx");
        core.ext_tx(pkt, Cb::Ext(McastTag::SingleSent { tx, buf }));
        true
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
                let install = PendingGroup {
                    at: core.now(),
                    group,
                    port,
                    root,
                    parent,
                    children,
                };
                self.install_or_queue(core, install);
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
            McastTag::SingleSent { tx, buf } => self.single_sent(core, tx.group, tx.seq, buf),
            t => unreachable!("unexpected tx callback {t:?}"),
        }
    }

    fn work(&mut self, core: &mut NicCore<Self>, tag: McastTag) {
        match tag {
            McastTag::PerDestProc(tx) => {
                self.single_pending.push_back(tx);
                self.pump_single(core);
            }
            t => unreachable!("unexpected work item {t:?}"),
        }
    }

    fn dma_done(&mut self, core: &mut NicCore<Self>, tag: McastTag) {
        match tag {
            McastTag::SdmaDone { group, seq } => self.start_chain(core, group, seq),
            McastTag::RdmaDone { group, seq, bytes } => self.rdma_done(core, group, seq, bytes),
            McastTag::RetxDma(tx) => {
                if !self.send_single(core, tx, true) {
                    core.free_send_buffer();
                }
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
            self.start_chain(core, group, seq);
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
        let (group, seq, dest) = match *tag {
            // Work on this node's own copy of the message.
            McastTag::SdmaDone { group, seq } | McastTag::RdmaDone { group, seq, .. } => {
                (group, seq, Some(node))
            }
            // Replica chains: the hop belongs to the child being fed.
            McastTag::Replica { group, seq, idx } => {
                let child = self.groups.get(&group).and_then(|g| g.children.get(idx));
                (group, seq, child.map(|c| c.0))
            }
            // Selective retransmissions target one child explicitly.
            McastTag::RetxDma(tx) | McastTag::SingleSent { tx, .. } | McastTag::PerDestProc(tx) => {
                (tx.group, tx.seq, Some(tx.child.0))
            }
            McastTag::GroupTimer { .. } | McastTag::BarrierTimer { .. } => return FlowId::NONE,
        };
        match (self.flow_parts(group, seq), dest) {
            (Some((root, t)), Some(dest)) => FlowId::new(root, t, dest),
            _ => FlowId::NONE,
        }
    }
}
