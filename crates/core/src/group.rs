//! Multicast group state and the host<->NIC request/notice vocabulary.
//!
//! A *group* is the NIC-table form of one spanning tree: each member NIC
//! stores its own parent, children and the three kinds of sequence state the
//! paper lists (§5 "Reliability and In Order Delivery"):
//!
//! 1. a receive sequence number for packets from the parent,
//! 2. a send sequence number for packets sent to the children,
//! 3. an array of acknowledged sequence numbers, one per child.

use std::collections::VecDeque;

use gm_proto::{ChildAcks, GbnRx, GbnTx};
use gm_sim::SimTime;
use myrinet::{GroupId, NodeId, Payload, PortId};

/// Host-to-NIC multicast requests.
#[derive(Clone, Debug)]
pub enum McastRequest {
    /// Install (or replace) this node's entry for a group. The host built
    /// the spanning tree and preposts each member's slice of it.
    CreateGroup {
        /// Group identifier (unique per (root, membership)).
        group: GroupId,
        /// Host port multicast messages are delivered to.
        port: PortId,
        /// The tree root.
        root: NodeId,
        /// This node's parent (`None` at the root).
        parent: Option<NodeId>,
        /// This node's children, in send order.
        children: Vec<NodeId>,
    },
    /// Multicast `data` to the group (root only). One request regardless of
    /// destination count — this is the NIC-based multisend entry point.
    Send {
        /// Target group.
        group: GroupId,
        /// The message.
        data: Payload,
        /// Tag delivered to receivers and echoed in the completion notice.
        tag: u64,
    },
    /// Enter the NIC-level barrier on a group (every member calls this; the
    /// paper lists NIC-supported collectives beyond multicast as future
    /// work). Completion arrives as [`McastNotice::BarrierDone`].
    BarrierEnter {
        /// The group whose tree the barrier runs over.
        group: GroupId,
        /// Tag echoed in the completion notice.
        tag: u64,
    },
    /// Tear down this node's entry for a group, releasing its group-table
    /// slot. The NIC defers the release until the group is quiescent (no
    /// unacked records, no in-flight reassembly, no forwarding buffer
    /// references), then emits [`McastNotice::GroupLeft`]. Freed slots admit
    /// queued `CreateGroup` requests in deterministic arrival order.
    Leave {
        /// The group to leave.
        group: GroupId,
    },
    /// Enter a NIC-level allreduce on a group: every member contributes a
    /// value; partial results combine up the tree in firmware and the root
    /// releases the final result through the reliable multicast path.
    /// Completion arrives as [`McastNotice::AllreduceDone`].
    AllreduceEnter {
        /// The group whose tree the reduction runs over.
        group: GroupId,
        /// This member's contribution.
        value: u64,
        /// The combining operator (must match across members).
        op: ReduceOp,
        /// Tag echoed in the completion notice.
        tag: u64,
    },
}

/// The combining operator of a NIC-level allreduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Wrapping sum.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl ReduceOp {
    /// Combine two operands.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

/// What kind of collective the group is currently running.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CollKind {
    Barrier,
    Allreduce(ReduceOp),
}

/// NIC-to-host multicast notices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum McastNotice {
    /// The NIC installed the group table entry.
    GroupReady {
        /// The group.
        group: GroupId,
    },
    /// All children acknowledged every packet of the message with `tag`
    /// (root only).
    SendDone {
        /// The group.
        group: GroupId,
        /// The message tag.
        tag: u64,
    },
    /// The NIC released this node's group-table entry after a
    /// [`McastRequest::Leave`] (fires once the group quiesced).
    GroupLeft {
        /// The group.
        group: GroupId,
    },
    /// The NIC-level barrier completed a round on this node.
    BarrierDone {
        /// The group.
        group: GroupId,
        /// The tag passed to `BarrierEnter`.
        tag: u64,
    },
    /// The NIC-level allreduce completed a round on this node.
    AllreduceDone {
        /// The group.
        group: GroupId,
        /// The combined result over all members.
        result: u64,
        /// The tag passed to `AllreduceEnter`.
        tag: u64,
    },
}

/// Where retransmitted packet data comes from (paper §5 "Messages
/// Forwarding", second design issue).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RetxBufferPolicy {
    /// Release the NIC receive buffer as soon as forwarding is done and
    /// retransmit from the (registered) host-memory replica — the paper's
    /// choice.
    #[default]
    HostMemory,
    /// Hold the NIC receive buffer until all children acknowledge — the
    /// "naive solution" the paper rejects because SRAM buffers are scarce.
    HoldSram,
}

/// Where a forwarding NIC gets a token to transmit with (paper §5
/// "Messages Forwarding", first design issue).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FwdTokenPolicy {
    /// Transform the receive token into a send token — the paper's choice
    /// ("it does not require additional resources at the NIC").
    #[default]
    TransformRecv,
    /// Grab a send token from the free pool — "can lead to the possibility
    /// of deadlock when the intermediate nodes are running out of send
    /// tokens".
    FreePool,
}

/// How the root emits replicas (paper §5 "Sending of Multiple Message
/// Replicas", approaches 1 and 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MultisendImpl {
    /// One request; replicas produced by descriptor callbacks rewriting the
    /// header — the paper's choice (approach 2).
    #[default]
    Callback,
    /// Generate one send token per destination (approach 1): pays the token
    /// processing cost once per destination.
    PerDestToken,
}

/// Ablation switches for the multicast firmware.
#[derive(Clone, Copy, Debug, Default)]
pub struct McastConfig {
    /// Retransmission data source.
    pub retx_buffer: RetxBufferPolicy,
    /// Forwarding token source.
    pub fwd_token: FwdTokenPolicy,
    /// Replica generation mechanism.
    pub multisend: MultisendImpl,
}

/// One packet's bookkeeping while any child has not acknowledged it.
#[derive(Debug)]
pub(crate) struct McastRec {
    pub seq: u64,
    pub offset: u32,
    pub tag: u64,
    /// The message this packet is a piece of. Its replica is the registered
    /// host-memory copy under [`RetxBufferPolicy::HostMemory`], the held
    /// SRAM buffer otherwise.
    pub payload: Payload,
    /// Last time this packet finished serializing to any child.
    pub last_tx: Option<SimTime>,
    pub retries: u32,
}

impl McastRec {
    /// Payload bytes of this packet.
    pub fn len(&self) -> u32 {
        self.payload.packet_len(self.offset)
    }
}

/// An in-flight inbound multicast message being reassembled. The parent's
/// Go-Back-N accepts packets in order, so what has arrived is always the
/// prefix `[0, received)`: coverage is one counter, and no bytes are copied.
#[derive(Debug)]
pub(crate) struct InMsg {
    pub tag: u64,
    /// The message, from its first packet.
    pub data: Payload,
    pub received: u32,
    pub rdma_done: u32,
}

impl InMsg {
    /// Whether bytes of this message are still uploading to host memory (a
    /// zero-byte message counts until it is delivered).
    pub fn uploading(&self) -> bool {
        self.rdma_done < self.data.len() as u32 || self.data.is_empty()
    }
}

/// This NIC's entry for one group.
#[derive(Debug)]
pub(crate) struct GroupState {
    pub port: PortId,
    pub root: NodeId,
    pub parent: Option<NodeId>,
    pub children: Vec<NodeId>,
    /// Go-Back-N sender window: next sequence number to assign (root only).
    pub tx: GbnTx,
    /// Go-Back-N receiver window: next sequence expected from the parent.
    pub rx: GbnRx,
    /// Per-child count of contiguously acknowledged packets
    /// (acked seq + 1) — the paper's third piece of sequence state.
    pub acked: ChildAcks,
    /// Unacknowledged packets, ascending seq.
    pub records: VecDeque<McastRec>,
    /// Root: outstanding messages awaiting full acknowledgment
    /// `(tag, last_seq)` in send order.
    pub out_msgs: VecDeque<(u64, u64)>,
    /// Inbound messages being reassembled / uploaded (FIFO).
    pub in_msgs: VecDeque<InMsg>,
    pub timer_armed: bool,
    pub timer_gen: u64,
    /// The host asked to leave; the entry is freed (and `GroupLeft` emitted)
    /// as soon as the group quiesces.
    pub leaving: bool,
    // --- NIC-level barrier (future-work extension) ---
    /// Barrier round currently in progress.
    pub bar_round: u64,
    /// Whether the local host has entered the current round.
    pub bar_entered: bool,
    /// Tag to echo when the current round completes.
    pub bar_tag: u64,
    /// Per child: number of rounds for which an UP token has been received
    /// (child `ci` is ready for round r when `bar_up[ci] > r`).
    pub bar_up: Vec<u64>,
    /// Whether this node's own UP for the current round has been sent.
    pub bar_up_sent: bool,
    /// The collective in progress this round.
    pub bar_kind: CollKind,
    /// This member's allreduce contribution for the current round.
    pub bar_value: u64,
    /// Latest partial value received from each child.
    pub bar_child_val: Vec<u64>,
}

impl GroupState {
    pub(crate) fn new(
        port: PortId,
        root: NodeId,
        parent: Option<NodeId>,
        children: Vec<NodeId>,
    ) -> Self {
        let n = children.len();
        GroupState {
            port,
            root,
            parent,
            children,
            tx: GbnTx::default(),
            rx: GbnRx::default(),
            acked: ChildAcks::new(n),
            records: VecDeque::new(),
            out_msgs: VecDeque::new(),
            in_msgs: VecDeque::new(),
            timer_armed: false,
            timer_gen: 0,
            leaving: false,
            bar_round: 0,
            bar_entered: false,
            bar_tag: 0,
            bar_up: vec![0; n],
            bar_up_sent: false,
            bar_kind: CollKind::Barrier,
            bar_value: 0,
            bar_child_val: vec![0; n],
        }
    }

    /// Lowest per-child acked count: packets below this are globally acked.
    pub(crate) fn min_acked(&self) -> u64 {
        self.acked.min_acked()
    }

    /// Find a record by sequence number.
    pub(crate) fn record(&mut self, seq: u64) -> Option<&mut McastRec> {
        self.records.iter_mut().find(|r| r.seq == seq)
    }

    /// Index of `child` in the children array.
    pub(crate) fn child_index(&self, child: NodeId) -> Option<usize> {
        self.children.iter().position(|&c| c == child)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_state_min_acked() {
        let mut g = GroupState::new(
            PortId(0),
            NodeId(0),
            None,
            vec![NodeId(1), NodeId(2), NodeId(3)],
        );
        assert_eq!(g.min_acked(), 0);
        g.acked.on_ack(0, 2); // counts: [3,0,0]
        g.acked.on_ack(1, 0); // counts: [3,1,0]
        g.acked.on_ack(2, 1); // counts: [3,1,2]
        assert_eq!(g.min_acked(), 1);
        // No children: everything is trivially acked.
        let leaf = GroupState::new(PortId(0), NodeId(0), Some(NodeId(0)), vec![]);
        assert_eq!(leaf.min_acked(), u64::MAX);
    }

    #[test]
    fn child_index_lookup() {
        let g = GroupState::new(PortId(0), NodeId(0), None, vec![NodeId(5), NodeId(9)]);
        assert_eq!(g.child_index(NodeId(9)), Some(1));
        assert_eq!(g.child_index(NodeId(4)), None);
    }

    #[test]
    fn config_defaults_match_paper_choices() {
        let c = McastConfig::default();
        assert_eq!(c.retx_buffer, RetxBufferPolicy::HostMemory);
        assert_eq!(c.fwd_token, FwdTokenPolicy::TransformRecv);
        assert_eq!(c.multisend, MultisendImpl::Callback);
    }
}
