//! Wire-level packet format.
//!
//! Myrinet carries arbitrary source-routed packets; GM defines the packet
//! types layered on it. The fabric only inspects `src`/`dst` and the total
//! size; everything else is opaque protocol header carried through.

use std::fmt;

/// A host/NIC pair's network identifier (the "network ID" the paper sorts
/// destinations by for deadlock freedom).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into per-node arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A GM communication endpoint on a node (GM "port").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PortId(pub u8);

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A multicast group identifier (unique per (root, membership) pair).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GroupId(pub u32);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Routing + protocol header bytes prepended to every packet on the wire.
pub const HEADER_BYTES: u64 = 24;

/// GM's maximum packet payload (the paper: "The maximum packet size in GM is
/// 4096 bytes").
pub const MTU: usize = 4096;

/// A message as the model carries it: the sender's identity for it, its
/// length and one value word.
///
/// Every cost the model charges (PCI DMA, wire serialization,
/// packetization) reads only the length, so no message bytes exist
/// anywhere. A data packet carries its message's descriptor and the
/// `(offset, len)` of the piece it holds; a receiver reassembles by
/// counting coverage of `[0, len)`. The id is the sender's to choose (tests
/// use it to tell same-length messages apart); the value word carries the
/// one result a collective release needs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Payload {
    id: u32,
    len: u32,
    value: u64,
}

impl Payload {
    /// The zero-length message with id 0: what control packets carry.
    pub const EMPTY: Payload = Payload {
        id: 0,
        len: 0,
        value: 0,
    };

    /// Message `id` of `len` bytes, with a zero value word.
    pub fn new(id: u32, len: usize) -> Payload {
        let len = u32::try_from(len).expect("a message length fits GM's 32-bit length field");
        Payload { id, len, value: 0 }
    }

    /// This message carrying `value` in its value word.
    pub const fn with_value(self, value: u64) -> Payload {
        Payload { value, ..self }
    }

    /// The sender's identity for this message.
    pub const fn id(self) -> u32 {
        self.id
    }

    /// Message length in bytes.
    pub const fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the message has no bytes.
    pub const fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The value word.
    pub const fn value(self) -> u64 {
        self.value
    }

    /// Payload bytes of the packet that starts at `offset`: an MTU, or the
    /// rest of the message. A zero-length message travels as one empty
    /// packet.
    pub fn packet_len(self, offset: u32) -> u32 {
        debug_assert!(
            offset <= self.len,
            "offset {offset} past the end of {self:?}"
        );
        (self.len - offset).min(MTU as u32)
    }
}

/// Protocol content of a packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PacketKind {
    /// A unicast GM data packet on a (port, peer) connection.
    Data {
        /// Destination port on the receiving node.
        port: PortId,
        /// Sending port on the source node.
        src_port: PortId,
        /// Go-Back-N sequence number on this connection.
        seq: u64,
        /// Byte offset of this packet's payload within its message.
        offset: u32,
        /// Message tag passed through to the receiver.
        tag: u64,
    },
    /// Cumulative acknowledgment for a unicast connection.
    Ack {
        /// Port of the original sender being acked.
        port: PortId,
        /// Highest in-order sequence number received.
        seq: u64,
    },
    /// A multicast data packet (NIC-based scheme).
    Mcast {
        /// Group this packet belongs to.
        group: GroupId,
        /// Per-group Go-Back-N sequence number (same for all children).
        seq: u64,
        /// Byte offset within the multicast message.
        offset: u32,
        /// Message tag passed through to receivers.
        tag: u64,
        /// Root of the multicast operation (for delivery records).
        root: NodeId,
    },
    /// Cumulative acknowledgment from a child to its parent for a group.
    McastAck {
        /// Group being acked.
        group: GroupId,
        /// Highest in-order group sequence number received.
        seq: u64,
    },
    /// An extension control packet on a group (e.g. the NIC-level barrier's
    /// child-to-parent "subtree ready" token). Pure control: no payload, no
    /// receive buffer, delivered straight to the NIC extension.
    Ctl {
        /// Group the control message belongs to.
        group: GroupId,
        /// Extension-defined opcode.
        op: u8,
        /// Extension-defined sequence (e.g. barrier round).
        seq: u64,
        /// Extension-defined immediate (e.g. an allreduce partial value).
        value: u64,
    },
}

impl PacketKind {
    /// Whether this is any multicast-protocol packet (extension-handled).
    pub fn is_mcast(&self) -> bool {
        matches!(
            self,
            PacketKind::Mcast { .. } | PacketKind::McastAck { .. } | PacketKind::Ctl { .. }
        )
    }

    /// Whether this packet carries message payload (vs pure control).
    pub fn is_data(&self) -> bool {
        matches!(self, PacketKind::Data { .. } | PacketKind::Mcast { .. })
    }

    /// The sequence number carried, for logging and fault targeting.
    pub fn seq(&self) -> u64 {
        match *self {
            PacketKind::Data { seq, .. }
            | PacketKind::Ack { seq, .. }
            | PacketKind::Mcast { seq, .. }
            | PacketKind::McastAck { seq, .. }
            | PacketKind::Ctl { seq, .. } => seq,
        }
    }
}

/// One packet in flight on the fabric.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Injecting node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Protocol content.
    pub kind: PacketKind,
    /// The message this packet carries a piece of ([`Payload::EMPTY`] for
    /// control packets).
    pub payload: Payload,
    /// Payload bytes on the wire: the piece of `payload` at the kind's
    /// offset (0 for control packets).
    pub len: u32,
}

impl Packet {
    /// Total size on the wire, including header.
    pub fn wire_bytes(&self) -> u64 {
        HEADER_BYTES + u64::from(self.len)
    }

    /// A control packet: no payload.
    fn control(src: NodeId, dst: NodeId, kind: PacketKind) -> Packet {
        Packet {
            src,
            dst,
            kind,
            payload: Payload::EMPTY,
            len: 0,
        }
    }

    /// Build an ack packet for a unicast connection.
    pub fn ack(src: NodeId, dst: NodeId, port: PortId, seq: u64) -> Packet {
        Packet::control(src, dst, PacketKind::Ack { port, seq })
    }

    /// Build a multicast ack packet (child -> parent).
    pub fn mcast_ack(src: NodeId, dst: NodeId, group: GroupId, seq: u64) -> Packet {
        Packet::control(src, dst, PacketKind::McastAck { group, seq })
    }

    /// Build an extension control packet.
    pub fn ctl(src: NodeId, dst: NodeId, group: GroupId, op: u8, seq: u64, value: u64) -> Packet {
        let kind = PacketKind::Ctl {
            group,
            op,
            seq,
            value,
        };
        Packet::control(src, dst, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_includes_header() {
        let p = Packet::ack(NodeId(0), NodeId(1), PortId(0), 3);
        assert_eq!(p.wire_bytes(), HEADER_BYTES);
        let p2 = Packet {
            payload: Payload::new(1, 100),
            len: 100,
            ..p
        };
        assert_eq!(p2.wire_bytes(), HEADER_BYTES + 100);
    }

    #[test]
    fn descriptors_are_small_and_packets_fit_a_cache_line() {
        assert!(std::mem::size_of::<Payload>() <= 16);
        assert!(std::mem::size_of::<Packet>() <= 64);
    }

    #[test]
    fn packets_split_a_message_at_the_mtu() {
        let m = Payload::new(7, 2 * MTU + 1);
        assert_eq!(m.packet_len(0), MTU as u32);
        assert_eq!(m.packet_len(MTU as u32), MTU as u32);
        assert_eq!(m.packet_len(2 * MTU as u32), 1);
        assert_eq!(Payload::EMPTY.packet_len(0), 0);
        assert_eq!(m.with_value(9).value(), 9);
        assert_ne!(
            m,
            Payload::new(8, 2 * MTU + 1),
            "same length, other message"
        );
    }

    #[test]
    fn kind_classification() {
        let data = PacketKind::Data {
            port: PortId(0),
            src_port: PortId(0),
            seq: 1,
            offset: 0,
            tag: 0,
        };
        let mc = PacketKind::Mcast {
            group: GroupId(1),
            seq: 2,
            offset: 0,
            tag: 0,
            root: NodeId(0),
        };
        let ack = PacketKind::Ack {
            port: PortId(0),
            seq: 5,
        };
        let mack = PacketKind::McastAck {
            group: GroupId(1),
            seq: 6,
        };
        assert!(data.is_data() && !data.is_mcast());
        assert!(mc.is_data() && mc.is_mcast());
        assert!(!ack.is_data() && !ack.is_mcast());
        assert!(!mack.is_data() && mack.is_mcast());
        assert_eq!(data.seq(), 1);
        assert_eq!(mc.seq(), 2);
        assert_eq!(ack.seq(), 5);
        assert_eq!(mack.seq(), 6);
    }

    #[test]
    fn display_ids() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(PortId(1).to_string(), "p1");
        assert_eq!(GroupId(9).to_string(), "g9");
    }
}
