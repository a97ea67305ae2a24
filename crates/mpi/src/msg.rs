//! MPI wire vocabulary: tag encoding and control-message lengths.
//!
//! All MPI point-to-point traffic runs over GM port 2; NIC-based broadcast
//! data arrives on GM port 0 (the multicast group's delivery port). A GM
//! tag is 64 bits: the top byte carries the protocol context, the rest the
//! context-specific value (iteration number, barrier round, user tag).

use myrinet::PortId;

/// GM port used for MPI point-to-point messages.
pub const MPI_PORT: PortId = PortId(2);
/// GM port multicast groups deliver broadcast payloads on.
pub const BCAST_PORT: PortId = PortId(0);

/// Protocol context of a message tag (top byte).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Ctx {
    /// Dissemination-barrier round message.
    Barrier = 1,
    /// Broadcast payload (eager, host-based tree or multicast delivery).
    Bcast = 2,
    /// Group-membership installation request (root -> member).
    GroupSetup = 3,
    /// Group-membership acknowledgment (member -> root).
    GroupAck = 4,
    /// Rendezvous request-to-send.
    Rts = 5,
    /// Rendezvous clear-to-send.
    Cts = 6,
    /// Rendezvous bulk data.
    RndvData = 7,
    /// User point-to-point payload (eager).
    P2p = 8,
    /// Host-internal compute completions (copy costs, skew).
    Internal = 9,
}

/// Compose a tag from a context and a 56-bit value.
pub fn tag(ctx: Ctx, value: u64) -> u64 {
    debug_assert!(value < (1 << 56));
    ((ctx as u64) << 56) | value
}

/// Split a tag into its context byte and value.
pub fn untag(t: u64) -> (u8, u64) {
    ((t >> 56) as u8, t & ((1 << 56) - 1))
}

/// Compose a barrier tag: sequence number (48 bits) and round (8 bits).
pub fn barrier_tag(seq: u64, round: u32) -> u64 {
    debug_assert!(seq < (1 << 48) && round < 256);
    tag(Ctx::Barrier, (seq << 8) | round as u64)
}

/// Length of a `GroupSetup` control message for a member with `children`
/// children: its slice of the spanning tree as little-endian `u32`s (root,
/// parent, child count, children). The message is modelled at this length;
/// the member rebuilds the slice itself from the communicator and the root
/// in the tag, with the same tree build the root ran.
pub fn group_setup_len(children: usize) -> usize {
    12 + 4 * children
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip() {
        let t = tag(Ctx::Bcast, 12345);
        let (c, v) = untag(t);
        assert_eq!(c, Ctx::Bcast as u8);
        assert_eq!(v, 12345);
    }

    #[test]
    fn barrier_tag_packs_seq_and_round() {
        let t = barrier_tag(7, 3);
        let (c, v) = untag(t);
        assert_eq!(c, Ctx::Barrier as u8);
        assert_eq!(v >> 8, 7);
        assert_eq!(v & 0xFF, 3);
    }

    #[test]
    fn group_setup_is_three_words_and_one_per_child() {
        assert_eq!(group_setup_len(0), 12);
        assert_eq!(group_setup_len(3), 24);
    }
}
