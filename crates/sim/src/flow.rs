//! `sim::flow` — causal flow identity.
//!
//! A [`FlowId`] names one end-to-end message delivery: the path of a payload
//! from the host send call at its origin, through NIC work items, PCI DMA
//! spans, wire hops and retransmissions, to the receive callback at one
//! destination. Probe records carry the flow of the message they describe
//! (`FlowId::NONE` when the record is not message-scoped), which is what
//! lets `sim::critical_path` reconstruct lineages and lets the Perfetto
//! export draw flow arrows across tracks.
//!
//! The identity is the triple `(origin, tag, dest)`:
//!
//! * `origin` — the node whose application injected the message (the
//!   multicast *root* for tree-forwarded packets, which carry the root in
//!   their header; the local sender for point-to-point sends);
//! * `tag` — the application-level tag of the message (the iteration number
//!   in the benchmark workloads). Wire-level sequence numbers are *not*
//!   part of the identity: a retransmission or a multi-packet fragment is
//!   the same flow as its first attempt.
//! * `dest` — the delivery endpoint. A multicast to N destinations is N
//!   flows sharing `(origin, tag)`; the hop `root → child` that also feeds
//!   a forwarding subtree belongs to the child's flow, and deeper
//!   deliveries link back to it causally (see `sim::critical_path`).
//!
//! The triple packs into one `u64` so probe records stay `Copy` and
//! recording stays allocation-free. Only `gm_sim` can see that integer
//! (`FlowId::raw` is `pub(crate)`, for its export surfaces), and nothing
//! can rebuild a `FlowId` from one, so outside this crate no `u64` can
//! hold a flow.

/// Packed causal identity of one message delivery. See the module docs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(u64);

const VALID_BIT: u64 = 1 << 63;
const NODE_BITS: u32 = 16;
const TAG_BITS: u32 = 31;
const NODE_MASK: u64 = (1 << NODE_BITS) - 1;
const TAG_MASK: u64 = (1 << TAG_BITS) - 1;
const ORIGIN_SHIFT: u32 = TAG_BITS + NODE_BITS; // 47
const DEST_SHIFT: u32 = TAG_BITS; // 31

impl FlowId {
    /// "No flow": the default on every probe record that is not
    /// message-scoped (timers, barrier spans, engine marks).
    pub const NONE: FlowId = FlowId(0);

    /// The flow of the message `(origin, tag, dest)`. Node ids are truncated
    /// to 16 bits and the tag to its low 31 bits — ample for the simulated
    /// cluster sizes and iteration counts, and collisions would only blur
    /// telemetry, never simulation results.
    pub const fn new(origin: u32, tag: u64, dest: u32) -> FlowId {
        FlowId(
            VALID_BIT
                | ((origin as u64 & NODE_MASK) << ORIGIN_SHIFT)
                | ((dest as u64 & NODE_MASK) << DEST_SHIFT)
                | (tag & TAG_MASK),
        )
    }

    /// Whether this is [`FlowId::NONE`].
    pub const fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Whether this names a real flow.
    pub const fn is_some(self) -> bool {
        self.0 != 0
    }

    /// The injecting node (the multicast root for tree-forwarded packets).
    pub const fn origin(self) -> u32 {
        ((self.0 >> ORIGIN_SHIFT) & NODE_MASK) as u32
    }

    /// The delivery endpoint.
    pub const fn dest(self) -> u32 {
        ((self.0 >> DEST_SHIFT) & NODE_MASK) as u32
    }

    /// The application tag (low 31 bits).
    pub const fn tag(self) -> u64 {
        self.0 & TAG_MASK
    }

    /// The packed representation, for this crate's export surfaces only
    /// (Perfetto flow `id` fields, JSON artifacts). Everything else passes
    /// `FlowId` around; outside `gm_sim` the integer is out of reach:
    ///
    /// ```compile_fail,E0624
    /// use gm_sim::FlowId;
    ///
    /// let id: u64 = FlowId::new(3, 41, 12).raw();
    /// ```
    pub(crate) const fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_none() {
            write!(f, "-")
        } else {
            write!(f, "n{}~{}@n{}", self.origin(), self.tag(), self.dest())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let f = FlowId::new(3, 41, 12);
        assert!(f.is_some());
        assert_eq!(f.origin(), 3);
        assert_eq!(f.tag(), 41);
        assert_eq!(f.dest(), 12);
        assert_eq!(FlowId(f.raw()), f);
    }

    #[test]
    fn zero_triple_is_distinct_from_none() {
        let f = FlowId::new(0, 0, 0);
        assert!(f.is_some());
        assert_ne!(f, FlowId::NONE);
        assert!(FlowId::NONE.is_none());
        assert_eq!(FlowId::default(), FlowId::NONE);
    }

    #[test]
    fn identity_is_the_triple() {
        assert_eq!(FlowId::new(1, 2, 3), FlowId::new(1, 2, 3));
        assert_ne!(FlowId::new(1, 2, 3), FlowId::new(1, 2, 4));
        assert_ne!(FlowId::new(1, 2, 3), FlowId::new(1, 3, 3));
        assert_ne!(FlowId::new(1, 2, 3), FlowId::new(2, 2, 3));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(FlowId::NONE.to_string(), "-");
        assert_eq!(FlowId::new(0, 7, 5).to_string(), "n0~7@n5");
    }
}
