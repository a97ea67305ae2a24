//! Postal-model timing estimates derived from the node/network parameters.
//!
//! The optimal-tree builder needs two numbers per message size (paper §5,
//! "The Spanning Tree"):
//!
//! * `T` — "the total amount of time for a node to send a message until the
//!   receiver receives it". Per the paper, "the message delivery time is
//!   calculated as end-to-end latency" of the *complete* message.
//! * `t` — "the average time for the sender to send a message to one
//!   additional destination": per packet, a header rewrite (descriptor
//!   callback) plus one serialization; for the whole message, that times
//!   the packet count.
//!
//! For multi-packet messages T/t approaches ~1.2 while NIC-based forwarding
//! pipelines packets per hop, so the builder picks low-fanout, deeper trees
//! — exactly the regime where the paper reports its 16 KB win.

use gm::GmParams;
use gm_sim::SimDuration;
use myrinet::{NetParams, HEADER_BYTES, MTU};

use crate::tree::{PostalParams, TreeShape};

/// Estimate postal parameters for a `size`-byte multicast message crossing
/// `hops` links per tree edge.
pub fn postal_for_size(size: usize, gp: &GmParams, np: &NetParams, hops: usize) -> PostalParams {
    let packets = size.div_ceil(MTU).max(1) as u64;
    let chunk = size.min(MTU) as u64;
    let ser_pkt = SimDuration::for_bytes(chunk + HEADER_BYTES, np.link_bandwidth);
    // Gap: replicas leave one serialization + one callback apart, for every
    // packet of the message.
    let gap = (gp.callback_proc + ser_pkt) * packets;
    // Latency: the time until a *forwarding* NIC can start replicating —
    // full-message flight plus receive processing. Host-side costs
    // (request processing, the first SDMA) are paid once at the root and
    // shift every leaf equally, so they do not influence the tree shape.
    let switches = hops.saturating_sub(1) as u64;
    let latency =
        ser_pkt * packets + np.wire_prop * hops as u64 + np.hop_delay * switches + gp.recv_proc;
    PostalParams { latency, gap }
}

/// The shape [`TreeShape::Auto`] resolves to for a NIC-based multicast of
/// `size` bytes to `n_dests` destinations on an `n_nodes`-node cluster.
///
/// Single-packet messages use the paper's postal-optimal tree. Multi-packet
/// messages are *pipelined* hop by hop (an intermediate NIC forwards packet
/// k while packet k+1 is still arriving), a regime the postal model cannot
/// express: there, each hop's cost is `k` whole-message serializations for
/// a fan-out of `k` plus one packet time per level of depth, so we choose
/// the complete k-ary tree minimizing `k * t_msg + depth_k(n) * t_hop`.
/// Both estimates count 2 links per tree edge when one 16-port crossbar
/// holds every node, 4 when edges cross the Clos.
pub fn auto_shape(
    size: usize,
    n_dests: usize,
    n_nodes: u32,
    gp: &GmParams,
    np: &NetParams,
) -> TreeShape {
    let hops = if n_nodes <= 16 { 2 } else { 4 };
    let packets = size.div_ceil(MTU).max(1);
    let p = postal_for_size(size, gp, np, hops);
    if packets == 1 {
        return TreeShape::Postal(p);
    }
    let chunk = size.min(MTU) as u64;
    let ser_pkt = SimDuration::for_bytes(chunk + HEADER_BYTES, np.link_bandwidth);
    let switches = hops.saturating_sub(1) as u64;
    let t_hop = (ser_pkt + gp.recv_proc + np.wire_prop * hops as u64 + np.hop_delay * switches)
        .as_nanos_f64();
    let t_msg = p.gap.as_nanos_f64();
    let n = n_dests + 1;
    let mut best = (f64::INFINITY, 1u32);
    for k in 1..=8u32 {
        let depth = kary_depth(n, k as usize);
        let cost = k as f64 * t_msg + depth as f64 * t_hop;
        if cost < best.0 {
            best = (cost, k);
        }
    }
    TreeShape::KAry(best.1)
}

/// Depth of a complete k-ary tree (heap layout) over `n` nodes.
fn kary_depth(n: usize, k: usize) -> usize {
    assert!(n >= 1 && k >= 1);
    if k == 1 {
        return n - 1;
    }
    let mut level_cap = 1usize;
    let mut total = 1usize;
    let mut depth = 0usize;
    while total < n {
        level_cap = level_cap.saturating_mul(k);
        total = total.saturating_add(level_cap);
        depth += 1;
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> (GmParams, NetParams) {
        (GmParams::default(), NetParams::default())
    }

    #[test]
    fn small_messages_favor_wide_trees() {
        let (gp, np) = params();
        let p = postal_for_size(8, &gp, &np, 2);
        // Small messages: forwarding latency (~2us) over a sub-us gap.
        assert!(
            (3..=8).contains(&p.lambda()),
            "lambda for 8B was {}",
            p.lambda()
        );
    }

    #[test]
    fn mid_sizes_approach_binomial() {
        let (gp, np) = params();
        let p = postal_for_size(4096, &gp, &np, 2);
        // Around the MTU the gap (one full serialization) rivals the
        // latency: lambda collapses toward 1-2 (the paper's 2-4 KB dip).
        assert!(p.lambda() <= 3, "lambda for 4KB was {}", p.lambda());
    }

    #[test]
    fn large_messages_pipeline() {
        let (gp, np) = params();
        let p = postal_for_size(16 * 1024, &gp, &np, 2);
        // Whole-message latency over a 4-packet gap: T/t ~ 1, the deep-tree
        // regime (multi-packet sizes use the k-ary pipeline shape anyway).
        assert!(p.lambda() <= 2, "lambda was {}", p.lambda());
    }

    #[test]
    fn shape_selection_switches_at_the_mtu() {
        let (gp, np) = params();
        let shape = |size, n_dests| auto_shape(size, n_dests, 16, &gp, &np);
        assert!(matches!(shape(512, 15), TreeShape::Postal(_)));
        assert!(matches!(shape(4096, 15), TreeShape::Postal(_)));
        let TreeShape::KAry(k) = shape(16384, 15) else {
            panic!("multi-packet sizes use the k-ary pipeline shape");
        };
        assert!((1..=3).contains(&k), "k={k}");
        // Tiny clusters pipeline best as a chain.
        assert_eq!(shape(16384, 3), TreeShape::KAry(1));
    }

    #[test]
    fn kary_depth_matches_heap_layout() {
        assert_eq!(kary_depth(1, 2), 0);
        assert_eq!(kary_depth(2, 2), 1);
        assert_eq!(kary_depth(3, 2), 1);
        assert_eq!(kary_depth(4, 2), 2);
        assert_eq!(kary_depth(15, 2), 3);
        assert_eq!(kary_depth(16, 2), 4);
        assert_eq!(kary_depth(10, 1), 9);
        assert_eq!(kary_depth(13, 3), 2);
    }

    #[test]
    fn lambda_monotonically_falls_with_size() {
        let (gp, np) = params();
        let mut prev = u64::MAX;
        for size in [1usize, 64, 512, 2048, 4096, 8192, 16384] {
            let l = postal_for_size(size, &gp, &np, 2).lambda();
            assert!(l <= prev, "lambda rose at {size}B: {l} > {prev}");
            prev = l;
        }
    }
}
