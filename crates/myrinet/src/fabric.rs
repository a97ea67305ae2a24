//! The wormhole fabric timing model.
//!
//! Myrinet uses cut-through (wormhole) switching: a packet's head flit starts
//! crossing the next link as soon as the route is decoded, while its tail is
//! still being serialized links behind. We model each directed link as a
//! serially-reusable resource with a `busy_until` horizon:
//!
//! * head arrival at hop *i*: `a_i = start_{i-1} + wire_prop + hop_delay`
//! * link grant: `start_i = max(a_i, busy_until_i)` (contention)
//! * link release: `busy_until_i = start_i + serialization`
//! * delivery (tail at destination NIC): `start_last + wire_prop + serialization`
//!
//! This approximates true wormhole blocking (which holds every link of the
//! path simultaneously); for the paper's tree-ordered traffic the critical
//! path is identical. See DESIGN.md §7.

use gm_sim::{splitmix64, Counters, SimDuration, SimTime};

use crate::fault::{DropReason, FaultPlan};
use crate::packet::{NodeId, Packet};
use crate::topology::{LinkId, RouteTable, Topology};

/// Physical-layer timing constants.
#[derive(Clone, Copy, Debug)]
pub struct NetParams {
    /// Link bandwidth in bytes/second (Myrinet-2000: 2 Gb/s = 250 MB/s).
    pub link_bandwidth: u64,
    /// Routing decision + crossbar traversal per switch.
    pub hop_delay: SimDuration,
    /// Cable propagation per link.
    pub wire_prop: SimDuration,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            link_bandwidth: 250_000_000,
            hop_delay: SimDuration::from_nanos(300),
            wire_prop: SimDuration::from_nanos(100),
        }
    }
}

/// A packet in flight across the route's ownership boundary: the
/// source-owned links (injection, and the leaf up-link on cross-leaf Clos
/// routes) are already reserved by [`Fabric::tx_stage`]; the head reaches
/// the first destination-owned link at `head_at`, where
/// [`Fabric::rx_stage`] finishes the route.
#[derive(Clone, Debug)]
pub struct WireHandoff {
    /// The packet (owns the payload across the boundary).
    pub pkt: Packet,
    /// Head arrival at the first destination-owned link.
    pub head_at: SimTime,
    /// Per-source injection sequence number; `(head_at, src, wire_seq)` is
    /// the canonical, mode-independent ordering key for boundary arrivals.
    pub wire_seq: u64,
}

/// Outcome of [`Fabric::tx_stage`].
#[derive(Debug)]
pub struct TxVerdict {
    /// When the injection link drains (the sender may start its next
    /// packet's serialization then).
    pub src_free: SimTime,
    /// The boundary hand-off to finish with [`Fabric::rx_stage`].
    pub handoff: WireHandoff,
}

/// Outcome of [`Fabric::rx_stage`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RxOutcome {
    /// The packet's tail reaches the destination NIC at `at`.
    Delivered {
        /// Tail arrival at the destination NIC.
        at: SimTime,
    },
    /// The packet was lost (or delivered corrupt and discarded). The links
    /// were still occupied.
    Dropped {
        /// Why.
        reason: DropReason,
    },
}

/// The network: topology + per-link occupancy + faults + counters.
///
/// `Clone` exists for sharded runs: each shard clones the (fresh) fabric and
/// thereafter touches only the link state its nodes own, so the clones never
/// diverge on shared state. Counters are merged at the end of the run.
#[derive(Clone)]
pub struct Fabric {
    topo: Topology,
    /// All routes interned once at construction; both stages borrow slices
    /// from this table instead of allocating a `Vec<LinkId>` per packet.
    routes: RouteTable,
    params: NetParams,
    busy_until: Vec<SimTime>,
    /// Accumulated serialization time per link (for utilization reports).
    busy_time: Vec<SimDuration>,
    /// Total per-hop contention stall of the most recent `tx_stage` /
    /// `rx_stage` (time the head spent waiting for busy links along the
    /// reserved segment).
    last_stall: SimDuration,
    faults: FaultPlan,
    /// Seed for the stateless per-packet fault draw: the drop decision for a
    /// packet is a pure function of `(fault_seed, src, wire_seq)`, so it does
    /// not depend on the global interleaving of injections — a prerequisite
    /// for sharded execution matching the sequential reference bit-for-bit.
    fault_seed: u64,
    /// Per-source injection counter feeding the fault draw and the canonical
    /// `(head_at, src, wire_seq)` boundary ordering key.
    wire_seq: Vec<u64>,
    counters: Counters,
}

impl Fabric {
    /// A fault-free fabric with default timing.
    pub fn new(topo: Topology, seed: u64) -> Fabric {
        Fabric::with_config(topo, NetParams::default(), FaultPlan::none(), seed)
    }

    /// Full configuration.
    pub fn with_config(topo: Topology, params: NetParams, faults: FaultPlan, seed: u64) -> Fabric {
        let n_links = topo.n_links();
        let n_nodes = topo.n_nodes();
        let routes = topo.route_table();
        Fabric {
            topo,
            routes,
            params,
            busy_until: vec![SimTime::ZERO; n_links],
            busy_time: vec![SimDuration::ZERO; n_links],
            last_stall: SimDuration::ZERO,
            faults,
            fault_seed: splitmix64(seed ^ 0x6661_6272_6963_2d66), // "fabric-f"
            wire_seq: vec![0; n_nodes as usize],
            counters: Counters::new(),
        }
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The interned route table (precomputed at construction).
    pub fn routes(&self) -> &RouteTable {
        &self.routes
    }

    /// Timing constants in use.
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// Protocol-visible counters (delivered, dropped, bytes...).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The fault plan in use.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Accumulated serialization time on link `id`.
    pub fn link_busy(&self, id: crate::topology::LinkId) -> SimDuration {
        self.busy_time[id.idx()]
    }

    /// Total contention stall of the most recent stage
    /// ([`tx_stage`](Self::tx_stage) or [`rx_stage`](Self::rx_stage)): how
    /// long the packet's head waited for busy links along that stage's
    /// segment. Zero on an unloaded path. Read by the cluster's probe layer
    /// right after each stage to emit per-packet contention spans.
    pub fn last_inject_stall(&self) -> SimDuration {
        self.last_stall
    }

    /// Serialization time of `pkt` on one link.
    pub fn serialization(&self, pkt: &Packet) -> SimDuration {
        SimDuration::for_bytes(pkt.wire_bytes(), self.params.link_bandwidth)
    }

    /// Unloaded tail-arrival latency from `src` to `dst` for a packet of
    /// `wire_bytes` (used by tree construction to estimate delivery time).
    pub fn unloaded_latency(&self, hops: usize, wire_bytes: u64) -> SimDuration {
        let ser = SimDuration::for_bytes(wire_bytes, self.params.link_bandwidth);
        // Each link adds wire_prop; each intermediate switch adds hop_delay.
        let switches = hops.saturating_sub(1) as u64;
        self.params.wire_prop * hops as u64 + self.params.hop_delay * switches + ser
    }

    /// Stage 1 of a transfer, at `now` (the moment the NIC starts driving
    /// the wire): reserve the source-owned half of the route (the injection
    /// link, plus the up-link on cross-leaf Clos routes) and compute when
    /// the head crosses into the destination-owned half. The caller (the
    /// NIC model) must not start another transmission before `src_free`.
    ///
    /// Touches only state owned by `pkt.src`'s side of the route, so under a
    /// leaf-aligned sharding it may run concurrently with any other shard.
    pub fn tx_stage(&mut self, now: SimTime, pkt: Packet) -> TxVerdict {
        let (links, len) = self.route_array(pkt.src, pkt.dst);
        let cut = len / 2;
        let ser = SimDuration::for_bytes(pkt.wire_bytes(), self.params.link_bandwidth);
        let (head_at, src_free) = self.reserve_segment(&links, 0, cut, len, now, ser);
        self.counters.add("wire_bytes", pkt.wire_bytes());
        let wire_seq = self.wire_seq[pkt.src.idx()];
        self.wire_seq[pkt.src.idx()] += 1;
        TxVerdict {
            src_free,
            handoff: WireHandoff {
                pkt,
                head_at,
                wire_seq,
            },
        }
    }

    /// Stage 2 of a transfer: at `handoff.head_at`, reserve the
    /// destination-owned half of the route, decide the packet's fate, and
    /// return the tail-arrival time (or drop reason).
    ///
    /// Touches only state owned by `pkt.dst`'s side of the route. The fault
    /// draw is a pure function of `(fault_seed, src, wire_seq)`, so the
    /// verdict is identical no matter which engine (or shard) runs it.
    pub fn rx_stage(&mut self, handoff: &WireHandoff) -> RxOutcome {
        let pkt = &handoff.pkt;
        let (links, len) = self.route_array(pkt.src, pkt.dst);
        let cut = len / 2;
        let ser = SimDuration::for_bytes(pkt.wire_bytes(), self.params.link_bandwidth);
        let (head, _) = self.reserve_segment(&links, cut, len, len, handoff.head_at, ser);
        let delivered_at = head + ser;
        let draw = self.fault_draw(pkt.src, handoff.wire_seq);
        if let Some(reason) = self.faults.check(pkt, draw) {
            self.counters.bump(match reason {
                DropReason::Random => "dropped_random",
                DropReason::Rule(_) => "dropped_rule",
                DropReason::Corrupt => "dropped_corrupt",
            });
            return RxOutcome::Dropped { reason };
        }
        self.counters.bump("delivered");
        RxOutcome::Delivered { at: delivered_at }
    }

    /// The per-packet loss draw: a splitmix64 chain over the seed, source,
    /// and that source's injection sequence number. Stateless by design —
    /// unlike an ordered RNG stream, the draw for packet `k` from node `s`
    /// does not depend on how injections from other nodes interleave.
    fn fault_draw(&self, src: NodeId, wire_seq: u64) -> f64 {
        let z = splitmix64(splitmix64(self.fault_seed ^ u64::from(src.0)) ^ wire_seq);
        // Top 53 bits -> uniform in [0, 1).
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Copy the interned route into a fixed array so `&mut self` methods can
    /// walk it while mutating per-link state. Routes are at most 4 links
    /// (inject, up, down, eject on cross-leaf Clos paths).
    #[inline]
    fn route_array(&self, src: NodeId, dst: NodeId) -> ([LinkId; 4], usize) {
        let route = self.routes.route(src, dst);
        debug_assert!(!route.is_empty() && route.len() <= 4);
        let mut links = [LinkId(0); 4];
        links[..route.len()].copy_from_slice(route);
        (links, route.len())
    }

    /// Reserve `links[lo..hi]` of a route of `route_len` links, starting
    /// with the head at `head`. `lo..hi` are global route indices, so the
    /// final hop of the *route* (not of the segment) correctly omits
    /// `hop_delay`. Returns the head time past the segment and the
    /// free-time of the segment's first link; updates `last_stall` with the
    /// contention encountered in this segment.
    fn reserve_segment(
        &mut self,
        links: &[LinkId],
        lo: usize,
        hi: usize,
        route_len: usize,
        mut head: SimTime,
        ser: SimDuration,
    ) -> (SimTime, SimTime) {
        let mut first_free = SimTime::ZERO;
        let mut stall = SimDuration::ZERO;
        for (i, &link) in links.iter().enumerate().take(hi).skip(lo) {
            let start = head.max(self.busy_until[link.idx()]);
            stall += start.saturating_since(head);
            self.busy_until[link.idx()] = start + ser;
            self.busy_time[link.idx()] += ser;
            if i == lo {
                first_free = start + ser;
            }
            // Head reaches the far end of this link, then pays the routing
            // delay if another switch follows.
            head = start + self.params.wire_prop;
            if i + 1 < route_len {
                head += self.params.hop_delay;
            }
        }
        self.last_stall = stall;
        if stall > SimDuration::ZERO {
            self.counters.add("stall_ns", stall.as_nanos());
        }
        (head, first_free)
    }

    /// The minimum boundary offset over all cross-shard `(src, dst)` pairs:
    /// the earliest a packet injected "now" on one shard can require state
    /// owned by another. This is the *lookahead* a windowed parallel run may
    /// safely use. `None` if no pair crosses shards (single shard).
    pub fn cross_lookahead(&self, shard_of: &[u32]) -> Option<SimDuration> {
        let n = self.topo.n_nodes();
        debug_assert_eq!(shard_of.len(), n as usize);
        let mut min: Option<SimDuration> = None;
        for src in 0..n {
            for dst in 0..n {
                if src == dst || shard_of[src as usize] == shard_of[dst as usize] {
                    continue;
                }
                let route = self.routes.route(NodeId(src), NodeId(dst));
                let cut = route.len() / 2;
                // Unloaded head offset through the TX-owned segment:
                // each of the `cut` links pays wire_prop + hop_delay
                // (a switch always follows, since cut < route.len()).
                let off = (self.params.wire_prop + self.params.hop_delay) * cut as u64;
                min = Some(match min {
                    Some(m) if m <= off => m,
                    _ => off,
                });
            }
        }
        min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::DropRule;
    use crate::packet::{NodeId, PacketKind, Payload, PortId, HEADER_BYTES};

    fn pkt(src: u32, dst: u32, len: usize) -> Packet {
        Packet {
            src: NodeId(src),
            dst: NodeId(dst),
            kind: PacketKind::Data {
                port: PortId(0),
                src_port: PortId(0),
                seq: 0,
                offset: 0,
                tag: 0,
            },
            payload: Payload::new(0, len),
            len: len as u32,
        }
    }

    fn fabric(n: u32) -> Fabric {
        Fabric::new(Topology::for_nodes(n), 1)
    }

    /// Both stages of one transfer back to back, as an unsharded run does:
    /// the packet's fate, and when its injection link frees.
    fn send(f: &mut Fabric, now: SimTime, p: &Packet) -> (RxOutcome, SimTime) {
        let tx = f.tx_stage(now, p.clone());
        (f.rx_stage(&tx.handoff), tx.src_free)
    }

    #[test]
    fn crossbar_latency_matches_formula() {
        let mut f = fabric(4);
        let p = pkt(0, 1, 1000);
        let ser = SimDuration::for_bytes(1000 + HEADER_BYTES, 250_000_000);
        match send(&mut f, SimTime::ZERO, &p) {
            (RxOutcome::Delivered { at }, src_free) => {
                // route: inject link + eject link = 2 links, 1 switch between.
                let expect = SimDuration::from_nanos(100) * 2 + SimDuration::from_nanos(300) + ser;
                assert_eq!(at, SimTime::ZERO + expect);
                assert_eq!(src_free, SimTime::ZERO + ser);
            }
            v => panic!("unexpected {v:?}"),
        }
    }

    #[test]
    fn unloaded_latency_agrees_with_inject() {
        let mut f = fabric(8);
        let p = pkt(2, 5, 512);
        let hops = f.topology().route(NodeId(2), NodeId(5)).len();
        let predicted = f.unloaded_latency(hops, p.wire_bytes());
        match send(&mut f, SimTime::ZERO, &p) {
            (RxOutcome::Delivered { at }, _) => assert_eq!(at, SimTime::ZERO + predicted),
            v => panic!("unexpected {v:?}"),
        }
    }

    #[test]
    fn same_source_serializes_on_inject_link() {
        let mut f = fabric(4);
        let p1 = pkt(0, 1, 4096);
        let p2 = pkt(0, 2, 4096);
        let v1 = send(&mut f, SimTime::ZERO, &p1);
        // Send the second at t=0 as well: it must wait for the first to
        // drain off node 0's injection link.
        let v2 = send(&mut f, SimTime::ZERO, &p2);
        let ((RxOutcome::Delivered { at: a1 }, f1), (RxOutcome::Delivered { at: a2 }, _)) =
            (v1, v2)
        else {
            panic!("drops unexpected")
        };
        assert!(a2 > a1);
        assert!(a2 >= f1 + SimDuration::from_nanos(1));
    }

    #[test]
    fn distinct_sources_do_not_contend_to_distinct_dsts() {
        let mut f = fabric(4);
        let v1 = send(&mut f, SimTime::ZERO, &pkt(0, 1, 4096));
        let v2 = send(&mut f, SimTime::ZERO, &pkt(2, 3, 4096));
        let ((RxOutcome::Delivered { at: a1 }, _), (RxOutcome::Delivered { at: a2 }, _)) = (v1, v2)
        else {
            panic!()
        };
        assert_eq!(a1, a2, "independent paths should not interfere");
    }

    #[test]
    fn shared_destination_contends_on_eject_link() {
        let mut f = fabric(4);
        let v1 = send(&mut f, SimTime::ZERO, &pkt(0, 3, 4096));
        let v2 = send(&mut f, SimTime::ZERO, &pkt(1, 3, 4096));
        let ((RxOutcome::Delivered { at: a1 }, _), (RxOutcome::Delivered { at: a2 }, _)) = (v1, v2)
        else {
            panic!()
        };
        assert!(
            a2 > a1,
            "second packet to same dst must queue on eject link"
        );
    }

    #[test]
    fn drops_still_occupy_source_link() {
        let topo = Topology::for_nodes(2);
        let faults = FaultPlan {
            rules: vec![DropRule::data_between(NodeId(0), NodeId(1), 1)],
            ..FaultPlan::default()
        };
        let mut f = Fabric::with_config(topo, NetParams::default(), faults, 7);
        match send(&mut f, SimTime::ZERO, &pkt(0, 1, 4096)) {
            (RxOutcome::Dropped { .. }, src_free) => {
                assert!(src_free > SimTime::ZERO);
            }
            v => panic!("expected drop, got {v:?}"),
        }
        assert_eq!(f.counters().get("dropped_rule"), 1);
        // Next packet goes through.
        assert!(matches!(
            send(&mut f, SimTime::from_nanos(50_000), &pkt(0, 1, 4096)),
            (RxOutcome::Delivered { .. }, _)
        ));
    }

    #[test]
    fn random_loss_rate_approximately_holds() {
        let topo = Topology::for_nodes(2);
        let mut f = Fabric::with_config(topo, NetParams::default(), FaultPlan::with_loss(0.2), 42);
        let mut t = SimTime::ZERO;
        let mut drops = 0;
        for _ in 0..2000 {
            if matches!(
                send(&mut f, t, &pkt(0, 1, 64)),
                (RxOutcome::Dropped { .. }, _)
            ) {
                drops += 1;
            }
            t += SimDuration::from_micros(10);
        }
        let rate = drops as f64 / 2000.0;
        assert!((rate - 0.2).abs() < 0.03, "observed loss rate {rate}");
    }

    #[test]
    fn link_busy_accumulates_serialization() {
        let mut f = fabric(4);
        let p = pkt(0, 1, 4096);
        let ser = f.serialization(&p);
        send(&mut f, SimTime::ZERO, &p);
        send(&mut f, SimTime::ZERO, &p);
        let inject_link = f.topology().route(NodeId(0), NodeId(1))[0];
        assert_eq!(f.link_busy(inject_link), ser * 2);
    }

    #[test]
    fn fault_draw_is_stateless_per_packet() {
        // The drop fate of (src, wire_seq) must not depend on what other
        // sources injected in between — the property that lets shards decide
        // fates independently.
        let topo = Topology::for_nodes(4);
        let plan = || FaultPlan::with_loss(0.5);
        let mut a = Fabric::with_config(topo.clone(), NetParams::default(), plan(), 42);
        let mut b = Fabric::with_config(topo.clone(), NetParams::default(), plan(), 42);
        let mut t = SimTime::ZERO;
        let mut fates_a = Vec::new();
        for i in 0..64 {
            // `a` interleaves node 2's traffic between node 0's packets.
            send(&mut a, t, &pkt(2, 3, 64));
            fates_a.push(matches!(
                send(&mut a, t, &pkt(0, 1, 64)).0,
                RxOutcome::Dropped { .. }
            ));
            t += SimDuration::from_micros(10 * (i + 1));
        }
        let mut t = SimTime::ZERO;
        for (i, &fate) in fates_a.iter().enumerate() {
            let got = matches!(send(&mut b, t, &pkt(0, 1, 64)).0, RxOutcome::Dropped { .. });
            assert_eq!(got, fate, "packet {i} fate changed with interleaving");
            t += SimDuration::from_micros(10 * (i as u64 + 1));
        }
    }

    #[test]
    fn cross_lookahead_matches_boundary_offsets() {
        // Crossbar: boundary after the inject link = wire + hop.
        let f = fabric(4);
        let shard_of = f.topology().partition(2);
        assert_eq!(
            f.cross_lookahead(&shard_of),
            Some(SimDuration::from_nanos(400))
        );
        // Leaf-aligned Clos: every cross-shard pair is cross-leaf, boundary
        // after inject + up = 2 * (wire + hop).
        let f = fabric(64);
        let shard_of = f.topology().partition(4);
        assert_eq!(
            f.cross_lookahead(&shard_of),
            Some(SimDuration::from_nanos(800))
        );
        // Single shard: nothing crosses.
        assert_eq!(f.cross_lookahead(&vec![0; 64]), None);
    }

    #[test]
    fn clos_cross_leaf_slower_than_same_leaf() {
        let mut f = fabric(64);
        let (RxOutcome::Delivered { at: near }, _) = send(&mut f, SimTime::ZERO, &pkt(0, 1, 64))
        else {
            panic!()
        };
        let (RxOutcome::Delivered { at: far }, _) = send(&mut f, SimTime::ZERO, &pkt(8, 63, 64))
        else {
            panic!()
        };
        assert!(far > near);
    }
}
