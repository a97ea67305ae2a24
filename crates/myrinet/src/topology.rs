//! Switch topologies: a single crossbar for small clusters and a two-level
//! Clos (spine/leaf of 16-port crossbars) for larger ones — Myrinet-2000's
//! default topology, per the paper ("Myrinet network uses its default
//! hardware topology, Clos network").

use crate::packet::NodeId;

/// A directed link's index into the fabric's link table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Index into per-link arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A switch's index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SwitchId(pub u32);

/// What a directed link connects.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkEnds {
    /// NIC of `node` into switch.
    Inject(NodeId, SwitchId),
    /// Switch to switch.
    Inter(SwitchId, SwitchId),
    /// Switch out to NIC of `node`.
    Eject(SwitchId, NodeId),
}

/// The shape of the network.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TopoKind {
    /// All nodes on one crossbar.
    SingleCrossbar,
    /// Two-level Clos: leaves host nodes, spines interconnect leaves.
    Clos {
        /// Number of leaf switches.
        leaves: u32,
        /// Number of spine switches.
        spines: u32,
        /// Hosts attached per leaf.
        hosts_per_leaf: u32,
    },
}

/// An immutable description of switches and directed links.
#[derive(Clone, Debug)]
pub struct Topology {
    n_nodes: u32,
    kind: TopoKind,
    links: Vec<LinkEnds>,
    /// Per-node injection link (NIC -> first switch).
    inject: Vec<LinkId>,
    /// Per-node ejection link (last switch -> NIC).
    eject: Vec<LinkId>,
    /// For Clos: [leaf][spine] up-link and [spine][leaf] down-link ids.
    up: Vec<Vec<LinkId>>,
    down: Vec<Vec<LinkId>>,
}

/// Radix of the modelled crossbar switches (Myrinet-2000 XBar16).
pub const SWITCH_PORTS: u32 = 16;

/// The most hosts a topology holds: a two-level Clos of 16-port crossbars
/// whose leaves give half their ports to hosts. Larger systems need a
/// third switching stage.
pub const MAX_NODES: u32 = SWITCH_PORTS * SWITCH_PORTS / 2;

impl Topology {
    /// Build the default topology for `n_nodes`: a single crossbar when the
    /// cluster fits on one switch, otherwise a two-level Clos of 16-port
    /// crossbars (half the ports of each leaf face hosts, half face spines).
    pub fn for_nodes(n_nodes: u32) -> Topology {
        assert!(n_nodes >= 1, "need at least one node");
        assert!(
            n_nodes <= MAX_NODES,
            "a two-level Clos of 16-port crossbars tops out at {MAX_NODES} hosts, got {n_nodes}"
        );
        if n_nodes <= SWITCH_PORTS {
            Self::single_crossbar(n_nodes)
        } else {
            let hosts_per_leaf = SWITCH_PORTS / 2;
            let leaves = n_nodes.div_ceil(hosts_per_leaf);
            let spines = SWITCH_PORTS / 2;
            Self::clos(n_nodes, leaves, spines, hosts_per_leaf)
        }
    }

    /// A single `n_nodes`-port crossbar (switch 0).
    pub fn single_crossbar(n_nodes: u32) -> Topology {
        assert!(
            (1..=SWITCH_PORTS).contains(&n_nodes),
            "single crossbar supports 1..=16 nodes, got {n_nodes}"
        );
        let sw = SwitchId(0);
        let mut links = Vec::with_capacity(2 * n_nodes as usize);
        let mut inject = Vec::with_capacity(n_nodes as usize);
        let mut eject = Vec::with_capacity(n_nodes as usize);
        for n in 0..n_nodes {
            inject.push(LinkId(links.len() as u32));
            links.push(LinkEnds::Inject(NodeId(n), sw));
            eject.push(LinkId(links.len() as u32));
            links.push(LinkEnds::Eject(sw, NodeId(n)));
        }
        Topology {
            n_nodes,
            kind: TopoKind::SingleCrossbar,
            links,
            inject,
            eject,
            up: vec![],
            down: vec![],
        }
    }

    /// An explicit two-level Clos.
    pub fn clos(n_nodes: u32, leaves: u32, spines: u32, hosts_per_leaf: u32) -> Topology {
        assert!(leaves >= 1 && spines >= 1 && hosts_per_leaf >= 1);
        assert!(
            leaves * hosts_per_leaf >= n_nodes,
            "not enough leaf ports: {leaves} leaves x {hosts_per_leaf} < {n_nodes} nodes"
        );
        assert!(
            hosts_per_leaf + spines <= SWITCH_PORTS,
            "leaf radix exceeded"
        );
        assert!(leaves <= SWITCH_PORTS, "spine radix exceeded");
        let mut links = Vec::new();
        let mut inject = Vec::with_capacity(n_nodes as usize);
        let mut eject = Vec::with_capacity(n_nodes as usize);
        for n in 0..n_nodes {
            let leaf = SwitchId(n / hosts_per_leaf);
            inject.push(LinkId(links.len() as u32));
            links.push(LinkEnds::Inject(NodeId(n), leaf));
            eject.push(LinkId(links.len() as u32));
            links.push(LinkEnds::Eject(leaf, NodeId(n)));
        }
        // Spine switches are numbered after the leaves.
        let mut up = vec![Vec::with_capacity(spines as usize); leaves as usize];
        let mut down = vec![Vec::with_capacity(leaves as usize); spines as usize];
        for l in 0..leaves {
            for s in 0..spines {
                up[l as usize].push(LinkId(links.len() as u32));
                links.push(LinkEnds::Inter(SwitchId(l), SwitchId(leaves + s)));
            }
        }
        for s in 0..spines {
            for l in 0..leaves {
                down[s as usize].push(LinkId(links.len() as u32));
                links.push(LinkEnds::Inter(SwitchId(leaves + s), SwitchId(l)));
            }
        }
        Topology {
            n_nodes,
            kind: TopoKind::Clos {
                leaves,
                spines,
                hosts_per_leaf,
            },
            links,
            inject,
            eject,
            up,
            down,
        }
    }

    /// Number of nodes attached.
    pub fn n_nodes(&self) -> u32 {
        self.n_nodes
    }

    /// The topology family.
    pub fn kind(&self) -> TopoKind {
        self.kind
    }

    /// Total number of directed links.
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// What link `id` connects.
    pub fn link_ends(&self, id: LinkId) -> LinkEnds {
        self.links[id.idx()]
    }

    /// The leaf switch hosting `node` (its only switch in a crossbar).
    pub fn leaf_of(&self, node: NodeId) -> SwitchId {
        match self.kind {
            TopoKind::SingleCrossbar => SwitchId(0),
            TopoKind::Clos { hosts_per_leaf, .. } => SwitchId(node.0 / hosts_per_leaf),
        }
    }

    /// Source route from `src` to `dst`: the ordered directed links a packet
    /// traverses. Spine choice is static per (src, dst) pair, mirroring
    /// Myrinet's source routing.
    ///
    /// `src == dst` is not routable (GM loops back locally, above the wire).
    pub fn route(&self, src: NodeId, dst: NodeId) -> Vec<LinkId> {
        assert!(src != dst, "no self-route on the fabric");
        assert!(
            src.0 < self.n_nodes && dst.0 < self.n_nodes,
            "node out of range"
        );
        match self.kind {
            TopoKind::SingleCrossbar => {
                vec![self.inject[src.idx()], self.eject[dst.idx()]]
            }
            TopoKind::Clos { spines, .. } => {
                let src_leaf = self.leaf_of(src);
                let dst_leaf = self.leaf_of(dst);
                if src_leaf == dst_leaf {
                    return vec![self.inject[src.idx()], self.eject[dst.idx()]];
                }
                // Deterministic spine selection spreads pairs across spines.
                let spine = (src.0.wrapping_mul(31).wrapping_add(dst.0) % spines) as usize;
                vec![
                    self.inject[src.idx()],
                    self.up[src_leaf.0 as usize][spine],
                    self.down[spine][dst_leaf.0 as usize],
                    self.eject[dst.idx()],
                ]
            }
        }
    }

    /// Precompute every (src, dst) route into a [`RouteTable`]. Call once per
    /// topology; the table answers `route` queries with a slice borrow
    /// instead of a per-packet allocation.
    pub fn route_table(&self) -> RouteTable {
        RouteTable::new(self)
    }

    /// Partition the nodes into at most `n_shards` contiguous groups whose
    /// link state is disjoint under the fabric's two-stage reservation
    /// protocol (`tx_stage` touches the source-owned route prefix,
    /// `rx_stage` the destination-owned suffix).
    ///
    /// On a crossbar every route is `[inject(src), eject(dst)]`, so any
    /// split works and nodes are divided evenly. On a Clos the up-links
    /// `up[leaf][spine]` are shared by every host of `leaf` (and the
    /// down-links by every host of the destination leaf), so the split must
    /// be *leaf-aligned*: whole leaves are grouped, never divided. The
    /// returned map has `shard_of[node] < n` for some `n <= n_shards`
    /// (fewer shards than requested when there are not enough leaves).
    pub fn partition(&self, n_shards: u32) -> Vec<u32> {
        let n_shards = n_shards.max(1);
        let unit_of = self.unit_of();
        let units = unit_of(self.n_nodes - 1) + 1;
        let shards = n_shards.min(units);
        // `u * shards / units` yields contiguous, balanced groups.
        (0..self.n_nodes)
            .map(|node| unit_of(node) * shards / units)
            .collect()
    }

    /// The indivisible placement unit a node belongs to: the node itself on
    /// a crossbar, its leaf switch on a Clos (see [`partition`](Self::partition)).
    fn unit_of(&self) -> impl Fn(u32) -> u32 + '_ {
        let kind = self.kind;
        move |node: u32| match kind {
            TopoKind::SingleCrossbar => node,
            TopoKind::Clos { hosts_per_leaf, .. } => node / hosts_per_leaf,
        }
    }

    /// Like [`partition`](Self::partition), but balances *expected event
    /// load* instead of node count: `node_weight[n]` is a caller-supplied
    /// estimate of how many events node `n` will generate (any cost model —
    /// group fan-in, arrival rates, tree degree). Units (leaves on a Clos)
    /// are still never split and shards stay contiguous, but the boundaries
    /// are placed by a linear-partitioning DP that minimizes the heaviest
    /// shard's total weight — the quantity that bounds barrier wait time
    /// under windowed conservative execution.
    ///
    /// Uniform weights reproduce a balanced split; a unit with zero total
    /// weight still counts as weight 1 so every shard owns at least one
    /// unit. Panics when `node_weight.len() != n_nodes`.
    pub fn partition_weighted(&self, n_shards: u32, node_weight: &[u64]) -> Vec<u32> {
        assert_eq!(
            node_weight.len(),
            self.n_nodes as usize,
            "one weight per node"
        );
        let n_shards = n_shards.max(1);
        let unit_of = self.unit_of();
        let units = (unit_of(self.n_nodes - 1) + 1) as usize;
        let shards = (n_shards as usize).min(units);
        // Aggregate node weights per placement unit (floor 1: an idle unit
        // still needs an owner, and nonzero weights keep every DP group
        // nonempty).
        let mut unit_w = vec![0u64; units];
        for (n, &w) in node_weight.iter().enumerate() {
            unit_w[unit_of(n as u32) as usize] =
                unit_w[unit_of(n as u32) as usize].saturating_add(w);
        }
        for w in &mut unit_w {
            *w = (*w).max(1);
        }
        // Prefix sums for O(1) range weight.
        let mut prefix = vec![0u64; units + 1];
        for (i, &w) in unit_w.iter().enumerate() {
            prefix[i + 1] = prefix[i].saturating_add(w);
        }
        let range = |a: usize, b: usize| prefix[b] - prefix[a]; // [a, b)
                                                                // dp[k][i]: minimal max-group-weight splitting units [0, i) into k
                                                                // nonempty contiguous groups; cut[k][i]: the chosen last boundary
                                                                // (smallest j on ties, a deterministic tie-break).
        let mut dp = vec![vec![u64::MAX; units + 1]; shards + 1];
        let mut cut = vec![vec![0usize; units + 1]; shards + 1];
        dp[0][0] = 0;
        for k in 1..=shards {
            for i in k..=units {
                for j in (k - 1)..i {
                    if dp[k - 1][j] == u64::MAX {
                        continue;
                    }
                    let cand = dp[k - 1][j].max(range(j, i));
                    if cand < dp[k][i] {
                        dp[k][i] = cand;
                        cut[k][i] = j;
                    }
                }
            }
        }
        // Walk the cuts back into per-unit shard ids.
        let mut shard_of_unit = vec![0u32; units];
        let mut end = units;
        for k in (1..=shards).rev() {
            let start = cut[k][end];
            for slot in &mut shard_of_unit[start..end] {
                *slot = (k - 1) as u32;
            }
            end = start;
        }
        (0..self.n_nodes)
            .map(|node| shard_of_unit[unit_of(node) as usize])
            .collect()
    }
}

/// All (src, dst) source routes of a [`Topology`], precomputed into one
/// flattened CSR-style arena: `offsets[src * n + dst .. +1]` indexes a shared
/// `links` slab. Built once per topology (O(n²) pairs, ~300 KB at n = 128);
/// lookups are two loads and a bounds check, with no per-packet allocation —
/// the hot-path replacement for [`Topology::route`].
///
/// The `src == dst` diagonal is left empty and, like `Topology::route`,
/// panics on lookup: GM loops self-sends back locally, above the wire.
#[derive(Clone, Debug)]
pub struct RouteTable {
    n_nodes: u32,
    /// `n_nodes * n_nodes + 1` entries; route for (s, d) is
    /// `links[offsets[s*n+d] .. offsets[s*n+d+1]]`.
    offsets: Box<[u32]>,
    /// Concatenated link sequences for all ordered pairs.
    links: Box<[LinkId]>,
}

impl RouteTable {
    /// Precompute all routes of `topo`.
    pub fn new(topo: &Topology) -> RouteTable {
        let n = topo.n_nodes() as usize;
        let mut offsets = Vec::with_capacity(n * n + 1);
        // Worst case 4 links per pair (two-level Clos).
        let mut links = Vec::with_capacity(n * n * 4);
        offsets.push(0u32);
        for src in 0..n as u32 {
            for dst in 0..n as u32 {
                if src != dst {
                    links.extend(topo.route(NodeId(src), NodeId(dst)));
                }
                links
                    .len()
                    .try_into()
                    .map(|o| offsets.push(o))
                    .expect("route arena exceeds u32 offsets");
            }
        }
        RouteTable {
            n_nodes: topo.n_nodes(),
            offsets: offsets.into_boxed_slice(),
            links: links.into_boxed_slice(),
        }
    }

    /// The precomputed source route from `src` to `dst`, as a borrowed slice
    /// of the arena. Panics on `src == dst` (mirroring [`Topology::route`])
    /// and on out-of-range nodes.
    #[inline]
    pub fn route(&self, src: NodeId, dst: NodeId) -> &[LinkId] {
        assert!(src != dst, "no self-route on the fabric");
        assert!(
            src.0 < self.n_nodes && dst.0 < self.n_nodes,
            "node out of range"
        );
        let cell = src.0 as usize * self.n_nodes as usize + dst.0 as usize;
        &self.links[self.offsets[cell] as usize..self.offsets[cell + 1] as usize]
    }

    /// Number of nodes covered.
    pub fn n_nodes(&self) -> u32 {
        self.n_nodes
    }

    /// Total links stored across all pairs (arena length).
    pub fn arena_len(&self) -> usize {
        self.links.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossbar_routes_are_two_hops() {
        let t = Topology::for_nodes(16);
        assert_eq!(t.kind(), TopoKind::SingleCrossbar);
        for a in 0..16 {
            for b in 0..16 {
                if a == b {
                    continue;
                }
                let r = t.route(NodeId(a), NodeId(b));
                assert_eq!(r.len(), 2);
                assert_eq!(t.link_ends(r[0]), LinkEnds::Inject(NodeId(a), SwitchId(0)));
                assert_eq!(t.link_ends(r[1]), LinkEnds::Eject(SwitchId(0), NodeId(b)));
            }
        }
    }

    #[test]
    fn clos_selected_above_16() {
        let t = Topology::for_nodes(64);
        match t.kind() {
            TopoKind::Clos {
                leaves,
                spines,
                hosts_per_leaf,
            } => {
                assert_eq!(hosts_per_leaf, 8);
                assert_eq!(leaves, 8);
                assert_eq!(spines, 8);
            }
            k => panic!("expected Clos, got {k:?}"),
        }
    }

    #[test]
    fn clos_same_leaf_is_two_hops_cross_leaf_is_four() {
        let t = Topology::for_nodes(64);
        // Nodes 0 and 1 share leaf 0.
        assert_eq!(t.route(NodeId(0), NodeId(1)).len(), 2);
        // Nodes 0 and 63 are on different leaves.
        let r = t.route(NodeId(0), NodeId(63));
        assert_eq!(r.len(), 4);
        // The path is inject, up, down, eject in order.
        assert!(matches!(t.link_ends(r[0]), LinkEnds::Inject(NodeId(0), _)));
        assert!(matches!(t.link_ends(r[1]), LinkEnds::Inter(_, _)));
        assert!(matches!(t.link_ends(r[2]), LinkEnds::Inter(_, _)));
        assert!(matches!(t.link_ends(r[3]), LinkEnds::Eject(_, NodeId(63))));
    }

    #[test]
    fn clos_route_link_endpoints_chain() {
        let t = Topology::for_nodes(128);
        for (a, b) in [(0u32, 127u32), (5, 99), (17, 16), (120, 3)] {
            let r = t.route(NodeId(a), NodeId(b));
            // Verify each consecutive pair of links shares a switch.
            let mut prev_to: Option<SwitchId> = None;
            for &l in &r {
                match t.link_ends(l) {
                    LinkEnds::Inject(n, sw) => {
                        assert_eq!(n, NodeId(a));
                        assert!(prev_to.is_none());
                        prev_to = Some(sw);
                    }
                    LinkEnds::Inter(from, to) => {
                        assert_eq!(Some(from), prev_to);
                        prev_to = Some(to);
                    }
                    LinkEnds::Eject(sw, n) => {
                        assert_eq!(Some(sw), prev_to);
                        assert_eq!(n, NodeId(b));
                    }
                }
            }
        }
    }

    #[test]
    fn route_is_deterministic() {
        let t = Topology::for_nodes(64);
        assert_eq!(
            t.route(NodeId(1), NodeId(60)),
            t.route(NodeId(1), NodeId(60))
        );
    }

    #[test]
    #[should_panic(expected = "no self-route")]
    fn self_route_panics() {
        Topology::for_nodes(4).route(NodeId(2), NodeId(2));
    }

    #[test]
    fn odd_sizes_build() {
        for n in [1u32, 2, 3, 15, 16, 17, 33, 100, 128] {
            let t = Topology::for_nodes(n);
            assert_eq!(t.n_nodes(), n);
            if n >= 2 {
                let _ = t.route(NodeId(0), NodeId(n - 1));
            }
        }
    }

    #[test]
    fn route_table_matches_on_demand_routes_all_pairs() {
        for n in [1u32, 2, 7, 16, 17, 64, 128] {
            let t = Topology::for_nodes(n);
            let table = t.route_table();
            assert_eq!(table.n_nodes(), n);
            for a in 0..n {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    assert_eq!(
                        table.route(NodeId(a), NodeId(b)),
                        t.route(NodeId(a), NodeId(b)).as_slice(),
                        "pair ({a}, {b}) of {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn route_table_arena_is_dense() {
        let t = Topology::for_nodes(64);
        let table = t.route_table();
        let expect: usize = (0..64u32)
            .flat_map(|a| (0..64u32).filter(move |&b| a != b).map(move |b| (a, b)))
            .map(|(a, b)| t.route(NodeId(a), NodeId(b)).len())
            .sum();
        assert_eq!(table.arena_len(), expect);
    }

    #[test]
    #[should_panic(expected = "no self-route")]
    fn route_table_self_route_panics() {
        Topology::for_nodes(4)
            .route_table()
            .route(NodeId(1), NodeId(1));
    }

    #[test]
    fn partition_crossbar_is_contiguous_and_balanced() {
        let t = Topology::for_nodes(8);
        let p = t.partition(4);
        assert_eq!(p, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn partition_clos_never_splits_a_leaf() {
        let t = Topology::for_nodes(64); // 8 leaves x 8 hosts
        for shards in [1u32, 2, 3, 4, 7, 8, 64] {
            let p = t.partition(shards);
            assert_eq!(p.len(), 64);
            for n in 0..64usize {
                assert_eq!(
                    p[n],
                    p[n - n % 8],
                    "leaf of node {n} split at {shards} shards"
                );
            }
            // Contiguous and starting at zero.
            assert_eq!(p[0], 0);
            for w in p.windows(2) {
                assert!(w[1] == w[0] || w[1] == w[0] + 1);
            }
            let max = *p.iter().max().unwrap();
            assert!(max < shards.min(8));
        }
    }

    #[test]
    fn partition_weighted_uniform_matches_balanced_split() {
        let t = Topology::for_nodes(8);
        let p = t.partition_weighted(4, &[5; 8]);
        assert_eq!(p, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn partition_weighted_shifts_boundary_toward_heavy_nodes() {
        // Node 0 carries almost all the load: it should sit alone while the
        // other seven nodes share the second shard.
        let t = Topology::for_nodes(8);
        let w = [100u64, 1, 1, 1, 1, 1, 1, 1];
        let p = t.partition_weighted(2, &w);
        assert_eq!(p, vec![0, 1, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn partition_weighted_never_splits_a_leaf() {
        let t = Topology::for_nodes(64); // 8 leaves x 8 hosts
                                         // Load concentrated on the first two leaves.
        let w: Vec<u64> = (0..64).map(|n| if n < 16 { 50 } else { 1 }).collect();
        for shards in [2u32, 3, 4, 8] {
            let p = t.partition_weighted(shards, &w);
            assert_eq!(p.len(), 64);
            for n in 0..64usize {
                assert_eq!(
                    p[n],
                    p[n - n % 8],
                    "leaf of node {n} split at {shards} shards"
                );
            }
            assert_eq!(p[0], 0);
            for win in p.windows(2) {
                assert!(win[1] == win[0] || win[1] == win[0] + 1, "non-contiguous");
            }
            assert_eq!(
                *p.iter().max().unwrap() + 1,
                shards.min(8),
                "all shards used"
            );
        }
    }

    #[test]
    fn partition_weighted_minimizes_heaviest_shard() {
        let t = Topology::for_nodes(8);
        let w = [10u64, 10, 10, 1, 1, 1, 1, 1];
        let p = t.partition_weighted(2, &w);
        // Optimal cut is after node 1 (shards weigh 20 and 15); cutting
        // after node 2 would weigh 30 against 5.
        let heaviest: u64 = {
            let mut per = [0u64; 2];
            for (n, &s) in p.iter().enumerate() {
                per[s as usize] += w[n];
            }
            per.into_iter().max().unwrap()
        };
        assert_eq!(heaviest, 20);
    }

    #[test]
    fn partition_weighted_clamps_and_handles_zeroes() {
        let t = Topology::for_nodes(24); // 3 leaves
        let p = t.partition_weighted(8, &[0u64; 24]);
        assert_eq!(*p.iter().max().unwrap(), 2, "clamps to 3 leaves");
        assert_eq!(Topology::for_nodes(1).partition_weighted(4, &[7]), vec![0]);
    }

    #[test]
    fn partition_clamps_to_available_units() {
        // 24 nodes -> 3 leaves; asking for 8 shards yields only 3.
        let t = Topology::for_nodes(24);
        let p = t.partition(8);
        assert_eq!(*p.iter().max().unwrap(), 2);
        // One node, any request -> single shard.
        assert_eq!(Topology::for_nodes(1).partition(4), vec![0]);
    }
}
