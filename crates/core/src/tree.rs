//! Spanning-tree construction for multicast.
//!
//! The paper (§5 "The Spanning Tree") constructs trees at the *host* — the
//! LANai is too slow — and preposts them to the NIC group table. Two design
//! points matter:
//!
//! 1. **Deadlock freedom**: "we sort the list of destinations linearly by
//!    their network IDs before tree construction, and a child must have a
//!    network ID greater than its parent unless its parent is the root."
//!    Every builder here works over the ID-sorted destination list and
//!    assigns contiguous ascending ranges to subtrees, so the invariant
//!    holds by construction (and [`SpanningTree::validate`] checks it).
//!
//! 2. **Optimality**: the NIC-based scheme uses a postal-model optimal tree
//!    (Bar-Noy & Kipnis): a sender can emit a new replica every `t` (the
//!    per-additional-destination cost) and a replica is usable by its
//!    receiver after `T` (the end-to-end message latency). The number of
//!    covered nodes satisfies `N(m) = N(m-1) + N(m-1-λ)` in units of `t`
//!    with `λ = ceil(T/t)`; the builder finds the minimal makespan and
//!    splits the sorted list greedily along that recurrence.

use std::collections::BTreeMap;

use gm_sim::SimDuration;
use myrinet::NodeId;

/// A rooted multicast spanning tree over a destination set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanningTree {
    root: NodeId,
    /// Destinations (root excluded), sorted by network ID.
    dests: Vec<NodeId>,
    /// parent[node] for every destination.
    parent: BTreeMap<NodeId, NodeId>,
    /// children[node] for every node with children (in send order).
    children: BTreeMap<NodeId, Vec<NodeId>>,
}

/// Which tree shape to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeShape {
    /// Binomial tree (the traditional host-based broadcast shape).
    Binomial,
    /// Postal-model optimal tree for the given latency/gap estimate.
    Postal(PostalParams),
    /// Complete k-ary tree in heap layout: the pipelined-broadcast shape
    /// for multi-packet messages, where every hop's egress is bounded by
    /// `k` full-message serializations while NIC forwarding hides depth.
    KAry(u32),
    /// Every destination is a direct child of the root (pure multisend).
    Flat,
    /// A linear chain (worst-case depth; ablation).
    Chain,
    /// Pick the calibrated postal tree for the scenario's message size.
    /// Only [`Scenario`](crate::Scenario) can resolve this (it knows the
    /// size and parameters); [`SpanningTree::build`] rejects it.
    Auto,
}

impl TreeShape {
    /// The calibrated default: resolved to a postal-optimal tree by
    /// [`Scenario::build`](crate::Scenario::build).
    pub fn auto() -> TreeShape {
        TreeShape::Auto
    }
}

/// Postal-model timing estimate for a given message size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PostalParams {
    /// End-to-end delivery latency `T`: send start to receiver able to
    /// forward.
    pub latency: SimDuration,
    /// Gap `t`: time before the sender can start the next replica.
    pub gap: SimDuration,
}

impl PostalParams {
    /// Construct from a latency/gap estimate.
    pub fn new(latency: SimDuration, gap: SimDuration) -> Self {
        PostalParams { latency, gap }
    }

    /// λ = ceil(T / t), clamped to at least 1.
    pub fn lambda(&self) -> u64 {
        let t = self.gap.as_nanos().max(1);
        self.latency.as_nanos().div_ceil(t).max(1)
    }
}

impl SpanningTree {
    /// Build a tree of `shape` rooted at `root` over `dests` (any order;
    /// duplicates and the root itself are rejected).
    ///
    /// ```
    /// use myrinet::NodeId;
    /// use nic_mcast::{SpanningTree, TreeShape};
    ///
    /// let dests: Vec<NodeId> = (1..8).map(NodeId).collect();
    /// let tree = SpanningTree::build(NodeId(0), &dests, TreeShape::Binomial);
    /// assert_eq!(tree.children(NodeId(0)).len(), 3); // log2(8)
    /// assert_eq!(tree.height(), 3);
    /// assert!(tree.validate().is_ok());
    /// ```
    pub fn build(root: NodeId, dests: &[NodeId], shape: TreeShape) -> SpanningTree {
        let mut sorted: Vec<NodeId> = dests.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), dests.len(), "duplicate destinations");
        assert!(!sorted.contains(&root), "root cannot be a destination");
        let mut tree = SpanningTree {
            root,
            dests: sorted.clone(),
            parent: BTreeMap::new(),
            children: BTreeMap::new(),
        };
        if sorted.is_empty() {
            return tree;
        }
        match shape {
            TreeShape::Flat => {
                for &d in &sorted {
                    tree.link(root, d);
                }
            }
            TreeShape::Chain => {
                let mut prev = root;
                for &d in &sorted {
                    tree.link(prev, d);
                    prev = d;
                }
            }
            TreeShape::Binomial => {
                tree.build_binomial(root, &sorted);
            }
            TreeShape::Postal(p) => {
                let lambda = p.lambda();
                let makespan = min_makespan(sorted.len() as u64 + 1, lambda);
                tree.build_postal(root, &sorted, makespan, lambda);
            }
            TreeShape::KAry(k) => {
                tree.build_kary(root, &sorted, k.max(1) as usize);
            }
            TreeShape::Auto => {
                panic!(
                    "TreeShape::Auto must be resolved by Scenario::build before tree construction"
                )
            }
        }
        tree.validate().expect("builder produced a valid tree");
        tree
    }

    fn link(&mut self, parent: NodeId, child: NodeId) {
        self.parent.insert(child, parent);
        self.children.entry(parent).or_default().push(child);
    }

    /// Standard binomial broadcast: rank 0 is the root; in round r, every
    /// rank below 2^r sends to rank + 2^r. Ranks map onto the sorted list,
    /// so children ranges stay ascending.
    fn build_binomial(&mut self, root: NodeId, sorted: &[NodeId]) {
        let n = sorted.len() + 1;
        let node_of = |rank: usize| -> NodeId {
            if rank == 0 {
                root
            } else {
                sorted[rank - 1]
            }
        };
        let mut step = 1usize;
        while step < n {
            for low in 0..step {
                let high = low + step;
                if high < n {
                    self.link(node_of(low), node_of(high));
                }
            }
            step <<= 1;
        }
    }

    /// Greedy postal split: the root sends to child i during slot i (1-based,
    /// in units of t); the message sent in slot i lands λ-1 slots later, so
    /// child i becomes a sender with `makespan - i + 1 - λ` slots of budget
    /// and covers `N(budget)` nodes. With λ = 1 (T = t) this reproduces the
    /// binomial tree exactly.
    fn build_postal(&mut self, root: NodeId, sorted: &[NodeId], makespan: u64, lambda: u64) {
        let mut rest = sorted;
        let mut slot = 1u64;
        while !rest.is_empty() {
            let child = rest[0];
            let child_budget = (makespan + 1).saturating_sub(slot + lambda);
            let sub = coverage(child_budget, lambda).min(rest.len() as u64) as usize;
            debug_assert!(sub >= 1, "makespan too small for remaining nodes");
            self.link(root, child);
            if sub > 1 {
                self.build_postal(child, &rest[1..sub], child_budget, lambda);
            }
            rest = &rest[sub..];
            slot += 1;
        }
    }

    /// Complete k-ary tree over ranks in heap layout: the parent of rank j
    /// is (j-1)/k, so parent rank < child rank and the ID-ordering
    /// invariant holds over the sorted list.
    fn build_kary(&mut self, root: NodeId, sorted: &[NodeId], k: usize) {
        let n = sorted.len() + 1;
        let node_of = |rank: usize| -> NodeId {
            if rank == 0 {
                root
            } else {
                sorted[rank - 1]
            }
        };
        for j in 1..n {
            let parent = (j - 1) / k;
            self.link(node_of(parent), node_of(j));
        }
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// All destinations (sorted by network ID; excludes the root).
    pub fn dests(&self) -> &[NodeId] {
        &self.dests
    }

    /// Children of `node`, in the order they are sent to.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        self.children.get(&node).map_or(&[], |v| v.as_slice())
    }

    /// Parent of `node` (`None` for the root).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent.get(&node).copied()
    }

    /// Nodes with at least one child (the root plus forwarders).
    pub fn interior(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.children.keys().copied()
    }

    /// Depth of `node` (root = 0).
    pub fn depth(&self, node: NodeId) -> usize {
        let mut d = 0;
        let mut cur = node;
        while let Some(p) = self.parent.get(&cur) {
            d += 1;
            cur = *p;
        }
        d
    }

    /// Maximum depth over all destinations.
    pub fn height(&self) -> usize {
        self.dests.iter().map(|&d| self.depth(d)).max().unwrap_or(0)
    }

    /// Mean child count over interior nodes (the paper's "average fan-out
    /// degree").
    pub fn avg_fanout(&self) -> f64 {
        if self.children.is_empty() {
            return 0.0;
        }
        let total: usize = self.children.values().map(Vec::len).sum();
        total as f64 / self.children.len() as f64
    }

    /// Check the structural invariants:
    /// * every destination has exactly one parent and is reachable from the
    ///   root (no cycles, no orphans);
    /// * deadlock ordering: child ID > parent ID unless the parent is the
    ///   root (paper §5 "Deadlock").
    pub fn validate(&self) -> Result<(), String> {
        // Reachability and single-parent.
        let mut seen = Vec::new();
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            for &c in self.children(n) {
                if self.parent.get(&c) != Some(&n) {
                    return Err(format!("{c} listed as child of {n} but parent differs"));
                }
                seen.push(c);
                stack.push(c);
            }
        }
        seen.sort_unstable();
        if seen != self.dests {
            return Err(format!(
                "coverage mismatch: reached {} of {} destinations",
                seen.len(),
                self.dests.len()
            ));
        }
        // Deadlock ordering.
        for (&child, &parent) in &self.parent {
            if parent != self.root && child <= parent {
                return Err(format!(
                    "deadlock ordering violated: child {child} <= parent {parent}"
                ));
            }
        }
        Ok(())
    }
}

/// `N(m)`: how many nodes (including the sender) can hold the message within
/// `m` send-slots, for postal latency `lambda` slots.
///
/// A message sent during slot `i` is usable by its receiver from slot
/// `i + lambda` on, giving `N(m) = N(m-1) + N(m-lambda)` with `N(m) = 1`
/// for `m < lambda`. With `lambda = 1` this is the binomial doubling
/// `N(m) = 2^m`; with `lambda = 2`, the Fibonacci numbers — the classic
/// postal-model sequences of Bar-Noy & Kipnis.
pub fn coverage(m: u64, lambda: u64) -> u64 {
    debug_assert!(lambda >= 1);
    if m < lambda {
        // Sends may start but nothing lands in the window: just the holder.
        return 1;
    }
    let cap = m as usize;
    let lam = lambda as usize;
    let mut n = vec![1u64; cap + 1];
    for i in lam..=cap {
        let grow = n[i - 1].saturating_add(n[i - lam]);
        n[i] = grow.min(u64::MAX / 2);
    }
    n[cap]
}

/// The smallest makespan `m` (in send-slots) covering `n` nodes.
pub fn min_makespan(n: u64, lambda: u64) -> u64 {
    assert!(n >= 1);
    let mut m = 0;
    while coverage(m, lambda) < n {
        m += 1;
        assert!(m < 1 << 40, "makespan search diverged");
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn coverage_matches_postal_sequences() {
        // lambda = 1 (T = t): binomial doubling.
        let seq: Vec<u64> = (0..8).map(|m| coverage(m, 1)).collect();
        assert_eq!(seq, vec![1, 2, 4, 8, 16, 32, 64, 128]);
        // lambda = 2: Fibonacci.
        let seq: Vec<u64> = (0..9).map(|m| coverage(m, 2)).collect();
        assert_eq!(seq, vec![1, 1, 2, 3, 5, 8, 13, 21, 34]);
        // Large lambda: flat-send region, N grows by 1 per slot past lambda.
        assert_eq!(coverage(5, 10), 1);
        assert_eq!(coverage(10, 10), 2);
        assert_eq!(coverage(11, 10), 3);
    }

    #[test]
    fn postal_lambda_one_is_exactly_binomial_on_powers_of_two() {
        for n in [2u32, 4, 8, 16, 32] {
            let dests = ids(&(1..n).collect::<Vec<_>>());
            let p = PostalParams::new(SimDuration::from_micros(5), SimDuration::from_micros(5));
            let postal = SpanningTree::build(NodeId(0), &dests, TreeShape::Postal(p));
            let binom = SpanningTree::build(NodeId(0), &dests, TreeShape::Binomial);
            assert_eq!(
                postal.children(NodeId(0)).len(),
                binom.children(NodeId(0)).len(),
                "n={n}: root fanout"
            );
            assert_eq!(postal.height(), binom.height(), "n={n}: height");
        }
        // Non-powers of two still match the binomial makespan (height) even
        // when the greedy split shapes the root differently.
        for n in [5u32, 13, 27] {
            let dests = ids(&(1..n).collect::<Vec<_>>());
            let p = PostalParams::new(SimDuration::from_micros(5), SimDuration::from_micros(5));
            let postal = SpanningTree::build(NodeId(0), &dests, TreeShape::Postal(p));
            let binom = SpanningTree::build(NodeId(0), &dests, TreeShape::Binomial);
            assert!(postal.height() <= binom.height() + 1, "n={n}");
        }
    }

    #[test]
    fn min_makespan_matches_coverage() {
        for lambda in 1..6 {
            for n in 1..40 {
                let m = min_makespan(n, lambda);
                assert!(coverage(m, lambda) >= n);
                if m > 0 {
                    assert!(coverage(m - 1, lambda) < n);
                }
            }
        }
    }

    #[test]
    fn flat_tree() {
        let t = SpanningTree::build(NodeId(3), &ids(&[0, 1, 2, 4, 5]), TreeShape::Flat);
        assert_eq!(t.children(NodeId(3)), ids(&[0, 1, 2, 4, 5]).as_slice());
        assert_eq!(t.height(), 1);
        assert_eq!(t.avg_fanout(), 5.0);
    }

    #[test]
    fn chain_tree() {
        let t = SpanningTree::build(NodeId(0), &ids(&[1, 2, 3]), TreeShape::Chain);
        assert_eq!(t.height(), 3);
        assert_eq!(t.parent(NodeId(3)), Some(NodeId(2)));
        assert_eq!(t.avg_fanout(), 1.0);
    }

    #[test]
    fn binomial_16_nodes() {
        let dests = ids(&(1..16).collect::<Vec<_>>());
        let t = SpanningTree::build(NodeId(0), &dests, TreeShape::Binomial);
        // Binomial over 16 nodes: root has 4 children, height 4.
        assert_eq!(t.children(NodeId(0)).len(), 4);
        assert_eq!(t.height(), 4);
        t.validate().unwrap();
    }

    #[test]
    fn binomial_non_power_of_two() {
        for n in [2u32, 3, 5, 7, 11, 12, 13] {
            let dests = ids(&(1..n).collect::<Vec<_>>());
            let t = SpanningTree::build(NodeId(0), &dests, TreeShape::Binomial);
            t.validate().unwrap();
            let expected_height = (32 - (n - 1).leading_zeros()) as usize;
            assert!(
                t.height() <= expected_height,
                "n={n}: height {}",
                t.height()
            );
        }
    }

    #[test]
    fn binomial_with_high_id_root_keeps_ordering() {
        // Root has the largest ID: allowed because root's children are
        // exempt, and deeper links use sorted ascending ranges.
        let t = SpanningTree::build(
            NodeId(15),
            &ids(&(0..15).collect::<Vec<_>>()),
            TreeShape::Binomial,
        );
        t.validate().unwrap();
    }

    #[test]
    fn postal_small_lambda_is_deep() {
        let p = PostalParams::new(SimDuration::from_micros(10), SimDuration::from_micros(10));
        assert_eq!(p.lambda(), 1);
        let t = SpanningTree::build(
            NodeId(0),
            &ids(&(1..16).collect::<Vec<_>>()),
            TreeShape::Postal(p),
        );
        t.validate().unwrap();
        // lambda=1 postal tree is binomial-like: height around log2(16).
        assert!(t.height() >= 3 && t.height() <= 5, "height {}", t.height());
    }

    #[test]
    fn postal_large_lambda_is_shallow() {
        let p = PostalParams::new(SimDuration::from_micros(70), SimDuration::from_micros(5));
        assert_eq!(p.lambda(), 14);
        let t = SpanningTree::build(
            NodeId(0),
            &ids(&(1..16).collect::<Vec<_>>()),
            TreeShape::Postal(p),
        );
        t.validate().unwrap();
        // With lambda near n the root essentially multisends: nearly flat.
        assert!(t.height() <= 2, "height {}", t.height());
        assert!(t.children(NodeId(0)).len() >= 12);
    }

    #[test]
    fn postal_fanout_grows_with_lambda() {
        let dests = ids(&(1..64).collect::<Vec<_>>());
        let mut prev_height = usize::MAX;
        for lam_us in [1u64, 3, 8, 20] {
            let p = PostalParams::new(
                SimDuration::from_micros(lam_us),
                SimDuration::from_micros(1),
            );
            let t = SpanningTree::build(NodeId(0), &dests, TreeShape::Postal(p));
            t.validate().unwrap();
            assert!(
                t.height() <= prev_height,
                "higher lambda should not deepen the tree"
            );
            prev_height = t.height();
        }
    }

    #[test]
    fn unsorted_input_is_sorted_internally() {
        let t = SpanningTree::build(NodeId(0), &ids(&[9, 2, 5, 1]), TreeShape::Binomial);
        assert_eq!(t.dests(), ids(&[1, 2, 5, 9]).as_slice());
        t.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "duplicate destinations")]
    fn duplicates_rejected() {
        SpanningTree::build(NodeId(0), &ids(&[1, 1]), TreeShape::Flat);
    }

    #[test]
    #[should_panic(expected = "root cannot be a destination")]
    fn root_in_dests_rejected() {
        SpanningTree::build(NodeId(1), &ids(&[1, 2]), TreeShape::Flat);
    }

    #[test]
    fn empty_dests_ok() {
        let t = SpanningTree::build(NodeId(0), &[], TreeShape::Binomial);
        assert_eq!(t.height(), 0);
        assert!(t.children(NodeId(0)).is_empty());
    }

    #[test]
    fn depths_consistent_with_parents() {
        let dests = ids(&(1..32).collect::<Vec<_>>());
        let t = SpanningTree::build(NodeId(0), &dests, TreeShape::Binomial);
        for &d in t.dests() {
            let p = t.parent(d).unwrap();
            assert_eq!(t.depth(d), t.depth(p) + 1);
        }
    }
}
