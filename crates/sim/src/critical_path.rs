//! `sim::critical_path` — lineage reconstruction and critical-path
//! extraction over flow-tagged probe streams.
//!
//! Every probe record may carry a [`FlowId`] (see `sim::flow`). This module
//! turns a recorded stream back into *causal* structure:
//!
//! * a [`FlowGraph`] links each flow to its **predecessor hop**: the flow
//!   that delivered the payload to the node where this flow's work began.
//!   For a NIC-forwarded multicast packet `root → A → B`, the flow
//!   `(root, tag, B)` starts at node `A`, and its predecessor is
//!   `(root, tag, A)` — the hop that brought the payload to `A`. The rule
//!   is purely temporal and needs no protocol knowledge: among flows with
//!   the same tag whose destination is the start node, pick the one whose
//!   first record at that node is the most recent not after this flow's
//!   first record. Records are ordered by their index in the time-ordered
//!   stream, so no two records tie. Each link strictly decreases the
//!   first-record index, so the graph is acyclic by construction (and
//!   [`FlowGraph::validate`] proves it per run).
//! * a **lineage** is the chain anchor → … → flow, where the anchor is a
//!   flow with no predecessor — for a complete delivery it starts with the
//!   host send call at the origin.
//! * [`FlowGraph::critical_path`] extracts, for one measured window, the
//!   chain that determined completion (the lineage of the last
//!   [`FLOW_DELIVERY`] in the window) and decomposes the window into
//!   per-hop / per-resource buckets that **sum exactly** to the window
//!   length: a boundary sweep assigns every nanosecond to the innermost
//!   covering chain span, or to `wait` when no chain span covers it.
//!   [`FlowGraph::path_signature`] gives the same chain's node route alone,
//!   at the cost of the window's records rather than the whole stream.
//! * a lineage never leaves its message's tag: a flow's predecessor shares
//!   its tag, and its start node comes from its own records. So
//!   [`FlowGraph::build_for`] builds the graph of only the flows that share
//!   a tag with some terminal deliveries, and answers every question about
//!   those deliveries' lineages as the whole graph would; incident evidence
//!   (`sim::watch`) builds that one.

use std::collections::BTreeMap;

use crate::flow::FlowId;
use crate::probe::{Phase, ProbeEvent, ProbeId, Track};
use crate::rng::splitmix64;
use crate::time::{SimDuration, SimTime};

/// Delivery anchor: recorded (with a flow) when a message reaches its
/// destination application callback. Terminates the flow's lineage and
/// marks the completion candidates for critical-path extraction.
pub static FLOW_DELIVERY: ProbeId = ProbeId::new("flow_delivery", Track::App);

/// Per-flow facts extracted from the stream: 32 bytes.
#[derive(Clone, Copy, Debug)]
struct FlowInfo {
    flow: FlowId,
    /// The causal predecessor hop (filled by the link pass), or
    /// [`FlowId::NONE`].
    pred: FlowId,
    /// Index of the flow's first record in the stream.
    first: u32,
    /// Node of the flow's first record.
    first_node: u32,
    /// Index of the flow's first record at its destination — when the
    /// payload first became visible there — or [`FlowInfo::NOT_AT_DEST`].
    /// The link pass reads nothing else of a candidate predecessor: it
    /// picks candidates by destination, so this is the candidate's entry
    /// at the start node.
    at_dest: u32,
    /// Whether the flow reached a [`FLOW_DELIVERY`] record.
    delivered: bool,
    /// Whether the flow includes a host-track record (the send call) — the
    /// anchor of a complete lineage.
    has_host: bool,
}

impl FlowInfo {
    /// `at_dest` of a flow with no record at its destination.
    const NOT_AT_DEST: u32 = u32::MAX;
}

/// Where each flow's entry sits in the entry `Vec` while
/// [`FlowGraph::build`] reads the stream: open addressing over `u32` slots,
/// each [`FlowSlots::EMPTY`] or an entry's index, at most half full,
/// probed linearly from the flow's `splitmix64` hash. It is only looked up,
/// never iterated, so nothing about it reaches the graph's order.
#[derive(Default)]
struct FlowSlots(Vec<u32>);

impl FlowSlots {
    const EMPTY: u32 = u32::MAX;

    /// The index of `flow`'s entry in `flows`, pushing `new()` for it
    /// first if it has none.
    fn entry(
        &mut self,
        flows: &mut Vec<FlowInfo>,
        flow: FlowId,
        new: impl FnOnce() -> FlowInfo,
    ) -> usize {
        if 2 * (flows.len() + 1) > self.0.len() {
            self.grow(flows);
        }
        let mut s = self.home(flow);
        loop {
            match self.0[s] {
                Self::EMPTY => {
                    self.0[s] =
                        u32::try_from(flows.len()).expect("a flow graph holds at most 2^32 flows");
                    flows.push(new());
                    return flows.len() - 1;
                }
                i if flows[i as usize].flow == flow => return i as usize,
                _ => s = (s + 1) & (self.0.len() - 1),
            }
        }
    }

    /// The slot `flow`'s probe starts at.
    fn home(&self, flow: FlowId) -> usize {
        (splitmix64(flow.raw()) & (self.0.len() as u64 - 1)) as usize
    }

    /// Double the table (to 64 slots at first) and re-place every entry.
    #[cold]
    fn grow(&mut self, flows: &[FlowInfo]) {
        let len = (2 * self.0.len()).max(64);
        self.0.clear();
        self.0.resize(len, Self::EMPTY);
        for (i, info) in flows.iter().enumerate() {
            let mut s = self.home(info.flow);
            while self.0[s] != Self::EMPTY {
                s = (s + 1) & (len - 1);
            }
            self.0[s] = i as u32;
        }
    }
}

/// The causal links between the flows of one recorded run.
///
/// The flows are one exactly sized `Vec` sorted by [`FlowId`], looked up by
/// binary search, so the graph holds one fixed-size entry per flow and
/// makes no allocation per flow or per record.
#[derive(Clone, Debug, Default)]
pub struct FlowGraph {
    flows: Vec<FlowInfo>,
}

impl FlowGraph {
    /// Build the graph of every flow of a canonical probe stream (events in
    /// time order, e.g. `ProbeSink::as_slice` after a merge).
    pub fn build(events: &[ProbeEvent]) -> FlowGraph {
        FlowGraph::build_where(events, |_| true)
    }

    /// Build the graph of only the flows that share a tag with one of
    /// `terminals`, from the same stream as [`FlowGraph::build`].
    ///
    /// A lineage stays inside its tag, so for each terminal, and every flow
    /// of its lineage, [`FlowGraph::pred`], [`FlowGraph::start_node`],
    /// [`FlowGraph::lineage`] and [`FlowGraph::path_signature`] answer as
    /// the whole stream's graph does, while the graph holds only the flows
    /// of the terminals' messages.
    pub fn build_for(
        events: &[ProbeEvent],
        terminals: impl IntoIterator<Item = FlowId>,
    ) -> FlowGraph {
        let mut tags: Vec<u64> = terminals.into_iter().map(FlowId::tag).collect();
        tags.sort_unstable();
        tags.dedup();
        FlowGraph::build_where(events, |f| tags.binary_search(&f.tag()).is_ok())
    }

    /// Build the graph of the flows of `events` that `keep` accepts.
    fn build_where(events: &[ProbeEvent], keep: impl Fn(FlowId) -> bool) -> FlowGraph {
        debug_assert!(
            in_record_order(events),
            "a flow graph needs a time-ordered probe stream"
        );
        let len = u32::try_from(events.len()).expect("a probe stream holds under 2^32 records");
        // One entry per flow, in order of first sight; `slots` finds a
        // flow's entry. Records come in index order, so a flow's first
        // record, and its first at its destination, are the first seen.
        let mut flows: Vec<FlowInfo> = Vec::new();
        let mut slots = FlowSlots::default();
        for (index, e) in (0..len).zip(events) {
            let flow = e.flow();
            if flow.is_none() || !keep(flow) {
                continue;
            }
            let (node, id) = (e.node(), e.id());
            let i = slots.entry(&mut flows, flow, || FlowInfo {
                flow,
                pred: FlowId::NONE,
                first: index,
                first_node: node,
                at_dest: FlowInfo::NOT_AT_DEST,
                delivered: false,
                has_host: false,
            });
            let info = &mut flows[i];
            if node == flow.dest() && info.at_dest == FlowInfo::NOT_AT_DEST {
                info.at_dest = index;
            }
            if *id == FLOW_DELIVERY {
                info.delivered = true;
            }
            if id.track == Track::Host {
                info.has_host = true;
            }
        }
        drop(slots); // before the sort, the shrink and the index below
        flows.sort_unstable_by_key(|i| i.flow);
        flows.shrink_to_fit();

        // Link pass: index flows by (dest, tag), in FlowId order within
        // each, then find each flow's predecessor hop among the flows whose
        // destination is its start node.
        let mut by_dest_tag: Vec<(u32, u64, u32)> = Vec::with_capacity(flows.len());
        by_dest_tag.extend(flows.iter().enumerate().map(|(i, info)| {
            let i = u32::try_from(i).expect("a flow graph holds at most 2^32 flows");
            (info.flow.dest(), info.flow.tag(), i)
        }));
        by_dest_tag.sort_unstable();
        for g in 0..flows.len() {
            let info = flows[g];
            let at = (info.first_node, info.flow.tag());
            let lo = by_dest_tag.partition_point(|&(d, t, _)| (d, t) < at);
            let cands = by_dest_tag[lo..]
                .iter()
                .take_while(|&&(d, t, _)| (d, t) == at);
            // The latest arrival at the start node not after this flow's
            // first record. Arrivals are record indices, so none tie.
            let mut best: Option<(u32, usize)> = None;
            for &(_, _, p) in cands {
                let p = p as usize;
                let k = flows[p].at_dest;
                if p == g || k == FlowInfo::NOT_AT_DEST {
                    continue;
                }
                if k <= info.first && best.is_none_or(|(b, _)| k > b) {
                    best = Some((k, p));
                }
            }
            if let Some((_, p)) = best {
                flows[g].pred = flows[p].flow;
            }
        }
        FlowGraph { flows }
    }

    /// The flow of the last [`FLOW_DELIVERY`] record in window `[ws, we]`
    /// (both ends inclusive): the delivery whose lineage is the window's
    /// critical path. `None` when the window holds no delivery.
    ///
    /// `events` must be in time order: the window's end is found by binary
    /// search and the walk runs backward from it, so the cost is the
    /// window's records, not the whole stream.
    pub fn terminal(events: &[ProbeEvent], (ws, we): (SimTime, SimTime)) -> Option<FlowId> {
        let end = events.partition_point(|e| e.time() <= we);
        events[..end]
            .iter()
            .rev()
            .take_while(|e| e.time() >= ws)
            .find(|e| e.flow().is_some() && *e.id() == FLOW_DELIVERY)
            .map(ProbeEvent::flow)
    }

    /// The entry of `flow`, if it was seen.
    fn info(&self, flow: FlowId) -> Option<&FlowInfo> {
        self.flows
            .binary_search_by_key(&flow, |i| i.flow)
            .ok()
            .map(|i| &self.flows[i])
    }

    /// All flows seen, in `FlowId` order.
    pub fn flows(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.flows.iter().map(|i| i.flow)
    }

    /// Flows that reached a [`FLOW_DELIVERY`] record.
    pub fn delivered(&self) -> Vec<FlowId> {
        self.flows
            .iter()
            .filter(|i| i.delivered)
            .map(|i| i.flow)
            .collect()
    }

    /// The causal predecessor hop of `flow`, if any.
    pub fn pred(&self, flow: FlowId) -> Option<FlowId> {
        self.info(flow).map(|i| i.pred).filter(|p| p.is_some())
    }

    /// Node at which `flow`'s work began (the hop's source).
    pub fn start_node(&self, flow: FlowId) -> Option<u32> {
        self.info(flow).map(|i| i.first_node)
    }

    /// The lineage of `flow`: anchor hop first, `flow` last. Stops (rather
    /// than loops) if a cycle is ever encountered — [`FlowGraph::validate`]
    /// reports such a stream as corrupt.
    pub fn lineage(&self, flow: FlowId) -> Vec<FlowId> {
        let mut chain = vec![flow];
        let mut cur = flow;
        while let Some(p) = self.pred(cur) {
            if chain.contains(&p) {
                break;
            }
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
    }

    /// Structural checks for `--check` gates: predecessor links must be
    /// acyclic, and every delivered flow must have an unbroken lineage back
    /// to an anchor hop that contains the host send call. Returns one
    /// message per violation (empty = clean).
    pub fn validate(&self) -> Vec<String> {
        let mut errors = Vec::new();
        for info in &self.flows {
            let (g, p) = (info.flow, info.pred);
            if p.is_some() {
                let pf = self.info(p).expect("a predecessor is a flow of the graph");
                if pf.first >= info.first {
                    errors.push(format!(
                        "flow graph not acyclic: pred {p} of {g} does not precede it"
                    ));
                }
            }
            if info.delivered {
                let chain = self.lineage(g);
                let anchor = chain[0];
                let ai = self.info(anchor).expect("lineage flows are in the graph");
                if ai.pred.is_some() {
                    errors.push(format!("lineage of {g} contains a cycle"));
                } else if !ai.has_host {
                    errors.push(format!(
                        "lineage of {g} is broken: anchor {anchor} has no host send record"
                    ));
                }
            }
        }
        errors
    }

    /// The hops of `terminal`'s lineage, anchor first, each from the node
    /// its work began on to its destination.
    fn steps_of(&self, terminal: FlowId) -> Vec<PathStep> {
        self.lineage(terminal)
            .into_iter()
            .map(|f| PathStep {
                flow: f,
                from: self.start_node(f).unwrap_or(f.origin()),
                to: f.dest(),
            })
            .collect()
    }

    /// The node route of `terminal`'s lineage ([`CriticalPath::signature`]
    /// of a window whose last delivery it is).
    pub(crate) fn signature_of(&self, terminal: FlowId) -> String {
        route_signature(&self.steps_of(terminal))
    }

    /// The node route of window `[ws, we]`'s critical path — what
    /// `critical_path(events, window)` would give as
    /// [`CriticalPath::signature`] — without pairing spans or decomposing
    /// the window into buckets. Empty when the window holds no delivery.
    /// `events` must be in time order.
    pub fn path_signature(&self, events: &[ProbeEvent], window: (SimTime, SimTime)) -> String {
        FlowGraph::terminal(events, window).map_or_else(String::new, |t| self.signature_of(t))
    }

    /// Extract the critical path of the measured window `[ws, we]`: the
    /// lineage of the last delivery in the window, decomposed into per-hop /
    /// per-resource buckets that sum exactly to `we - ws`. Returns `None`
    /// when the window contains no delivery. `events` must be in time order
    /// (a canonically-merged stream is).
    pub fn critical_path(
        &self,
        events: &[ProbeEvent],
        window: (SimTime, SimTime),
    ) -> Option<CriticalPath> {
        debug_assert!(
            in_record_order(events),
            "critical_path needs a time-ordered probe stream"
        );
        let (ws, we) = window;
        let steps = self.steps_of(FlowGraph::terminal(events, window)?);
        let step_of = |f: FlowId| steps.iter().position(|s| s.flow == f);

        // Collect the chain's spans: Begin/End pairs per (node, track) —
        // an End record inherits the flow of the Begin that opened it —
        // plus Complete records.
        let mut spans: Vec<(u64, u64, usize, Track)> = Vec::new();
        let mut open: BTreeMap<(u32, u32), (u64, FlowId)> = BTreeMap::new();
        for e in events {
            let track = e.id().track;
            let key = (e.node(), track.tid());
            match e.phase() {
                Phase::Begin => {
                    open.insert(key, (e.time().as_nanos(), e.flow()));
                }
                Phase::End => {
                    if let Some((s, f)) = open.remove(&key) {
                        if let Some(i) = step_of(f) {
                            spans.push((s, e.time().as_nanos(), i, track));
                        }
                    }
                }
                Phase::Complete => {
                    if let Some(i) = step_of(e.flow()) {
                        let s = e.time().as_nanos();
                        spans.push((s, s + e.dur().as_nanos(), i, track));
                    }
                }
                Phase::Mark => {}
            }
        }

        // Boundary sweep over [ws, we]: assign each segment to the
        // innermost (latest-starting; tie → latest hop) covering span.
        let (wsn, wen) = (ws.as_nanos(), we.as_nanos());
        let mut cuts: Vec<u64> = vec![wsn, wen];
        for &(s, e, _, _) in &spans {
            if e > wsn && s < wen {
                cuts.push(s.clamp(wsn, wen));
                cuts.push(e.clamp(wsn, wen));
            }
        }
        cuts.sort_unstable();
        cuts.dedup();

        let mut buckets: BTreeMap<String, u64> = BTreeMap::new();
        for pair in cuts.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if b <= a {
                continue;
            }
            let winner = spans
                .iter()
                .filter(|&&(s, e, _, _)| s <= a && e >= b)
                .max_by_key(|&&(s, _, i, _)| (s, i));
            let key = match winner {
                Some(&(_, _, i, track)) => {
                    let st = &steps[i];
                    format!("h{:02} n{}>n{} {}", i, st.from, st.to, track.name())
                }
                None => "wait".to_string(),
            };
            *buckets.entry(key).or_insert(0) += b - a;
        }

        Some(CriticalPath {
            window,
            steps,
            buckets: buckets
                .into_iter()
                .map(|(k, v)| (k, SimDuration::from_nanos(v)))
                .collect(),
            total: we - ws,
        })
    }
}

/// Whether `events` is in time order — the order
/// [`crate::probe::ProbeSink::merge_canonical`] leaves a stream in, and the
/// precondition of every window lookup in this module and in `sim::watch`.
/// Records of one instant are then ordered by their index.
pub(crate) fn in_record_order(events: &[ProbeEvent]) -> bool {
    events.is_sorted_by_key(ProbeEvent::time)
}

/// The node route of a hop chain (see [`CriticalPath::signature`]).
fn route_signature(steps: &[PathStep]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let mut last: Option<u32> = None;
    for (i, s) in steps.iter().enumerate() {
        if i == 0 {
            let _ = write!(out, "n{}", s.from);
            last = Some(s.from);
        }
        if last != Some(s.to) {
            let _ = write!(out, ">n{}", s.to);
            last = Some(s.to);
        }
    }
    out
}

/// One hop of a critical path: `flow` carried the payload `from → to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathStep {
    /// The hop's flow.
    pub flow: FlowId,
    /// Node where the hop's work began.
    pub from: u32,
    /// The hop's delivery endpoint.
    pub to: u32,
}

/// The chain of hops that determined one window's completion, with the
/// window decomposed into per-hop / per-resource time buckets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CriticalPath {
    /// The measured window this path explains.
    pub window: (SimTime, SimTime),
    /// Hops, anchor first.
    pub steps: Vec<PathStep>,
    /// `(label, time)` buckets, sorted by hop then resource; `wait` collects
    /// time covered by no chain span. Sums exactly to `total`.
    pub buckets: Vec<(String, SimDuration)>,
    /// The window length (`we - ws`).
    pub total: SimDuration,
}

impl CriticalPath {
    /// The node route of the path, e.g. `"n0>n1>n3"` — the anchor's start
    /// node followed by each hop's destination (consecutive duplicates
    /// collapsed). Two runs took the same path iff signatures match.
    pub fn signature(&self) -> String {
        route_signature(&self.steps)
    }

    /// Sum of all buckets — equals `total` by construction; exposed so
    /// check gates can assert it.
    pub fn bucket_sum(&self) -> SimDuration {
        self.buckets
            .iter()
            .fold(SimDuration::ZERO, |acc, (_, d)| acc + *d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{ProbeConfig, ProbeSink};

    static HOSTP: ProbeId = ProbeId::new("cp_host", Track::Host);
    static PCIP: ProbeId = ProbeId::new("cp_pci", Track::Pci);
    static WIREP: ProbeId = ProbeId::new("cp_wire", Track::Wire);
    static RXP: ProbeId = ProbeId::new("cp_rx", Track::Wire);

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Two-hop delivery 0 → 1 → 2: root flow at n0, hop flows (0,t,1) and
    /// (0,t,2) (the second starting at n1), deliveries at n1 and n2.
    fn two_hop_stream() -> Vec<ProbeEvent> {
        let mut s = ProbeSink::new(ProbeConfig::spans());
        let root = FlowId::new(0, 7, 0);
        let h1 = FlowId::new(0, 7, 1);
        let h2 = FlowId::new(0, 7, 2);
        s.complete_flow(at(0), 0, &HOSTP, SimDuration::from_nanos(100), "send", root);
        s.begin_flow(at(100), 0, &PCIP, "sdma", 0, 0, h1);
        s.end(at(300), 0, &PCIP, "sdma");
        s.begin_flow(at(300), 0, &WIREP, "tx", 1, 0, h1);
        s.end(at(600), 0, &WIREP, "tx");
        // The packet's arrival at n1 is recorded before any forwarding
        // work it triggers — that mark is what the predecessor link keys on.
        s.instant_flow(at(620), 1, &RXP, "arrive", 0, h1);
        s.instant_flow(at(700), 1, &FLOW_DELIVERY, "recv", 0, h1);
        // Forwarding hop starts at n1 (cut-through: before n1's delivery).
        s.begin_flow(at(650), 1, &WIREP, "tx", 2, 0, h2);
        s.end(at(950), 1, &WIREP, "tx");
        s.instant_flow(at(1_050), 2, &FLOW_DELIVERY, "recv", 0, h2);
        let mut v = s.to_vec();
        v.sort_by_key(ProbeEvent::time);
        v
    }

    #[test]
    fn lineage_chains_through_the_forwarding_node() {
        let ev = two_hop_stream();
        let g = FlowGraph::build(&ev);
        let root = FlowId::new(0, 7, 0);
        let h1 = FlowId::new(0, 7, 1);
        let h2 = FlowId::new(0, 7, 2);
        assert_eq!(g.pred(h1), Some(root));
        assert_eq!(g.pred(h2), Some(h1));
        assert_eq!(g.pred(root), None);
        assert_eq!(g.lineage(h2), vec![root, h1, h2]);
        assert!(g.validate().is_empty(), "{:?}", g.validate());
    }

    #[test]
    fn critical_path_buckets_sum_to_the_window() {
        let ev = two_hop_stream();
        let g = FlowGraph::build(&ev);
        let cp = g
            .critical_path(&ev, (at(0), at(1_050)))
            .expect("window contains a delivery");
        assert_eq!(cp.signature(), "n0>n1>n2");
        assert_eq!(cp.bucket_sum(), cp.total);
        assert_eq!(cp.total.as_nanos(), 1_050);
        // The host send, both wire hops, and the SDMA each hold a bucket.
        assert!(cp.buckets.iter().any(|(k, _)| k.ends_with("host")));
        assert!(cp.buckets.iter().any(|(k, _)| k.ends_with("wire")));
        assert!(cp.buckets.iter().any(|(k, _)| k.ends_with("pci")));
        assert!(cp.buckets.iter().any(|(k, _)| k == "wait"));
    }

    #[test]
    fn missing_host_anchor_is_reported() {
        let mut s = ProbeSink::new(ProbeConfig::spans());
        let orphan = FlowId::new(3, 1, 4);
        s.begin_flow(at(0), 3, &WIREP, "tx", 4, 0, orphan);
        s.end(at(100), 3, &WIREP, "tx");
        s.instant_flow(at(200), 4, &FLOW_DELIVERY, "recv", 0, orphan);
        let g = FlowGraph::build(&s.to_vec());
        let errs = g.validate();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("no host send record"), "{errs:?}");
    }

    #[test]
    fn empty_window_has_no_path() {
        let ev = two_hop_stream();
        let g = FlowGraph::build(&ev);
        assert!(g.critical_path(&ev, (at(2_000), at(3_000))).is_none());
        assert_eq!(g.path_signature(&ev, (at(2_000), at(3_000))), "");
    }

    #[test]
    fn path_signature_matches_the_full_critical_path() {
        let ev = two_hop_stream();
        let g = FlowGraph::build(&ev);
        // Windows ending on each delivery (inclusive end), between them, and
        // starting exactly on one.
        for w in [
            (0, 1_050),
            (0, 1_049),
            (0, 700),
            (700, 700),
            (701, 1_050),
            (1_050, 1_050),
            (0, 699),
        ] {
            let w = (at(w.0), at(w.1));
            assert_eq!(
                g.path_signature(&ev, w),
                g.critical_path(&ev, w)
                    .map(|cp| cp.signature())
                    .unwrap_or_default(),
                "window {w:?}"
            );
        }
        assert_eq!(g.path_signature(&ev, (at(0), at(1_049))), "n0>n1");
        assert_eq!(g.path_signature(&ev, (at(0), at(699))), "");
    }
}
