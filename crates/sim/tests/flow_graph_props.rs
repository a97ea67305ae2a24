//! Differential property tests of `FlowGraph`.
//!
//! The graph keeps one fixed-size entry per flow in a sorted `Vec`, with
//! only the flow's first record at its destination, and finds link
//! candidates in one sorted `(dest, tag)` index. The oracle here is the
//! straightforward graph it replaced: a `BTreeMap` of flows, each keeping
//! its first record at every node it touched in a `Vec` of its own, and a
//! `BTreeMap` of candidate lists per `(dest, tag)`. Records are ordered by
//! `(time, index)` in the time-ordered stream. Inputs are random
//! flow-tagged streams with several nodes per flow, dense time ties, flows
//! that share a `(dest, tag)`, several origins that share a tag, delivery,
//! host-track, span and flowless records, and flows with no record at
//! their destination; and random multicast forwarding chains.
//!
//! The graph built for only some terminals' tags
//! (`FlowGraph::build_for`, what incident evidence builds) must answer
//! every question about those terminals' lineages as the whole graph does.

use std::collections::BTreeMap;

use gm_sim::probe::{Phase, ProbeId, Track};
use gm_sim::{
    CriticalPath, FlowGraph, FlowId, PathStep, ProbeConfig, ProbeEvent, ProbeSink, SimDuration,
    SimTime, FLOW_DELIVERY,
};
use proptest::collection::vec;
use proptest::prelude::*;

static HOST: ProbeId = ProbeId::new("flow_graph_props_host", Track::Host);
static WIRE: ProbeId = ProbeId::new("flow_graph_props_wire", Track::Wire);
static PCI: ProbeId = ProbeId::new("flow_graph_props_pci", Track::Pci);

fn at(ns: u64) -> SimTime {
    SimTime::from_nanos(ns)
}

/// What one generated record is.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// A wire mark of the flow.
    Wire,
    /// A host-track span of the flow (a send call).
    Host,
    /// The flow's delivery mark.
    Delivery,
    /// A PCI span opened by the flow.
    Begin,
    /// The open PCI span closed (no flow of its own).
    End,
    /// A wire mark of no flow.
    Flowless,
}

/// One record: `(time, order)`, node, the flow's `(origin, tag, dest)`
/// and kind. Records are recorded in `(time, order)` order, and in
/// generation order where that ties.
type Spec = ((u64, u32), u32, (u32, u64, u32), Kind);

fn spec() -> impl Strategy<Value = Spec> {
    // Wire marks are the common record, as in a run.
    let kind = prop_oneof![
        Just(Kind::Wire),
        Just(Kind::Wire),
        Just(Kind::Wire),
        Just(Kind::Host),
        Just(Kind::Delivery),
        Just(Kind::Begin),
        Just(Kind::End),
        Just(Kind::Flowless),
    ];
    (
        (0u64..12, 0u32..3),
        0u32..4,
        (0u32..4, 0u64..2, 0u32..4),
        kind,
    )
}

/// The stream of `specs`: one sink recorded in `(time, order)` order, so
/// the stream is in time order as a merged one is.
fn stream(specs: &[Spec]) -> Vec<ProbeEvent> {
    let mut specs = specs.to_vec();
    specs.sort_by_key(|&(key, ..)| key);
    let mut sink = ProbeSink::new(ProbeConfig::spans());
    for &((t, _), node, (origin, tag, dest), kind) in &specs {
        let flow = FlowId::new(origin, tag, dest);
        match kind {
            Kind::Wire => sink.instant_flow(at(t), node, &WIRE, "", 0, flow),
            Kind::Host => {
                sink.complete_flow(at(t), node, &HOST, SimDuration::from_nanos(2), "", flow);
            }
            Kind::Delivery => sink.instant_flow(at(t), node, &FLOW_DELIVERY, "", 0, flow),
            Kind::Begin => sink.begin_flow(at(t), node, &PCI, "", 0, 0, flow),
            Kind::End => sink.end(at(t), node, &PCI, ""),
            Kind::Flowless => sink.instant(at(t), node, &WIRE, "", 0),
        }
    }
    sink.to_vec()
}

/// Per-flow facts of the reference graph.
#[derive(Clone, Debug)]
struct RefInfo {
    first: (SimTime, u32),
    first_node: u32,
    /// Earliest `(time, index)` of a record of this flow per node.
    node_first: Vec<(u32, SimTime, u32)>,
    delivery: Option<(SimTime, u32)>,
    has_host: bool,
    pred: Option<FlowId>,
}

/// The reference graph: every flow in a map, every node it touched kept.
struct Reference {
    flows: BTreeMap<FlowId, RefInfo>,
}

impl Reference {
    fn build(events: &[ProbeEvent]) -> Reference {
        let mut flows: BTreeMap<FlowId, RefInfo> = BTreeMap::new();
        for (index, e) in (0u32..).zip(events) {
            if e.flow().is_none() {
                continue;
            }
            let key = (e.time(), index);
            let info = flows.entry(e.flow()).or_insert_with(|| RefInfo {
                first: key,
                first_node: e.node(),
                node_first: Vec::new(),
                delivery: None,
                has_host: false,
                pred: None,
            });
            if key < info.first {
                info.first = key;
                info.first_node = e.node();
            }
            match info.node_first.iter_mut().find(|(n, _, _)| *n == e.node()) {
                Some(slot) => {
                    if (slot.1, slot.2) > key {
                        (slot.1, slot.2) = key;
                    }
                }
                None => info.node_first.push((e.node(), key.0, key.1)),
            }
            if *e.id() == FLOW_DELIVERY {
                info.delivery = Some(info.delivery.map_or(key, |d| d.max(key)));
            }
            if e.id().track == Track::Host {
                info.has_host = true;
            }
        }
        let mut by_dest_tag: BTreeMap<(u32, u64), Vec<FlowId>> = BTreeMap::new();
        for &f in flows.keys() {
            by_dest_tag.entry((f.dest(), f.tag())).or_default().push(f);
        }
        let mut preds: Vec<(FlowId, FlowId)> = Vec::new();
        for (&g, info) in &flows {
            let Some(cands) = by_dest_tag.get(&(info.first_node, g.tag())) else {
                continue;
            };
            let mut best: Option<((SimTime, u32), FlowId)> = None;
            for &p in cands {
                if p == g {
                    continue;
                }
                let Some(&(_, t, s)) = flows[&p]
                    .node_first
                    .iter()
                    .find(|(n, _, _)| *n == info.first_node)
                else {
                    continue;
                };
                if (t, s) <= info.first && best.is_none_or(|(k, _)| (t, s) > k) {
                    best = Some(((t, s), p));
                }
            }
            if let Some((_, p)) = best {
                preds.push((g, p));
            }
        }
        for (g, p) in preds {
            flows.get_mut(&g).expect("pred source flow exists").pred = Some(p);
        }
        Reference { flows }
    }

    fn flows(&self) -> Vec<FlowId> {
        self.flows.keys().copied().collect()
    }

    fn delivered(&self) -> Vec<FlowId> {
        self.flows
            .iter()
            .filter(|(_, i)| i.delivery.is_some())
            .map(|(&f, _)| f)
            .collect()
    }

    fn pred(&self, flow: FlowId) -> Option<FlowId> {
        self.flows.get(&flow).and_then(|i| i.pred)
    }

    fn start_node(&self, flow: FlowId) -> Option<u32> {
        self.flows.get(&flow).map(|i| i.first_node)
    }

    fn lineage(&self, flow: FlowId) -> Vec<FlowId> {
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

    fn validate(&self) -> Vec<String> {
        let mut errors = Vec::new();
        for (&g, info) in &self.flows {
            if let Some(p) = info.pred {
                if self.flows[&p].first >= info.first {
                    errors.push(format!(
                        "flow graph not acyclic: pred {p} of {g} does not precede it"
                    ));
                }
            }
            if info.delivery.is_some() {
                let anchor = self.lineage(g)[0];
                let ai = &self.flows[&anchor];
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

    fn terminal_steps(
        &self,
        events: &[ProbeEvent],
        (ws, we): (SimTime, SimTime),
    ) -> Option<Vec<PathStep>> {
        let end = events.partition_point(|e| e.time() <= we);
        let terminal = events[..end]
            .iter()
            .rev()
            .take_while(|e| e.time() >= ws)
            .find(|e| *e.id() == FLOW_DELIVERY && e.flow().is_some())?
            .flow();
        Some(
            self.lineage(terminal)
                .into_iter()
                .map(|f| PathStep {
                    flow: f,
                    from: self.start_node(f).unwrap_or(f.origin()),
                    to: f.dest(),
                })
                .collect(),
        )
    }

    fn path_signature(&self, events: &[ProbeEvent], window: (SimTime, SimTime)) -> String {
        self.terminal_steps(events, window)
            .map_or_else(String::new, |steps| route_signature(&steps))
    }

    fn critical_path(
        &self,
        events: &[ProbeEvent],
        window: (SimTime, SimTime),
    ) -> Option<CriticalPath> {
        let (ws, we) = window;
        let steps = self.terminal_steps(events, window)?;
        let step_of = |f: FlowId| steps.iter().position(|s| s.flow == f);
        let mut spans: Vec<(u64, u64, usize, Track)> = Vec::new();
        let mut open: BTreeMap<(u32, u32), (u64, FlowId)> = BTreeMap::new();
        for e in events {
            let key = (e.node(), e.id().track.tid());
            match e.phase() {
                Phase::Begin => {
                    open.insert(key, (e.time().as_nanos(), e.flow()));
                }
                Phase::End => {
                    if let Some((s, f)) = open.remove(&key) {
                        if let Some(i) = step_of(f) {
                            spans.push((s, e.time().as_nanos(), i, e.id().track));
                        }
                    }
                }
                Phase::Complete => {
                    if let Some(i) = step_of(e.flow()) {
                        let s = e.time().as_nanos();
                        spans.push((s, s + e.dur().as_nanos(), i, e.id().track));
                    }
                }
                Phase::Mark => {}
            }
        }
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

fn route_signature(steps: &[PathStep]) -> String {
    let mut out = String::new();
    let mut last: Option<u32> = None;
    for (i, s) in steps.iter().enumerate() {
        if i == 0 {
            out.push_str(&format!("n{}", s.from));
            last = Some(s.from);
        }
        if last != Some(s.to) {
            out.push_str(&format!(">n{}", s.to));
            last = Some(s.to);
        }
    }
    out
}

/// Every public answer of the graph of `events` against the reference's:
/// per-flow questions for every flow and for one the stream lacks, and
/// the critical path and its signature for each of `windows`.
fn assert_agrees(events: &[ProbeEvent], windows: &[(u64, u64)]) {
    let graph = FlowGraph::build(events);
    let oracle = Reference::build(events);
    prop_assert_eq!(graph.flows().collect::<Vec<_>>(), oracle.flows());
    prop_assert_eq!(graph.delivered(), oracle.delivered());
    let unseen = FlowId::new(9, 9, 9);
    for f in oracle.flows().into_iter().chain([unseen]) {
        prop_assert_eq!(graph.pred(f), oracle.pred(f), "pred of {}", f);
        prop_assert_eq!(graph.start_node(f), oracle.start_node(f), "start of {}", f);
        prop_assert_eq!(graph.lineage(f), oracle.lineage(f), "lineage of {}", f);
    }
    prop_assert_eq!(graph.validate(), oracle.validate());
    for &(a, b) in windows {
        let w = (at(a.min(b)), at(a.max(b)));
        prop_assert_eq!(
            graph.path_signature(events, w),
            oracle.path_signature(events, w)
        );
        prop_assert_eq!(
            graph.critical_path(events, w),
            oracle.critical_path(events, w)
        );
    }
}

/// The graphs [`FlowGraph::build_for`] builds for each window's terminal
/// delivery alone, and for every window's together, against the whole
/// stream's graph: each terminal's lineage, the predecessor and start node
/// of every flow in it, and each window's path signature. The scoped
/// graphs hold only flows of the terminals' tags.
fn assert_scoped_agrees(events: &[ProbeEvent], windows: &[(u64, u64)]) {
    let full = FlowGraph::build(events);
    let oracle = Reference::build(events);
    let windows: Vec<(SimTime, SimTime)> = windows
        .iter()
        .map(|&(a, b)| (at(a.min(b)), at(a.max(b))))
        .collect();
    let terminals: Vec<FlowId> = windows
        .iter()
        .filter_map(|&w| FlowGraph::terminal(events, w))
        .collect();
    let together = FlowGraph::build_for(events, terminals.iter().copied());
    let tags: Vec<u64> = terminals.iter().map(|t| t.tag()).collect();
    prop_assert!(together.flows().all(|f| tags.contains(&f.tag())));
    for &w in &windows {
        let terminal = FlowGraph::terminal(events, w);
        let want = full.path_signature(events, w);
        prop_assert_eq!(&want, &oracle.path_signature(events, w));
        let Some(t) = terminal else {
            prop_assert_eq!(want, "");
            prop_assert_eq!(together.path_signature(events, w), "");
            continue;
        };
        let alone = FlowGraph::build_for(events, [t]);
        prop_assert!(alone.flows().all(|f| f.tag() == t.tag()));
        for scoped in [&alone, &together] {
            let lineage = full.lineage(t);
            prop_assert_eq!(scoped.lineage(t), lineage.clone(), "lineage of {}", t);
            for f in lineage {
                prop_assert_eq!(scoped.pred(f), full.pred(f), "pred of {}", f);
                prop_assert_eq!(scoped.start_node(f), full.start_node(f), "start of {}", f);
            }
            prop_assert_eq!(scoped.path_signature(events, w), want.clone());
        }
    }
}

/// One message `(origin, tag)` forwarded along a chain of nodes from
/// `start`: each hop `(node, transit, lag)` is the flow `(origin, tag,
/// node)`, which starts at the node before it when the payload has
/// arrived there, reaches `node` `transit` ns later, and is delivered
/// `lag` ns after that.
type Chain = (u32, u64, u64, Vec<(u32, u64, u64)>);

fn chain() -> impl Strategy<Value = Chain> {
    (
        0u32..6,
        0u64..3,
        0u64..20,
        vec((0u32..6, 1u64..4, 0u64..3), 1..5),
    )
}

/// The records of `chains`: a host send at each origin, a wire record at
/// each hop's start node and on arrival, and a delivery at each hop's
/// node.
fn chain_specs(chains: &[Chain]) -> Vec<Spec> {
    let mut specs = Vec::new();
    for (origin, tag, start, hops) in chains {
        let (mut from, mut t) = (*origin, *start);
        for (i, &(node, transit, lag)) in hops.iter().enumerate() {
            let flow = (*origin, *tag, node);
            let kind = if i == 0 { Kind::Host } else { Kind::Wire };
            specs.push(((t, 0), from, flow, kind));
            t += transit;
            specs.push(((t, 0), node, flow, Kind::Wire));
            specs.push(((t + lag, 0), node, flow, Kind::Delivery));
            from = node;
        }
    }
    specs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn flat_graph_matches_the_map_graph(
        specs in vec(spec(), 0..80),
        windows in vec((0u64..14, 0u64..14), 0..6),
    ) {
        let events = stream(&specs);
        let mut windows = windows;
        windows.push((0, 14));
        assert_agrees(&events, &windows);
    }

    #[test]
    fn scoped_graph_matches_the_whole_graph_on_random_streams(
        specs in vec(spec(), 0..80),
        windows in vec((0u64..14, 0u64..14), 0..8),
    ) {
        let events = stream(&specs);
        let mut windows = windows;
        windows.extend([(0, 14), (20, 30)]);
        assert_scoped_agrees(&events, &windows);
    }

    #[test]
    fn scoped_graph_matches_the_whole_graph_on_forwarding_chains(
        chains in vec(chain(), 1..8),
        windows in vec((0u64..40, 0u64..40), 0..8),
    ) {
        let events = stream(&chain_specs(&chains));
        let mut windows = windows;
        windows.extend([(0, 40), (60, 70)]);
        assert_agrees(&events, &windows);
        assert_scoped_agrees(&events, &windows);
    }
}

/// Flows `(o, 1, 2)` for origins 0 and 1 both arrive at node 2 at the same
/// instant, `(1, 1, 2)` recorded first; flow `(3, 1, 0)` starts at node 2
/// afterwards. Records order by their index within an instant, so the
/// later-recorded arrival is the latest and wins.
#[test]
fn arrivals_at_one_instant_go_by_record_order() {
    let specs: Vec<Spec> = vec![
        ((0, 0), 0, (0, 1, 2), Kind::Host),
        ((0, 0), 1, (1, 1, 2), Kind::Host),
        ((4, 1), 2, (1, 1, 2), Kind::Wire),
        ((4, 1), 2, (0, 1, 2), Kind::Wire),
        ((6, 0), 2, (3, 1, 0), Kind::Wire),
        ((8, 0), 0, (3, 1, 0), Kind::Delivery),
    ];
    let events = stream(&specs);
    let graph = FlowGraph::build(&events);
    assert_eq!(graph.pred(FlowId::new(3, 1, 0)), Some(FlowId::new(0, 1, 2)));
    assert_agrees(&events, &[(0, 8)]);
}

/// A candidate is judged by its earliest record at its own destination:
/// flow `(0, 0, 2)` starts early at node 0 but reaches node 2 only after
/// flow `(1, 0, 3)` starts there, so it is no predecessor; flow `(2, 0, 2)`
/// never reaches node 2 at all.
#[test]
fn candidates_count_only_their_arrival_at_their_destination() {
    let specs: Vec<Spec> = vec![
        ((0, 0), 0, (0, 0, 2), Kind::Host),
        ((1, 0), 1, (2, 0, 2), Kind::Host),
        ((2, 0), 1, (2, 0, 2), Kind::Wire),
        ((5, 0), 2, (1, 0, 3), Kind::Wire),
        ((7, 0), 2, (0, 0, 2), Kind::Wire),
        ((9, 0), 3, (1, 0, 3), Kind::Delivery),
    ];
    let events = stream(&specs);
    let graph = FlowGraph::build(&events);
    assert_eq!(graph.pred(FlowId::new(1, 0, 3)), None);
    assert_agrees(&events, &[(0, 9)]);
}
