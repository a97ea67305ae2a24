//! End-to-end acceptance tests for causal flow tracing: lineage
//! reconstruction and critical-path extraction over real protocol runs
//! (not synthetic streams — those live in `sim::critical_path`'s unit
//! tests).

use gm_sim::probe::{ProbeConfig, PKT_DROP};
use gm_sim::watch::{CLUSTER_NODE, MAX_EVIDENCE_FLOWS};
use gm_sim::{FlowGraph, FlowId, ProbeEvent, SeriesConfig, SimDuration, WatchConfig};
use myrinet::FaultPlan;
use nic_mcast::{ArrivalProcess, FanoutDist, Scenario, StopCondition, TreeShape, Workload};

/// Collective-release flows (`BARRIER_TAG_BIT` folded onto tag bit 30 by
/// `gm::flow_tag`) deliver through extension notices, not app receives, so
/// they carry no `FLOW_DELIVERY` record.
fn is_data_flow(f: FlowId) -> bool {
    f.tag() & (1 << 30) == 0
}

/// The paper's headline configuration: 16 nodes, 4 KB, NIC-based multicast.
/// Every measured window's critical path must decompose into buckets that
/// sum *exactly* to the window length (the iteration's completion latency).
#[test]
fn nic_broadcast_16x4k_buckets_sum_to_completion_latency() {
    let out = Scenario::nic_based(16)
        .size(4096)
        .tree(TreeShape::KAry(2))
        .warmup(1)
        .iters(4)
        .probes(ProbeConfig::spans())
        .run();
    assert_eq!(out.windows.len(), 4);
    let events = out.probe.to_vec();
    let graph = FlowGraph::build(&events);
    assert_eq!(graph.validate(), Vec::<String>::new());
    for (i, &(ws, we)) in out.windows.iter().enumerate() {
        let cp = graph
            .critical_path(&events, (ws, we))
            .unwrap_or_else(|| panic!("window {i} has no delivery"));
        assert_eq!(cp.total, we.saturating_since(ws), "window {i} total");
        assert_eq!(cp.bucket_sum(), cp.total, "window {i} buckets must sum");
        assert!(
            cp.steps.len() >= 2,
            "window {i}: a 16-node collective path has multiple hops, got {:?}",
            cp.steps
        );
        // The path must explain the window with real protocol work, not
        // just wait time.
        let wait = cp
            .buckets
            .iter()
            .find(|(k, _)| k == "wait")
            .map(|&(_, d)| d)
            .unwrap_or_default();
        assert!(wait < cp.total, "window {i} is pure wait: {:?}", cp.buckets);
    }
}

/// Under loss, Go-Back-N retransmits dropped multicast packets from the
/// NIC; the retransmitted hop keeps its `FlowId`, so the flow still
/// reaches delivery and its lineage is complete — the drop shows up as
/// extra records on the same hop, not as a broken chain.
#[test]
fn lossy_go_back_n_keeps_retransmitted_hops_in_lineage() {
    let out = Scenario::nic_based(8)
        .size(2048)
        .tree(TreeShape::KAry(2))
        .warmup(1)
        .iters(6)
        .faults(FaultPlan::with_loss(0.08))
        .probes(ProbeConfig::spans())
        .run();
    assert!(
        out.retransmissions > 0,
        "loss plan must actually trigger Go-Back-N"
    );
    let events = out.probe.to_vec();
    let graph = FlowGraph::build(&events);
    assert_eq!(graph.validate(), Vec::<String>::new());

    // Every dropped *data* packet's flow must still be delivered, with the
    // retransmitted hop present in its own complete lineage.
    let dropped: Vec<FlowId> = events
        .iter()
        .filter(|e| e.id().name == PKT_DROP.name && e.flow().is_some() && is_data_flow(e.flow()))
        .map(ProbeEvent::flow)
        .collect();
    assert!(!dropped.is_empty(), "no data packets were dropped");
    let delivered = graph.delivered();
    for f in dropped {
        assert!(
            delivered.contains(&f),
            "dropped flow {f} never reached delivery"
        );
        let chain = graph.lineage(f);
        assert_eq!(*chain.last().expect("lineage nonempty"), f);
        assert!(
            chain.len() >= 2 || f.origin() == f.dest(),
            "delivered hop {f} should chain back to its sender, got {chain:?}"
        );
    }
}

/// Incident evidence is located per window by binary search over the
/// merged stream. On a seeded lossy watched workload, every incident's
/// `flows` and `signature` must equal what a scan of the whole stream
/// gives: the flows of every record in `[ws, we)` on the incident's node
/// (any node when cluster-wide), and the signature of the full critical
/// path of `[ws, we]` — at one shard and at two.
#[test]
fn incident_evidence_matches_a_full_stream_scan() {
    let run = |shards| {
        Workload::new(16)
            .groups(16)
            .fanout(FanoutDist::Zipf { exponent: 1.2 })
            .overlap(0.5)
            .arrivals(ArrivalProcess::Poisson { rate_hz: 30_000.0 })
            .stop(StopCondition::Duration(SimDuration::from_millis(2)))
            .size(512)
            .seed(11)
            .shards(shards)
            .faults(FaultPlan::with_loss(0.03))
            .probes(ProbeConfig::spans())
            .series(SeriesConfig::on())
            .watch(WatchConfig::on())
            .run()
    };
    for shards in [1, 2] {
        let report = run(shards);
        let events = report.probe.to_vec();
        let graph = FlowGraph::build(&events);
        assert!(
            report.incidents.iter().any(|i| i.node != CLUSTER_NODE)
                && report.incidents.iter().any(|i| !i.signature.is_empty()),
            "{shards} shards: the workload must raise per-node incidents with signatures"
        );
        for (k, inc) in report.incidents.iter().enumerate() {
            let (ws, we) = inc.window;
            let mut flows: Vec<FlowId> = events
                .iter()
                .filter(|e| {
                    e.time() >= ws
                        && e.time() < we
                        && e.flow().is_some()
                        && (inc.node == CLUSTER_NODE || e.node() == inc.node)
                })
                .map(ProbeEvent::flow)
                .collect();
            flows.sort_unstable();
            flows.dedup();
            flows.truncate(MAX_EVIDENCE_FLOWS);
            let signature = graph
                .critical_path(&events, inc.window)
                .map(|cp| cp.signature())
                .unwrap_or_default();
            assert_eq!(inc.flows, flows, "{shards} shards, incident {k}: flows");
            assert_eq!(
                inc.signature, signature,
                "{shards} shards, incident {k}: signature"
            );
        }
    }
}
