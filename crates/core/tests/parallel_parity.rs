//! Differential suite for sharded runs: a run split across shards must be
//! **bit-for-bit identical** to the one-shard reference — same latencies,
//! same counters, same probe event stream, same iteration windows. This is
//! the contract that makes `--shards`/`MYRI_SIM_SHARDS` a pure wall-clock
//! knob.
//!
//! On a host with more than one core the sharded runs take the threaded
//! window loop; pinned to one core (`taskset -c 0`, as `scripts/ci.sh`
//! does) they take the calling-thread loop. The engine's unit test
//! `lockstep_windows_keep_both_shards_busy` runs both loops on any host.

use gm_sim::probe::ProbeConfig;
use gm_sim::{FlowGraph, SeriesConfig, SeriesSink, SimTime, WatchConfig};
use myrinet::{DropRule, FaultPlan, NodeId};
use nic_mcast::{
    ArrivalProcess, FanoutDist, McastMode, Report, Scenario, StopCondition, TreeShape, Workload,
};
use proptest::prelude::*;

fn run_with_shards(run: &Scenario, shards: u32) -> Report {
    run.clone()
        .shards(shards)
        .probes(ProbeConfig::spans())
        .series(SeriesConfig::on())
        .run()
}

/// The whole gauge series, flattened for equality: every gauge is
/// simulated state, so every point must match at any shard count.
fn gauge_points(series: &SeriesSink) -> Vec<(SimTime, u32, &'static str, u64)> {
    series
        .iter()
        .map(|p| (p.time(), p.node(), p.gauge(), p.value()))
        .collect()
}

/// Every observable of the two runs must match exactly (floats compared
/// by bit pattern — "close" is not good enough).
fn assert_bit_identical(run: &Scenario, shards: u32) {
    let a = run_with_shards(run, 1);
    let b = run_with_shards(run, shards);
    assert_eq!(a.latency.count(), b.latency.count(), "iteration count");
    assert_eq!(
        a.latency.mean().to_bits(),
        b.latency.mean().to_bits(),
        "mean latency: seq {} vs sharded {}",
        a.latency.mean(),
        b.latency.mean()
    );
    assert_eq!(a.latency_p50.to_bits(), b.latency_p50.to_bits(), "p50");
    assert_eq!(a.latency_p99.to_bits(), b.latency_p99.to_bits(), "p99");
    assert_eq!(a.retransmissions, b.retransmissions, "retransmissions");
    assert_eq!(a.end_time, b.end_time, "end time");
    assert_eq!(a.events, b.events, "dispatched event count");
    assert_eq!(
        a.root_link_utilization.to_bits(),
        b.root_link_utilization.to_bits(),
        "root link utilization"
    );
    // `parallel.*` is execution diagnostics, present only on sharded runs.
    assert_eq!(
        a.metrics.without_layer("parallel"),
        b.metrics.without_layer("parallel"),
        "counter snapshot"
    );
    assert_eq!(a.windows, b.windows, "iteration windows");
    let (pa, pb) = (a.probe.to_vec(), b.probe.to_vec());
    assert_eq!(pa.len(), pb.len(), "probe stream length");
    for (i, (x, y)) in pa.iter().zip(pb.iter()).enumerate() {
        assert_eq!(x, y, "probe streams diverge at event {i}");
    }
    assert_eq!(
        gauge_points(&a.series),
        gauge_points(&b.series),
        "gauge time-series"
    );

    // Lineage parity: the causal structure reconstructed from both streams
    // must agree flow-for-flow, and the critical path of every measured
    // window must be identical (same hops, same buckets, same signature).
    let (ga, gb) = (FlowGraph::build(&pa), FlowGraph::build(&pb));
    assert_eq!(ga.validate(), Vec::<String>::new(), "sequential flow graph");
    assert_eq!(gb.validate(), Vec::<String>::new(), "sharded flow graph");
    assert_eq!(
        ga.delivered(),
        gb.delivered(),
        "delivered flow sets diverge"
    );
    for f in ga.delivered() {
        assert_eq!(ga.lineage(f), gb.lineage(f), "lineage of {f}");
    }
    for (i, w) in a.windows.iter().enumerate() {
        let ca = ga.critical_path(&pa, *w);
        let cb = gb.critical_path(&pb, *w);
        assert_eq!(ca, cb, "critical path of window {i}");
    }
}

#[test]
fn crossbar_nic_based_matches_across_shard_counts() {
    let run = Scenario::nic_based(8)
        .size(1024)
        .tree(TreeShape::Binomial)
        .warmup(2)
        .iters(4);
    for shards in [2, 4, 8] {
        assert_bit_identical(&run, shards);
    }
}

#[test]
fn clos_topology_shards_along_leaves() {
    // 32 nodes is a two-stage Clos: partitions must align on leaf switches
    // and the lookahead doubles. Both are exercised here.
    let run = Scenario::nic_based(32)
        .size(512)
        .tree(TreeShape::KAry(4))
        .warmup(1)
        .iters(3);
    assert_bit_identical(&run, 4);
}

#[test]
fn lossy_runs_match_because_fault_draws_are_per_packet() {
    let run = Scenario::nic_based(8)
        .size(512)
        .tree(TreeShape::Binomial)
        .warmup(1)
        .iters(6)
        .faults(FaultPlan::with_loss(0.05));
    assert_bit_identical(&run, 4);
}

#[test]
fn targeted_drop_rules_fall_back_to_sequential() {
    // Rules carry mutable count-down state, so sharding is infeasible; the
    // run must still complete (sequentially) and agree with shards=1.
    let run = Scenario::nic_based(6)
        .size(256)
        .tree(TreeShape::Binomial)
        .warmup(1)
        .iters(2)
        .faults(FaultPlan {
            rules: vec![DropRule {
                dst: Some(NodeId(3)),
                data: Some(true),
                count: 2,
                ..DropRule::default()
            }],
            ..FaultPlan::default()
        });
    assert_bit_identical(&run, 4);
}

#[test]
fn many_group_workload_matches_across_shard_counts() {
    // A sustained 64-group Zipf workload on a 32-node Clos: many concurrent
    // collectives interleave on one fabric, group-table slots churn, and the
    // percentile/goodput/fairness summary must come out byte-identical at
    // every shard count.
    let wl = || {
        Workload::new(32)
            .groups(64)
            .fanout(FanoutDist::Zipf { exponent: 1.2 })
            .overlap(0.5)
            .arrivals(ArrivalProcess::Poisson { rate_hz: 40_000.0 })
            .stop(StopCondition::Duration(gm_sim::SimDuration::from_millis(2)))
            .size(512)
            .series(SeriesConfig::on())
            .watch(WatchConfig::on())
    };
    let seq = wl().shards(1).run();
    assert!(seq.delivered > 0, "workload must deliver traffic");
    for shards in [2, 4] {
        let par = wl().shards(shards).run();
        assert_eq!(
            seq.summary_json(),
            par.summary_json(),
            "summary diverges at {shards} shards"
        );
        assert_eq!(seq.end_time, par.end_time, "end time at {shards} shards");
        assert_eq!(seq.events, par.events, "event count at {shards} shards");
        assert_eq!(
            seq.metrics.without_layer("parallel"),
            par.metrics.without_layer("parallel"),
            "counter snapshot at {shards} shards"
        );
        assert_eq!(
            gauge_points(&seq.series),
            gauge_points(&par.series),
            "gauge series at {shards} shards"
        );
        // The health summary and the whole incident stream must be
        // byte-identical too.
        assert_eq!(
            seq.health_json(),
            par.health_json(),
            "health summary diverges at {shards} shards"
        );
        assert_eq!(
            seq.incidents, par.incidents,
            "incident stream diverges at {shards} shards"
        );
        // Lockstep horizons keep both shards dispatching in nearly every
        // window; leapfrogging ones leave one of the two idle in almost all.
        if shards == 2 {
            let (idle, windows) = (
                par.metrics.get("parallel.idle_windows"),
                par.metrics.get("parallel.windows"),
            );
            assert!(
                idle * 10 < windows,
                "{idle} idle shard-windows in {windows} windows at 2 shards"
            );
        }
    }
}

#[test]
fn injected_loss_raises_a_retx_storm_with_flow_evidence() {
    // A seeded retransmission storm: per-packet loss on a sustained
    // workload forces Go-Back-N rewinds, which the `retx_storm` detector
    // must surface — with the causally-active FlowIds as evidence and the
    // same incidents at any shard count.
    let wl = |shards| {
        Workload::new(16)
            .groups(16)
            .fanout(FanoutDist::Zipf { exponent: 1.2 })
            .overlap(0.5)
            .arrivals(ArrivalProcess::Poisson { rate_hz: 30_000.0 })
            .stop(StopCondition::Duration(gm_sim::SimDuration::from_millis(2)))
            .size(512)
            .seed(11)
            .shards(shards)
            .faults(FaultPlan::with_loss(0.03))
            .probes(ProbeConfig::spans())
            .series(SeriesConfig::on())
            .watch(WatchConfig::on())
            .run()
    };
    let report = wl(1);
    let storms: Vec<_> = report
        .incidents
        .iter()
        .filter(|i| i.detector == "retx_storm")
        .collect();
    assert!(
        !storms.is_empty(),
        "3% loss must raise at least one retx_storm; incidents: {:?}",
        report
            .incidents
            .iter()
            .map(|i| i.detector)
            .collect::<Vec<_>>()
    );
    assert!(
        storms.iter().any(|s| !s.flows.is_empty()),
        "a storm incident must carry causal FlowId evidence"
    );
    assert!(
        storms.iter().any(|s| !s.signature.is_empty()),
        "a storm window with deliveries must carry a critical-path signature"
    );
    // And the whole evidence-bearing stream is shard-invariant.
    let sharded = wl(2);
    assert_eq!(
        report.health_json(),
        sharded.health_json(),
        "evidence-bearing incident stream diverges under sharding"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_equals_sequential(
        n in 3u32..13,
        size in 1usize..4096,
        shards in 2u32..5,
        shape_k in 1u32..4,
        host_based in any::<bool>(),
        loss_on in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mode = if host_based { McastMode::HostBased } else { McastMode::NicBased };
        let mut run = Scenario::new(n, mode)
            .size(size)
            .tree(TreeShape::KAry(shape_k))
            .warmup(1)
            .iters(3)
            .seed(seed);
        if loss_on {
            run = run.faults(FaultPlan::with_loss(0.03));
        }
        assert_bit_identical(&run, shards);
    }
}
