//! Regression test for bit-for-bit run determinism.
//!
//! The simulator's whole measurement methodology assumes identical inputs
//! produce identical event histories. PR 2 moved all protocol state off
//! default-hasher maps (randomized iteration order) onto `BTreeMap`; this
//! test pins that property by executing the same workload twice and
//! comparing the full protocol traces event-for-event.

use gm_sim::probe::{ProbeConfig, ProbeEvent};
use nic_mcast::{build_cluster, Scenario, TreeShape};

/// Run `run` to completion with probes on and return the event history.
fn traced_events(run: &Scenario) -> Vec<ProbeEvent> {
    let built = run
        .clone()
        .probes(ProbeConfig::spans())
        .build()
        .expect("valid scenario");
    // `drive` fails a run that does not converge.
    gm::drive(build_cluster(built.spec()), 1).worlds[0]
        .probe
        .to_vec()
}

fn assert_deterministic(run: &Scenario) {
    let a = traced_events(run);
    let b = traced_events(run);
    assert!(!a.is_empty(), "trace should record protocol activity");
    assert_eq!(
        a.len(),
        b.len(),
        "identical runs produced different trace lengths"
    );
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x, y, "traces diverge at event {i}");
    }
}

#[test]
fn nic_based_runs_are_bit_for_bit_identical() {
    let run = Scenario::nic_based(8)
        .size(1024)
        .tree(TreeShape::KAry(2))
        .warmup(2)
        .iters(3);
    assert_deterministic(&run);
}

#[test]
fn host_based_runs_are_bit_for_bit_identical() {
    let run = Scenario::host_based(6)
        .size(256)
        .tree(TreeShape::Binomial)
        .warmup(1)
        .iters(2);
    assert_deterministic(&run);
}

#[test]
fn runs_with_faults_are_bit_for_bit_identical() {
    // Fault draws come from the seeded RNG, so even lossy runs must replay
    // exactly (Go-Back-N retransmissions included).
    let run = Scenario::nic_based(8)
        .size(2048)
        .tree(TreeShape::KAry(2))
        .warmup(1)
        .iters(3)
        .loss(0.05);
    assert_deterministic(&run);
}

#[test]
fn sharded_caller_mode_is_deterministic_and_matches_sequential() {
    // On a single-core host (or pinned to one core) the sharded run takes
    // the calling-thread window loop, and with more cores the threaded one.
    // Either way the canonical Report observables must agree with the
    // one-shard run.
    let run = Scenario::nic_based(8)
        .size(1024)
        .tree(TreeShape::Binomial)
        .warmup(1)
        .iters(3)
        .loss(0.02)
        .probes(ProbeConfig::spans());
    let seq = run.clone().shards(1).run();
    let sharded = run.shards(4).build().expect("valid scenario");
    let par1 = sharded.run();
    let par2 = sharded.run();
    for par in [&par1, &par2] {
        assert_eq!(seq.events, par.events);
        assert_eq!(seq.end_time, par.end_time);
        assert_eq!(seq.latency.mean().to_bits(), par.latency.mean().to_bits());
        // `parallel.*` is execution diagnostics (only present on sharded
        // runs); everything else must match the sequential run exactly.
        assert_eq!(seq.metrics, par.metrics.without_layer("parallel"));
        assert_eq!(seq.probe.to_vec(), par.probe.to_vec());
    }
}
