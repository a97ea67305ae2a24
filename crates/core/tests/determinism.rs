//! Regression test for bit-for-bit run determinism.
//!
//! The simulator's whole measurement methodology assumes identical inputs
//! produce identical event histories. PR 2 moved all protocol state off
//! default-hasher maps (randomized iteration order) onto `BTreeMap`; this
//! test pins that property by executing the same workload twice and
//! comparing the full protocol traces event-for-event.

use gm_sim::probe::{ProbeConfig, ProbeEvent};
use nic_mcast::{build_cluster, McastMode, McastRun, TreeShape};

/// Run `run` to completion with probes on and return the event history.
fn traced_events(run: &McastRun) -> Vec<ProbeEvent> {
    let mut cluster = build_cluster(run);
    cluster.set_probes(ProbeConfig::spans());
    // `drive` fails a run that does not converge.
    gm::drive(cluster, 1).worlds[0].probe.to_vec()
}

fn assert_deterministic(run: &McastRun) {
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
    let mut run = McastRun::new(8, 1024, McastMode::NicBased, TreeShape::KAry(2));
    run.warmup = 2;
    run.iters = 3;
    assert_deterministic(&run);
}

#[test]
fn host_based_runs_are_bit_for_bit_identical() {
    let mut run = McastRun::new(6, 256, McastMode::HostBased, TreeShape::Binomial);
    run.warmup = 1;
    run.iters = 2;
    assert_deterministic(&run);
}

#[test]
fn runs_with_faults_are_bit_for_bit_identical() {
    // Fault draws come from the seeded RNG, so even lossy runs must replay
    // exactly (Go-Back-N retransmissions included).
    let mut run = McastRun::new(8, 2048, McastMode::NicBased, TreeShape::KAry(2));
    run.warmup = 1;
    run.iters = 3;
    run.faults.drop_prob = 0.05;
    assert_deterministic(&run);
}

#[test]
fn sharded_caller_mode_is_deterministic_and_matches_sequential() {
    // On a single-core host (or pinned to one core) the sharded run takes
    // the calling-thread window loop, and with more cores the threaded one.
    // Either way the canonical Report observables must agree with the
    // one-shard run.
    use gm_sim::{SeriesConfig, WatchConfig};
    use nic_mcast::execute;
    let observe = |run: &McastRun| {
        execute(run, ProbeConfig::spans(), SeriesConfig::off(), WatchConfig::off())
    };

    let mut run = McastRun::new(8, 1024, McastMode::NicBased, TreeShape::Binomial);
    run.warmup = 1;
    run.iters = 3;
    run.faults.drop_prob = 0.02;
    run.shards = 1;
    let seq = observe(&run);
    run.shards = 4;
    let par1 = observe(&run);
    let par2 = observe(&run);
    for par in [&par1, &par2] {
        assert_eq!(seq.output.events, par.output.events);
        assert_eq!(seq.output.end_time, par.output.end_time);
        assert_eq!(
            seq.output.latency.mean().to_bits(),
            par.output.latency.mean().to_bits()
        );
        // `parallel.*` is execution diagnostics (only present on sharded
        // runs); everything else must match the sequential run exactly.
        assert_eq!(seq.metrics, par.metrics.without_layer("parallel"));
        assert_eq!(seq.probe.to_vec(), par.probe.to_vec());
    }
}
