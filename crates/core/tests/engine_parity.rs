//! Differential suite for the event queue at simulator level: a run on the
//! sliding timing wheel must be **bit-for-bit identical** to the same run
//! on the reference binary heap — same probe event stream, same latencies,
//! same counters — at every shard count. Real traffic drives what the
//! queue-level differentials (`queue_equiv.rs` and the unit tests) only
//! approximate: 20 ms retransmission timers in the far heap, Go-Back-N
//! bursts, and keyed wire-class hand-offs. Together with
//! `parallel_parity.rs` (sharded vs sequential), this pins every engine
//! configuration axis to one canonical observable stream.
//!
//! The queue kind is process-global and sampled at queue construction
//! (`gm_sim::set_queue_override`), so the tests in this file serialize on
//! a mutex: two tests flipping the override concurrently would race.

use std::sync::Mutex;

use gm_sim::probe::ProbeConfig;
use gm_sim::{set_queue_override, QueueKind, SeriesConfig, SimTime};
use myrinet::FaultPlan;
use nic_mcast::{
    ArrivalProcess, FanoutDist, McastMode, Report, Scenario, StopCondition, TreeShape, Workload,
};
use proptest::prelude::*;

/// Serializes every test that flips the process-global queue override.
static QUEUE_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with every new event queue forced to `kind`, restoring the
/// wheel default afterwards (the lock guard outlives the reset).
fn with_queue<T>(kind: QueueKind, f: impl FnOnce() -> T) -> T {
    set_queue_override(Some(kind));
    let out = f();
    set_queue_override(None);
    out
}

fn run_observed(run: &Scenario, shards: u32) -> Report {
    run.clone()
        .shards(shards)
        .probes(ProbeConfig::spans())
        .series(SeriesConfig::on())
        .run()
}

/// Everything observable about a run, flattened for equality: the whole
/// gauge series included, everything must match to the bit.
type SeriesPoints = Vec<(SimTime, u32, &'static str, u64)>;

fn observables(o: &Report) -> (Vec<u64>, u64, u64, SeriesPoints) {
    let latency_bits = vec![
        o.latency.mean().to_bits(),
        o.latency_p50.to_bits(),
        o.latency_p99.to_bits(),
        o.root_link_utilization.to_bits(),
    ];
    let series = o
        .series
        .iter()
        .map(|p| (p.time(), p.node(), p.gauge(), p.value()))
        .collect();
    (latency_bits, o.events, o.retransmissions, series)
}

/// `run` on the wheel and on the reference heap must agree exactly at
/// every shard count in `shard_counts`.
fn assert_queue_invariant(run: &Scenario, shard_counts: &[u32]) {
    let guard = QUEUE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for &shards in shard_counts {
        let wheel = with_queue(QueueKind::Wheel, || run_observed(run, shards));
        let heap = with_queue(QueueKind::Heap, || run_observed(run, shards));
        assert_eq!(
            wheel.end_time, heap.end_time,
            "end time diverges at {shards} shards"
        );
        let (pa, pb) = (wheel.probe.to_vec(), heap.probe.to_vec());
        assert_eq!(pa.len(), pb.len(), "probe stream length at {shards} shards");
        for (i, (x, y)) in pa.iter().zip(pb.iter()).enumerate() {
            assert_eq!(x, y, "probe streams diverge at event {i} ({shards} shards)");
        }
        assert_eq!(
            wheel.metrics.without_layer("parallel"),
            heap.metrics.without_layer("parallel"),
            "counter snapshot at {shards} shards"
        );
        assert_eq!(
            observables(&wheel),
            observables(&heap),
            "observables diverge at {shards} shards"
        );
        assert_eq!(
            wheel.windows, heap.windows,
            "iteration windows at {shards} shards"
        );
    }
    drop(guard);
}

#[test]
fn wheel_matches_heap_headline_config() {
    let run = Scenario::nic_based(8)
        .size(1024)
        .tree(TreeShape::Binomial)
        .warmup(2)
        .iters(4);
    assert_queue_invariant(&run, &[1, 2, 4]);
}

#[test]
fn wheel_matches_heap_under_loss() {
    // Retransmission timers sit in the wheel's far heap and migrate into
    // its ring as the window slides; their Go-Back-N bursts put heavy
    // same-instant pressure on the queue.
    let run = Scenario::nic_based(8)
        .size(512)
        .tree(TreeShape::Binomial)
        .warmup(1)
        .iters(6)
        .faults(FaultPlan::with_loss(0.05));
    assert_queue_invariant(&run, &[1, 4]);
}

#[test]
fn wheel_matches_heap_on_workload() {
    // The sustained many-group workload exercises the parked per-node
    // payloads and gauge series under churn; the whole summary document
    // must be byte-identical on either queue.
    let guard = QUEUE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let wl = || {
        Workload::new(16)
            .groups(24)
            .fanout(FanoutDist::Zipf { exponent: 1.2 })
            .overlap(0.5)
            .arrivals(ArrivalProcess::Poisson { rate_hz: 40_000.0 })
            .stop(StopCondition::Duration(gm_sim::SimDuration::from_millis(1)))
            .size(512)
            .series(SeriesConfig::on())
    };
    let wheel = with_queue(QueueKind::Wheel, || wl().run());
    let heap = with_queue(QueueKind::Heap, || wl().run());
    assert!(wheel.delivered > 0, "workload must deliver traffic");
    assert_eq!(
        wheel.summary_json(),
        heap.summary_json(),
        "summary diverges"
    );
    assert_eq!(wheel.end_time, heap.end_time);
    assert_eq!(wheel.events, heap.events);
    drop(guard);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn wheel_equals_heap(
        n in 3u32..11,
        size in 1usize..4096,
        shape_k in 1u32..4,
        host_based in any::<bool>(),
        loss_on in any::<bool>(),
        seed in any::<u64>(),
        shards in 1u32..5,
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
        assert_queue_invariant(&run, &[shards]);
    }
}
