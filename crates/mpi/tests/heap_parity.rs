//! Differential suite for the event queue under MPI traffic: an MPI
//! program on the sliding timing wheel must be **bit-for-bit identical** to
//! the same program on the reference binary heap — same aggregates, same
//! event count, same probe stream. `crates/core/tests/engine_parity.rs`
//! covers Scenario and Workload traffic; this file is where rendezvous
//! transfers, dissemination barriers and skew timers run on the heap.
//!
//! The queue kind is process-global and sampled at queue construction
//! (`gm_sim::set_queue_override`), so every case runs inside one test.

use gm_mpi::{execute_mpi, BcastImpl, MpiOp, MpiRun};
use gm_sim::probe::ProbeConfig;
use gm_sim::{set_queue_override, OnlineStats, ProbeEvent, QueueKind, SimDuration};

fn bits(s: &OnlineStats) -> [u64; 5] {
    [
        s.count(),
        s.mean().to_bits(),
        s.stddev().to_bits(),
        s.min().to_bits(),
        s.max().to_bits(),
    ]
}

/// Everything compared between the two queues.
fn observables(run: &MpiRun, kind: QueueKind) -> ([[u64; 5]; 4], u64, Vec<ProbeEvent>) {
    set_queue_override(Some(kind));
    let out = execute_mpi(&MpiRun {
        probes: ProbeConfig::spans(),
        ..run.clone()
    });
    set_queue_override(None);
    let stats = [
        &out.latency,
        &out.bcast_cpu,
        &out.skew_applied,
        &out.barrier_round,
    ]
    .map(bits);
    (stats, out.events, out.probe.to_vec())
}

#[test]
fn mpi_programs_run_identically_on_the_wheel_and_the_heap() {
    let skew = SimDuration::from_micros(1600);
    let mut cases = Vec::new();
    for bcast in [BcastImpl::NicBased, BcastImpl::HostBinomial] {
        for size in [4usize, 4096, 32768] {
            cases.push((
                format!("{bcast:?} {size} B"),
                MpiRun::bcast_loop(16, size, bcast, skew, 2, 5),
            ));
        }
    }
    let mut barrier = MpiRun::bcast_loop(16, 1, BcastImpl::HostBinomial, SimDuration::ZERO, 0, 1);
    barrier.ops = vec![MpiOp::Barrier];
    barrier.repeat = 8;
    barrier.warmup = 2;
    cases.push(("barrier only".to_string(), barrier));

    for (name, run) in &cases {
        let wheel = observables(run, QueueKind::Wheel);
        let heap = observables(run, QueueKind::Heap);
        assert!(
            wheel.1 > 0 && !wheel.2.is_empty(),
            "{name}: the run recorded nothing"
        );
        assert_eq!(
            wheel.0, heap.0,
            "{name}: latency/cpu/skew/barrier aggregates differ"
        );
        assert_eq!(wheel.1, heap.1, "{name}: event counts differ");
        assert!(wheel.2 == heap.2, "{name}: probe streams differ");
    }
}
