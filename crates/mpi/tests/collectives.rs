//! Integration tests of the MPI layer: barrier semantics, broadcast
//! correctness in both algorithms, rendezvous, group-creation costs, and
//! skew accounting.

use gm_mpi::{execute_mpi, BcastImpl, MpiOp, MpiRun};
use gm_sim::probe::ProbeConfig;
use gm_sim::SimDuration;
use myrinet::FaultPlan;

#[test]
fn bcast_completes_for_every_size_and_impl() {
    for &size in &[0usize, 1, 100, 4096, 16_287, 16_288, 50_000] {
        for &b in &[BcastImpl::HostBinomial, BcastImpl::NicBased] {
            let run = MpiRun::bcast_loop(8, size, b, SimDuration::ZERO, 1, 5);
            let out = execute_mpi(&run);
            assert_eq!(out.latency.count(), 5, "size {size} {b:?}");
            assert!(out.latency.mean() > 0.0);
        }
    }
}

#[test]
fn odd_rank_counts_work() {
    for n in [2u32, 3, 5, 7, 11, 13] {
        for &b in &[BcastImpl::HostBinomial, BcastImpl::NicBased] {
            let run = MpiRun::bcast_loop(n, 777, b, SimDuration::ZERO, 1, 4);
            let out = execute_mpi(&run);
            assert_eq!(out.latency.count(), 4, "n={n} {b:?}");
        }
    }
}

#[test]
fn non_zero_root_broadcast() {
    for &b in &[BcastImpl::HostBinomial, BcastImpl::NicBased] {
        let mut run = MpiRun::bcast_loop(8, 512, b, SimDuration::ZERO, 1, 5);
        run.ops = vec![MpiOp::Barrier, MpiOp::Bcast { root: 5, size: 512 }];
        let out = execute_mpi(&run);
        assert_eq!(out.latency.count(), 5, "{b:?}");
    }
}

#[test]
fn first_nic_bcast_pays_group_creation() {
    // With zero warmup the first iteration includes the demand-driven
    // group setup; with warmup it does not. The first-iteration latency
    // must therefore be visibly larger.
    let mut cold = MpiRun::bcast_loop(8, 64, BcastImpl::NicBased, SimDuration::ZERO, 0, 1);
    cold.repeat = 1;
    let cold_lat = execute_mpi(&cold).latency.mean();
    let warm = MpiRun::bcast_loop(8, 64, BcastImpl::NicBased, SimDuration::ZERO, 1, 1);
    let warm_lat = execute_mpi(&warm).latency.mean();
    assert!(
        cold_lat > warm_lat * 1.5,
        "group creation cost invisible: cold {cold_lat:.2}us vs warm {warm_lat:.2}us"
    );
}

#[test]
fn barrier_synchronizes_under_skew() {
    // With a barrier between iterations, per-iteration latency stays
    // bounded even when ranks skew by up to 1 ms.
    let run = MpiRun::bcast_loop(
        8,
        8,
        BcastImpl::NicBased,
        SimDuration::from_micros(1000),
        2,
        20,
    );
    let out = execute_mpi(&run);
    assert_eq!(out.latency.count(), 20);
    // The last rank to exit is one that skewed (max ~ half the 1ms window),
    // but never more: the barrier stopped skew from accumulating across
    // iterations.
    assert!(
        out.latency.max() < 600.0,
        "skew accumulated across iterations: {:.1}us",
        out.latency.max()
    );
    // NIC-based receivers spend almost no CPU in the call even while the
    // cluster is heavily skewed.
    assert!(
        out.bcast_cpu_nonroot.mean() < 50.0,
        "NB bcast CPU too high under skew: {:.1}us",
        out.bcast_cpu_nonroot.mean()
    );
    assert!(out.skew_applied.count() > 0);
}

#[test]
fn bcast_survives_loss_at_mpi_level() {
    for &b in &[BcastImpl::HostBinomial, BcastImpl::NicBased] {
        let mut run = MpiRun::bcast_loop(8, 3000, b, SimDuration::ZERO, 1, 15);
        run.faults = FaultPlan::with_loss(0.02);
        let out = execute_mpi(&run);
        assert_eq!(out.latency.count(), 15, "{b:?}");
    }
}

#[test]
fn compute_op_blocks_progress() {
    let mut run = MpiRun::bcast_loop(4, 16, BcastImpl::NicBased, SimDuration::ZERO, 0, 3);
    run.ops = vec![
        MpiOp::Barrier,
        MpiOp::Compute(SimDuration::from_micros(500)),
        MpiOp::Bcast { root: 0, size: 16 },
    ];
    run.repeat = 3;
    let out = execute_mpi(&run);
    // 3 iterations x (barrier + 500us compute + bcast) > 1.5 ms.
    assert!(out.end_time.as_micros_f64() > 1_500.0);
}

#[test]
fn per_rank_programs_pingpong() {
    let size = 2048usize;
    let rank0 = vec![
        MpiOp::Send {
            to: 1,
            size,
            tag: 1,
        },
        MpiOp::Recv { from: 1, tag: 2 },
    ];
    let rank1 = vec![
        MpiOp::Recv { from: 0, tag: 1 },
        MpiOp::Send {
            to: 0,
            size,
            tag: 2,
        },
    ];
    let mut run = MpiRun::bcast_loop(2, size, BcastImpl::HostBinomial, SimDuration::ZERO, 0, 10);
    run.ops = vec![MpiOp::Barrier];
    run.rank_ops = Some(vec![rank0, rank1]);
    run.repeat = 10;
    let out = execute_mpi(&run);
    // Ten round trips of a 2 KB eager message: tens of microseconds each
    // (the upper bound allows for the trailing retransmission timer, which
    // fires once, finds everything acked, and disarms).
    let us = out.end_time.as_micros_f64();
    assert!((200.0..60_000.0).contains(&us), "end at {us:.1}us");
}

#[test]
fn rendezvous_pingpong_roundtrips() {
    let size = 100_000usize;
    let rank0 = vec![
        MpiOp::Send {
            to: 1,
            size,
            tag: 9,
        },
        MpiOp::Recv { from: 1, tag: 10 },
    ];
    let rank1 = vec![
        MpiOp::Recv { from: 0, tag: 9 },
        MpiOp::Send {
            to: 0,
            size,
            tag: 10,
        },
    ];
    let mut run = MpiRun::bcast_loop(2, size, BcastImpl::HostBinomial, SimDuration::ZERO, 0, 3);
    run.ops = vec![MpiOp::Barrier];
    run.rank_ops = Some(vec![rank0, rank1]);
    run.repeat = 3;
    let out = execute_mpi(&run);
    // 100 KB each way at 250 MB/s wire: ~400us one way, ~2.4ms for 3 RTTs.
    assert!(out.end_time.as_micros_f64() > 2_000.0);
}

#[test]
fn deterministic_given_seed() {
    let run = MpiRun::bcast_loop(
        8,
        1024,
        BcastImpl::NicBased,
        SimDuration::from_micros(400),
        2,
        10,
    );
    let a = execute_mpi(&run);
    let b = execute_mpi(&run);
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.events, b.events);
    assert_eq!(a.bcast_cpu.mean(), b.bcast_cpu.mean());
}

#[test]
fn multiple_roots_create_one_group_each_on_demand() {
    // Three different roots broadcast in the same program: the NIC-based
    // path must lazily create one group context per root ("the vast number
    // of possible combinations of communicators and root nodes" is exactly
    // why creation is demand-driven).
    let n = 8u32;
    let mut run = MpiRun::bcast_loop(n, 256, BcastImpl::NicBased, SimDuration::ZERO, 1, 4);
    run.ops = vec![
        MpiOp::Barrier,
        MpiOp::Bcast { root: 0, size: 256 },
        MpiOp::Bcast { root: 3, size: 256 },
        MpiOp::Bcast { root: 6, size: 256 },
    ];
    let out = execute_mpi(&run);
    // 3 bcasts per repetition, 4 post-warmup repetitions counted.
    assert_eq!(out.latency.count(), 3 * 4);
    assert!(out.latency.mean() > 0.0);
}

#[test]
fn sub_communicator_collectives_leave_outsiders_untouched() {
    // A sparse communicator {1,3,5,7} on an 8-node cluster: barriers and
    // broadcasts run among the members; outsiders see zero traffic — not
    // one probe event lands on them, so summing every node's NIC counters
    // equals summing the communicator's.
    let mut run = MpiRun::bcast_loop(8, 512, BcastImpl::NicBased, SimDuration::ZERO, 1, 6);
    run.comm = Some(vec![1, 3, 5, 7]);
    run.ops = vec![MpiOp::Barrier, MpiOp::Bcast { root: 3, size: 512 }];
    run.probes = ProbeConfig::spans();
    let out = execute_mpi(&run);
    assert!(!out.probe.is_empty());
    let outsider = out.probe.iter().find(|e| [0, 2, 4, 6].contains(&e.node()));
    assert!(outsider.is_none(), "outsider saw traffic: {outsider:?}");
    assert_eq!(out.latency.count(), 6);
    assert!(out.latency.mean() > 0.0);
    // A smaller communicator broadcasts faster than the full world.
    let world = MpiRun::bcast_loop(8, 512, BcastImpl::NicBased, SimDuration::ZERO, 1, 6);
    let world_out = execute_mpi(&world);
    assert!(out.latency.mean() < world_out.latency.mean());
}

#[test]
fn same_root_in_two_communicators_gets_distinct_groups() {
    // Run the same root with two different communicators; both must work
    // (the group id is keyed on the (communicator, root) pair).
    for comm in [vec![0u32, 1, 2, 3], vec![0, 4, 5, 6, 7]] {
        let mut run = MpiRun::bcast_loop(8, 256, BcastImpl::NicBased, SimDuration::ZERO, 1, 4);
        run.comm = Some(comm.clone());
        let out = execute_mpi(&run);
        assert_eq!(out.latency.count(), 4, "comm {comm:?}");
    }
}

#[test]
fn host_based_collectives_respect_the_communicator_too() {
    let mut run = MpiRun::bcast_loop(12, 2048, BcastImpl::HostBinomial, SimDuration::ZERO, 1, 5);
    run.comm = Some(vec![0, 2, 4, 6, 8, 10]);
    let out = execute_mpi(&run);
    assert_eq!(out.latency.count(), 5);
}
