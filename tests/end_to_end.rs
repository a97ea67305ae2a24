//! Workspace-level integration tests: every layer of the stack exercised
//! together, from the event engine up through the MPI library.

use myri_mcast::mcast::{AckMode, McastMode, TreeShape};
use myri_mcast::mpi::{execute_mpi, BcastImpl, MpiOp, MpiRun};
use myri_mcast::net::FaultPlan;
use myri_mcast::sim::SimDuration;
use myri_mcast::Scenario;

fn scenario(mode: McastMode, n: u32) -> Scenario {
    match mode {
        McastMode::NicBased => Scenario::nic_based(n),
        McastMode::HostBased => Scenario::host_based(n),
    }
}

#[test]
fn nic_beats_host_across_the_size_spectrum_16_nodes() {
    for size in [8usize, 256, 1024, 8192, 16384] {
        let m = |mode: McastMode, shape: TreeShape| {
            scenario(mode, 16)
                .size(size)
                .tree(shape)
                .warmup(3)
                .iters(20)
                .run()
                .latency
                .mean()
        };
        let hb = m(McastMode::HostBased, TreeShape::Binomial);
        let nb = m(McastMode::NicBased, TreeShape::auto());
        assert!(
            nb < hb,
            "size {size}: NIC-based ({nb:.1}us) must beat host-based ({hb:.1}us)"
        );
    }
}

#[test]
fn multisend_improvement_shape_matches_fig3() {
    // Improvement factor decays with size and levels off around 1.
    let m = |size: usize, mode: McastMode| {
        scenario(mode, 5)
            .size(size)
            .tree(TreeShape::Flat)
            .ack(AckMode::NicAck)
            .warmup(3)
            .iters(20)
            .run()
            .latency
            .mean()
    };
    let small = m(8, McastMode::HostBased) / m(8, McastMode::NicBased);
    let mid = m(512, McastMode::HostBased) / m(512, McastMode::NicBased);
    let large = m(16384, McastMode::HostBased) / m(16384, McastMode::NicBased);
    assert!(small > 1.5, "small-message multisend factor was {small:.2}");
    assert!(mid < small, "factor must decay with size");
    assert!(
        (0.9..=1.1).contains(&large),
        "large messages level off near 1, got {large:.2}"
    );
}

#[test]
fn gm_level_dip_exists_at_2_to_4_kb() {
    let factor = |size: usize| {
        let m = |mode: McastMode, s: TreeShape| {
            scenario(mode, 16)
                .size(size)
                .tree(s)
                .warmup(3)
                .iters(15)
                .run()
                .latency
                .mean()
        };
        m(McastMode::HostBased, TreeShape::Binomial) / m(McastMode::NicBased, TreeShape::auto())
    };
    let small = factor(64);
    let dip = factor(4096).min(factor(2048));
    let large = factor(16384);
    assert!(
        dip < small && dip < large,
        "2-4KB dip missing: small {small:.2}, dip {dip:.2}, large {large:.2}"
    );
}

#[test]
fn max_over_probes_dominates_single_probe() {
    let built = Scenario::nic_based(8)
        .size(4096)
        .tree(TreeShape::Binomial)
        .warmup(2)
        .iters(10)
        .build()
        .expect("valid scenario");
    let max = built.run_max_over_probes().latency.mean();
    let single = built.run().latency.mean();
    assert!(max >= single * 0.999, "max {max:.2} vs single {single:.2}");
}

#[test]
fn multicast_survives_combined_loss_and_corruption() {
    let out = Scenario::nic_based(12)
        .size(6000)
        .tree(TreeShape::Binomial)
        .warmup(2)
        .iters(25)
        .faults(FaultPlan {
            drop_prob: 0.02,
            corrupt_prob: 0.01,
            rules: vec![],
        })
        .run();
    assert_eq!(out.latency.count(), 25, "all iterations delivered");
    assert!(out.retransmissions > 0);
}

#[test]
fn mpi_bcast_agrees_between_algorithms_and_scales() {
    for n in [4u32, 8, 16] {
        let m = |b: BcastImpl| {
            let run = MpiRun::bcast_loop(n, 1024, b, SimDuration::ZERO, 3, 15);
            execute_mpi(&run).latency.mean()
        };
        let hb = m(BcastImpl::HostBinomial);
        let nb = m(BcastImpl::NicBased);
        assert!(
            nb < hb,
            "n={n}: MPI NIC-based must win ({nb:.1} vs {hb:.1})"
        );
    }
}

#[test]
fn mpi_skew_tolerance_grows_with_skew() {
    let cpu = |b: BcastImpl, avg_us: u64| {
        let run = MpiRun::bcast_loop(16, 4, b, SimDuration::from_micros(avg_us * 4), 3, 40);
        execute_mpi(&run).bcast_cpu.mean()
    };
    let f100 = cpu(BcastImpl::HostBinomial, 100) / cpu(BcastImpl::NicBased, 100);
    let f400 = cpu(BcastImpl::HostBinomial, 400) / cpu(BcastImpl::NicBased, 400);
    assert!(f100 > 1.5, "skew factor at 100us was {f100:.2}");
    assert!(
        f400 > f100,
        "factor must grow with skew: {f400:.2} vs {f100:.2}"
    );
}

#[test]
fn mpi_rendezvous_broadcast_falls_back_to_host_based() {
    // Above the eager limit both algorithms take the host-based rendezvous
    // path, so their latencies must be identical.
    let m = |b: BcastImpl| {
        let run = MpiRun::bcast_loop(8, 40_000, b, SimDuration::ZERO, 2, 8);
        execute_mpi(&run).latency.mean()
    };
    let hb = m(BcastImpl::HostBinomial);
    let nb = m(BcastImpl::NicBased);
    assert!(
        (hb - nb).abs() / hb < 1e-9,
        "rendezvous sizes must be identical: {hb:.2} vs {nb:.2}"
    );
}

#[test]
fn mpi_point_to_point_ring_eager_and_rendezvous() {
    // A 4-rank ring of sends/recvs in both protocol regimes; even ranks
    // send first, odd ranks receive first (classic deadlock-free ring).
    for size in [512usize, 64_000] {
        let n = 4u32;
        let mut rank_ops = Vec::new();
        for me in 0..n {
            let to = (me + 1) % n;
            let from = (me + n - 1) % n;
            let mut ops = vec![MpiOp::Barrier];
            if me % 2 == 0 {
                ops.push(MpiOp::Send { to, size, tag: 7 });
                ops.push(MpiOp::Recv { from, tag: 7 });
            } else {
                ops.push(MpiOp::Recv { from, tag: 7 });
                ops.push(MpiOp::Send { to, size, tag: 7 });
            }
            rank_ops.push(ops);
        }
        let mut run = MpiRun::bcast_loop(n, size, BcastImpl::HostBinomial, SimDuration::ZERO, 0, 3);
        run.ops = vec![MpiOp::Barrier];
        run.rank_ops = Some(rank_ops);
        // Completing at all (engine goes idle, no deadlock, all barriers
        // passed) is the assertion; execute_mpi panics otherwise.
        let out = execute_mpi(&run);
        assert!(out.end_time > myri_mcast::sim::SimTime::ZERO);
    }
}

#[test]
fn multicast_to_an_arbitrary_subset_of_nodes() {
    // The paper: the NIC-based scheme with an optimal tree supports
    // "multicast to an arbitrary set of nodes in a system". Build a sparse
    // group on a 16-node cluster and check only members hear anything.
    use myri_mcast::net::NodeId;
    let out = Scenario::nic_based(16)
        .size(700)
        .tree(TreeShape::Binomial)
        .dests(vec![NodeId(2), NodeId(5), NodeId(9), NodeId(13)])
        .probe_node(NodeId(13))
        .warmup(2)
        .iters(10)
        .run();
    assert_eq!(out.latency.count(), 10);
    // Sparse group of 5 total members: binomial height 3.
    assert!(out.height <= 3);
    // Compare against the full-cluster group: fewer members, lower latency.
    let full = Scenario::nic_based(16)
        .size(700)
        .tree(TreeShape::Binomial)
        .warmup(2)
        .iters(10)
        .run();
    assert!(out.latency.mean() < full.latency.mean());
}

#[test]
fn non_members_never_see_group_traffic() {
    use myri_mcast::net::NodeId;
    let built = Scenario::nic_based(8)
        .size(256)
        .tree(TreeShape::Flat)
        .dests(vec![NodeId(3), NodeId(6)])
        .probe_node(NodeId(6))
        .warmup(1)
        .iters(5)
        .build()
        .expect("valid scenario");
    let run = built.spec();
    let d = myri_mcast::gm::drive(myri_mcast::mcast::build_cluster(run), 1);
    assert_eq!(
        d.app::<myri_mcast::mcast::RootApp>(run.root)
            .windows()
            .len(),
        5
    );
    // Nodes outside the group processed zero multicast receptions.
    for i in [1u32, 2, 4, 5, 7] {
        let c = &d.worlds[0].nic(NodeId(i)).counters;
        assert_eq!(c.get("mcast_rx"), 0, "non-member {i} saw group traffic");
        assert_eq!(c.get("mcast_delivered"), 0);
    }
}
