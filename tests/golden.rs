//! Golden regression tests: exact, seed-pinned numbers from the protocol
//! stack. These exist to catch *accidental* behaviour changes — any
//! deliberate protocol or calibration change is expected to update them
//! (and should be cross-checked against EXPERIMENTS.md when it does).

use myri_mcast::gm::GmParams;
use myri_mcast::mcast::{McastMode, TreeShape};
use myri_mcast::mpi::{execute_mpi, BcastImpl, MpiRun};
use myri_mcast::sim::SimDuration;
use myri_mcast::Scenario;

fn mcast(n: u32, size: usize, mode: McastMode, shape: TreeShape) -> f64 {
    let s = match mode {
        McastMode::NicBased => Scenario::nic_based(n),
        McastMode::HostBased => Scenario::host_based(n),
    };
    s.size(size)
        .tree(shape)
        .warmup(5)
        .iters(20)
        .run()
        .latency
        .mean()
}

#[test]
fn golden_gm_level_multicast_latencies() {
    // NIC-based, binomial tree, default seed and calibration.
    let cases = [
        (8u32, 64usize, McastMode::NicBased, 18.748),
        (16, 64, McastMode::NicBased, 20.600),
        (16, 4096, McastMode::NicBased, 103.032),
        (8, 64, McastMode::HostBased, 30.820),
        (16, 64, McastMode::HostBased, 38.658),
        (16, 4096, McastMode::HostBased, 174.850),
    ];
    for (n, size, mode, expect) in cases {
        let got = mcast(n, size, mode, TreeShape::Binomial);
        assert!(
            (got - expect).abs() < 0.01,
            "{mode:?} n={n} size={size}: got {got:.3}, golden {expect:.3}"
        );
    }
}

#[test]
fn golden_runs_are_bit_stable() {
    // The full output (not just the mean) is identical across process runs.
    let run = || {
        let out = Scenario::nic_based(12)
            .size(2048)
            .tree(TreeShape::KAry(2))
            .warmup(3)
            .iters(15)
            .run();
        (
            out.latency.mean().to_bits(),
            out.latency_p99.to_bits(),
            out.events,
            out.end_time,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn golden_mpi_bcast_latency() {
    let run = MpiRun::bcast_loop(8, 1024, BcastImpl::NicBased, SimDuration::ZERO, 3, 15);
    let got = execute_mpi(&run).latency.mean();
    let expect = 34.666;
    assert!(
        (got - expect).abs() < 0.01,
        "MPI NB 8x1024: got {got:.3}, golden {expect:.3}"
    );
}

#[test]
fn golden_calibration_constants_unchanged() {
    // The headline claims in EXPERIMENTS.md assume these defaults.
    let p = GmParams::default();
    assert_eq!(p.pci_bandwidth, 450_000_000);
    assert_eq!(p.send_token_proc.as_nanos(), 3_200);
    assert_eq!(p.callback_proc.as_nanos(), 450);
    assert_eq!(p.timeout.as_nanos(), 20_000_000);
    assert_eq!(myri_mcast::net::MTU, 4096);
    assert_eq!(myri_mcast::gm::EAGER_LIMIT, 16_287);
}
