//! Critical-path extraction over MPI programs: the fig6-style skew
//! experiment, rebuilt causally. Under host-based binomial broadcast a
//! compute delay at an *interior* rank stalls its whole subtree — the
//! critical path must reroute through the skewed rank. (Under the paper's
//! NIC-based scheme the NIC forwards without the host, which is exactly
//! why fig 6 shows flat CPU cost; the contrast is pinned here at the
//! causal-structure level.)

use gm_mpi::{execute_mpi, BcastImpl, MpiOp, MpiRun};
use gm_sim::probe::ProbeConfig;
use gm_sim::{FlowGraph, SimDuration, SimTime};

/// One host-binomial broadcast over 8 ranks (root 0), with an optional
/// compute delay injected at one rank before its `MPI_Bcast` call.
/// Returns the critical-path signature of the full run.
fn bcast_signature(skewed_rank: Option<u32>) -> String {
    let mut run = MpiRun::bcast_loop(8, 1024, BcastImpl::HostBinomial, SimDuration::ZERO, 0, 1);
    run.ops = vec![MpiOp::Bcast {
        root: 0,
        size: 1024,
    }];
    if let Some(r) = skewed_rank {
        let mut per_rank: Vec<Vec<MpiOp>> = (0..8).map(|_| run.ops.clone()).collect();
        per_rank[r as usize] = vec![
            MpiOp::Compute(SimDuration::from_micros(1000)),
            MpiOp::Bcast {
                root: 0,
                size: 1024,
            },
        ];
        run.rank_ops = Some(per_rank);
    }
    run.probes = ProbeConfig::spans();
    let out = execute_mpi(&run);
    let events = out.probe.to_vec();
    let graph = FlowGraph::build(&events);
    assert_eq!(graph.validate(), Vec::<String>::new());
    let cp = graph
        .critical_path(&events, (SimTime::ZERO, out.end_time))
        .expect("run delivers the broadcast");
    assert_eq!(cp.bucket_sum(), cp.total, "buckets must sum to the window");
    cp.signature()
}

#[test]
fn interior_skew_reroutes_the_critical_path() {
    let baseline = bcast_signature(None);
    // Rank 2 is interior in the binomial tree rooted at 0 (its child is
    // rank 6). A 1 ms stall there dwarfs the ~tens-of-µs broadcast, so the
    // completion-determining delivery moves into rank 2's subtree.
    let skewed = bcast_signature(Some(2));
    assert_ne!(
        baseline, skewed,
        "a 1 ms interior stall must change the critical path"
    );
    assert!(
        skewed.contains(">n2>") && skewed.ends_with(">n6"),
        "skewed path should route through rank 2 to its child 6, got {skewed}"
    );
}
