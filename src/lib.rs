//! `myri-mcast` — high-performance, reliable NIC-based multicast over a
//! simulated Myrinet/GM-2 cluster.
//!
//! This is the facade crate of the workspace reproducing Yu, Buntinas &
//! Panda, *"High Performance and Reliable NIC-Based Multicast over
//! Myrinet/GM-2"* (ICPP 2003). It re-exports the layered stack:
//!
//! | layer | crate | what it models |
//! |---|---|---|
//! | [`sim`] | `gm-sim` | deterministic discrete-event engine |
//! | [`net`] | `myrinet` | wormhole Clos fabric, routing, faults |
//! | [`gm`] | `gm` | LANai NIC + host + GM protocol (Go-Back-N) |
//! | [`mcast`] | `nic-mcast` | **the paper**: multisend, NIC forwarding, group ordering, trees |
//! | [`mpi`] | `gm-mpi` | MPICH-GM analogue: p2p, barrier, `MPI_Bcast`, skew programs |
//!
//! # Quickstart
//!
//! ```
//! use myri_mcast::{ProbeConfig, Scenario, TreeShape};
//!
//! // One multicast of 1 KB from node 0 to 7 destinations, measured over
//! // 10 iterations, with the paper's NIC-based scheme and span probes on.
//! let report = Scenario::nic_based(8)
//!     .size(1024)
//!     .tree(TreeShape::auto())
//!     .warmup(2)
//!     .iters(10)
//!     .probes(ProbeConfig::spans())
//!     .run();
//! println!("multicast latency: {:.2} us", report.latency.mean());
//! assert!(report.latency.mean() > 0.0);
//! assert!(!report.probe.is_empty());
//! ```
//!
//! [`Scenario::build`] validates the configuration and resolves
//! [`TreeShape::auto`] to the size-adapted tree the paper's host library
//! would pick; [`BuiltScenario::run`] is the one way to run the closed-loop
//! collective. Its [`Report`] holds the latency statistics and tree shape
//! as plain fields, beside the counter snapshot ([`Report::metrics`]), the
//! recorded probe events, and — when probes are enabled — a latency
//! [`attribution`] (host/NIC/PCI/serialization/contention/retransmission
//! buckets).
//! Export timelines with [`sim::probe::perfetto::chrome_trace_json`] and
//! open them in Perfetto.
//!
//! For sustained, open-loop traffic over many concurrent groups — Zipf
//! fan-outs, Poisson arrivals, group-table churn, latency percentiles and
//! fairness — use [`Workload`] (see `examples/many_groups.rs` and the
//! `workload_explore` bench binary).
//!
//! See `examples/` for runnable scenarios (start with
//! `examples/quickstart.rs`) and `crates/bench/src/bin/` for the binaries
//! that regenerate every figure of the paper (`trace_explore` dumps a full
//! Perfetto timeline plus the attribution table for one configuration).
//!
//! [`attribution`]: sim::probe::attribution

/// The discrete-event simulation engine.
pub use gm_sim as sim;

/// The Myrinet-2000-like fabric model.
pub use myrinet as net;

/// The GM-2-like protocol and node model.
pub use gm;

/// The paper's NIC-based multicast (core contribution).
pub use nic_mcast as mcast;

/// The MPICH-GM-analogue MPI layer.
pub use gm_mpi as mpi;

// The curated surface: everything a typical experiment needs, importable
// from the crate root.
pub use gm::GmParams;
pub use gm_sim::probe::ProbeConfig;
pub use nic_mcast::{
    ArrivalProcess, BuiltScenario, FanoutDist, McastMode, Report, Scenario, ScenarioError,
    StopCondition, Sweep, TreeShape, Workload, WorkloadError, WorkloadReport,
};
