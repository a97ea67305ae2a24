//! `nic-mcast` — high performance and reliable NIC-based multicast.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Yu, Buntinas & Panda, ICPP 2003): a multicast scheme for Myrinet/GM-2
//! in which
//!
//! * a **NIC-based multisend** transfers a message from host to NIC once and
//!   sends replicas to a list of destinations from transmit-complete
//!   descriptor callbacks,
//! * **NIC-based forwarding** lets intermediate NICs relay packets down the
//!   spanning tree without host involvement (and before the full message
//!   arrives),
//! * a **one-to-many Go-Back-N** protocol with per-child acknowledged-
//!   sequence arrays gives reliable, ordered delivery, retransmitting only
//!   to unacknowledged children from the registered host-memory replica,
//! * the spanning tree is built at the host (binomial for the baseline,
//!   Bar-Noy/Kipnis postal-optimal for the NIC-based scheme) over the
//!   ID-sorted destination list, making receive-token deadlock impossible,
//! * protection and scalability follow from GM itself: no centralized
//!   credit manager, per-group state only.
//!
//! A closed-loop measurement (the paper's §6.1 methodology) has one path:
//! a [`Scenario`] is validated by [`Scenario::build`] and run by
//! [`BuiltScenario::run`] (or [`BuiltScenario::run_max_over_probes`] for
//! the max-over-leaves figure). Sustained open-loop traffic over many
//! groups is a [`Workload`].
//!
//! # Example: one multicast over a 8-node cluster
//!
//! ```
//! use nic_mcast::{Scenario, TreeShape};
//!
//! let report = Scenario::nic_based(8)
//!     .size(1024)
//!     .tree(TreeShape::auto())
//!     .warmup(2)
//!     .iters(10)
//!     .run();
//! assert_eq!(report.latency.count(), 10);
//! assert!(report.latency.mean() > 0.0);
//! ```

#![warn(missing_docs)]

mod calibrate;
mod ext;
pub mod features;
mod group;
mod replay;
mod scenario;
mod sweep;
mod tree;
mod workload;
mod workloads;

pub use calibrate::{auto_shape, postal_for_size};
pub use ext::{McastExt, McastTag, SingleTx, BARRIER_TAG_BIT, OP_BARRIER_UP};
pub use gm_proto::ReduceOp;
pub use gm_sim::probe::ProbeConfig;
pub use gm_sim::watch::{Incident, Severity as IncidentSeverity};
pub use gm_sim::{SeriesConfig, WatchConfig};
pub use group::{
    FwdTokenPolicy, McastConfig, McastNotice, McastRequest, MultisendImpl, RetxBufferPolicy,
};
pub use replay::{replay, ReplayDrop, ReplayOutcome, ReplaySpec};
pub use scenario::{BuiltScenario, Report, Scenario, ScenarioError};
pub use sweep::Sweep;
pub use tree::{coverage, min_makespan, PostalParams, SpanningTree, TreeShape};
pub use workload::{
    ArrivalProcess, BuiltWorkload, FanoutDist, GroupGoodput, StopCondition, Workload,
    WorkloadError, WorkloadGroup, WorkloadReport, MAX_GROUPS,
};
pub use workloads::{
    build_cluster, env_shards, AckMode, McastMode, McastRun, RootApp, DATA_PORT, REPLY_PORT,
};
