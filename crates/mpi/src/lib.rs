//! `gm-mpi` — an MPICH-GM-analogue MPI layer over the simulated GM stack.
//!
//! Implements exactly the machinery the paper's MPI-level evaluation needs:
//! eager and rendezvous point-to-point transfer protocols, a dissemination
//! `MPI_Barrier`, and `MPI_Bcast` in two flavours — the stock host-based
//! binomial algorithm and the paper's NIC-based multicast with
//! demand-driven group-context creation. Rank programs are small op lists
//! interpreted per rank, with host-CPU-time accounting inside collective
//! calls for the process-skew experiments (Figures 6 and 7).
//!
//! ```
//! use gm_mpi::{execute_mpi, BcastImpl, MpiRun};
//! use gm_sim::SimDuration;
//!
//! let run = MpiRun::bcast_loop(4, 1024, BcastImpl::NicBased, SimDuration::ZERO, 2, 10);
//! let out = execute_mpi(&run);
//! assert_eq!(out.latency.count(), 10);
//! assert!(out.latency.mean() > 0.0);
//! ```

#![warn(missing_docs)]

mod msg;
mod rank;
mod run;
mod stats;

pub use rank::{BcastImpl, MpiOp};
pub use run::{execute_mpi, MpiOutput, MpiRun, DEFAULT_COPY_BANDWIDTH};
