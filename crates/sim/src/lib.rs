//! `gm-sim` — a small, deterministic discrete-event simulation engine.
//!
//! This crate is the foundation of the Myrinet/GM-2 multicast reproduction:
//! every other crate models its hardware or protocol as a [`World`] whose
//! events the [`Engine`] dispatches in timestamp order. A sequential run is
//! one shard; a sharded run splits the world into several, synchronized on
//! lookahead windows, with bit-for-bit the same results.
//!
//! Design properties:
//!
//! * **Integer time** ([`SimTime`], nanoseconds) — no floating-point drift.
//! * **Stable ordering** — simultaneous events fire in scheduling order, so a
//!   run is a pure function of `(world, seed)`.
//! * **Labelled RNG streams** ([`DetRng`]) — stochastic components draw from
//!   independent streams, so adding randomness to one component never
//!   perturbs another.
//!
//! ```
//! use gm_sim::{Engine, OutMsg, Scheduler, SimDuration, SimTime, World};
//!
//! struct Counter(u32);
//! impl World for Counter {
//!     type Event = ();
//!     type Handoff = ();
//!     fn handle(&mut self, _: (), sched: &mut Scheduler<()>) {
//!         self.0 += 1;
//!         if self.0 < 3 {
//!             sched.after(SimDuration::from_micros(1), ());
//!         }
//!     }
//!     // One shard sends no hand-offs, so it never absorbs one.
//!     fn absorb(&mut self, _: OutMsg<()>, _: &mut Scheduler<()>) {}
//! }
//!
//! let mut eng = Engine::new(Counter(0));
//! eng.schedule(0, SimTime::ZERO, ());
//! eng.run_to_idle();
//! assert_eq!(eng.world(0).0, 3);
//! assert_eq!(eng.now(), SimTime::from_nanos(2_000));
//! ```

#![warn(missing_docs)]

pub mod critical_path;
mod engine;
pub mod flow;
mod merge;
mod names;
mod parallel;
pub mod probe;
mod queue;
mod rng;
pub mod series;
pub mod slab;
mod stats;
mod time;
pub mod watch;

pub use critical_path::{CriticalPath, FlowGraph, PathStep, FLOW_DELIVERY};
pub use engine::{dispatch_stats, OutMsg, RunOutcome, Scheduler, World};
pub use flow::FlowId;
pub use parallel::{CoreHold, Engine, ShardStats};
pub use probe::{Metrics, ProbeConfig, ProbeEvent, ProbeSink};
pub use queue::{set_kind_override as set_queue_override, EventQueue, QueueKind};
pub use rng::{splitmix64, DetRng};
pub use series::{GaugeId, GaugeSummary, SeriesConfig, SeriesPoint, SeriesSink, HIST_BINS};
pub use slab::Slab;
pub use stats::{percentile_rank, Counters, LogHistogram, OnlineStats};
pub use time::{SimDuration, SimTime};
pub use watch::{
    Detector, DetectorKind, Incident, Severity, Thresh, Unit, WatchConfig, WatchEngine,
};
