//! `gm-sim` — a small, deterministic discrete-event simulation engine.
//!
//! This crate is the foundation of the Myrinet/GM-2 multicast reproduction:
//! every other crate models its hardware or protocol as a [`World`] whose
//! events the [`Engine`] dispatches in timestamp order.
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
//! use gm_sim::{Engine, Scheduler, SimDuration, SimTime, World};
//!
//! struct Counter(u32);
//! impl World for Counter {
//!     type Event = ();
//!     fn handle(&mut self, _: (), sched: &mut Scheduler<()>) {
//!         self.0 += 1;
//!         if self.0 < 3 {
//!             sched.after(SimDuration::from_micros(1), ());
//!         }
//!     }
//! }
//!
//! let mut eng = Engine::new(Counter(0));
//! eng.schedule(SimTime::ZERO, ());
//! eng.run_to_idle();
//! assert_eq!(eng.world().0, 3);
//! assert_eq!(eng.now(), SimTime::from_nanos(2_000));
//! ```

#![warn(missing_docs)]

mod engine;
pub mod critical_path;
pub mod flow;
pub mod parallel;
pub mod probe;
mod queue;
mod rng;
pub mod series;
pub mod slab;
mod stats;
mod time;
pub mod watch;

pub use critical_path::{CriticalPath, FlowGraph, PathStep, FLOW_DELIVERY};
pub use engine::{dispatch_stats, Engine, RunOutcome, Scheduler, World};
pub use flow::FlowId;
pub use parallel::{Outbox, ShardStats, ShardWorld, ShardedEngine};
pub use probe::{Metrics, ProbeConfig, ProbeEvent, ProbeSink};
pub use series::{GaugeSummary, SeriesConfig, SeriesPoint, SeriesSink, HIST_BINS};
pub use queue::{
    default_kind as default_queue_kind, set_kind_override as set_queue_override, EventQueue,
    QueueKind,
};
pub use rng::{splitmix64, DetRng};
pub use slab::Slab;
pub use stats::{BusyTracker, Counters, Histogram, LogHistogram, OnlineStats};
pub use time::{SimDuration, SimTime};
pub use watch::{Detector, DetectorKind, Incident, Severity, Thresh, Unit, WatchConfig, WatchEngine};
