//! Exact event and allocation counts of one run on each run path.
//!
//! The simulator is deterministic, so the events a run dispatches and the
//! heap allocations it makes are exact numbers: the same on every host, on
//! every repeat and in the debug and release profiles alike. Each test pins
//! both for one run (Scenario, Workload, MPI), so a change that adds an
//! event per packet or an allocation per packet moves a pin and fails here
//! instead of hiding in wall-clock noise. Wall-clock cost itself is
//! mcbench's to measure.
//!
//! Allocations are counted per thread by the allocator below, so tests
//! running in parallel never mix their counts; only the calling thread is
//! counted, which is why every pinned run sets `.shards(1)` (and so also
//! ignores `MYRI_SIM_SHARDS`). The 2-shard test pins only the per-shard
//! event split, since on a multi-core host its second shard runs on
//! another thread.
//!
//! A pin that moves on purpose is updated here, with the reason in
//! CHANGES.md.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gm_mpi::{execute_mpi, BcastImpl, MpiRun};
use gm_sim::SimDuration;
use nic_mcast::{
    ArrivalProcess, BuiltScenario, BuiltWorkload, FanoutDist, Scenario, StopCondition, TreeShape,
    Workload,
};

thread_local! {
    /// Allocations and reallocations made on this thread so far.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting `alloc` (which `alloc_zeroed` routes
/// through) and `realloc` on the calling thread.
struct CountingAlloc;

fn bump() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its exact arguments to `System`, whose
// `GlobalAlloc` contract is inherited unchanged; the counter is a
// const-initialized thread-local `Cell` that never allocates.
#[allow(unsafe_code)] // the one GlobalAlloc impl, delegating entirely to System
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` with `layout`; the caller upholds
        // `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f`, returning its result and the allocations it made on this thread.
fn counting<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

fn pin(what: &str, got: u64, pinned: u64) {
    assert_eq!(
        got, pinned,
        "{what}: {got}, pinned at {pinned}. If the change meant to move it, \
         update the pin in crates/bench/tests/counts.rs and say why in CHANGES.md"
    );
}

/// One 4096-byte multicast on 16 nodes over a binomial tree: 5 warm-up and
/// 20 timed iterations.
fn scenario(s: Scenario) -> BuiltScenario {
    s.size(4096)
        .tree(TreeShape::Binomial)
        .warmup(5)
        .iters(20)
        .shards(1)
        .build()
        .expect("valid scenario")
}

/// 32 nodes, 64 groups with Zipf(1.2) fan-outs, per-group Poisson arrivals
/// at 20 kHz for 2 ms.
fn workload(shards: u32) -> BuiltWorkload {
    Workload::new(32)
        .groups(64)
        .fanout(FanoutDist::Zipf { exponent: 1.2 })
        .arrivals(ArrivalProcess::Poisson { rate_hz: 20_000.0 })
        .stop(StopCondition::Duration(SimDuration::from_millis(2)))
        .shards(shards)
        .build()
        .expect("valid workload")
}

#[test]
fn nic_based_scenario_counts() {
    let built = scenario(Scenario::nic_based(16));
    let (report, allocs) = counting(|| built.run());
    let events = report.metrics.get("engine.events");
    pin("NIC-based scenario events", events, 5_067);
    pin("NIC-based scenario allocations", allocs, 3_175);
}

#[test]
fn host_based_scenario_counts() {
    let built = scenario(Scenario::host_based(16));
    let (report, allocs) = counting(|| built.run());
    let events = report.metrics.get("engine.events");
    pin("host-based scenario events", events, 6_049);
    pin("host-based scenario allocations", allocs, 3_243);
}

#[test]
fn workload_counts() {
    let built = workload(1);
    let (report, allocs) = counting(|| built.run());
    let events = report.metrics.get("engine.events");
    pin("workload events", events, 76_917);
    pin("workload allocations", allocs, 25_138);
}

#[test]
fn mpi_bcast_counts() {
    let run = MpiRun::bcast_loop(8, 1024, BcastImpl::NicBased, SimDuration::ZERO, 3, 15);
    let (out, allocs) = counting(|| execute_mpi(&run));
    pin("MPI broadcast events", out.events, 8_647);
    pin("MPI broadcast allocations", allocs, 3_033);
}

#[test]
fn two_shard_workload_event_split() {
    let report = workload(2).run();
    let shard = |i: u32| report.metrics.get(&format!("parallel.shard{i}.events"));
    pin("shard 0 events", shard(0), 44_645);
    pin("shard 1 events", shard(1), 32_272);
}
