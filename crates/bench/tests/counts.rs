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
//! counted, which is why every pinned Scenario and Workload run sets
//! `.shards(1)` (and so also ignores `MYRI_SIM_SHARDS`). An MPI run has no
//! shard option and reads `MYRI_SIM_SHARDS` like every default run, so its
//! test asserts that it took one shard before it checks a pin. The 2-shard
//! test pins only the per-shard event split, since on a multi-core host
//! its second shard runs on another thread.
//!
//! The allocator also tracks the thread's live heap bytes and their
//! high-water mark. The observed run pins its peak, which its probe ring of
//! 48-byte records and its series ring of 32-byte points dominate, so a
//! harvest that holds a second copy of a stream, a merge or an analysis
//! that allocates per record, or a record that grows, fails here. Probe
//! labels and gauge names are interned in process-wide tables, which
//! allocate on the thread that interns a name first; the observed run is
//! the only test here that records probes or samples gauges, so its
//! allocation count is exact too. The workload run
//! pins its peak as well, so a run that copies the group population or the
//! agendas' arrival times, or a histogram that outgrows its samples, fails
//! here. A trace workload pins build and run together, its trace made
//! before the count starts, so a build that keeps or copies the trace
//! fails here too. A group-churn run pins its peak because its admission
//! waits hold messages in Go-Back-N records: a message that carries bytes
//! again, or a record that grows, fails here.
//!
//! A pin that moves on purpose is updated here, with the reason in
//! CHANGES.md.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gm_mpi::{execute_mpi, BcastImpl, MpiRun};
use gm_sim::{DetRng, ProbeConfig, SeriesConfig, SimDuration, SimTime, WatchConfig};
use myrinet::FaultPlan;
use nic_mcast::{
    ArrivalProcess, BuiltScenario, FanoutDist, Scenario, StopCondition, TreeShape, Workload,
};

thread_local! {
    /// Allocations and reallocations made on this thread so far.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Heap bytes this thread has allocated and not yet freed. Memory freed
    /// on another thread than it was allocated on skews both threads, so
    /// only single-threaded runs read it.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` has been since [`measured`] last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting `alloc` (which `alloc_zeroed` routes
/// through) and `realloc` on the calling thread, and tracking its live
/// bytes.
struct CountingAlloc;

/// Record one allocation or reallocation that changed live bytes by
/// `delta`.
fn bump(delta: i64) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    grow(delta);
}

fn grow(delta: i64) {
    let live = LIVE.with(|l| {
        l.set(l.get() + delta);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

// SAFETY: every method forwards its exact arguments to `System`, whose
// `GlobalAlloc` contract is inherited unchanged; the counters are
// const-initialized thread-local `Cell`s that never allocate.
#[expect(
    unsafe_code,
    reason = "the one GlobalAlloc impl, delegating entirely to System"
)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` with `layout`; the caller upholds
        // `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What `f` did to this thread's heap.
struct Heap {
    /// Allocations and reallocations made.
    allocs: u64,
    /// The most bytes live at once, above what was live before `f`.
    peak_bytes: u64,
}

/// Run `f`, returning its result and what it did to this thread's heap.
fn measured<R>(f: impl FnOnce() -> R) -> (R, Heap) {
    let before = ALLOCS.with(Cell::get);
    let live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live));
    let out = f();
    let heap = Heap {
        allocs: ALLOCS.with(Cell::get) - before,
        peak_bytes: (PEAK.with(Cell::get) - live) as u64,
    };
    (out, heap)
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
fn workload(shards: u32) -> Workload {
    Workload::new(32)
        .groups(64)
        .fanout(FanoutDist::Zipf { exponent: 1.2 })
        .arrivals(ArrivalProcess::Poisson { rate_hz: 20_000.0 })
        .stop(StopCondition::Duration(SimDuration::from_millis(2)))
        .shards(shards)
}

#[test]
fn nic_based_scenario_counts() {
    let built = scenario(Scenario::nic_based(16));
    let (report, heap) = measured(|| built.run());
    let events = report.metrics.get("engine.events");
    pin("NIC-based scenario events", events, 5_067);
    pin("NIC-based scenario allocations", heap.allocs, 1_085);
}

#[test]
fn host_based_scenario_counts() {
    let built = scenario(Scenario::host_based(16));
    let (report, heap) = measured(|| built.run());
    let events = report.metrics.get("engine.events");
    pin("host-based scenario events", events, 6_049);
    pin("host-based scenario allocations", heap.allocs, 1_433);
}

#[test]
fn workload_counts() {
    let built = workload(1).build().expect("valid workload");
    let (report, heap) = measured(|| built.run());
    let events = report.metrics.get("engine.events");
    pin("workload events", events, 76_917);
    pin("workload allocations", heap.allocs, 3_294);
    pin("workload peak live bytes", heap.peak_bytes, 533_052);
}

/// mcbench's `group_churn` in small: 32 nodes, 200 groups of fixed
/// fan-out 4 on 32 group-table slots a node, per-group Poisson arrivals at
/// 1 kHz for 5 ms. 1,000 memberships against 1,024 slots in all fill the
/// tables where memberships overlap, so installs wait for admission (the
/// test checks that they do), and the messages of waiting groups sit in
/// Go-Back-N records: the peak pins what a record holds per message.
#[test]
fn churn_workload_counts() {
    let built = Workload::new(32)
        .groups(200)
        .fanout(FanoutDist::Fixed { fanout: 4 })
        .overlap(0.25)
        .arrivals(ArrivalProcess::Poisson { rate_hz: 1_000.0 })
        .stop(StopCondition::Duration(SimDuration::from_millis(5)))
        .shards(1)
        .build()
        .expect("valid workload");
    let (report, heap) = measured(|| built.run());
    assert!(
        report.metrics.get("nic.mcast_group_admission_waits") > 0,
        "the group table churns"
    );
    let events = report.metrics.get("engine.events");
    pin("churn workload events", events, 74_379);
    pin("churn workload allocations", heap.allocs, 7_367);
    pin("churn workload peak live bytes", heap.peak_bytes, 1_009_136);
}

/// Per-group Poisson arrivals at 20 kHz over 2 ms for the [`workload`]'s
/// 64 groups, listed group by group, so the build has to sort them.
fn arrival_trace() -> Vec<(SimTime, u32)> {
    let mut trace = Vec::new();
    for g in 0..64u32 {
        let mut rng = DetRng::substream(7, "counts.trace", u64::from(g));
        let mut t = 0u64;
        loop {
            t += (-(1.0 - rng.unit()).ln() / 20_000.0 * 1e9).ceil().max(1.0) as u64;
            if t >= 2_000_000 {
                break;
            }
            trace.push((SimTime::from_nanos(t), g));
        }
    }
    trace
}

#[test]
fn trace_workload_counts() {
    let trace = arrival_trace();
    let spec = workload(1).arrivals(ArrivalProcess::Trace(trace));
    let (report, heap) = measured(|| spec.build().expect("valid workload").run());
    let events = report.metrics.get("engine.events");
    pin("trace workload events", events, 78_751);
    pin("trace workload build and run allocations", heap.allocs, 4_104);
    pin(
        "trace workload build and run peak live bytes",
        heap.peak_bytes,
        522_156,
    );
}

/// The probe records and series points the observed run keeps. Its rings
/// hold exactly this many, so nothing is evicted and nothing is spare.
const OBSERVED_RECORDS: (usize, usize) = (153_460, 58_194);

/// The [`workload`] run at 2% loss with probes, series and the watch
/// detectors on: the observed path, whose harvest merges the streams.
#[test]
fn observed_workload_counts() {
    let (records, points) = OBSERVED_RECORDS;
    let built = workload(1)
        .faults(FaultPlan::with_loss(0.02))
        .probes(ProbeConfig::spans_with_capacity(records))
        .series(SeriesConfig::with_capacity(points))
        .watch(WatchConfig::on())
        .build()
        .expect("valid workload");
    let (report, heap) = measured(|| built.run());
    assert_eq!(
        (report.probe.len(), report.series.len()),
        OBSERVED_RECORDS,
        "the rings are sized to the run"
    );
    let events = report.metrics.get("engine.events");
    pin("observed workload events", events, 94_187);
    pin("observed workload allocations", heap.allocs, 5_094);
    pin(
        "observed workload peak live bytes",
        heap.peak_bytes,
        10_455_564,
    );
}

#[test]
fn mpi_bcast_counts() {
    let run = MpiRun::bcast_loop(8, 1024, BcastImpl::NicBased, SimDuration::ZERO, 3, 15);
    let (out, heap) = measured(|| execute_mpi(&run));
    assert_eq!(
        out.metrics.get("parallel.shards"),
        0,
        "the MPI run took more than one shard: unset MYRI_SIM_SHARDS to count it"
    );
    pin("MPI broadcast events", out.events, 8_647);
    pin("MPI broadcast allocations", heap.allocs, 1_274);
}

#[test]
fn two_shard_workload_event_split() {
    let report = workload(2).run();
    let shard = |i: u32| report.metrics.get(&format!("parallel.shard{i}.events"));
    pin("shard 0 events", shard(0), 44_645);
    pin("shard 1 events", shard(1), 32_272);
}
