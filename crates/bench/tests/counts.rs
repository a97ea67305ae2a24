//! Exact event and allocation counts of one run on each run path.
//!
//! The simulator is deterministic, so the events a run dispatches and the
//! heap allocations it makes are exact numbers: the same on every host, on
//! every repeat and in the debug and release profiles alike. Each test pins
//! both for one run (Scenario, Workload, MPI), so a change that adds an
//! event per packet or an allocation per packet moves a pin and fails here
//! instead of hiding in wall-clock noise. A test checks every pin of its
//! run before it fails, and names each value that moved. Wall-clock cost
//! itself is mcbench's to measure.
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
//! high-water mark. The observed run pins its peak, which the reservations
//! of its probe sink (2^20 records of 28 bytes) and its series sink (2^18
//! points of 20 bytes) dominate, and the records and points it keeps, so a
//! harvest that holds a second copy of a stream, a merge or an analysis
//! that allocates per record, a record that grows, or a run that records
//! more, fails here. It also pins the peak its analysis (the watch scan
//! and the incident evidence) reaches above the harvest, run again over
//! that harvest, so an evidence graph of every flow instead of the
//! incidents' own fails here; and what the canonical merge of several
//! time-ordered sinks allocates: nothing for probe records, and only the
//! gauge-name ranking for points. Probe
//! kinds and gauge names are interned in process-wide tables, which
//! allocate on the thread that interns an entry first; the observed run is
//! the only test here that records probes or samples gauges, so its
//! allocation count is exact too. The workload run
//! pins its peak as well, so a run that copies the group population, holds
//! a node's schedule per message instead of per group, or keeps a histogram
//! that outgrows its samples, fails here. One population run for two
//! durations pins what each added scheduled message costs at the peak: the
//! 8 bytes of its arrival time, which a schedule that copies the arrivals
//! per node doubles. A trace workload pins build and run together, its trace made
//! before the count starts, so a build that keeps or copies the trace
//! fails here too. A group-churn run pins its peak because its admission
//! waits hold messages in Go-Back-N records: a message that carries bytes
//! again, or a record that grows, fails here. The NIC-based scenario pins
//! the peak of a closed-loop run, whose root keeps one window per timed
//! iteration: a table sized to anything but the iterations fails here.
//!
//! Every run ends in a harvest that names each node's counters as metric
//! keys, so one test pins what a key costs: a new one is one allocation of
//! exactly its length, an update of one nothing.
//!
//! A pin that moves on purpose is updated here, with the reason in
//! CHANGES.md.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gm::{analyze, GmParams, Harvest};
use gm_mpi::{execute_mpi, BcastImpl, MpiRun};
use gm_sim::probe::PKT_DROP;
use gm_sim::{
    DetRng, Metrics, ProbeConfig, ProbeSink, SeriesConfig, SeriesSink, SimDuration, SimTime,
    WatchConfig,
};
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

/// Check each `(what, measured, pinned)` of one run, failing once with
/// every value that moved.
fn pins(run: &str, values: &[(&str, u64, u64)]) {
    let moved: Vec<String> = values
        .iter()
        .filter(|(_, got, pinned)| got != pinned)
        .map(|(what, got, pinned)| format!("  {what}: {got}, pinned at {pinned}"))
        .collect();
    assert!(
        moved.is_empty(),
        "{run}: {} of {} pins moved:\n{}\nIf the change meant to move them, update the \
         pins in crates/bench/tests/counts.rs and say why in CHANGES.md",
        moved.len(),
        values.len(),
        moved.join("\n")
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
    pins(
        "NIC-based scenario",
        &[
            ("events", report.metrics.get("engine.events"), 5_067),
            ("allocations", heap.allocs, 722),
            ("peak live bytes", heap.peak_bytes, 133_816),
        ],
    );
}

#[test]
fn host_based_scenario_counts() {
    let built = scenario(Scenario::host_based(16));
    let (report, heap) = measured(|| built.run());
    pins(
        "host-based scenario",
        &[
            ("events", report.metrics.get("engine.events"), 6_049),
            ("allocations", heap.allocs, 1_090),
        ],
    );
}

#[test]
fn workload_counts() {
    let built = workload(1).build().expect("valid workload");
    let (report, heap) = measured(|| built.run());
    pins(
        "workload",
        &[
            ("events", report.metrics.get("engine.events"), 76_917),
            ("allocations", heap.allocs, 2_828),
            ("peak live bytes", heap.peak_bytes, 430_444),
        ],
    );
}

/// The [`workload`] population at 2 kHz a group for 40 and for 80 ms,
/// each built and run inside the count: the peak grows by the added
/// messages' arrival times, 8 bytes each, plus the in-flight state's
/// drift, which is small at this load. A schedule held per message (an
/// act per send at its root) would add 8 more.
#[test]
fn scheduled_message_cost() {
    let run = |ms: u64| {
        let spec = workload(1)
            .arrivals(ArrivalProcess::Poisson { rate_hz: 2_000.0 })
            .stop(StopCondition::Duration(SimDuration::from_millis(ms)));
        let (messages, heap) = measured(|| {
            let built = spec.build().expect("valid workload");
            built.run();
            built.messages()
        });
        (messages, heap.peak_bytes)
    };
    let (short, long) = (run(40), run(80));
    let added = long.0 - short.0;
    let per_message = (long.1 - short.1 + added / 2) / added;
    pins(
        "scheduled-message cost",
        &[
            ("added scheduled messages", added, 5_173),
            ("peak live bytes per added message", per_message, 8),
        ],
    );
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
    pins(
        "churn workload",
        &[
            ("events", report.metrics.get("engine.events"), 74_379),
            ("allocations", heap.allocs, 5_900),
            ("peak live bytes", heap.peak_bytes, 900_504),
        ],
    );
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
    pins(
        "trace workload",
        &[
            ("events", report.metrics.get("engine.events"), 78_751),
            ("build and run allocations", heap.allocs, 3_620),
            ("build and run peak live bytes", heap.peak_bytes, 418_852),
        ],
    );
}

/// The [`workload`] run at 2% loss with probes, series and the watch
/// detectors on: the observed path, whose harvest merges the streams. Its
/// analysis runs a second time over the run's harvest, measured on its
/// own, and must find the run's incidents.
#[test]
fn observed_workload_counts() {
    let built = workload(1)
        .faults(FaultPlan::with_loss(0.02))
        .probes(ProbeConfig::spans())
        .series(SeriesConfig::on())
        .watch(WatchConfig::on())
        .build()
        .expect("valid workload");
    let (report, heap) = measured(|| built.run());
    let (records, points) = (report.probe.len() as u64, report.series.len() as u64);
    // The workload's own detectors, which the run hands `analyze` as
    // extra incidents, without the evidence it attached to them.
    let extra = report
        .incidents
        .iter()
        .filter(|i| ["fairness_collapse", "delivery_p99_excursion"].contains(&i.detector))
        .map(|i| nic_mcast::Incident {
            flows: Vec::new(),
            signature: String::new(),
            ..i.clone()
        })
        .collect();
    let harvest = Harvest {
        metrics: report.metrics,
        probe: report.probe,
        series: report.series,
    };
    let params = GmParams::default();
    let (incidents, analysis) = measured(|| {
        analyze(
            &WatchConfig::on(),
            &params,
            &harvest,
            report.end_time,
            extra,
        )
    });
    assert_eq!(
        incidents, report.incidents,
        "the analysis repeats the run's"
    );
    let (probe_merge, series_merge) = merge_of_time_ordered_sinks();
    pins(
        "observed workload",
        &[
            ("events", harvest.metrics.get("engine.events"), 94_187),
            ("records kept", records, 153_460),
            ("points kept", points, 56_860),
            ("allocations", heap.allocs, 3_798),
            ("peak live bytes", heap.peak_bytes, 35_214_880),
            ("incidents", incidents.len() as u64, 65),
            ("analysis allocations", analysis.allocs, 377),
            ("analysis peak live bytes", analysis.peak_bytes, 95_472),
            ("probe merge allocations", probe_merge.allocs, 0),
            ("probe merge peak live bytes", probe_merge.peak_bytes, 0),
            ("series merge allocations", series_merge.allocs, 2),
        ],
    );
}

/// Merge three probe sinks and three series sinks, each recorded in time
/// order with instants shared across sinks and several nodes an instant,
/// as the shards of a run record: the heap the probe merge and the series
/// merge use. The records are recorded before the count starts, of a kind
/// and a gauge the observed run has interned already.
fn merge_of_time_ordered_sinks() -> (Heap, Heap) {
    let mut probes: Vec<ProbeSink> = Vec::new();
    let mut series: Vec<SeriesSink> = Vec::new();
    for shard in 0..3u32 {
        let mut p = ProbeSink::new(ProbeConfig::spans());
        let mut s = SeriesSink::new(SeriesConfig::on());
        for i in 0..10_000u64 {
            let (t, node) = (SimTime::from_nanos(i / 4), (7 * i as u32 + shard) % 16);
            p.instant(t, node, &PKT_DROP, "", i);
            s.record(t, node, "sram_used", i);
        }
        probes.push(p);
        series.push(s);
    }
    let (merged, probe_merge) = measured(|| ProbeSink::merge_canonical(probes));
    assert_eq!(merged.len(), 30_000);
    let (merged, series_merge) = measured(|| SeriesSink::merge_canonical(series));
    assert_eq!(merged.len(), 30_000);
    (probe_merge, series_merge)
}

#[test]
fn metric_key_counts() {
    let mut m = Metrics::new();
    m.add("fabric", "delivered", 1);
    let ((), new) = measured(|| m.add("nic", "tx_data", 1));
    let ((), update) = measured(|| {
        m.add("nic", "tx_data", 2);
        m.set("nic", "tx_data", 3);
        m.set("fabric", "delivered", 4);
    });
    assert_eq!((m.get("nic.tx_data"), m.get("fabric.delivered")), (3, 4));
    pins(
        "metric keys",
        &[
            ("new key allocations", new.allocs, 1),
            ("new key bytes", new.peak_bytes, "nic.tx_data".len() as u64),
            ("update allocations", update.allocs, 0),
        ],
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
    pins(
        "MPI broadcast",
        &[
            ("events", out.events, 8_647),
            ("allocations", heap.allocs, 1_157),
        ],
    );
}

#[test]
fn two_shard_workload_event_split() {
    let report = workload(2).run();
    let shard = |i: u32| report.metrics.get(&format!("parallel.shard{i}.events"));
    pins(
        "2-shard workload",
        &[
            ("shard 0 events", shard(0), 44_645),
            ("shard 1 events", shard(1), 32_272),
        ],
    );
}
