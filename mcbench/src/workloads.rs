//! The five workloads, and what one pass of each runs and checks.
//!
//! A pass builds the workload from one of its seed's inputs, runs it, and
//! checks its outputs. Every call into the simulator goes through a
//! [`Tracer`] span, which is also the timer for the end-to-end metrics.

use std::fmt::Write as _;
use std::hint::black_box;

use gm::GmParams;
use gm_mpi::{execute_mpi, BcastImpl, MpiRun};
use gm_sim::{
    DetRng, FlowGraph, Metrics, ProbeConfig, SeriesConfig, SimDuration, SimTime, WatchConfig,
    WatchEngine,
};
use myrinet::{Fabric, FaultPlan, NetParams, Topology};
use nic_mcast::{
    build_cluster, ArrivalProcess, FanoutDist, McastRun, Scenario, StopCondition, Sweep, TreeShape,
    Workload, WorkloadReport,
};

use crate::metrics::PER_LAYER;
use crate::trace::{self, Tracer};

/// Which workload a [`Def`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Fig. 5 at 16 nodes plus the Fig. 6 MPI broadcasts.
    PaperSweep,
    /// Open-loop many-group traffic just under saturation.
    ManyGroups,
    /// [`Kind::ManyGroups`] on two shards and two threads.
    ManyGroups2Shard,
    /// A lossy run with probes, series and watch detectors on.
    ObservedLossy,
    /// Many small short-lived groups that churn the NIC group table.
    GroupChurn,
}

/// A workload: its name and pass count.
pub struct Def {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Timed passes when no `--seconds` budget is given.
    pub passes: usize,
    /// What it runs.
    pub kind: Kind,
}

/// Every workload, in the order a full run takes them.
pub static WORKLOADS: [Def; 5] = [
    Def {
        name: "paper_sweep",
        passes: 30,
        kind: Kind::PaperSweep,
    },
    Def {
        name: "many_groups",
        passes: 15,
        kind: Kind::ManyGroups,
    },
    Def {
        name: "many_groups_2shard",
        passes: 15,
        kind: Kind::ManyGroups2Shard,
    },
    Def {
        name: "observed_lossy",
        passes: 15,
        kind: Kind::ObservedLossy,
    },
    Def {
        name: "group_churn",
        passes: 20,
        kind: Kind::GroupChurn,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Def> {
    WORKLOADS.iter().find(|d| d.name == name)
}

const NODES: u32 = 64;
const SIZE: usize = 256;
const WARMUP: SimDuration = SimDuration::from_micros(500);
const SWEEP_NODES: u32 = 16;
/// The drawn skew is uniform on [-max/2, max/2] and only its positive half
/// (mean max/4) delays a rank, so this is 400 us of average skew: the
/// Fig. 6 headline point.
const SKEW_MAX: SimDuration = SimDuration::from_micros(1600);
const MPI_SIZES: [usize; 2] = [4, 4096];

/// One open-loop workload's shape.
struct OpenLoop {
    groups: usize,
    fanout: FanoutDist,
    overlap: f64,
    rate_hz: f64,
    /// Measured time; the warm-up comes on top.
    duration: SimDuration,
    shards: u32,
    loss: f64,
    observe: bool,
}

impl Kind {
    fn open_loop(self, smoke: bool) -> Option<OpenLoop> {
        let zipf = FanoutDist::Zipf { exponent: 1.2 };
        let ms = SimDuration::from_millis;
        let ol = match self {
            Kind::PaperSweep => return None,
            Kind::ManyGroups | Kind::ManyGroups2Shard => OpenLoop {
                groups: 200,
                fanout: zipf,
                overlap: 0.5,
                rate_hz: 12_000.0,
                duration: ms(50),
                shards: if self == Kind::ManyGroups2Shard { 2 } else { 1 },
                loss: 0.0,
                observe: false,
            },
            Kind::ObservedLossy => OpenLoop {
                groups: 200,
                fanout: zipf,
                overlap: 0.5,
                rate_hz: 4_000.0,
                duration: ms(5),
                shards: 1,
                loss: 0.02,
                observe: true,
            },
            Kind::GroupChurn => OpenLoop {
                groups: 1000,
                fanout: FanoutDist::Fixed { fanout: 4 },
                overlap: 0.25,
                rate_hz: 1_000.0,
                duration: ms(10),
                shards: 1,
                loss: 0.0,
                observe: false,
            },
        };
        Some(OpenLoop {
            duration: if smoke { ol.duration / 10 } else { ol.duration },
            ..ol
        })
    }
}

/// Per-group Poisson arrivals at `rate_hz` over `[0, duration)`, merged and
/// sorted by `(time, group)`: the input the benchmark hands the program as
/// an explicit trace. The same seed gives the same trace.
pub fn poisson_trace(
    seed: u64,
    groups: usize,
    rate_hz: f64,
    duration: SimDuration,
) -> Vec<(SimTime, u32)> {
    let end = duration.as_nanos();
    let mut out = Vec::new();
    for g in 0..groups {
        let mut rng = DetRng::substream(seed, "mcbench.arrivals", g as u64);
        let mut t = 0u64;
        loop {
            t += (-(1.0 - rng.unit()).ln() / rate_hz * 1e9).ceil().max(1.0) as u64;
            if t >= end {
                break;
            }
            out.push((SimTime::from_nanos(t), g as u32));
        }
    }
    out.sort_unstable();
    out
}

/// What one pass measured.
pub struct Pass {
    /// Host seconds building the workload (`Workload::build` or the sum of
    /// `Scenario::build`).
    pub setup_s: f64,
    /// Host seconds running it.
    pub run_s: f64,
    /// The simulated results as text; every pass of a workload must match
    /// the first byte for byte.
    pub summary: String,
    /// Simulated end-to-end metrics.
    pub sim: Vec<(&'static str, f64)>,
    /// Per-layer values (see [`crate::metrics::PER_LAYER`]).
    pub layer: Vec<(&'static str, f64)>,
    /// What the replays after a traced pass need (`None` untraced).
    pub replay: Option<Replay>,
}

/// The finished output a traced pass hands to its replays.
pub enum Replay {
    /// An open-loop run.
    Open {
        report: Box<WorkloadReport>,
        weights: Vec<u64>,
        faults: FaultPlan,
        seed: u64,
        sharded: bool,
    },
    /// The sweep's resolved scenario specs.
    Sweep(Vec<McastRun>),
}

/// Inputs a run cycles through: timed pass `i` runs input `i % INPUTS`.
/// Input 0 is the seed's own; the others come from seeds drawn from it.
/// The work in a pass follows its input (`observed_lossy`'s analysis cost
/// tracks its incident count, which moves by about 15% between seeds), so
/// a run's median over several inputs moves less from seed to seed than
/// one input's time does.
pub const INPUTS: u64 = 8;

/// The inputs of one pass.
pub struct Input {
    /// Seeds membership, roots, fault draws and the MPI skew.
    seed: u64,
    /// The open-loop arrival trace (empty for the sweep).
    arrivals: Vec<(SimTime, u32)>,
}

/// One workload at one seed.
pub struct Bench {
    /// The workload.
    pub def: &'static Def,
    seed: u64,
    smoke: bool,
}

impl Bench {
    /// `def` at `seed`; `smoke` cuts the simulated length tenfold.
    pub fn new(def: &'static Def, seed: u64, smoke: bool) -> Bench {
        Bench { def, seed, smoke }
    }

    /// Input `k` of this seed (see [`INPUTS`]). The same seed and `k` give
    /// the same input.
    pub fn input(&self, k: u64) -> Input {
        let seed = match k {
            0 => self.seed,
            _ => DetRng::substream(self.seed, "mcbench.input", k).next_u64(),
        };
        let arrivals = match self.def.kind.open_loop(self.smoke) {
            Some(ol) => poisson_trace(seed, ol.groups, ol.rate_hz, ol.duration + WARMUP),
            None => Vec::new(),
        };
        Input { seed, arrivals }
    }

    /// The shard count timed passes use.
    pub fn shards(&self) -> u32 {
        self.def
            .kind
            .open_loop(self.smoke)
            .map_or(1, |ol| ol.shards)
    }

    /// Run one pass over `input` on `shards` shards. `Err` names the first
    /// failed check; a panic inside the simulator propagates to the caller.
    pub fn pass(&self, input: Input, tr: &mut Tracer, shards: u32) -> Result<Pass, String> {
        match self.def.kind.open_loop(self.smoke) {
            Some(ol) => open_pass(&ol, input, shards, tr),
            None => sweep_pass(input.seed, self.smoke, tr),
        }
    }
}

fn open_pass(ol: &OpenLoop, input: Input, shards: u32, tr: &mut Tracer) -> Result<Pass, String> {
    let faults = if ol.loss > 0.0 {
        FaultPlan::with_loss(ol.loss)
    } else {
        FaultPlan::none()
    };
    let mut spec = Workload::new(NODES)
        .groups(ol.groups)
        .fanout(ol.fanout)
        .overlap(ol.overlap)
        .arrivals(ArrivalProcess::Trace(input.arrivals))
        .stop(StopCondition::Duration(ol.duration + WARMUP))
        .warmup(WARMUP)
        .size(SIZE)
        .seed(input.seed)
        .shards(shards)
        .faults(faults.clone());
    if ol.observe {
        spec = spec
            .probes(ProbeConfig::spans())
            .series(SeriesConfig::on())
            .watch(WatchConfig::on());
    }
    let (built, setup_s) = tr.span("core.build", |_| spec.build());
    let built = built.map_err(|e| format!("invalid workload: {e}"))?;
    let mut cost = Cost::default();
    let report = cost.call(tr, "core.run", || built.run(), |r| threads(&r.metrics));

    let m = &report.metrics;
    let warm = SimTime::ZERO + WARMUP;
    let (mut expected, mut payload) = (0u64, 0u64);
    for g in built.groups() {
        let members = g.members.len() as u64;
        expected += g.arrivals.iter().filter(|&&t| t >= warm).count() as u64 * members;
        payload += g.arrivals.len() as u64 * members * SIZE as u64;
    }
    if report.delivered != expected {
        return Err(format!(
            "delivered {} of {expected} measured member deliveries",
            report.delivered
        ));
    }
    let (installs, frees) = (
        m.get("nic.mcast_group_installs"),
        m.get("nic.mcast_group_frees"),
    );
    if installs != frees {
        return Err(format!(
            "group table leak: {installs} installs, {frees} frees"
        ));
    }
    check_no_drops(m)?;
    if report.p50_us > report.p99_us {
        return Err(format!("p50 {} above p99 {}", report.p50_us, report.p99_us));
    }

    let mut summary = report.summary_json();
    if ol.observe {
        summary.push_str(&report.health_json());
    }
    let mut layer = vec![
        ("core.build_s", setup_s),
        ("sim.probe.events", report.probe.len() as f64),
        ("sim.watch.incidents", report.incidents.len() as f64),
        (
            "fabric.useful_byte_ratio",
            ratio(payload, m.get("fabric.wire_bytes")),
        ),
    ];
    layer.extend(dispatch_layers(m, &cost, tr.is_on()));
    Ok(Pass {
        setup_s,
        run_s: cost.run_s,
        sim: vec![
            ("sim_p50_us", report.p50_us),
            ("sim_p99_us", report.p99_us),
            ("sim_goodput_mbs", report.goodput_mbs),
        ],
        summary,
        layer,
        replay: tr.is_on().then(|| Replay::Open {
            weights: built.partition_weights(),
            report: Box::new(report),
            faults,
            seed: input.seed,
            sharded: ol.shards > 1,
        }),
    })
}

fn sweep_pass(seed: u64, smoke: bool, tr: &mut Tracer) -> Result<Pass, String> {
    let (warmup, iters) = if smoke { (2, 10) } else { (10, 100) };
    let mut m = Metrics::new();
    let (mut cost, mut setup_s) = (Cost::default(), 0.0);
    let (mut payload, mut wire, mut mpi_events) = (0u64, 0u64, 0u64);
    let (mut summary, mut log_ratio, mut specs) = (String::new(), 0.0, Vec::new());
    let sizes = Sweep::gm_sizes();
    for size in sizes.iter() {
        let mut mean = [0.0; 2];
        let runs = [
            (Scenario::host_based(SWEEP_NODES), TreeShape::Binomial),
            (Scenario::nic_based(SWEEP_NODES), TreeShape::auto()),
        ];
        for (i, (scenario, shape)) in runs.into_iter().enumerate() {
            let scenario = scenario
                .size(size)
                .tree(shape)
                .warmup(warmup)
                .iters(iters)
                .seed(seed);
            let (built, b) = tr.span("core.build", |_| scenario.build());
            let built = built.map_err(|e| format!("invalid scenario: {e}"))?;
            let report = cost.call(tr, "core.run", || built.run(), |_| 1.0);
            if report.latency.count() != u64::from(iters) {
                return Err(format!(
                    "{size} B: {} of {iters} iterations",
                    report.latency.count()
                ));
            }
            if report.latency_p50 > report.latency_p99 {
                return Err(format!("{size} B: p50 above p99"));
            }
            check_no_drops(&report.metrics)?;
            setup_s += b;
            m.merge(&report.metrics);
            mean[i] = report.latency.mean();
            let dests = built.spec().dests.len() as u64;
            payload += u64::from(warmup + iters) * dests * size as u64;
            wire += report.metrics.get("fabric.wire_bytes");
            if tr.is_on() {
                specs.push(built.spec().clone());
            }
        }
        log_ratio += (mean[0] / mean[1]).ln();
        write!(summary, "{size}:{:.6}/{:.6};", mean[0], mean[1]).expect("String write");
    }
    let speedup = (log_ratio / sizes.len() as f64).exp();

    let mut host_cpu_us = 0.0;
    let sweep_s = cost.run_s;
    for size in MPI_SIZES {
        for bcast in [BcastImpl::NicBased, BcastImpl::HostBinomial] {
            let mut run = MpiRun::bcast_loop(SWEEP_NODES, size, bcast, SKEW_MAX, warmup, iters);
            run.seed = seed;
            let out = cost.call(tr, "mpi.execute", || execute_mpi(&run), |_| 1.0);
            if out.latency.count() != u64::from(iters) {
                return Err(format!(
                    "mpi {size} B: {} of {iters} broadcasts",
                    out.latency.count()
                ));
            }
            check_no_drops(&out.metrics)?;
            m.merge(&out.metrics);
            mpi_events += out.events;
            if size == MPI_SIZES[0] && bcast == BcastImpl::NicBased {
                host_cpu_us = out.bcast_cpu.mean();
            }
            write!(
                summary,
                "mpi{size}:{:.6}/{:.6};",
                out.latency.mean(),
                out.bcast_cpu.mean()
            )
            .expect("String write");
        }
    }

    let mut layer = vec![
        ("core.build_s", setup_s),
        ("mpi.execute_s", cost.run_s - sweep_s),
        ("mpi.events", mpi_events as f64),
        ("fabric.useful_byte_ratio", ratio(payload, wire)),
    ];
    layer.extend(dispatch_layers(&m, &cost, tr.is_on()));
    Ok(Pass {
        setup_s,
        run_s: cost.run_s,
        sim: vec![("sim_speedup", speedup), ("sim_host_cpu_us", host_cpu_us)],
        summary,
        layer,
        replay: tr.is_on().then_some(Replay::Sweep(specs)),
    })
}

impl Replay {
    /// Time, on the finished output of a traced pass, the calls the run
    /// already makes inside itself, so their share of `run_s` can be named.
    pub fn run(self, tr: &mut Tracer) -> Vec<(&'static str, f64)> {
        let mut out = Vec::new();
        match self {
            Replay::Sweep(specs) => {
                let (mut cluster_s, mut fabric_s) = (0.0, 0.0);
                for spec in &specs {
                    cluster_s += tr
                        .replay("gm.build_cluster", |_| black_box(build_cluster(spec)))
                        .1;
                    fabric_s += tr
                        .replay("myrinet.fabric_new", |_| {
                            black_box(new_fabric(spec.n_nodes, &spec.faults, spec.seed))
                        })
                        .1;
                }
                out.push(("gm.build_cluster_s", cluster_s));
                out.push(("myrinet.fabric_new_s", fabric_s));
            }
            Replay::Open {
                report,
                weights,
                faults,
                seed,
                sharded,
            } => {
                let (_, s) = tr.replay("myrinet.fabric_new", |_| {
                    black_box(new_fabric(NODES, &faults, seed))
                });
                out.push(("myrinet.fabric_new_s", s));
                if sharded {
                    let topo = Topology::for_nodes(NODES);
                    let (_, s) = tr.replay("myrinet.partition", |_| {
                        black_box(topo.partition_weighted(2, &weights))
                    });
                    out.push(("myrinet.partition_s", s));
                }
                if !report.probe.is_empty() {
                    out.extend(replay_analysis(&report, tr));
                }
            }
        }
        out
    }
}

/// The analysis `BuiltWorkload::run` does after dispatch when watch is on,
/// call by call.
fn replay_analysis(report: &WorkloadReport, tr: &mut Tracer) -> Vec<(&'static str, f64)> {
    let (events, to_vec_s) = tr.replay("sim.probe.to_vec", |_| report.probe.to_vec());
    let (_, graph_s) = tr.replay("sim.flow_graph", |_| black_box(FlowGraph::build(&events)));
    let (_, scan_s) = tr.replay("sim.watch.scan", |_| {
        let engine =
            WatchEngine::new(WatchConfig::on()).detectors(GmParams::default().watch_detectors());
        let mut found = engine.scan_series(report.series.iter());
        found.extend(engine.scan_metrics(&report.metrics, report.end_time));
        black_box(found)
    });
    let mut incidents = report.incidents.clone();
    let (_, evidence_s) = tr.replay("sim.watch.evidence", |_| {
        gm_sim::watch::attach_evidence(&mut incidents, &events);
    });
    vec![
        ("sim.probe.to_vec_s", to_vec_s),
        ("sim.flow_graph_s", graph_s),
        ("sim.watch.scan_s", scan_s),
        ("sim.watch.evidence_s", evidence_s),
    ]
}

fn new_fabric(nodes: u32, faults: &FaultPlan, seed: u64) -> Fabric {
    Fabric::with_config(
        Topology::for_nodes(nodes),
        NetParams::default(),
        faults.clone(),
        seed,
    )
}

/// Threads a finished run dispatched on: its shard count when the shards
/// ran threaded (they met at barriers), else 1.
fn threads(m: &Metrics) -> f64 {
    if m.get("parallel.barrier_waits") > 0 {
        m.get("parallel.shards") as f64
    } else {
        1.0
    }
}

fn check_no_drops(m: &Metrics) -> Result<(), String> {
    for key in ["probe.dropped_events", "series.dropped_points"] {
        if m.get(key) > 0 {
            return Err(format!("{key} = {}: the ring was too small", m.get(key)));
        }
    }
    Ok(())
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Host cost of the calls that make up a pass's `run_s`.
#[derive(Clone, Copy, Default)]
struct Cost {
    run_s: f64,
    /// Engine dispatch time, summed over shard threads.
    dispatch_s: f64,
    /// Allocations while counting was on (the traced pass).
    allocs: u64,
}

impl Cost {
    /// Run `f` in a `name` span and add its cost. `threads` reads from the
    /// output how many threads dispatched, to place the `sim.dispatch` span
    /// on the wall clock.
    fn call<T>(
        &mut self,
        tr: &mut Tracer,
        name: &'static str,
        f: impl FnOnce() -> T,
        threads: impl Fn(&T) -> f64,
    ) -> T {
        let allocs = trace::allocs();
        let ((out, dispatch_s), run_s) = tr.span(name, |tr| {
            let d0 = trace::dispatch_wall();
            let out = f();
            let dispatch_s = trace::dispatch_wall() - d0;
            tr.synthetic("sim.dispatch", dispatch_s / threads(&out));
            (out, dispatch_s)
        });
        self.run_s += run_s;
        self.dispatch_s += dispatch_s;
        self.allocs += trace::allocs() - allocs;
        out
    }
}

/// Counters, the ratios over them, and the dispatch split of `run_s`.
fn dispatch_layers(m: &Metrics, cost: &Cost, traced: bool) -> Vec<(&'static str, f64)> {
    let Cost {
        run_s,
        dispatch_s,
        allocs,
    } = *cost;
    let events = m.get("engine.events");
    let shards = m.get("parallel.shards").max(1) as f64;
    let mut out: Vec<(&'static str, f64)> = PER_LAYER
        .iter()
        .filter(|l| l.counter)
        .map(|l| (l.name, m.get(l.name) as f64))
        .collect();
    if traced {
        out.push(("sim.allocs_per_event", ratio(allocs, events)));
    }
    out.extend([
        ("sim.events", events as f64),
        ("sim.dispatch_s", dispatch_s),
        (
            "sim.events_per_s",
            if dispatch_s > 0.0 {
                events as f64 / dispatch_s
            } else {
                0.0
            },
        ),
        ("sim.outside_dispatch_s", run_s - dispatch_s / threads(m)),
        ("sim.parallel.busy_ratio", dispatch_s / (shards * run_s)),
        (
            "nic.retx_ratio",
            ratio(m.get("nic.retransmissions"), m.get("nic.tx_data")),
        ),
        (
            "core.mcast_retx_ratio",
            ratio(
                m.get("nic.mcast_retx_tx"),
                m.get("nic.mcast_tx") + m.get("nic.mcast_fwd"),
            ),
        ),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_trace_is_sorted_in_range_and_seeded() {
        let d = SimDuration::from_millis(2);
        let a = poisson_trace(1, 7, 20_000.0, d);
        assert!(
            a.len() > 7 * 20,
            "about 40 arrivals per group, got {}",
            a.len()
        );
        assert!(
            a.windows(2).all(|w| w[0] <= w[1]),
            "sorted by (time, group)"
        );
        assert!(a.iter().all(|&(t, g)| g < 7 && t < SimTime::ZERO + d));
        assert_eq!(a, poisson_trace(1, 7, 20_000.0, d), "same seed, same trace");
        assert_ne!(
            a,
            poisson_trace(2, 7, 20_000.0, d),
            "another seed, another trace"
        );
    }

    #[test]
    fn names_are_unique_and_found() {
        for d in &WORKLOADS {
            assert!(std::ptr::eq(find(d.name).expect("listed"), d));
        }
        assert!(find("nope").is_none());
    }
}
