//! The one run pipeline: [`drive`] a built [`Cluster`] to quiescence,
//! [`harvest`] its counters and canonical probe/series streams, and
//! [`analyze`] them with the health detectors.
//!
//! Every simulation runs through these three stages — the `Scenario`,
//! `Workload` and MPI runs, the figure binaries and the examples — so a run
//! has exactly one event budget, one idle check and one place where the
//! results of a sharded run are merged back into the sequential reference.

use gm_sim::probe::{Metrics, ProbeSink};
use gm_sim::watch::{self, Detector, DetectorKind, Incident, Severity, Thresh, WatchConfig};
use gm_sim::{RunOutcome, SeriesSink, ShardStats, SimTime, WatchEngine};
use myrinet::NodeId;

use crate::cluster::Cluster;
use crate::ext::NicExtension;
use crate::host::HostApp;
use crate::params::GmParams;

/// The event budget of every run. A run that dispatches this many events
/// without going idle is livelocked, and [`drive`] fails it instead of
/// spinning forever. The largest run any binary makes stays far below it.
pub const EVENT_CAP: u64 = 4_000_000_000;

/// A cluster driven to quiescence.
pub struct Driven<X: NicExtension> {
    /// The finished worlds, one per shard.
    pub worlds: Vec<Cluster<X>>,
    /// Simulated time of the last event.
    pub end: SimTime,
    /// Events dispatched.
    pub events: u64,
    /// Per-shard execution statistics, in shard order.
    pub shard_stats: Vec<ShardStats>,
}

impl<X: NicExtension> Driven<X> {
    /// The world of the shard that owns `node`.
    pub fn world_of(&self, node: NodeId) -> &Cluster<X> {
        self.worlds
            .iter()
            .find(|w| w.local_nodes().any(|n| n == node))
            .expect("every node has an owning shard")
    }

    /// The app installed on `node`, as the type it was installed as (see
    /// [`Cluster::app`]).
    pub fn app<A: HostApp<X>>(&self, node: NodeId) -> &A {
        self.world_of(node).app(node)
    }
}

/// Run `cluster` until no event is pending, on `shards` shards — bit-for-bit
/// the same results either way. Infeasible sharding requests (a single
/// shard, targeted drop rules, indivisible topologies) run on one shard.
///
/// Panics when the run exhausts [`EVENT_CAP`] before going idle.
pub fn drive<X: NicExtension>(cluster: Cluster<X>, shards: u32) -> Driven<X> {
    let mut eng = cluster.into_engine(shards);
    let outcome = eng.run(SimTime::MAX, EVENT_CAP);
    assert_eq!(
        outcome,
        RunOutcome::Idle,
        "run did not converge within {EVENT_CAP} events (livelock)"
    );
    Driven {
        end: eng.now(),
        events: eng.events_handled(),
        shard_stats: eng.shard_stats(),
        worlds: eng.into_worlds(),
    }
}

/// The observability surface of a finished run: counters rolled into
/// [`Metrics`] plus the canonicalized probe and series streams.
pub struct Harvest {
    /// `nic.*` (summed over every node), `fabric.*`, `engine.events`,
    /// `probe.*`/`series.*` sink health and, on sharded runs, `parallel.*`.
    pub metrics: Metrics,
    /// The merged probe stream (empty when probes were off).
    pub probe: ProbeSink,
    /// The merged gauge series (empty when series were off).
    pub series: SeriesSink,
}

/// Collect counters, per-shard execution statistics, and the canonicalized
/// probe/series streams from the finished worlds (the sinks are moved out).
/// A sharded run's merged streams are byte-identical to the sequential
/// reference (sorted by `(time, node)` and renumbered).
pub fn harvest<X: NicExtension>(run: &mut Driven<X>) -> Harvest {
    let mut metrics = Metrics::new();
    for w in &run.worlds {
        for n in w.local_nodes() {
            for (name, v) in w.nic(n).counters.iter() {
                metrics.add("nic", name, v);
            }
        }
        for (name, v) in w.fabric().counters().iter() {
            metrics.add("fabric", name, v);
        }
    }
    metrics.set("engine", "events", run.events);
    // Per-shard execution statistics of a sharded run. These describe *how*
    // the run was executed, not what it computed, so parity checks strip
    // `parallel.*` before comparing sequential and sharded runs.
    let shard_stats = &run.shard_stats;
    if shard_stats.len() > 1 {
        metrics.set("parallel", "shards", shard_stats.len() as u64);
        metrics.set(
            "parallel",
            "windows",
            shard_stats.iter().map(|s| s.windows).max().unwrap_or(0),
        );
        metrics.set(
            "parallel",
            "horizon_tightenings",
            shard_stats.iter().map(|s| s.horizon_tightenings).sum(),
        );
        metrics.set(
            "parallel",
            "barrier_waits",
            shard_stats.iter().map(|s| s.barrier_waits).sum(),
        );
        metrics.set(
            "parallel",
            "idle_windows",
            shard_stats.iter().map(|s| s.idle_windows).sum(),
        );
        for (i, s) in shard_stats.iter().enumerate() {
            metrics.set("parallel", &format!("shard{i}.events"), s.events);
        }
        // Heaviest-vs-lightest shard spread as a percentage of the heaviest
        // — the imbalance weighted partitioning minimizes.
        let max_e = shard_stats.iter().map(|s| s.events).max().unwrap_or(0);
        let min_e = shard_stats.iter().map(|s| s.events).min().unwrap_or(0);
        if let Some(pct) = ((max_e - min_e) * 100).checked_div(max_e) {
            metrics.set("parallel", "event_imbalance_pct", pct);
        }
    }
    let probe = ProbeSink::merge_canonical(
        run.worlds
            .iter_mut()
            .map(|w| std::mem::replace(&mut w.probe, ProbeSink::disabled()))
            .collect(),
    );
    let series = SeriesSink::merge_canonical(
        run.worlds
            .iter_mut()
            .map(|w| std::mem::replace(&mut w.series, SeriesSink::disabled()))
            .collect(),
    );
    // Sink-health counters: non-zero drops mean the rings were too small to
    // hold the run and downstream analyses (lineage, critical path, gauge
    // summaries) may be incomplete.
    metrics.set("probe", "dropped_events", probe.evicted());
    metrics.set("series", "dropped_points", series.dropped());
    Harvest {
        metrics,
        probe,
        series,
    }
}

/// The per-shard event-spread threshold (percent of the heaviest shard)
/// past which the execution-diagnostic imbalance detector fires. `exec_`-
/// prefixed: it describes the execution, not the simulated system, so
/// parity checks strip its incidents like `exec_*` gauges.
const EXEC_IMBALANCE_DETECTOR: Detector = Detector {
    id: "exec_shard_imbalance",
    severity: Severity::Info,
    kind: DetectorKind::Counter {
        key: "parallel.event_imbalance_pct",
        min: Thresh::pct(50),
    },
};

/// Run the health detectors — the [`GmParams::watch_detectors`] set plus
/// the caller's `extra` incidents (detectors over data the series never
/// sees) — then attach causal evidence (active flows and critical-path
/// signature per incident window) and put the stream into canonical order.
///
/// Zero cost when `watch` is off: returns an empty `Vec` without
/// allocating. Shard invariance is inherited from the inputs — the merged
/// series/metrics/probe streams are byte-identical at any shard count.
pub fn analyze(
    watch: &WatchConfig,
    params: &GmParams,
    harvest: &Harvest,
    end: SimTime,
    extra: Vec<Incident>,
) -> Vec<Incident> {
    if !watch.is_enabled() {
        return Vec::new();
    }
    let engine = WatchEngine::new(*watch)
        .detectors(params.watch_detectors())
        .detector(EXEC_IMBALANCE_DETECTOR);
    let mut incidents = engine.scan_series(harvest.series.iter());
    incidents.extend(engine.scan_metrics(&harvest.metrics, end));
    incidents.extend(extra);
    if !incidents.is_empty() {
        watch::attach_evidence(&mut incidents, harvest.probe.as_slice());
        watch::sort_canonical(&mut incidents);
    }
    incidents
}
