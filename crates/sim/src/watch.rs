//! `sim::watch` — deterministic streaming health monitoring.
//!
//! The observability layers below this one *record*: probe spans
//! ([`crate::probe`]), gauge time-series ([`crate::series`]), counters
//! ([`crate::probe::Metrics`]) and causal flow lineage
//! ([`crate::critical_path`]). Nothing watches those streams — a
//! retransmission storm or a saturated group table only surfaces if a human
//! reads a report. This module closes the loop: typed *detectors* evaluate
//! the recorded streams and emit ordered [`Incident`] records that carry the
//! triggering values **and** causal evidence (the [`FlowId`]s and
//! critical-path hop signature active in the incident window).
//!
//! Design rules, inherited from the sibling sinks:
//!
//! * **Zero cost when off** — [`WatchConfig::off`] (the default) makes the
//!   evaluation entry points return an empty, non-allocating `Vec`.
//! * **Deterministic and shard-invariant** — detectors run *after* the run,
//!   over the canonically-merged streams ([`crate::series::SeriesSink::merge_canonical`]
//!   ordering), with pure integer arithmetic; the incident stream is
//!   byte-identical at any shard count. The streams hold only simulated
//!   state: how a run was executed (shards, windows, imbalance) is in the
//!   `parallel.*` metrics, which no detector reads.
//! * **Unit-carrying thresholds** — every threshold is a [`Thresh`], a value
//!   tagged with its [`Unit`]. The raw constructor is private to this
//!   module, so a detector threshold can never silently mix "per
//!   millisecond" with "percent of capacity".

use crate::critical_path::FlowGraph;
use crate::flow::FlowId;
use crate::probe::{Metrics, ProbeEvent};
use crate::series::{self, SeriesPoint};
use crate::time::{SimDuration, SimTime};

/// Evidence cap per incident: enough flows to chase a storm to its origin,
/// small enough that incident records stay readable and byte-stable.
pub const MAX_EVIDENCE_FLOWS: usize = 8;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Health-monitoring configuration, mirroring [`crate::series::SeriesConfig`]:
/// off by default, with `const` constructors so it can live in statics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchConfig {
    enabled: bool,
    window: SimDuration,
}

impl WatchConfig {
    /// Default detector window: gauges are bucketed into windows this long
    /// and rates are computed per window. 100 µs resolves bursts well below
    /// the Go-Back-N timeout while keeping window counts small.
    pub const DEFAULT_WINDOW: SimDuration = SimDuration::from_micros(100);

    /// Monitoring disabled (the default): evaluation returns nothing and
    /// allocates nothing.
    pub const fn off() -> WatchConfig {
        WatchConfig {
            enabled: false,
            window: WatchConfig::DEFAULT_WINDOW,
        }
    }

    /// Monitoring enabled with the default window.
    pub const fn on() -> WatchConfig {
        WatchConfig {
            enabled: true,
            window: WatchConfig::DEFAULT_WINDOW,
        }
    }

    /// Monitoring enabled with an explicit detector window.
    pub const fn with_window(window: SimDuration) -> WatchConfig {
        WatchConfig {
            enabled: true,
            window,
        }
    }

    /// Whether detectors run at all.
    pub const fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The detector window length.
    pub const fn window(&self) -> SimDuration {
        self.window
    }
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig::off()
    }
}

// ---------------------------------------------------------------------------
// Unit-carrying thresholds
// ---------------------------------------------------------------------------

/// The unit a detector threshold is expressed in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Events per millisecond (rate detectors).
    PerMs,
    /// Percent of a stated capacity (saturation detectors).
    Pct,
    /// A plain count (counter detectors).
    Count,
    /// Microseconds (latency thresholds).
    Micros,
    /// Thousandths of a dimensionless index (e.g. Jain fairness × 1000).
    PerMille,
}

impl Unit {
    /// The suffix rendered after the value (`"25/ms"`, `"90%"`, ...).
    pub const fn suffix(&self) -> &'static str {
        match self {
            Unit::PerMs => "/ms",
            Unit::Pct => "%",
            Unit::Count => "",
            Unit::Micros => "us",
            Unit::PerMille => "/1000",
        }
    }
}

/// A detector threshold: a value that always carries its [`Unit`].
///
/// Construct through the unit-named constructors ([`Thresh::per_ms`],
/// [`Thresh::pct`], ...). The raw constructor is private to this module,
/// so a threshold built anywhere else names its unit:
///
/// ```compile_fail,E0624
/// use gm_sim::{Thresh, Unit};
///
/// let t = Thresh::raw(64, Unit::PerMs);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Thresh {
    value: u64,
    unit: Unit,
}

impl Thresh {
    /// A rate threshold in events per millisecond.
    pub const fn per_ms(value: u64) -> Thresh {
        Thresh::raw(value, Unit::PerMs)
    }

    /// A saturation threshold in percent of capacity.
    pub const fn pct(value: u64) -> Thresh {
        Thresh::raw(value, Unit::Pct)
    }

    /// A plain count threshold.
    pub const fn count(value: u64) -> Thresh {
        Thresh::raw(value, Unit::Count)
    }

    /// A latency threshold in microseconds.
    pub const fn micros(value: u64) -> Thresh {
        Thresh::raw(value, Unit::Micros)
    }

    /// A dimensionless-index threshold in thousandths.
    pub const fn per_mille(value: u64) -> Thresh {
        Thresh::raw(value, Unit::PerMille)
    }

    /// Raw constructor, private: the unit-named constructors wrap it.
    const fn raw(value: u64, unit: Unit) -> Thresh {
        Thresh { value, unit }
    }

    /// The threshold value, in its unit.
    pub const fn value(&self) -> u64 {
        self.value
    }

    /// The unit the value is expressed in.
    pub const fn unit(&self) -> Unit {
        self.unit
    }
}

impl std::fmt::Display for Thresh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", self.value, self.unit.suffix())
    }
}

// ---------------------------------------------------------------------------
// Detectors
// ---------------------------------------------------------------------------

/// How serious a firing detector is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Expected under configured pressure; recorded for context.
    Info,
    /// Degradation worth investigating.
    Warn,
    /// The failure mode the reliability layer exists to survive.
    Critical,
}

impl Severity {
    /// Stable lowercase name (JSON artifacts, tables).
    pub const fn name(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Critical => "critical",
        }
    }
}

/// What a detector computes over its subscribed stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectorKind {
    /// Rate of change: the gauge (a cumulative counter sampled as a step
    /// function) grows by at least `rate` per millisecond within a window.
    RateOfChange {
        /// The subscribed gauge name.
        gauge: &'static str,
        /// Firing rate (must be [`Unit::PerMs`]).
        rate: Thresh,
    },
    /// Sustained saturation: the gauge sits at `>= pct` percent of
    /// `capacity` for at least `sustain` consecutive windows.
    Saturation {
        /// The subscribed gauge name.
        gauge: &'static str,
        /// The resource capacity the gauge is measured against.
        capacity: u64,
        /// Firing occupancy (must be [`Unit::Pct`]).
        pct: Thresh,
        /// Consecutive saturated windows required to fire.
        sustain: u32,
    },
    /// End-of-run counter threshold over a [`Metrics`] key
    /// (`"<layer>.<counter>"`): fires once, spanning the whole run.
    Counter {
        /// The metrics key, e.g. `"nic.mcast_group_admission_waits"`.
        key: &'static str,
        /// Firing threshold (must be [`Unit::Count`]).
        min: Thresh,
    },
}

/// One configured detector: an identity, a severity, and a kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Detector {
    /// Stable detector name.
    pub id: &'static str,
    /// How serious a firing is.
    pub severity: Severity,
    /// What it computes.
    pub kind: DetectorKind,
}

// ---------------------------------------------------------------------------
// Incidents
// ---------------------------------------------------------------------------

/// Node marker for cluster-wide incidents (fairness, counters).
pub const CLUSTER_NODE: u32 = u32::MAX;

/// One detector firing: the window, the identity, the triggering value, and
/// the causal evidence active in the window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Incident {
    /// `[start, end)` of the firing, in simulated time. Consecutive hot
    /// windows merge into one incident spanning all of them.
    pub window: (SimTime, SimTime),
    /// The firing detector's id.
    pub detector: &'static str,
    /// The firing detector's severity.
    pub severity: Severity,
    /// The node the gauge belongs to, or [`CLUSTER_NODE`].
    pub node: u32,
    /// The observed value, in the threshold's unit (the per-window maximum
    /// over the merged span).
    pub value: u64,
    /// The threshold that was crossed.
    pub threshold: Thresh,
    /// Distinct flows with probe activity in `[start, end)` on the node, or
    /// on any node when cluster-wide (sorted, capped at
    /// [`MAX_EVIDENCE_FLOWS`]); empty when probes were off.
    pub flows: Vec<FlowId>,
    /// The node route of the last delivery in `[start, end]`
    /// ([`crate::critical_path::CriticalPath::signature`]), empty when the
    /// window contains no delivery or probes were off.
    pub signature: String,
}

impl Incident {
    /// A cluster-wide incident with no per-node gauge behind it (fairness
    /// collapse, latency excursions).
    pub fn cluster(
        detector: &'static str,
        severity: Severity,
        window: (SimTime, SimTime),
        value: u64,
        threshold: Thresh,
    ) -> Incident {
        Incident {
            window,
            detector,
            severity,
            node: CLUSTER_NODE,
            value,
            threshold,
            flows: Vec::new(),
            signature: String::new(),
        }
    }

    /// One deterministic JSON line, byte-identical across executions and
    /// shard counts (all fields integer or static text).
    pub fn json_line(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let node = if self.node == CLUSTER_NODE {
            "\"cluster\"".to_string()
        } else {
            self.node.to_string()
        };
        write!(
            out,
            "{{\"start_ns\":{},\"end_ns\":{},\"detector\":\"{}\",\"severity\":\"{}\",\
             \"node\":{},\"value\":{},\"threshold\":\"{}\",\"flows\":[",
            self.window.0.as_nanos(),
            self.window.1.as_nanos(),
            self.detector,
            self.severity.name(),
            node,
            self.value,
            self.threshold,
        )
        .expect("writing to a String cannot fail");
        for (i, f) in self.flows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "\"{f}\"").expect("writing to a String cannot fail");
        }
        write!(out, "],\"signature\":\"{}\"}}", self.signature)
            .expect("writing to a String cannot fail");
        out
    }
}

/// The gauge a detector scans and how many consecutive windows must fire
/// (`None` for a detector that reads a counter).
fn scanned_gauge(d: &Detector) -> Option<(&'static str, u32)> {
    match d.kind {
        DetectorKind::RateOfChange { gauge, .. } => Some((gauge, 1)),
        DetectorKind::Saturation { gauge, sustain, .. } => Some((gauge, sustain.max(1))),
        DetectorKind::Counter { .. } => None,
    }
}

/// Canonical incident order: `(window start, detector, node, window end)` —
/// the incident analogue of the series sinks' `(time, node, gauge)` merge
/// key, so the stream is identical at any shard count.
pub fn sort_canonical(incidents: &mut [Incident]) {
    incidents.sort_by(|a, b| {
        (a.window.0, a.detector, a.node, a.window.1)
            .cmp(&(b.window.0, b.detector, b.node, b.window.1))
    });
}

/// Render the incidents as one deterministic JSON array line (the
/// byte-stable summary `health_explore` and parity tests compare).
pub fn summary_json(incidents: &[Incident]) -> String {
    let mut out = String::from("[");
    for (i, inc) in incidents.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&inc.json_line());
    }
    out.push(']');
    out
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

/// The detector engine: evaluates a detector set over recorded streams.
///
/// Evaluation happens after the run, over the canonically-merged streams —
/// which is what makes the incident stream shard-count-invariant for free:
/// the inputs are already byte-identical at any shard count.
#[derive(Clone, Debug, Default)]
pub struct WatchEngine {
    config: WatchConfig,
    detectors: Vec<Detector>,
}

impl WatchEngine {
    /// An engine with no detectors yet.
    pub fn new(config: WatchConfig) -> WatchEngine {
        WatchEngine {
            config,
            detectors: Vec::new(),
        }
    }

    /// Add a batch of detectors (builder style).
    pub fn detectors(mut self, ds: impl IntoIterator<Item = Detector>) -> WatchEngine {
        self.detectors.extend(ds);
        self
    }

    /// Evaluate the gauge detectors over a series stream (must already be
    /// canonically merged, e.g. [`SeriesSink::iter`](crate::SeriesSink::iter),
    /// or the slice of one). Returns incidents in canonical order, without
    /// evidence — call [`attach_evidence`] afterwards.
    pub fn scan_series(&self, points: impl AsRef<[SeriesPoint]>) -> Vec<Incident> {
        if !self.config.is_enabled() {
            return Vec::new();
        }
        let points = points.as_ref();
        if points.is_empty() {
            return Vec::new();
        }
        // Only gauges some detector reads are scanned. Names and ranks come
        // from one snapshot each of the name table, which only grows: the
        // names, taken second, cover every ranked handle.
        let ranks = series::gauge_ranks();
        let names = series::gauge_names();
        let signals = Signals::lay_out(points, &ranks, |h| {
            self.detectors
                .iter()
                .any(|d| scanned_gauge(d).is_some_and(|(dg, _)| dg == names[h]))
        });
        let w_ns = self.config.window().as_nanos().max(1);
        let mut incidents = Vec::new();
        for d in &self.detectors {
            let Some((gauge, sustain)) = scanned_gauge(d) else {
                continue;
            };
            for (node, h, signal) in signals.iter() {
                if names[h] != gauge {
                    continue;
                }
                self.scan_signal(d, node, points, signal, w_ns, sustain, &mut incidents);
            }
        }
        sort_canonical(&mut incidents);
        incidents
    }

    /// Evaluate one detector over one `(node, gauge)` step function: the
    /// points of `points` at the indices `steps`, in time order.
    #[expect(clippy::too_many_arguments, reason = "internal plumbing, not API")]
    fn scan_signal(
        &self,
        d: &Detector,
        node: u32,
        points: &[SeriesPoint],
        steps: &[u32],
        w_ns: u64,
        sustain: u32,
        incidents: &mut Vec<Incident>,
    ) {
        let point = |i: usize| &points[steps[i] as usize];
        let (Some(&first), Some(&last)) = (steps.first(), steps.last()) else {
            return;
        };
        let (first, last) = (&points[first as usize], &points[last as usize]);
        let first_win = first.time().as_nanos() / w_ns;
        let last_win = last.time().as_nanos() / w_ns;
        // Walk the windows once, tracking the step function: `si` is the
        // next transition to consume, `cur` the value holding at the
        // window's start.
        let mut si = 0usize;
        let mut cur = first.value();
        // A run of consecutive firing windows, merged into one incident.
        let mut run_start: Option<u64> = None;
        let mut run_peak = 0u64;
        let mut run_len = 0u32;
        for win in first_win..=last_win {
            let win_end = (win + 1) * w_ns;
            let start_val = cur;
            let mut win_max = cur;
            while si < steps.len() && point(si).time().as_nanos() < win_end {
                cur = point(si).value();
                win_max = win_max.max(cur);
                si += 1;
            }
            let (fires, observed) = match d.kind {
                DetectorKind::RateOfChange { rate, .. } => {
                    // Per-window growth of a cumulative counter, normalized
                    // to events per millisecond (integer arithmetic; w_ns is
                    // at most a run length, so the product cannot overflow
                    // for realistic deltas).
                    let delta = cur.saturating_sub(start_val);
                    let per_ms = delta.saturating_mul(1_000_000) / w_ns;
                    (per_ms >= rate.value(), per_ms)
                }
                DetectorKind::Saturation { capacity, pct, .. } => {
                    let occupancy = win_max
                        .saturating_mul(100)
                        .checked_div(capacity)
                        .unwrap_or(0);
                    (occupancy >= pct.value(), occupancy)
                }
                DetectorKind::Counter { .. } => (false, 0),
            };
            if fires {
                if run_start.is_none() {
                    run_start = Some(win);
                    run_peak = 0;
                    run_len = 0;
                }
                run_peak = run_peak.max(observed);
                run_len += 1;
            } else if let Some(start) = run_start.take() {
                self.emit(d, node, start, win, run_peak, run_len, sustain, incidents);
            }
        }
        if let Some(start) = run_start {
            self.emit(
                d,
                node,
                start,
                last_win + 1,
                run_peak,
                run_len,
                sustain,
                incidents,
            );
        }
    }

    /// Close one run of firing windows, emitting an incident if it lasted
    /// long enough.
    #[expect(clippy::too_many_arguments, reason = "internal plumbing, not API")]
    fn emit(
        &self,
        d: &Detector,
        node: u32,
        start_win: u64,
        end_win: u64,
        peak: u64,
        run_len: u32,
        sustain: u32,
        incidents: &mut Vec<Incident>,
    ) {
        if run_len < sustain {
            return;
        }
        let w_ns = self.config.window().as_nanos().max(1);
        let threshold = match d.kind {
            DetectorKind::RateOfChange { rate, .. } => rate,
            DetectorKind::Saturation { pct, .. } => pct,
            DetectorKind::Counter { min, .. } => min,
        };
        incidents.push(Incident {
            window: (
                SimTime::from_nanos(start_win * w_ns),
                SimTime::from_nanos(end_win * w_ns),
            ),
            detector: d.id,
            severity: d.severity,
            node,
            value: peak,
            threshold,
            flows: Vec::new(),
            signature: String::new(),
        });
    }

    /// Evaluate the counter detectors over an end-of-run [`Metrics`]
    /// snapshot. Counter incidents span the whole run (`0..end`).
    pub fn scan_metrics(&self, metrics: &Metrics, end: SimTime) -> Vec<Incident> {
        if !self.config.is_enabled() {
            return Vec::new();
        }
        let mut incidents = Vec::new();
        for d in &self.detectors {
            if let DetectorKind::Counter { key, min } = d.kind {
                let v = metrics.get(key);
                if v >= min.value() {
                    incidents.push(Incident::cluster(
                        d.id,
                        d.severity,
                        (SimTime::ZERO, end),
                        v,
                        min,
                    ));
                }
            }
        }
        sort_canonical(&mut incidents);
        incidents
    }
}

/// The scanned points of a series stream regrouped into signals: one
/// `(node, gauge)` pair's step function each, its points as `u32` indices
/// into the stream, in time order.
///
/// The signals sit in a dense table, a row per node and a column per
/// scanned gauge in name order, so they come out in `(node, gauge name)`
/// order, and laying them out is a counting sort: a pass that counts each
/// cell's points, and a backward pass that places each point's index, so
/// no point is looked up by key or copied.
struct Signals {
    /// The gauge handle of each column, in name order.
    gauges: Vec<usize>,
    /// Cell `k`'s points are `steps[starts[k]..starts[k + 1]]`; cell
    /// `node * gauges.len() + column`.
    starts: Vec<u32>,
    /// Point indices, cell by cell.
    steps: Vec<u32>,
}

impl Signals {
    /// Regroup the points of `points` whose gauge handle `scanned` accepts;
    /// `ranks` is each handle's rank in name order.
    fn lay_out(points: &[SeriesPoint], ranks: &[u16], scanned: impl Fn(usize) -> bool) -> Signals {
        let mut gauges: Vec<usize> = (0..ranks.len()).filter(|&h| scanned(h)).collect();
        gauges.sort_unstable_by_key(|&h| ranks[h]);
        let mut column = vec![None; ranks.len()];
        for (c, &h) in gauges.iter().enumerate() {
            column[h] = Some(c);
        }
        let cols = gauges.len();
        let cell =
            |p: &SeriesPoint| column[p.gauge_name().index()].map(|c| p.node() as usize * cols + c);
        let cells = points.iter().filter_map(cell).max().map_or(0, |k| k + 1);
        // Count each cell's points at its end, sum the counts into each
        // cell's end, then place the points backward from the ends, which
        // leaves each cell's start behind.
        let mut starts = vec![0u32; cells + 1];
        for k in points.iter().filter_map(cell) {
            starts[k] += 1;
        }
        let mut total = 0;
        for end in &mut starts[..cells] {
            total += *end;
            *end = total;
        }
        starts[cells] = total;
        let mut steps = vec![0u32; total as usize];
        let len = u32::try_from(points.len()).expect("a series holds under 2^32 points");
        for (i, p) in (0..len).zip(points).rev() {
            if let Some(k) = cell(p) {
                starts[k] -= 1;
                steps[starts[k] as usize] = i;
            }
        }
        Signals {
            gauges,
            starts,
            steps,
        }
    }

    /// Each signal with a point as `(node, gauge handle, point indices)`,
    /// in `(node, gauge name)` order.
    fn iter(&self) -> impl Iterator<Item = (u32, usize, &[u32])> + '_ {
        let cols = self.gauges.len();
        self.starts
            .windows(2)
            .enumerate()
            .filter_map(move |(k, r)| {
                let node = u32::try_from(k / cols).expect("nodes fit in 16 bits");
                (r[0] < r[1]).then(|| {
                    let steps = &self.steps[r[0] as usize..r[1] as usize];
                    (node, self.gauges[k % cols], steps)
                })
            })
    }
}

/// Link causal evidence into incidents. For an incident window `(ws, we)`:
///
/// * `flows` — the [`MAX_EVIDENCE_FLOWS`] smallest distinct [`FlowId`]s of
///   the records at `ws <= t < we` (half-open) on the incident's node, or
///   on any node for cluster-wide incidents, sorted;
/// * `signature` — the node route of the lineage of the last delivery at
///   `ws <= t <= we` (closed: a delivery exactly at `we` counts),
///   [`FlowGraph::path_signature`]; empty when there is none.
///
/// `events` must be the canonically-merged probe stream, which is in time
/// order ([`crate::probe::ProbeSink::merge_canonical`]). Each window is
/// located by binary search, so an incident costs its window's records
/// plus its lineage — not a scan of the whole stream; the flows are kept in
/// a sorted buffer of [`MAX_EVIDENCE_FLOWS`], never in a copy of the
/// window. Each signature needs only its terminal delivery's lineage, which
/// stays inside that message's tag, so the one [`FlowGraph`] built is
/// [`FlowGraph::build_for`] the incidents' terminals: the flows of at most
/// one message an incident, not of the whole run. Passing an empty stream
/// leaves evidence untouched.
pub fn attach_evidence(incidents: &mut [Incident], events: &[ProbeEvent]) {
    if incidents.is_empty() || events.is_empty() {
        return;
    }
    debug_assert!(
        crate::critical_path::in_record_order(events),
        "attach_evidence needs a time-ordered probe stream"
    );
    let terminals: Vec<Option<FlowId>> = incidents
        .iter()
        .map(|inc| FlowGraph::terminal(events, inc.window))
        .collect();
    let graph = FlowGraph::build_for(events, terminals.iter().flatten().copied());
    for (inc, terminal) in incidents.iter_mut().zip(terminals) {
        let (ws, we) = inc.window;
        let lo = events.partition_point(|e| e.time() < ws);
        let hi = events.partition_point(|e| e.time() < we).max(lo);
        inc.flows = smallest_flows(
            events[lo..hi]
                .iter()
                .filter(|e| {
                    e.flow().is_some() && (inc.node == CLUSTER_NODE || e.node() == inc.node)
                })
                .map(ProbeEvent::flow),
        );
        inc.signature = terminal.map_or_else(String::new, |t| graph.signature_of(t));
    }
}

/// The [`MAX_EVIDENCE_FLOWS`] smallest distinct flows of `flows`, sorted:
/// what sorting, deduplicating and truncating all of them gives, kept in
/// one buffer of that size.
fn smallest_flows(flows: impl Iterator<Item = FlowId>) -> Vec<FlowId> {
    let mut kept: Vec<FlowId> = Vec::new();
    for f in flows {
        if kept.len() == MAX_EVIDENCE_FLOWS && f >= kept[MAX_EVIDENCE_FLOWS - 1] {
            continue;
        }
        if let Err(i) = kept.binary_search(&f) {
            if kept.len() == MAX_EVIDENCE_FLOWS {
                kept.pop();
            } else if kept.is_empty() {
                kept.reserve_exact(MAX_EVIDENCE_FLOWS);
            }
            kept.insert(i, f);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::{SeriesConfig, SeriesSink};

    fn sink_with(points: &[(u64, u32, &'static str, u64)]) -> SeriesSink {
        let mut s = SeriesSink::new(SeriesConfig::on());
        for &(t, node, gauge, v) in points {
            s.record(SimTime::from_nanos(t), node, gauge, v);
        }
        s
    }

    fn engine(d: Detector) -> WatchEngine {
        WatchEngine::new(WatchConfig::on()).detectors([d])
    }

    #[test]
    fn off_config_returns_nothing_and_allocates_nothing() {
        let eng = WatchEngine::new(WatchConfig::off()).detectors([Detector {
            id: "t",
            severity: Severity::Warn,
            kind: DetectorKind::Saturation {
                gauge: "g",
                capacity: 100,
                pct: Thresh::pct(1),
                sustain: 1,
            },
        }]);
        let sink = sink_with(&[(0, 0, "g", 100)]);
        let out = eng.scan_series(sink.iter());
        assert!(out.is_empty());
        assert_eq!(out.capacity(), 0, "off path must not allocate");
        assert!(eng.scan_metrics(&Metrics::new(), SimTime::ZERO).is_empty());
    }

    #[test]
    fn saturation_fires_and_merges_consecutive_windows() {
        // Saturated at 10 of 100 slots (10%) or more.
        let eng = engine(Detector {
            id: "hot",
            severity: Severity::Warn,
            kind: DetectorKind::Saturation {
                gauge: "q",
                capacity: 100,
                pct: Thresh::pct(10),
                sustain: 1,
            },
        });
        // Windows are 100 µs: hot in windows 1 and 2, cool again before
        // window 3 starts (the gauge is a step function, so the drop must
        // land inside window 2 for window 3 to open cold).
        let sink = sink_with(&[
            (0, 3, "q", 1),
            (120_000, 3, "q", 15),
            (250_000, 3, "q", 12),
            (299_000, 3, "q", 2),
            (350_000, 3, "q", 1),
        ]);
        let out = eng.scan_series(sink.iter());
        assert_eq!(out.len(), 1, "consecutive hot windows merge: {out:?}");
        assert_eq!(out[0].window.0, SimTime::from_nanos(100_000));
        assert_eq!(out[0].window.1, SimTime::from_nanos(300_000));
        assert_eq!(out[0].value, 15);
        assert_eq!(out[0].node, 3);
    }

    #[test]
    fn sustain_suppresses_short_blips() {
        let d = |sustain| Detector {
            id: "sat",
            severity: Severity::Critical,
            kind: DetectorKind::Saturation {
                gauge: "used",
                capacity: 4,
                pct: Thresh::pct(100),
                sustain,
            },
        };
        // Saturated only inside window 1 (100..200 µs).
        let pts = &[
            (0u64, 0u32, "used", 1u64),
            (150_000, 0, "used", 4),
            (190_000, 0, "used", 1),
        ];
        assert_eq!(engine(d(1)).scan_series(sink_with(pts).iter()).len(), 1);
        assert!(engine(d(2)).scan_series(sink_with(pts).iter()).is_empty());
    }

    #[test]
    fn rate_of_change_detects_cumulative_bursts() {
        let eng = engine(Detector {
            id: "storm",
            severity: Severity::Critical,
            kind: DetectorKind::RateOfChange {
                gauge: "retx_total",
                rate: Thresh::per_ms(100),
            },
        });
        // +3 in window 0 (30/ms — quiet), +32 in window 5 (320/ms — storm).
        let sink = sink_with(&[
            (10_000, 1, "retx_total", 0),
            (50_000, 1, "retx_total", 3),
            (520_000, 1, "retx_total", 35),
        ]);
        let out = eng.scan_series(sink.iter());
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].value, 320);
        assert_eq!(out[0].window.0, SimTime::from_nanos(500_000));
    }

    #[test]
    fn counter_detector_spans_the_run() {
        let eng = engine(Detector {
            id: "waits",
            severity: Severity::Info,
            kind: DetectorKind::Counter {
                key: "nic.mcast_group_admission_waits",
                min: Thresh::count(1),
            },
        });
        let mut m = Metrics::new();
        m.set("nic", "mcast_group_admission_waits", 7);
        let out = eng.scan_metrics(&m, SimTime::from_nanos(1_000));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, 7);
        assert_eq!(out[0].node, CLUSTER_NODE);
        assert_eq!(out[0].window, (SimTime::ZERO, SimTime::from_nanos(1_000)));
        // Below threshold: silent.
        m.set("nic", "mcast_group_admission_waits", 0);
        assert!(eng.scan_metrics(&m, SimTime::from_nanos(1_000)).is_empty());
    }

    #[test]
    fn canonical_order_and_json_are_stable() {
        let mut incs = vec![
            Incident::cluster(
                "b",
                Severity::Warn,
                (SimTime::from_nanos(5), SimTime::from_nanos(9)),
                1,
                Thresh::count(1),
            ),
            Incident::cluster(
                "a",
                Severity::Warn,
                (SimTime::from_nanos(5), SimTime::from_nanos(9)),
                2,
                Thresh::count(1),
            ),
            Incident::cluster(
                "z",
                Severity::Warn,
                (SimTime::ZERO, SimTime::from_nanos(9)),
                3,
                Thresh::count(1),
            ),
        ];
        sort_canonical(&mut incs);
        assert_eq!(incs[0].detector, "z");
        assert_eq!(incs[1].detector, "a");
        assert_eq!(incs[2].detector, "b");
        let line = incs[1].json_line();
        assert_eq!(
            line,
            "{\"start_ns\":5,\"end_ns\":9,\"detector\":\"a\",\"severity\":\"warn\",\
             \"node\":\"cluster\",\"value\":2,\"threshold\":\"1\",\"flows\":[],\"signature\":\"\"}"
        );
        assert!(summary_json(&incs).starts_with('['));
    }

    mod evidence {
        use super::*;
        use crate::critical_path::FLOW_DELIVERY;
        use crate::probe::{ProbeConfig, ProbeId, ProbeSink, Track};

        static HOST: ProbeId = ProbeId::new("wt_host", Track::Host);
        static WIRE: ProbeId = ProbeId::new("wt_wire", Track::Wire);
        static RX: ProbeId = ProbeId::new("wt_rx", Track::Wire);

        fn at(ns: u64) -> SimTime {
            SimTime::from_nanos(ns)
        }

        const ROOT_A: FlowId = FlowId::new(0, 1, 0);
        const HOP_A: FlowId = FlowId::new(0, 1, 1);
        const ROOT_B: FlowId = FlowId::new(2, 5, 2);
        const HOP_B: FlowId = FlowId::new(2, 5, 3);

        /// Two one-hop deliveries: n0 → n1 delivered at 300, n2 → n3
        /// delivered at 600. Returned canonically merged, as runs hand
        /// their streams to `attach_evidence`.
        fn stream() -> ProbeSink {
            let mut s = ProbeSink::new(ProbeConfig::spans());
            s.complete_flow(
                at(0),
                0,
                &HOST,
                SimDuration::from_nanos(100),
                "send",
                ROOT_A,
            );
            s.begin_flow(at(100), 0, &WIRE, "tx", 1, 0, HOP_A);
            s.end(at(200), 0, &WIRE, "tx");
            s.instant_flow(at(250), 1, &RX, "arrive", 0, HOP_A);
            s.instant_flow(at(300), 1, &FLOW_DELIVERY, "recv", 0, HOP_A);
            s.complete_flow(
                at(400),
                2,
                &HOST,
                SimDuration::from_nanos(50),
                "send",
                ROOT_B,
            );
            s.begin_flow(at(450), 2, &WIRE, "tx", 3, 0, HOP_B);
            s.end(at(500), 2, &WIRE, "tx");
            s.instant_flow(at(600), 3, &FLOW_DELIVERY, "recv", 0, HOP_B);
            ProbeSink::merge_canonical(vec![s])
        }

        fn incident(node: u32, ws: u64, we: u64) -> Incident {
            Incident {
                node,
                ..Incident::cluster("t", Severity::Warn, (at(ws), at(we)), 1, Thresh::count(1))
            }
        }

        /// Evidence for one incident over the test stream.
        fn evidence(node: u32, ws: u64, we: u64) -> (Vec<FlowId>, String) {
            let mut incs = [incident(node, ws, we)];
            attach_evidence(&mut incs, stream().as_slice());
            let [inc] = incs;
            (inc.flows, inc.signature)
        }

        #[test]
        fn delivery_at_window_end_counts_for_signature_not_flows() {
            // The window closes exactly on n3's delivery of HOP_B at 600:
            // that record is outside [ws, we) for flows but inside [ws, we]
            // for the terminal delivery.
            assert_eq!(evidence(3, 500, 600), (vec![], "n2>n3".to_string()));
            assert_eq!(evidence(3, 500, 601), (vec![HOP_B], "n2>n3".to_string()));
        }

        #[test]
        fn record_at_window_start_counts() {
            assert_eq!(evidence(1, 300, 400), (vec![HOP_A], "n0>n1".to_string()));
            assert_eq!(evidence(1, 301, 400), (vec![], String::new()));
        }

        #[test]
        fn cluster_wide_run_window_sees_every_node() {
            let (flows, sig) = evidence(CLUSTER_NODE, 0, 600);
            assert_eq!(flows, vec![ROOT_A, HOP_A, ROOT_B, HOP_B]);
            assert_eq!(sig, "n2>n3", "the last delivery of the run decides");
        }

        #[test]
        fn node_incidents_see_only_their_node() {
            assert_eq!(evidence(2, 0, 1_000).0, vec![ROOT_B, HOP_B]);
            assert_eq!(evidence(3, 0, 1_000).0, vec![HOP_B]);
            assert_eq!(evidence(0, 0, 1_000).0, vec![ROOT_A, HOP_A]);
            // The signature is the window's, whatever the node.
            assert_eq!(evidence(0, 0, 1_000).1, "n2>n3");
        }

        #[test]
        fn window_without_delivery_has_empty_signature() {
            let (flows, sig) = evidence(CLUSTER_NODE, 0, 299);
            assert_eq!(flows, vec![ROOT_A, HOP_A]);
            assert_eq!(sig, "");
            assert_eq!(evidence(CLUSTER_NODE, 700, 900), (vec![], String::new()));
        }

        #[test]
        fn empty_stream_leaves_evidence_untouched() {
            let mut incs = [incident(CLUSTER_NODE, 0, 600)];
            incs[0].signature = "kept".to_string();
            attach_evidence(&mut incs, &[]);
            assert_eq!(incs[0].signature, "kept");
            assert!(incs[0].flows.is_empty());
            let empty = ProbeSink::merge_canonical(vec![ProbeSink::new(ProbeConfig::spans())]);
            attach_evidence(&mut incs, empty.as_slice());
            assert_eq!(incs[0].signature, "kept");
        }

        /// Every window with ends on, or next to, a record time gives what
        /// a full scan of the stream gives.
        #[test]
        fn windowed_lookup_matches_a_full_scan() {
            let sink = stream();
            let events = sink.as_slice();
            let graph = FlowGraph::build(events);
            let mut ends: Vec<u64> = events
                .iter()
                .flat_map(|e| {
                    let t = e.time().as_nanos();
                    [t.saturating_sub(1), t, t + 1]
                })
                .collect();
            ends.sort_unstable();
            ends.dedup();
            for node in [CLUSTER_NODE, 0, 1, 2, 3] {
                for &ws in &ends {
                    for &we in ends.iter().filter(|&&we| we >= ws) {
                        let (w0, w1) = (at(ws), at(we));
                        let mut flows: Vec<FlowId> = events
                            .iter()
                            .filter(|e| {
                                e.time() >= w0
                                    && e.time() < w1
                                    && e.flow().is_some()
                                    && (node == CLUSTER_NODE || e.node() == node)
                            })
                            .map(ProbeEvent::flow)
                            .collect();
                        flows.sort_unstable();
                        flows.dedup();
                        let sig = graph
                            .critical_path(events, (w0, w1))
                            .map(|cp| cp.signature())
                            .unwrap_or_default();
                        assert_eq!(evidence(node, ws, we), (flows, sig), "n{node} [{ws}, {we}]");
                    }
                }
            }
        }
    }

    #[test]
    fn evidence_keeps_the_smallest_distinct_flows() {
        let mut rng = crate::DetRng::substream(3, "watch.smallest_flows", 0);
        for len in 0..60u64 {
            // Small tag ranges repeat flows; large ones rarely do.
            let tags = 1 + len % 20;
            let flows: Vec<FlowId> = (0..len)
                .map(|_| FlowId::new(0, rng.below(tags), 1))
                .collect();
            let mut oracle = flows.clone();
            oracle.sort_unstable();
            oracle.dedup();
            oracle.truncate(MAX_EVIDENCE_FLOWS);
            assert_eq!(smallest_flows(flows.into_iter()), oracle, "{len} flows");
        }
    }

    /// The regrouping the dense signal table replaced: a `BTreeMap` keyed
    /// by `(node, gauge rank)`, looked up once a scanned point, each
    /// signal's point indices in a `Vec` of its own.
    fn scan_series_by_map(eng: &WatchEngine, points: &[SeriesPoint]) -> Vec<Incident> {
        use std::collections::BTreeMap;
        if !eng.config.is_enabled() || points.is_empty() {
            return Vec::new();
        }
        let names = series::gauge_names();
        let ranks = series::gauge_ranks();
        let mut signals: BTreeMap<(u32, u16), (usize, Vec<u32>)> = BTreeMap::new();
        for (i, p) in (0u32..).zip(points) {
            let h = p.gauge_name().index();
            let g = names[h];
            let read = eng
                .detectors
                .iter()
                .any(|d| scanned_gauge(d).is_some_and(|(dg, _)| dg == g));
            if read {
                let signal = signals
                    .entry((p.node(), ranks[h]))
                    .or_insert((h, Vec::new()));
                signal.1.push(i);
            }
        }
        let w_ns = eng.config.window().as_nanos().max(1);
        let mut incidents = Vec::new();
        for d in &eng.detectors {
            let Some((gauge, sustain)) = scanned_gauge(d) else {
                continue;
            };
            for (&(node, _), (h, steps)) in &signals {
                if names[*h] == gauge {
                    eng.scan_signal(d, node, points, steps, w_ns, sustain, &mut incidents);
                }
            }
        }
        sort_canonical(&mut incidents);
        incidents
    }

    /// Random series and detector sets: the dense table finds exactly the
    /// incidents the map did, in the same order.
    #[test]
    fn dense_signal_table_matches_the_map() {
        // Out of name order.
        const GAUGES: [&str; 5] = ["wz_used", "wa_retx", "we_queue", "wm_tokens", "wn_idle"];
        let mut rng = crate::DetRng::substream(5, "watch.dense_signals", 0);
        let mut fired = 0;
        for case in 0..300u64 {
            let mut sink = SeriesSink::new(SeriesConfig::on());
            let mut t = 0;
            for _ in 0..rng.below(200) {
                t += rng.below(3) * rng.below(60_000);
                let node = rng.below(5) as u32;
                let gauge = GAUGES[rng.below(GAUGES.len() as u64) as usize];
                sink.record(SimTime::from_nanos(t), node, gauge, rng.below(24));
            }
            let merged = SeriesSink::merge_canonical(vec![sink]);
            let window = SimDuration::from_nanos(1 + rng.below(200_000));
            let mut eng = WatchEngine::new(WatchConfig::with_window(window));
            for i in 0..rng.below(5) {
                let gauge = GAUGES[rng.below(GAUGES.len() as u64) as usize];
                let kind = match rng.below(3) {
                    0 => DetectorKind::RateOfChange {
                        gauge,
                        rate: Thresh::per_ms(rng.below(400)),
                    },
                    1 => DetectorKind::Saturation {
                        gauge,
                        capacity: rng.below(30),
                        pct: Thresh::pct(rng.below(120)),
                        sustain: rng.below(4) as u32,
                    },
                    _ => DetectorKind::Counter {
                        key: "nic.tx",
                        min: Thresh::count(1),
                    },
                };
                let id = ["d0", "d1", "d2", "d3", "d4"][i as usize];
                eng = eng.detectors([Detector {
                    id,
                    severity: Severity::Warn,
                    kind,
                }]);
            }
            let found = eng.scan_series(merged.iter());
            fired += usize::from(!found.is_empty());
            assert_eq!(
                found,
                scan_series_by_map(&eng, merged.iter().as_slice()),
                "case {case}"
            );
        }
        assert!(fired > 100, "only {fired} of 300 cases fired a detector");
    }

    #[test]
    fn thresholds_render_with_units() {
        assert_eq!(Thresh::per_ms(25).to_string(), "25/ms");
        assert_eq!(Thresh::pct(90).to_string(), "90%");
        assert_eq!(Thresh::count(64).to_string(), "64");
        assert_eq!(Thresh::micros(150).to_string(), "150us");
        assert_eq!(Thresh::per_mille(500).to_string(), "500/1000");
    }
}
