//! `sim::series` — deterministic time-series telemetry.
//!
//! Gauges are step functions over simulated time: send/receive token
//! occupancy, NIC SRAM buffer usage, PCI and injection-link utilization,
//! event-queue depth. A [`SeriesSink`] records one [`SeriesPoint`] per
//! *change* of a `(node, gauge)` pair (consecutive equal samples are
//! deduplicated), so the stored stream is exactly the step function and is
//! byte-identical however often a site samples.
//!
//! The discipline matches `sim::probe`:
//!
//! * **zero-cost when disabled** — [`SeriesSink::record`] is one branch and
//!   never allocates on a disabled sink;
//! * **append-only** — a sink keeps every point: it reserves its first
//!   2^18 points at construction and grows past them rather than drop one;
//! * **canonical merge** — per-shard sinks merge in place into one stream
//!   ordered by `(time, node, gauge)`, each sink's internal order kept among
//!   ties, and since every `(node, gauge)` pair is owned by exactly one
//!   shard, the merged stream is identical at any shard count.
//!
//! A sampling site names its gauge once: [`SeriesSink::gauge`] interns the
//! name into a [`GaugeId`], and [`SeriesSink::record_gauge`] records by
//! that handle without comparing strings. [`SeriesSink::record`] is the
//! two steps in one call.
//!
//! A [`SeriesPoint`] is 20 bytes: it names its gauge by a `u16` handle into
//! one process-wide table of gauge names, which [`SeriesPoint::gauge`]
//! resolves, keeps its node in 16 bits, and stores no position: a point's
//! place in its stream is its index there.
//!
//! [`SeriesSink::summarize`] folds the step functions into per-gauge
//! [`GaugeSummary`] rows: min/max/last, a time-weighted mean, and a
//! fixed-width histogram of time spent at each value band.

use std::fmt;

use crate::merge;
use crate::names::NameTable;
use crate::time::SimTime;

/// What a run samples: every gauge, or nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeriesConfig {
    enabled: bool,
}

impl SeriesConfig {
    /// Sample nothing; every gauge site reduces to one branch.
    pub const fn off() -> Self {
        SeriesConfig { enabled: false }
    }

    /// Sample every gauge, keeping every transition.
    pub const fn on() -> Self {
        SeriesConfig { enabled: true }
    }

    /// Whether anything is sampled.
    pub const fn is_enabled(&self) -> bool {
        self.enabled
    }
}

impl Default for SeriesConfig {
    fn default() -> Self {
        SeriesConfig::off()
    }
}

/// Every distinct gauge name sampled in this process, indexed by
/// [`GaugeName`] (see `sim::names`).
static GAUGE_NAMES: NameTable<&'static str> = NameTable::new("gauge names");

/// A point's gauge, as its index in [`GAUGE_NAMES`]. Handles are in
/// interning order, not name order: code that orders points by name ranks
/// the table once ([`NameTable::ranks`]) and compares ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct GaugeName(u16);

impl GaugeName {
    /// Index into a [`NameTable::snapshot`] or [`NameTable::ranks`] of
    /// [`GAUGE_NAMES`].
    pub(crate) fn index(self) -> usize {
        usize::from(self.0)
    }
}

/// Every gauge name sampled so far, indexed by [`GaugeName::index`].
pub(crate) fn gauge_names() -> Vec<&'static str> {
    GAUGE_NAMES.snapshot()
}

/// Each gauge name's rank in name order, indexed by [`GaugeName::index`].
pub(crate) fn gauge_ranks() -> Vec<u16> {
    GAUGE_NAMES.ranks()
}

/// One gauge transition: `(node, gauge)` took `value` at `time`. 20 bytes,
/// all `Copy`, packed to 4-byte alignment so that nothing pads them; every
/// field is read by value, through its accessor.
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(C, packed(4))]
pub struct SeriesPoint {
    /// Simulated time of the transition, read through [`SeriesPoint::time`].
    time: SimTime,
    /// The new value, read through [`SeriesPoint::value`].
    value: u64,
    /// Node the gauge belongs to, read through [`SeriesPoint::node`].
    node: u16,
    /// The gauge, read through [`SeriesPoint::gauge`].
    gauge: GaugeName,
}

impl SeriesPoint {
    /// Simulated time of the transition.
    #[inline]
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// The new value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Node the gauge belongs to.
    #[inline]
    pub fn node(&self) -> u32 {
        u32::from(self.node)
    }

    /// Static gauge name. Every gauge is simulation state, identical at
    /// any shard count.
    pub fn gauge(&self) -> &'static str {
        GAUGE_NAMES.resolve(self.gauge.0)
    }

    /// The gauge's handle in the process-wide name table.
    pub(crate) fn gauge_name(&self) -> GaugeName {
        self.gauge
    }
}

/// Shows the gauge by name: a handle's number depends on which thread
/// interned the name first.
impl fmt::Debug for SeriesPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SeriesPoint")
            .field("time", &self.time())
            .field("node", &self.node())
            .field("gauge", &self.gauge())
            .field("value", &self.value())
            .finish()
    }
}

/// Number of fixed-width value bands in a [`GaugeSummary`] histogram.
pub const HIST_BINS: usize = 8;

/// Summary of one `(node, gauge)` step function over `[0, end]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeSummary {
    /// Gauge name.
    pub gauge: &'static str,
    /// Owning node.
    pub node: u32,
    /// Smallest value taken.
    pub min: u64,
    /// Largest value taken.
    pub max: u64,
    /// Value at `end`.
    pub last: u64,
    /// Time-weighted mean, scaled by 1000 (integer, deterministic).
    pub mean_x1000: u64,
    /// Nanoseconds spent in each of [`HIST_BINS`] equal value bands of
    /// `[min, max]` (all in bin 0 when `min == max`). Sums to the observed
    /// span (first transition to `end`).
    pub hist: [u64; HIST_BINS],
}

/// A gauge name interned in one [`SeriesSink`] by [`SeriesSink::gauge`].
/// Valid only for the sink that issued it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Points an enabled sink reserves at construction: 2^18 points of 20
/// bytes, 5 MiB.
const RESERVED: usize = 1 << 18;

/// The append-only sink gauge transitions land in: it keeps every point,
/// in recording order, reserving 2^18 of them at construction and growing
/// past them if a run records more.
#[derive(Clone, Debug, Default)]
pub struct SeriesSink {
    config: SeriesConfig,
    points: Vec<SeriesPoint>,
    /// Last value per `(node, gauge)` — the dedup filter. Two levels: the
    /// gauges this sink has interned, indexed by [`GaugeId`], each with its
    /// process-wide handle, then a dense per-node table, so recording by
    /// handle is one index plus one compare.
    last: Vec<(&'static str, GaugeName, Vec<Option<u64>>)>,
}

impl SeriesSink {
    /// A sink for `config` (reserves its points iff enabled).
    pub fn new(config: SeriesConfig) -> Self {
        let points = if config.is_enabled() {
            Vec::with_capacity(RESERVED)
        } else {
            Vec::new()
        };
        SeriesSink {
            config,
            points,
            last: Vec::new(),
        }
    }

    /// A disabled sink (the default for clusters).
    pub fn disabled() -> Self {
        SeriesSink::new(SeriesConfig::off())
    }

    /// Whether samples are kept.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// The configuration in use.
    pub fn config(&self) -> SeriesConfig {
        self.config
    }

    /// The handle of gauge `name` in this sink, interning it on first
    /// sight. A disabled sink interns nothing (it never allocates) and
    /// returns a handle its [`record_gauge`](Self::record_gauge) ignores.
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        if !self.config.enabled {
            return GaugeId::default();
        }
        // Gauge names are `&'static str`s, so pointer equality is the
        // common-case hit; fall back to string equality for safety.
        let i = match self
            .last
            .iter()
            .position(|(g, _, _)| std::ptr::eq(*g, name) || *g == name)
        {
            Some(i) => i,
            None => self.intern_gauge(name),
        };
        GaugeId(i as u32)
    }

    /// Sample `(node, name) = value` at `time`: [`gauge`](Self::gauge) then
    /// [`record_gauge`](Self::record_gauge). Sites that sample on every
    /// pump keep the handle instead of naming the gauge each time.
    #[inline]
    pub fn record(&mut self, time: SimTime, node: u32, name: &'static str, value: u64) {
        if !self.config.enabled {
            return;
        }
        let gauge = self.gauge(name);
        self.record_gauge(time, node, gauge, value);
    }

    /// Sample `(node, gauge) = value` at `time`. Free (one branch) when
    /// disabled; a no-op when the value is unchanged; otherwise a push,
    /// which allocates only past the reservation. `node` must fit in 16
    /// bits (checked).
    #[inline]
    pub fn record_gauge(&mut self, time: SimTime, node: u32, gauge: GaugeId, value: u64) {
        if !self.config.enabled {
            return;
        }
        let (_, name, nodes) = &mut self.last[gauge.0 as usize];
        let slot = node as usize;
        if slot >= nodes.len() {
            Self::grow_nodes(nodes, slot);
        }
        match nodes[slot] {
            Some(v) if v == value => return,
            _ => nodes[slot] = Some(value),
        }
        let p = SeriesPoint {
            time,
            value,
            node: u16::try_from(node).expect("a gauge point's node fits in 16 bits"),
            gauge: *name,
        };
        self.points.push(p);
    }

    /// First sighting of a gauge name: intern it process-wide and append a
    /// dedup row for it. Runs once per distinct gauge per sink — kept out of
    /// the hot path so recording stays allocation-free after warm-up.
    #[cold]
    fn intern_gauge(&mut self, gauge: &'static str) -> usize {
        let handle = GaugeName(GAUGE_NAMES.intern(gauge));
        self.last.push((gauge, handle, Vec::new()));
        self.last.len() - 1
    }

    /// First sighting of a node index for a gauge: grow its dense table.
    #[cold]
    fn grow_nodes(nodes: &mut Vec<Option<u64>>, slot: usize) {
        nodes.resize(slot + 1, None);
    }

    /// Recorded transitions, in recording order. The iterator also gives
    /// the points as one slice ([`AsRef`]), which
    /// [`WatchEngine::scan_series`](crate::WatchEngine::scan_series) reads
    /// by index.
    pub fn iter(&self) -> std::slice::Iter<'_, SeriesPoint> {
        self.points.iter()
    }

    /// Number of transitions held.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether nothing was sampled (or the sink is disabled).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Point slots actually allocated (0 for a disabled sink).
    pub fn allocated_capacity(&self) -> usize {
        self.points.capacity()
    }

    /// Merge per-shard sinks into one canonical stream, ordered by
    /// `(time, node, gauge)` (gauges by name) with the sinks' order, and
    /// each sink's internal order, kept among ties. Every `(node, gauge)`
    /// pair is sampled by exactly one shard, so the merged stream is
    /// independent of the sharding.
    ///
    /// The merge works in place, like
    /// [`ProbeSink::merge_canonical`](crate::ProbeSink::merge_canonical):
    /// each sink, in time order as a shard records, has its instants sorted
    /// on `(node, gauge rank)`, and the sinks are merged backward into the
    /// first sink's buffer, the name table ranked once for the merge.
    pub fn merge_canonical(mut sinks: Vec<SeriesSink>) -> SeriesSink {
        let config = SeriesConfig {
            enabled: sinks.iter().any(SeriesSink::is_enabled),
        };
        // Ranking allocates, so a run that sampled nothing skips it.
        let rank = if sinks.iter().all(SeriesSink::is_empty) {
            Vec::new()
        } else {
            GAUGE_NAMES.ranks()
        };
        let key = |p: &SeriesPoint| (p.node, rank[p.gauge.index()]);
        for sink in &mut sinks {
            merge::sort_instants(&mut sink.points, SeriesPoint::time, key);
        }
        let points = merge::merge_into_first(&mut sinks, |s| &mut s.points, SeriesPoint::time, key);
        SeriesSink {
            config,
            points,
            last: Vec::new(),
        }
    }

    /// Fold every `(node, gauge)` step function into a [`GaugeSummary`],
    /// sorted by `(gauge, node)`. Each function is evaluated from its first
    /// transition to `end`.
    pub fn summarize(&self, end: SimTime) -> Vec<GaugeSummary> {
        // Group points per (gauge, node) in one sort of their positions:
        // each group is one run of the order, its points in time order.
        let all: Vec<&SeriesPoint> = self.iter().collect();
        let rank = GAUGE_NAMES.ranks();
        let mut order: Vec<(u16, u32, u32)> = all
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let i = u32::try_from(i).expect("a series holds at most 2^32 points");
                (rank[p.gauge.index()], p.node(), i)
            })
            .collect();
        order.sort_unstable();
        let mut out = Vec::new();
        for group in order.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let pts: Vec<&SeriesPoint> = group.iter().map(|k| all[k.2 as usize]).collect();
            let (gauge, node) = (pts[0].gauge(), pts[0].node());
            let min = pts.iter().map(|p| p.value()).min().unwrap_or(0);
            let max = pts.iter().map(|p| p.value()).max().unwrap_or(0);
            let last = pts.last().map_or(0, |p| p.value());
            // Durations at each value: from each transition to the next
            // (or to `end`).
            let mut weighted: u128 = 0;
            let mut span: u64 = 0;
            let mut hist = [0u64; HIST_BINS];
            for (i, p) in pts.iter().enumerate() {
                let until = pts.get(i + 1).map_or(end, |n| n.time()).max(p.time());
                let dur = until.as_nanos().saturating_sub(p.time().as_nanos());
                if dur == 0 {
                    continue;
                }
                weighted += u128::from(dur) * u128::from(p.value());
                span += dur;
                let bin = if max == min {
                    0
                } else {
                    // Fixed-width bands over [min, max], top value inclusive.
                    (((p.value() - min) * HIST_BINS as u64) / (max - min + 1)) as usize
                };
                hist[bin.min(HIST_BINS - 1)] += dur;
            }
            let mean_x1000 = if span == 0 {
                last * 1000
            } else {
                ((weighted * 1000) / u128::from(span)) as u64
            };
            out.push(GaugeSummary {
                gauge,
                node,
                min,
                max,
                last,
                mean_x1000,
                hist,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_sink_records_nothing_and_allocates_nothing() {
        let mut s = SeriesSink::disabled();
        for i in 0..10_000 {
            s.record(at(i), 0, "tokens", i);
        }
        assert!(s.is_empty());
        assert_eq!(s.allocated_capacity(), 0, "disabled sink must not allocate");
        assert!(!s.is_enabled());
    }

    #[test]
    fn consecutive_equal_samples_deduplicate() {
        let mut s = SeriesSink::new(SeriesConfig::on());
        s.record(at(0), 0, "tokens", 4);
        s.record(at(10), 0, "tokens", 4);
        s.record(at(20), 0, "tokens", 3);
        s.record(at(30), 0, "tokens", 3);
        s.record(at(40), 0, "tokens", 4);
        let vals: Vec<u64> = s.iter().map(SeriesPoint::value).collect();
        assert_eq!(vals, vec![4, 3, 4]);
        // An equal value on a different node is not deduplicated away.
        s.record(at(50), 1, "tokens", 4);
        assert_eq!(s.len(), 4);
    }

    /// A sink holding one point past its reservation, all of gauge `q` on
    /// `node`, the value counting up, `period` points an instant.
    fn past_the_reservation(node: u32, period: u64) -> SeriesSink {
        let mut s = SeriesSink::new(SeriesConfig::on());
        for i in 0..=RESERVED as u64 {
            s.record(at(i / period), node, "q", i);
        }
        s
    }

    #[test]
    fn a_sink_keeps_every_point_past_its_reservation() {
        let s = past_the_reservation(0, u64::MAX);
        assert_eq!(s.len(), RESERVED + 1);
        assert!(s.iter().map(SeriesPoint::value).eq(0..=RESERVED as u64));
    }

    #[test]
    fn merging_sinks_past_their_reservation_is_a_stable_sort() {
        let sinks = vec![past_the_reservation(1, 1_000), past_the_reservation(0, 999)];
        let mut oracle: Vec<SeriesPoint> =
            sinks.iter().flat_map(SeriesSink::iter).copied().collect();
        oracle.sort_by_key(|p| (p.time(), p.node(), p.gauge()));
        let merged = SeriesSink::merge_canonical(sinks);
        assert!(merged.iter().eq(oracle.iter()));
    }

    #[test]
    fn merge_is_canonical_and_shard_independent() {
        let mk = |recs: &[(u64, u32, u64)]| {
            let mut s = SeriesSink::new(SeriesConfig::on());
            for &(t, n, v) in recs {
                s.record(at(t), n, "tokens", v);
            }
            s
        };
        let whole = mk(&[(0, 0, 1), (0, 1, 2), (5, 0, 3), (7, 1, 4)]);
        let a = mk(&[(0, 0, 1), (5, 0, 3)]);
        let b = mk(&[(0, 1, 2), (7, 1, 4)]);
        let merged = SeriesSink::merge_canonical(vec![a, b]);
        let one = SeriesSink::merge_canonical(vec![whole]);
        let m: Vec<_> = merged.iter().copied().collect();
        let o: Vec<_> = one.iter().copied().collect();
        assert_eq!(m, o, "merge must not depend on sharding");
    }

    #[test]
    fn summary_is_time_weighted_and_hist_sums_to_span() {
        let mut s = SeriesSink::new(SeriesConfig::on());
        // value 2 on [0,100), 6 on [100,400), 2 on [400,1000].
        s.record(at(0), 3, "tokens", 2);
        s.record(at(100), 3, "tokens", 6);
        s.record(at(400), 3, "tokens", 2);
        let sums = s.summarize(at(1000));
        assert_eq!(sums.len(), 1);
        let g = sums[0];
        assert_eq!((g.gauge, g.node), ("tokens", 3));
        assert_eq!((g.min, g.max, g.last), (2, 6, 2));
        // mean = (2*700 + 6*300) / 1000 = 3.2
        assert_eq!(g.mean_x1000, 3200);
        assert_eq!(g.hist.iter().sum::<u64>(), 1000);
        // min band holds the 700ns at value 2; top band the 300ns at 6.
        assert_eq!(g.hist[0], 700);
        assert_eq!(g.hist.iter().rev().sum::<u64>() - g.hist[0], 300);
    }

    #[test]
    fn series_points_are_thin() {
        // A point names its gauge by a u16 handle, not a 16-byte name,
        // keeps its node in 16 bits and no position, and nothing pads it.
        let size = std::mem::size_of::<SeriesPoint>();
        assert_eq!(size, 20, "SeriesPoint is {size} bytes");
    }

    #[test]
    fn summaries_sort_by_gauge_then_node() {
        let mut s = SeriesSink::new(SeriesConfig::on());
        s.record(at(0), 1, "z", 1);
        s.record(at(0), 0, "a", 1);
        s.record(at(0), 0, "z", 1);
        let keys: Vec<(&str, u32)> = s
            .summarize(at(10))
            .iter()
            .map(|g| (g.gauge, g.node))
            .collect();
        assert_eq!(keys, vec![("a", 0), ("z", 0), ("z", 1)]);
    }
}
