//! Differential property tests of the canonical probe and series merges.
//!
//! The merges work in place: each sink, recorded in time order as a shard
//! records, has its instants stably sorted on the key (node, and gauge
//! rank for points), and the sinks are then merged backward into the first
//! sink's buffer, ties going to the lower sink. The oracle here is the
//! plain algorithm they replace: copy every sink's records out in
//! recording order and stable-sort the copy on the ordering fields.
//!
//! The inputs are one to four sinks, each recorded in time order from the
//! same first instant, most records sharing the instant of the one before:
//! so `(time, node)` (and gauge) ties are dense within a sink and across
//! sinks, and within an instant nodes come in no particular order. One
//! long sink on its own exercises the in-instant sort alone.

use std::ops::Range;

use gm_sim::probe::{ProbeId, Track};
use gm_sim::{
    GaugeId, ProbeConfig, ProbeEvent, ProbeSink, SeriesConfig, SeriesPoint, SeriesSink, SimTime,
};
use proptest::collection::vec;
use proptest::prelude::*;

static REC: ProbeId = ProbeId::new("merge_props_record", Track::Lanai);

/// One sink's records, in recording order, each `(time, rest)`.
type Records<R> = Vec<(u64, R)>;

/// Records whose times never decrease, from 1 ns: most share the instant
/// of the record before, the others come 1 or 2 ns after it.
fn timed<R: Strategy>(rest: R, len: Range<usize>) -> impl Strategy<Value = Vec<(u64, R::Value)>> {
    let step = prop_oneof![Just(0u64), Just(0u64), Just(0u64), 1u64..3];
    vec((step, rest), len).prop_map(|records| {
        let mut t = 1;
        records
            .into_iter()
            .map(|(dt, rest)| {
                t += dt;
                (t, rest)
            })
            .collect()
    })
}

/// One to four sinks, each recorded in time order.
fn sinks_in_time_order<R: Strategy>(rest: R) -> impl Strategy<Value = Vec<Records<R::Value>>> {
    vec(timed(rest, 0..40), 1..5)
}

/// One long sink recorded in time order.
fn one_sink_in_time_order<R: Strategy>(rest: R) -> impl Strategy<Value = Vec<Records<R::Value>>> {
    timed(rest, 0..120).prop_map(|records| vec![records])
}

fn at(ns: u64) -> SimTime {
    SimTime::from_nanos(ns)
}

/// Probe sinks holding `input`, each record a `Begin` of node `node`.
fn probe_sinks(input: &[Records<u32>]) -> Vec<ProbeSink> {
    input
        .iter()
        .enumerate()
        .map(|(k, records)| {
            let mut s = ProbeSink::new(ProbeConfig::spans());
            for (i, &(t, node)) in records.iter().enumerate() {
                // (sink, record) in the payload tells every record apart.
                let (a, b) = (k as u64, i as u64);
                s.begin(at(t), node, &REC, "", a, b);
            }
            s
        })
        .collect()
}

/// Gauge names, listed out of lexicographic order so that interning order
/// and name order disagree.
const NAMES: [&str; 3] = ["zeta", "alpha", "mu"];

/// Series sinks holding `input`, each point `(node, gauge, value)`.
fn series_sinks(input: &[Records<(u32, usize, u64)>]) -> Vec<SeriesSink> {
    // A second copy of each name at another address: gauges must compare
    // by name, not by pointer.
    let copies = NAMES.map(|n| &*String::from(n).leak());
    input
        .iter()
        .enumerate()
        .map(|(k, records)| {
            let mut s = SeriesSink::new(SeriesConfig::on());
            let names = if k % 2 == 0 { NAMES } else { copies };
            let ids: Vec<GaugeId> = names.iter().map(|&n| s.gauge(n)).collect();
            for (i, &(t, (node, g, v))) in records.iter().enumerate() {
                // Values differ between sinks, so every point says which
                // sink it came from.
                let value = 10 * k as u64 + v;
                // Both record paths: by handle and by name.
                if i % 2 == 0 {
                    s.record_gauge(at(t), node, ids[g], value);
                } else {
                    s.record(at(t), node, names[g], value);
                }
            }
            s
        })
        .collect()
}

fn probe_oracle(sinks: &[ProbeSink]) -> Vec<ProbeEvent> {
    let mut events: Vec<ProbeEvent> = sinks.iter().flat_map(|s| s.iter().copied()).collect();
    events.sort_by_key(|e| (e.time(), e.node()));
    events
}

fn series_oracle(sinks: &[SeriesSink]) -> Vec<SeriesPoint> {
    let mut points: Vec<SeriesPoint> = sinks.iter().flat_map(|s| s.iter().copied()).collect();
    points.sort_by_key(|p| (p.time(), p.node(), p.gauge()));
    points
}

/// Merge `sinks` and compare the stream with the oracle's.
fn check_probe_merge(sinks: Vec<ProbeSink>) {
    let expect = probe_oracle(&sinks);
    let merged = ProbeSink::merge_canonical(sinks);
    assert_eq!(merged.as_slice(), &expect[..]);
}

/// Merge `sinks` and compare the stream with the oracle's.
fn check_series_merge(sinks: Vec<SeriesSink>) {
    let expect = series_oracle(&sinks);
    let merged = SeriesSink::merge_canonical(sinks);
    let got: Vec<SeriesPoint> = merged.iter().copied().collect();
    assert_eq!(got, expect);
}

/// A probe record's node.
fn node() -> Range<u32> {
    0..4
}

/// A gauge point's node, gauge and value.
fn point() -> (Range<u32>, Range<usize>, Range<u64>) {
    (0..3, 0..NAMES.len(), 0..4)
}

#[test]
fn records_and_points_hold_no_position() {
    assert_eq!(std::mem::size_of::<ProbeEvent>(), 28);
    assert_eq!(std::mem::size_of::<SeriesPoint>(), 20);
}

/// A sink whose records go back in time breaks the merge's precondition,
/// which debug builds check.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "in time order")]
fn a_sink_out_of_time_order_is_refused() {
    ProbeSink::merge_canonical(probe_sinks(&[vec![(2, 0), (1, 1)]]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn probe_merge_matches_copy_and_stable_sort(input in sinks_in_time_order(node())) {
        check_probe_merge(probe_sinks(&input));
    }

    #[test]
    fn probe_merge_of_one_sink_in_time_order(input in one_sink_in_time_order(node())) {
        check_probe_merge(probe_sinks(&input));
    }

    #[test]
    fn series_merge_matches_copy_and_stable_sort(input in sinks_in_time_order(point())) {
        check_series_merge(series_sinks(&input));
    }

    #[test]
    fn series_merge_of_one_sink_in_time_order(input in one_sink_in_time_order(point())) {
        check_series_merge(series_sinks(&input));
    }
}
