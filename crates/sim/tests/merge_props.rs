//! Differential property tests of the canonical probe and series merges.
//!
//! The merges work in place: they sort the records themselves, keyed on
//! each record's position in the concatenated sinks, and a stream already
//! in time order is sorted only within each instant. The oracle here is
//! the plain algorithm they replace: copy every sink's records out in
//! recording order, stable-sort the copy on the ordering fields, renumber
//! `seq`.
//!
//! The inputs reach both branches of the sort:
//!
//! * random streams into one to four sinks, with dense `(time, node)` ties
//!   across sinks and records dated later than the ones recorded after
//!   them: nearly all are sorted whole;
//! * one sink recorded in time order, with dense ties across nodes (and
//!   gauges) in no particular order: sorted within each instant;
//! * several sinks, each recorded in time order: their concatenation
//!   nearly always goes back in time, so it is sorted whole;
//! * one sink in time order but for one record dated before the one
//!   recorded ahead of it: sorted whole, unless that record is a gauge
//!   point that repeats its gauge's value and so is never kept.

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

/// One to four sinks of random records. Times and nodes come from small
/// ranges, so ties are dense and some records are dated ahead of later
/// ones.
fn sinks<R: Strategy>(rest: R) -> impl Strategy<Value = Vec<Records<R::Value>>> {
    vec(vec((0u64..8, rest), 0..40), 1..5)
}

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

/// One sink recorded in time order.
fn one_sink_in_time_order<R: Strategy>(rest: R) -> impl Strategy<Value = Vec<Records<R::Value>>> {
    timed(rest, 0..80).prop_map(|records| vec![records])
}

/// Two to four sinks, each recorded in time order.
fn sinks_in_time_order<R: Strategy>(rest: R) -> impl Strategy<Value = Vec<Records<R::Value>>> {
    vec(timed(rest, 0..40), 2..5)
}

/// One sink recorded in time order but for one record dated 0, before
/// every other.
fn one_inversion<R: Strategy>(rest: R) -> impl Strategy<Value = Vec<Records<R::Value>>> {
    (timed(rest, 2..80), any::<usize>()).prop_map(|(mut records, at)| {
        // Not the first record, so the one ahead of it is dated later.
        let i = 1 + at % (records.len() - 1);
        records[i].0 = 0;
        vec![records]
    })
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
    events.sort_by_key(|e| (e.time, e.node()));
    for (i, e) in (0..).zip(events.iter_mut()) {
        e.seq = i;
    }
    events
}

fn series_oracle(sinks: &[SeriesSink]) -> Vec<SeriesPoint> {
    let mut points: Vec<SeriesPoint> = sinks.iter().flat_map(|s| s.iter().copied()).collect();
    points.sort_by_key(|p| (p.time, p.node(), p.gauge()));
    for (i, p) in (0..).zip(points.iter_mut()) {
        p.seq = i;
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn probe_merge_matches_copy_and_stable_sort(input in sinks(node())) {
        check_probe_merge(probe_sinks(&input));
    }

    #[test]
    fn probe_merge_of_one_sink_in_time_order(input in one_sink_in_time_order(node())) {
        check_probe_merge(probe_sinks(&input));
    }

    #[test]
    fn probe_merge_of_sinks_in_time_order(input in sinks_in_time_order(node())) {
        check_probe_merge(probe_sinks(&input));
    }

    #[test]
    fn probe_merge_of_a_sink_with_one_inversion(input in one_inversion(node())) {
        check_probe_merge(probe_sinks(&input));
    }

    #[test]
    fn series_merge_matches_copy_and_stable_sort(input in sinks(point())) {
        check_series_merge(series_sinks(&input));
    }

    #[test]
    fn series_merge_of_one_sink_in_time_order(input in one_sink_in_time_order(point())) {
        check_series_merge(series_sinks(&input));
    }

    #[test]
    fn series_merge_of_sinks_in_time_order(input in sinks_in_time_order(point())) {
        check_series_merge(series_sinks(&input));
    }

    #[test]
    fn series_merge_of_a_sink_with_one_inversion(input in one_inversion(point())) {
        check_series_merge(series_sinks(&input));
    }
}
