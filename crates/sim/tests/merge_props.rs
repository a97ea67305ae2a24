//! Differential property tests of the canonical probe and series merges.
//!
//! The merges work in place: they sort the records themselves, keyed on
//! each record's position in the concatenated rings. The oracle here is
//! the plain algorithm they replace: copy every sink's
//! records out oldest first, stable-sort the copy on the ordering fields,
//! renumber `seq`. Inputs are random streams into one to four sinks with
//! small rings (so some wrap), dense `(time, node)` ties across sinks, and
//! records dated later than the ones recorded after them.

use gm_sim::probe::{ProbeId, Track};
use gm_sim::{
    GaugeId, ProbeConfig, ProbeEvent, ProbeSink, SeriesConfig, SeriesPoint, SeriesSink, SimTime,
};
use proptest::collection::vec;
use proptest::prelude::*;

static REC: ProbeId = ProbeId::new("merge_props_record", Track::Lanai);

/// One sink's ring capacity and its records, in recording order. Times and
/// nodes come from small ranges, so ties are dense and some records are
/// dated ahead of later ones.
fn sinks<R: Strategy>(record: R) -> impl Strategy<Value = Vec<(usize, Vec<R::Value>)>> {
    vec((1usize..24, vec(record, 0..40)), 1..5)
}

fn at(ns: u64) -> SimTime {
    SimTime::from_nanos(ns)
}

fn probe_oracle(sinks: &[ProbeSink]) -> Vec<ProbeEvent> {
    let mut events: Vec<ProbeEvent> = sinks.iter().flat_map(|s| s.iter().copied()).collect();
    events.sort_by_key(|e| (e.time, e.node));
    for (i, e) in events.iter_mut().enumerate() {
        e.seq = i as u64;
    }
    events
}

fn series_oracle(sinks: &[SeriesSink]) -> Vec<SeriesPoint> {
    let mut points: Vec<SeriesPoint> = sinks.iter().flat_map(|s| s.iter().copied()).collect();
    points.sort_by_key(|p| (p.time, p.node, p.gauge()));
    for (i, p) in points.iter_mut().enumerate() {
        p.seq = i as u64;
    }
    points
}

/// Gauge names, listed out of lexicographic order so that interning order
/// and name order disagree.
const NAMES: [&str; 3] = ["zeta", "alpha", "mu"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn probe_merge_matches_copy_and_stable_sort(input in sinks((0u64..8, 0u32..4))) {
        let sinks: Vec<ProbeSink> = input
            .iter()
            .enumerate()
            .map(|(k, (capacity, records))| {
                let mut s = ProbeSink::new(ProbeConfig::spans_with_capacity(*capacity));
                for (i, &(t, node)) in records.iter().enumerate() {
                    // (sink, record) in the payload tells every record apart.
                    let (a, b) = (k as u64, i as u64);
                    s.begin(at(t), node, &REC, "", a, b);
                }
                s
            })
            .collect();
        let expect = probe_oracle(&sinks);
        let evicted: u64 = sinks.iter().map(ProbeSink::evicted).sum();
        let merged = ProbeSink::merge_canonical(sinks);
        prop_assert_eq!(merged.as_slice(), &expect[..]);
        prop_assert_eq!(merged.evicted(), evicted);
    }

    #[test]
    fn series_merge_matches_copy_and_stable_sort(
        input in sinks((0u64..8, 0u32..3, 0usize..NAMES.len(), 0u64..4)),
    ) {
        // A second copy of each name at another address: gauges must
        // compare by name, not by pointer.
        let copies = NAMES.map(|n| &*String::from(n).leak());
        let sinks: Vec<SeriesSink> = input
            .iter()
            .enumerate()
            .map(|(k, (capacity, records))| {
                let mut s = SeriesSink::new(SeriesConfig::with_capacity(*capacity));
                let names = if k % 2 == 0 { NAMES } else { copies };
                let ids: Vec<GaugeId> = names.iter().map(|&n| s.gauge(n)).collect();
                for (i, &(t, node, g, v)) in records.iter().enumerate() {
                    // Values differ between sinks, so every point says
                    // which sink it came from.
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
            .collect();
        let expect = series_oracle(&sinks);
        let dropped: u64 = sinks.iter().map(SeriesSink::dropped).sum();
        let merged = SeriesSink::merge_canonical(sinks);
        let got: Vec<SeriesPoint> = merged.iter().copied().collect();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(merged.dropped(), dropped);
    }
}
