//! The metrics the benchmark reports, with their units and directions.
//!
//! `BENCHMARK.json` at the repository root lists the host-clock end-to-end
//! metrics and every per-layer metric by these names; a test keeps the two
//! in step.

/// One end-to-end metric.
pub struct E2e {
    /// Name as printed and stored.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a larger value is better.
    pub higher_better: bool,
    /// Deterministic for a seed, so compared exactly. The others are host
    /// clock measurements, compared against the bounds in `BENCHMARK.json`.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, higher_better: bool, exact: bool) -> E2e {
    E2e {
        name,
        unit,
        higher_better,
        exact,
    }
}

/// Every end-to-end metric. A workload reports those it has samples for:
/// `sim_p50_us`, `sim_p99_us` and `sim_goodput_mbs` on the open-loop
/// workloads, `sim_speedup` and `sim_host_cpu_us` on `paper_sweep`.
pub const E2E: [E2e; 9] = [
    e2e("setup_s", "s", false, false),
    e2e("run_s", "s", false, false),
    e2e("peak_rss_mb", "MB", false, false),
    e2e("fail_frac", "ratio", false, true),
    e2e("sim_p50_us", "us", false, true),
    e2e("sim_p99_us", "us", false, true),
    e2e("sim_goodput_mbs", "MB/s", true, true),
    e2e("sim_speedup", "x", true, true),
    e2e("sim_host_cpu_us", "us", false, true),
];

/// One per-layer metric.
pub struct Layer {
    /// Name as printed and stored.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The program's own counter of this name, read from its `Metrics`;
    /// otherwise the benchmark computes or times it.
    pub counter: bool,
}

const fn counter(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        counter: true,
    }
}

const fn measured(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        counter: false,
    }
}

/// Every per-layer metric, grouped by layer, taken from the passes over
/// input 0. Counters are exact for a seed; `_s` values are raw (unscaled)
/// host seconds of spans the benchmark times around public calls, medians
/// over those passes. A traced run reports all of them on every workload, 0
/// where the workload does not reach the layer.
pub const PER_LAYER: [Layer; 48] = [
    // sim: engine, event queue, parallel, probe, series, critical_path, watch
    measured("sim.events", "count"),
    measured("sim.dispatch_s", "s"),
    measured("sim.events_per_s", "1/s"),
    measured("sim.outside_dispatch_s", "s"),
    measured("sim.allocs_per_event", "allocs/event"),
    counter("parallel.barrier_waits", "count"),
    counter("parallel.windows", "count"),
    counter("parallel.event_imbalance_pct", "%"),
    measured("sim.parallel.busy_ratio", "ratio"),
    measured("sim.probe.events", "count"),
    counter("probe.dropped_events", "count"),
    counter("series.dropped_points", "count"),
    measured("sim.watch.incidents", "count"),
    measured("sim.probe.to_vec_s", "s"),
    measured("sim.flow_graph_s", "s"),
    measured("sim.watch.scan_s", "s"),
    measured("sim.watch.evidence_s", "s"),
    // myrinet: topology, fabric
    measured("myrinet.fabric_new_s", "s"),
    measured("myrinet.partition_s", "s"),
    counter("fabric.wire_bytes", "bytes"),
    counter("fabric.delivered", "count"),
    counter("fabric.dropped_random", "count"),
    counter("fabric.stall_ns", "ns"),
    measured("fabric.useful_byte_ratio", "ratio"),
    // gm: cluster, nic, host, proto
    measured("gm.build_cluster_s", "s"),
    counter("nic.tx_data", "count"),
    counter("nic.rx_data", "count"),
    counter("nic.tx_acks", "count"),
    counter("nic.acks_coalesced", "count"),
    counter("nic.retransmissions", "count"),
    counter("nic.send_token_stall", "count"),
    counter("nic.rx_drop_no_token", "count"),
    counter("nic.rx_drop_no_sram", "count"),
    measured("nic.retx_ratio", "ratio"),
    // core (nic_mcast): workload, scenario, tree, ext
    measured("core.build_s", "s"),
    counter("nic.mcast_tx", "count"),
    counter("nic.mcast_fwd", "count"),
    counter("nic.mcast_delivered", "count"),
    counter("nic.mcast_retx_tx", "count"),
    counter("nic.mcast_fwd_token_stall", "count"),
    measured("core.mcast_retx_ratio", "ratio"),
    counter("nic.mcast_group_installs", "count"),
    counter("nic.mcast_group_admission_waits", "count"),
    counter("nic.mcast_unknown_group", "count"),
    counter("nic.mcast_left_reack", "count"),
    // mpi (gm_mpi)
    measured("mpi.execute_s", "s"),
    measured("mpi.events", "count"),
    // the benchmark itself: traced run_s minus the untraced median
    measured("bench.trace_overhead_s", "s"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &serde_json::Value, key: &str) -> Vec<(String, String)> {
        let Some(serde_json::Value::Seq(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let s = |k| match m.get(k) {
                    Some(serde_json::Value::Str(s)) => s.clone(),
                    _ => panic!("{key} entry without {k}"),
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let host: Vec<_> = E2E
            .iter()
            .filter(|m| !m.exact)
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(names(&doc, "end_to_end"), host);
        let layer: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(names(&doc, "per_layer"), layer);
        let workloads: Vec<_> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), String::new()))
            .collect();
        let listed: Vec<_> = match doc.get("workloads") {
            Some(serde_json::Value::Seq(ws)) => ws
                .iter()
                .map(|w| match w.get("name") {
                    Some(serde_json::Value::Str(n)) => (n.clone(), String::new()),
                    _ => panic!("workload without a name"),
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no workloads list"),
        };
        assert_eq!(listed, workloads);
    }
}
