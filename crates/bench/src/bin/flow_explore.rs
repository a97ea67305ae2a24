//! Causal flow explorer: run one multicast configuration with span probes
//! *and* gauge time-series enabled, reconstruct the causal flow graph,
//! extract the critical path of every measured iteration, and render the
//! per-hop / per-resource breakdown next to the gauge telemetry — the
//! "where did the time go" view the paper derives by hand from its
//! timeline figures.
//!
//! ```console
//! cargo run --release -p bench --bin flow_explore -- \
//!     --nodes 16 --size 4096 --mode nic --shape adaptive
//! ```
//!
//! The NIC-based and host-based schemes take structurally different
//! critical paths (NIC forwarding keeps the host off the chain); the run
//! ends with a signature diff against the opposite scheme.
//!
//! `--check` turns the run into a CI gate: the flow graph must be acyclic,
//! every delivered message must have an unbroken lineage back to its host
//! send call, and every window's buckets must sum exactly to the completion
//! latency. The probe and series sinks keep every record, so the lineage
//! and the telemetry are whole.

use bench::cli::{self, mode_name, CliError};
use bench::sparkline;
use gm_sim::{FlowGraph, GaugeSummary, SeriesConfig, SimDuration, HIST_BINS};
use nic_mcast::{BuiltScenario, McastMode, ProbeConfig, Report};

/// Decode the command line into the scenario it describes and the same
/// scenario under the opposite scheme, plus `--check`.
fn parse(a: &cli::Args) -> Result<(BuiltScenario, BuiltScenario, bool), CliError> {
    let shards = a.get("--shards", 1)?;
    let observed = |mode| {
        let scenario = cli::scenario(a, mode, 4096, 5, 2)?
            .shards(shards)
            .probes(ProbeConfig::spans())
            .series(SeriesConfig::on());
        cli::build(scenario)
    };
    let (mode, opposite) = match cli::mode(a)? {
        McastMode::NicBased => (McastMode::NicBased, McastMode::HostBased),
        McastMode::HostBased => (McastMode::HostBased, McastMode::NicBased),
    };
    Ok((observed(mode)?, observed(opposite)?, a.has("--check")))
}

/// The per-gauge summary of the busiest node (largest time-weighted mean).
fn busiest_per_gauge(summaries: &[GaugeSummary]) -> Vec<&GaugeSummary> {
    let mut best: Vec<&GaugeSummary> = Vec::new();
    for s in summaries {
        match best.iter_mut().find(|b| b.gauge == s.gauge) {
            Some(b) if b.mean_x1000 >= s.mean_x1000 => {}
            Some(b) => *b = s,
            None => best.push(s),
        }
    }
    best
}

fn main() {
    let (built, opposite, check) = cli::parse_or_exit(cli::FLOW_EXPLORE, parse);
    let spec = built.spec();
    let report = built.run();
    let events = report.probe.as_slice();
    let graph = FlowGraph::build(events);
    let delivered = graph.delivered();

    println!(
        "{} multicast, {} nodes, {} bytes, loss {:.2}%: {} flows, {} delivered, {} probe events",
        mode_name(spec.mode),
        spec.n_nodes,
        spec.size,
        spec.faults.drop_prob * 100.0,
        graph.flows().count(),
        delivered.len(),
        events.len(),
    );
    println!("  latency (mean):   {:>10.2} us", report.latency.mean());

    // --check: structural gates over the causal graph and every window.
    let mut failures: Vec<String> = Vec::new();
    for e in graph.validate() {
        failures.push(e);
    }

    // Critical path per measured window.
    println!(
        "\ncritical paths ({} measured windows):",
        report.windows.len()
    );
    let mut last_path = None;
    for (i, &w) in report.windows.iter().enumerate() {
        match graph.critical_path(events, w) {
            Some(cp) => {
                println!(
                    "  window {i}: {:>9.2} us  {}",
                    cp.total.as_micros_f64(),
                    cp.signature()
                );
                if cp.bucket_sum() != cp.total {
                    failures.push(format!(
                        "window {i}: buckets sum to {} but the window is {}",
                        cp.bucket_sum().as_nanos(),
                        cp.total.as_nanos()
                    ));
                }
                last_path = Some(cp);
            }
            None => failures.push(format!("window {i}: no delivery — no critical path")),
        }
    }
    if let Some(cp) = &last_path {
        println!("\nfinal window, per-hop / per-resource breakdown:");
        for (label, d) in &cp.buckets {
            let pct = if cp.total.as_nanos() > 0 {
                100.0 * d.as_micros_f64() / cp.total.as_micros_f64()
            } else {
                0.0
            };
            println!("  {label:<24} {:>9.2} us  {pct:>5.1}%", d.as_micros_f64());
        }
        println!(
            "  {:<24} {:>9.2} us  (buckets sum exactly)",
            "total",
            cp.total.as_micros_f64()
        );
    }

    // Gauge telemetry: the busiest node per gauge, with an occupancy
    // sparkline over the value bands.
    let summaries = report.series.summarize(report.end_time);
    if !summaries.is_empty() {
        println!("\ngauge telemetry (busiest node per gauge, [{HIST_BINS}-bin value histogram]):");
        for s in busiest_per_gauge(&summaries) {
            println!(
                "  {:<18} n{:<3} min {:>4}  max {:>4}  last {:>4}  mean {:>8.3}  [{}]",
                s.gauge,
                s.node,
                s.min,
                s.max,
                s.last,
                s.mean_x1000 as f64 / 1000.0,
                sparkline(&s.hist),
            );
        }
    }

    bench::print_sharded(&report.metrics);

    // Scheme diff: same configuration under the opposite scheme.
    let other_mode = opposite.spec().mode;
    let other = opposite.run();
    let other_events = other.probe.as_slice();
    let other_graph = FlowGraph::build(other_events);
    let sig =
        |r: &Report, g: &FlowGraph, ev: &[gm_sim::ProbeEvent]| -> Option<(String, SimDuration)> {
            let &w = r.windows.last()?;
            let cp = g.critical_path(ev, w)?;
            Some((cp.signature(), cp.total))
        };
    if let (Some((a, ta)), Some((b, tb))) = (
        sig(&report, &graph, events),
        sig(&other, &other_graph, other_events),
    ) {
        println!("\ncritical-path diff (final window):");
        println!(
            "  {:<11} {:>9.2} us  {}",
            mode_name(spec.mode),
            ta.as_micros_f64(),
            a
        );
        println!(
            "  {:<11} {:>9.2} us  {}",
            mode_name(other_mode),
            tb.as_micros_f64(),
            b
        );
    }

    if check {
        if report.windows.is_empty() {
            failures.push("no measured windows".into());
        }
        if delivered.is_empty() {
            failures.push("no delivered flows".into());
        }
        cli::report_check("flow", &failures, || {
            format!(
                "\nflow check: OK (graph acyclic, {} lineages complete, buckets sum \
                 to completion latency in all {} windows)",
                delivered.len(),
                report.windows.len()
            )
        });
    }
}
