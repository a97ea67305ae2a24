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
//! send call, every window's buckets must sum exactly to the completion
//! latency, and neither observability ring may overflow (a dropped event
//! or point means the lineage/telemetry is silently incomplete — size the
//! rings up with `--probe-capacity` / `--series-capacity` instead).

use gm_sim::{FlowGraph, GaugeSummary, SeriesConfig, SimDuration, HIST_BINS};
use nic_mcast::{McastMode, ProbeConfig, Report, Scenario, TreeShape};

struct Opts {
    nodes: u32,
    size: usize,
    mode: McastMode,
    shape: String,
    loss: f64,
    iters: u32,
    warmup: u32,
    seed: u64,
    shards: u32,
    probe_capacity: Option<usize>,
    series_capacity: Option<usize>,
    check: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: flow_explore [--nodes N] [--size BYTES] [--mode nic|host] \
         [--shape adaptive|binomial|flat|chain|kary:K] [--loss P] \
         [--iters N] [--warmup N] [--seed S] [--shards N] \
         [--probe-capacity N] [--series-capacity N] [--check]"
    );
    std::process::exit(2)
}

fn parse() -> Opts {
    let mut o = Opts {
        nodes: 16,
        size: 4096,
        mode: McastMode::NicBased,
        shape: "adaptive".to_string(),
        loss: 0.0,
        iters: 5,
        warmup: 2,
        seed: 1,
        shards: 1,
        probe_capacity: None,
        series_capacity: None,
        check: false,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    let val = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--nodes" => o.nodes = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--size" => o.size = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--mode" => {
                o.mode = match val(&mut i).as_str() {
                    "nic" => McastMode::NicBased,
                    "host" => McastMode::HostBased,
                    _ => usage(),
                }
            }
            "--shape" => o.shape = val(&mut i),
            "--loss" => o.loss = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--iters" => o.iters = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--warmup" => o.warmup = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => o.seed = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--shards" => o.shards = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--probe-capacity" => {
                o.probe_capacity = Some(val(&mut i).parse().unwrap_or_else(|_| usage()));
            }
            "--series-capacity" => {
                o.series_capacity = Some(val(&mut i).parse().unwrap_or_else(|_| usage()));
            }
            "--check" => o.check = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    o
}

fn parse_shape(spec: &str) -> TreeShape {
    match spec {
        "adaptive" => TreeShape::auto(),
        "binomial" => TreeShape::Binomial,
        "flat" => TreeShape::Flat,
        "chain" => TreeShape::Chain,
        other => {
            if let Some(k) = other.strip_prefix("kary:") {
                return TreeShape::KAry(k.parse().unwrap_or_else(|_| usage()));
            }
            usage()
        }
    }
}

fn run_mode(o: &Opts, mode: McastMode) -> Report {
    match mode {
        McastMode::NicBased => Scenario::nic_based(o.nodes),
        McastMode::HostBased => Scenario::host_based(o.nodes),
    }
    .size(o.size)
    .tree(parse_shape(&o.shape))
    .warmup(o.warmup)
    .iters(o.iters)
    .seed(o.seed)
    .loss(o.loss)
    .shards(o.shards)
    .probes(match o.probe_capacity {
        Some(n) => ProbeConfig::spans_with_capacity(n),
        None => ProbeConfig::spans(),
    })
    .series(match o.series_capacity {
        Some(n) => SeriesConfig::with_capacity(n),
        None => SeriesConfig::on(),
    })
    .run()
}

fn mode_name(mode: McastMode) -> &'static str {
    match mode {
        McastMode::NicBased => "NIC-based",
        McastMode::HostBased => "host-based",
    }
}

/// ASCII sparkline over the fixed-width histogram bins.
fn sparkline(hist: &[u64; HIST_BINS]) -> String {
    const LEVELS: &[u8] = b" .:-=+*#%";
    let top = hist.iter().copied().max().unwrap_or(0);
    hist.iter()
        .map(|&v| {
            let lvl = if top == 0 {
                0
            } else {
                ((v * (LEVELS.len() as u64 - 1)).div_ceil(top)) as usize
            };
            LEVELS[lvl] as char
        })
        .collect()
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
    let o = parse();
    let report = run_mode(&o, o.mode);
    let events = report.probe.to_vec();
    let graph = FlowGraph::build(&events);
    let delivered = graph.delivered();

    println!(
        "{} multicast, {} nodes, {} bytes, loss {:.2}%: {} flows, {} delivered, {} probe events",
        mode_name(o.mode),
        o.nodes,
        o.size,
        o.loss * 100.0,
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
    println!("\ncritical paths ({} measured windows):", report.windows.len());
    let mut last_path = None;
    for (i, &w) in report.windows.iter().enumerate() {
        match graph.critical_path(&events, w) {
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

    // Sharded execution statistics, when the run was sharded.
    if report.metrics.get("parallel.shards") > 0 {
        println!(
            "\nsharded execution: {} shards, {} windows ({} idle shard-windows), \
             {} horizon tightenings, {} barrier waits",
            report.metrics.get("parallel.shards"),
            report.metrics.get("parallel.windows"),
            report.metrics.get("parallel.idle_windows"),
            report.metrics.get("parallel.horizon_tightenings"),
            report.metrics.get("parallel.barrier_waits"),
        );
    }

    // Scheme diff: same configuration under the opposite scheme.
    let other_mode = match o.mode {
        McastMode::NicBased => McastMode::HostBased,
        McastMode::HostBased => McastMode::NicBased,
    };
    let other = run_mode(&o, other_mode);
    let other_events = other.probe.to_vec();
    let other_graph = FlowGraph::build(&other_events);
    let sig = |r: &Report, g: &FlowGraph, ev: &[gm_sim::ProbeEvent]| -> Option<(String, SimDuration)> {
        let &w = r.windows.last()?;
        let cp = g.critical_path(ev, w)?;
        Some((cp.signature(), cp.total))
    };
    if let (Some((a, ta)), Some((b, tb))) = (
        sig(&report, &graph, &events),
        sig(&other, &other_graph, &other_events),
    ) {
        println!("\ncritical-path diff (final window):");
        println!(
            "  {:<11} {:>9.2} us  {}",
            mode_name(o.mode),
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

    // Ring overflow: a hard --check failure (dropped records mean the
    // lineage/telemetry silently lies); a warning otherwise. Opt up with
    // --probe-capacity / --series-capacity rather than tolerating drops.
    let dropped_events = report.metrics.get("probe.dropped_events");
    if dropped_events > 0 {
        let msg = format!(
            "probe ring overflowed, {dropped_events} events dropped — lineage is incomplete \
             (rerun with --probe-capacity)"
        );
        if o.check {
            failures.push(msg);
        } else {
            eprintln!("warning: {msg}");
        }
    }
    let dropped_points = report.metrics.get("series.dropped_points");
    if dropped_points > 0 {
        let msg = format!(
            "series ring overflowed, {dropped_points} points dropped — gauge summaries are \
             incomplete (rerun with --series-capacity)"
        );
        if o.check {
            failures.push(msg);
        } else {
            eprintln!("warning: {msg}");
        }
    }

    if o.check {
        if report.windows.is_empty() {
            failures.push("no measured windows".into());
        }
        if delivered.is_empty() {
            failures.push("no delivered flows".into());
        }
        // Batching health (warning only — sparse traffic batches poorly).
        let batch = gm_sim::dispatch_stats::batch_snapshot();
        if batch.batches > 0 && batch.mean_batch_size() < 1.05 {
            eprintln!(
                "warning: same-timestamp batching degenerated to singletons \
                 (mean {:.2}) — check MYRI_SIM_BATCH and event timestamp alignment",
                batch.mean_batch_size()
            );
        }
        if failures.is_empty() {
            println!(
                "\nflow check: OK (graph acyclic, {} lineages complete, buckets sum \
                 to completion latency in all {} windows)",
                delivered.len(),
                report.windows.len()
            );
        } else {
            for f in &failures {
                eprintln!("flow check FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}
