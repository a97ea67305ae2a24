//! Health explorer: drive a lossy many-group Zipf workload with the full
//! observability stack on — span probes, gauge series, and the `sim::watch`
//! detector set — and report the incident stream: what fired, when, how
//! hard, and which flows were causally active in each incident window.
//!
//! ```console
//! cargo run --release -p bench --bin health_explore -- \
//!     --nodes 32 --groups 64 --rate 20000 --duration-ms 2 --loss 0.02
//! ```
//!
//! The run writes `results/health_explore.json`, a machine-readable
//! artifact (`report_diff` compares two of them across runs or commits).
//!
//! `--check` turns the run into a CI gate: the incident stream must be
//! byte-identical when the same run is re-executed at a different shard
//! count, a lossy run must raise at least one `retx_storm` incident with
//! non-empty flow evidence, and the stream must be in canonical order.

use bench::cli::{self, CliError, WorkloadOpts};
use gm_sim::{ProbeConfig, SeriesConfig, SimDuration, WatchConfig};
use nic_mcast::{BuiltWorkload, Incident, Workload, WorkloadReport};

struct Opts {
    wl: WorkloadOpts,
    loss: f64,
    /// The lossy workload, fully observed.
    workload: Workload,
    check: bool,
}

/// Decode the command line, validating the workload it describes.
fn parse(a: &cli::Args) -> Result<(Opts, BuiltWorkload), CliError> {
    let wl = WorkloadOpts::from_args(a, 32, 64, 2)?;
    let loss = a.get("--loss", 0.02)?;
    let watch = match a.opt("--window-us")? {
        Some(0) => {
            return Err(CliError::Invalid(
                "--window-us 0 gives the detectors no window".into(),
            ))
        }
        Some(us) => WatchConfig::with_window(SimDuration::from_micros(us)),
        None => WatchConfig::on(),
    };
    let workload = wl
        .workload()
        .faults(myrinet::FaultPlan {
            drop_prob: loss,
            ..myrinet::FaultPlan::none()
        })
        .probes(ProbeConfig::spans())
        .series(SeriesConfig::on())
        .watch(watch);
    let built = workload
        .clone()
        .build()
        .map_err(|e| CliError::Invalid(e.to_string()))?;
    let check = a.has("--check");
    Ok((
        Opts {
            wl,
            loss,
            workload,
            check,
        },
        built,
    ))
}

/// The machine-readable artifact `report_diff` compares: headline summary
/// plus the full (non-exec) incident stream, all deterministic fields.
fn artifact(o: &Opts, report: &WorkloadReport) -> serde::Value {
    let mut doc = serde::Value::Map(vec![]);
    let mut cfg = serde::Value::Map(vec![]);
    cfg.insert("nodes", serde::Value::UInt(o.wl.nodes as u64));
    cfg.insert("groups", serde::Value::UInt(o.wl.groups as u64));
    cfg.insert("rate_hz", serde::Value::Float(o.wl.rate));
    cfg.insert("loss", serde::Value::Float(o.loss));
    cfg.insert("seed", serde::Value::UInt(o.wl.seed));
    doc.insert("config", cfg);
    let mut sum = serde::Value::Map(vec![]);
    sum.insert("groups", serde::Value::UInt(report.groups as u64));
    sum.insert("messages", serde::Value::UInt(report.messages));
    sum.insert("delivered", serde::Value::UInt(report.delivered));
    sum.insert("p50_us", serde::Value::Float(report.p50_us));
    sum.insert("p99_us", serde::Value::Float(report.p99_us));
    sum.insert("p999_us", serde::Value::Float(report.p999_us));
    sum.insert("goodput_mbs", serde::Value::Float(report.goodput_mbs));
    sum.insert("fairness", serde::Value::Float(report.fairness));
    sum.insert(
        "retransmissions",
        serde::Value::UInt(
            report.metrics.get("nic.retransmissions")
                + report.metrics.get("nic.mcast_retransmissions"),
        ),
    );
    sum.insert(
        "admission_waits",
        serde::Value::UInt(report.admission_waits),
    );
    doc.insert("summary", sum);
    let incidents: Vec<serde::Value> = report
        .incidents
        .iter()
        .map(|i| {
            let mut m = serde::Value::Map(vec![]);
            m.insert("start_ns", serde::Value::UInt(i.window.0.as_nanos()));
            m.insert("end_ns", serde::Value::UInt(i.window.1.as_nanos()));
            m.insert("detector", serde::Value::Str(i.detector.to_string()));
            m.insert("severity", serde::Value::Str(i.severity.name().to_string()));
            m.insert("node", serde::Value::UInt(i.node as u64));
            m.insert("value", serde::Value::UInt(i.value));
            m.insert("threshold", serde::Value::Str(i.threshold.to_string()));
            m.insert(
                "flows",
                serde::Value::Seq(
                    i.flows
                        .iter()
                        .map(|f| serde::Value::Str(f.to_string()))
                        .collect(),
                ),
            );
            m.insert("signature", serde::Value::Str(i.signature.clone()));
            m
        })
        .collect();
    doc.insert("incidents", serde::Value::Seq(incidents));
    doc
}

fn check(o: &Opts, report: &WorkloadReport) -> Vec<String> {
    let mut failures = Vec::new();
    if o.loss > 0.0 {
        // Loss must surface as a detected retransmission storm with causal
        // flow evidence — the tentpole guarantee of the watch subsystem.
        match report.incidents.iter().find(|i| i.detector == "retx_storm") {
            None => failures.push(format!(
                "loss {} injected but no retx_storm incident was raised",
                o.loss
            )),
            Some(storm) if storm.flows.is_empty() => {
                failures.push("retx_storm incident carries no flow evidence".into());
            }
            Some(_) => {}
        }
    }
    // The stream must already be in canonical order (sorted on merge).
    let keys: Vec<_> = report
        .incidents
        .iter()
        .map(|i| (i.window.0, i.detector, i.node, i.window.1))
        .collect();
    if keys.windows(2).any(|w| w[0] > w[1]) {
        failures.push("incident stream is not in canonical order".into());
    }
    // Shard invariance: the same run at a different shard count must
    // produce the byte-identical health summary.
    let other_shards = if o.wl.shards == 1 { 2 } else { 1 };
    let other = o.workload.clone().shards(other_shards).run();
    if other.health_json() != report.health_json() {
        failures.push(format!(
            "health summary differs between {} and {other_shards} shards",
            o.wl.shards
        ));
    }
    failures
}

fn main() {
    let (o, built) = cli::parse_or_exit(cli::HEALTH_EXPLORE, parse);
    let report = built.run();

    let mut by_detector: std::collections::BTreeMap<&str, (usize, u64, &Incident)> =
        std::collections::BTreeMap::new();
    for i in &report.incidents {
        let e = by_detector.entry(i.detector).or_insert((0, 0, i));
        e.0 += 1;
        if i.value >= e.1 {
            e.1 = i.value;
            e.2 = i;
        }
    }

    println!(
        "{} nodes, {} groups, loss {:.2}%, {} scheduled messages over {:.2} ms simulated:",
        o.wl.nodes,
        report.groups,
        o.loss * 100.0,
        report.messages,
        report.end_time.as_micros_f64() / 1e3,
    );
    println!(
        "  delivery latency: p50 {:>9.2} us   p99 {:>9.2} us   fairness {:.4}",
        report.p50_us, report.p99_us, report.fairness
    );
    println!(
        "  protocol:         {} retransmissions, {} admission waits",
        report.metrics.get("nic.retransmissions") + report.metrics.get("nic.mcast_retransmissions"),
        report.admission_waits,
    );

    let total = report.incidents.len();
    println!("\nincidents ({total}, by detector — peak firing shown with its evidence):");
    if by_detector.is_empty() {
        println!("  (none — the run stayed inside every detector's envelope)");
    }
    for (det, (count, _, peak)) in &by_detector {
        println!(
            "  {:<26} {:>4} incident(s)  [{}]",
            det,
            count,
            peak.severity.name()
        );
        println!(
            "    peak: value {} (threshold {}) in [{} us, {} us) on {}",
            peak.value,
            peak.threshold,
            peak.window.0.as_micros_f64(),
            peak.window.1.as_micros_f64(),
            if peak.node == u32::MAX {
                "cluster".to_string()
            } else {
                format!("node {}", peak.node)
            },
        );
        if !peak.flows.is_empty() {
            let flows: Vec<String> = peak
                .flows
                .iter()
                .take(4)
                .map(std::string::ToString::to_string)
                .collect();
            println!("    flows: {}", flows.join(", "));
        }
        if !peak.signature.is_empty() {
            println!("    critical path: {}", peak.signature);
        }
    }

    bench::write_json("health_explore", &artifact(&o, &report));

    if o.check {
        cli::report_check("health", &check(&o, &report), || {
            format!(
                "health check: OK ({total} incidents, storm evidence present, stream canonical, \
                 byte-identical across shard counts)"
            )
        });
    }
}
