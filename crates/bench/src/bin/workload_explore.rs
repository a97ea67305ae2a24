//! Sustained-traffic explorer: drive an open-loop many-group workload —
//! Zipf fan-outs, overlapping memberships, Poisson (or fixed-rate)
//! arrivals — through the NIC-based multicast stack and report the
//! steady-state picture: delivery-latency percentiles, per-group goodput,
//! Jain fairness, group-table occupancy and admission backpressure.
//!
//! ```console
//! cargo run --release -p bench --bin workload_explore -- \
//!     --nodes 64 --groups 200 --zipf 1.2 --rate 30000 --duration-ms 10
//! ```
//!
//! `--check` turns the run into a CI gate: the summary JSON must carry
//! every headline key, percentiles must be monotone (p50 <= p99 <= p999),
//! the fairness index must land in (0, 1], traffic must actually be
//! delivered, and every installed group-table entry must be freed again by
//! the disband path.

use bench::cli::{self, CliError, WorkloadOpts};
use bench::sparkline;
use gm_sim::{GaugeSummary, SeriesConfig, HIST_BINS};
use nic_mcast::{ArrivalProcess, BuiltWorkload, FanoutDist, StopCondition, WorkloadReport};

/// Decode the command line into the workload it describes, plus the
/// decoded group (for the header) and `--check`.
fn parse(a: &cli::Args) -> Result<(WorkloadOpts, BuiltWorkload, bool), CliError> {
    for (x, y) in [("--zipf", "--fanout"), ("--duration-ms", "--messages")] {
        if a.has(x) && a.has(y) {
            return Err(CliError::Conflict(x, y));
        }
    }
    let wl = WorkloadOpts::from_args(a, 64, 100, 5)?;
    let mut params = gm::GmParams::default();
    if let Some(slots) = a.opt("--slots")? {
        params.group_table_slots = slots;
    }
    let mut w = wl.workload().params(params).series(SeriesConfig::on());
    if let Some(fanout) = a.opt("--fanout")? {
        w = w.fanout(FanoutDist::Fixed { fanout });
    }
    if a.has("--fixed-rate") {
        w = w.arrivals(ArrivalProcess::FixedRate { rate_hz: wl.rate });
    }
    if let Some(m) = a.opt("--messages")? {
        w = w.stop(StopCondition::Messages(m));
    }
    let built = w.build().map_err(|e| CliError::Invalid(e.to_string()))?;
    Ok((wl, built, a.has("--check")))
}

fn check(report: &WorkloadReport) -> Vec<String> {
    let mut failures = Vec::new();
    let json = report.summary_json();
    for key in [
        "\"groups\":",
        "\"messages\":",
        "\"delivered\":",
        "\"p50_us\":",
        "\"p99_us\":",
        "\"p999_us\":",
        "\"goodput_mbs\":",
        "\"fairness\":",
    ] {
        if !json.contains(key) {
            failures.push(format!("summary JSON is missing {key}"));
        }
    }
    if report.delivered == 0 {
        failures.push("no measured deliveries".into());
    }
    if !(report.p50_us <= report.p99_us && report.p99_us <= report.p999_us) {
        failures.push(format!(
            "percentiles not monotone: p50 {} p99 {} p999 {}",
            report.p50_us, report.p99_us, report.p999_us
        ));
    }
    if !(report.fairness > 0.0 && report.fairness <= 1.0) {
        failures.push(format!("fairness {} outside (0, 1]", report.fairness));
    }
    let installs = report.metrics.get("nic.mcast_group_installs");
    let frees = report.metrics.get("nic.mcast_group_frees");
    if installs != frees {
        failures.push(format!(
            "group-table leak: {installs} installs vs {frees} frees"
        ));
    }
    if installs == 0 {
        failures.push("no group installs recorded".into());
    }
    failures
}

fn main() {
    let (wl, built, gate) = cli::parse_or_exit(cli::WORKLOAD_EXPLORE, parse);
    let scheduled = built.messages();
    let report = built.run();

    println!(
        "{} nodes, {} groups, {} scheduled messages over {:.2} ms simulated:",
        wl.nodes,
        report.groups,
        scheduled,
        report.end_time.as_micros_f64() / 1e3,
    );
    println!(
        "  delivery latency: p50 {:>9.2} us   p99 {:>9.2} us   p999 {:>9.2} us",
        report.p50_us, report.p99_us, report.p999_us
    );
    println!(
        "                    mean {:>8.2} us   max {:>9.2} us   ({} measured deliveries)",
        report.mean_us, report.max_us, report.delivered
    );
    println!(
        "  goodput:          {:>9.2} MB/s aggregate, Jain fairness {:.4} over {} groups",
        report.goodput_mbs,
        report.fairness,
        report.per_group.len()
    );
    println!(
        "  group table:      {} installs, {} frees, {} admission waits",
        report.metrics.get("nic.mcast_group_installs"),
        report.metrics.get("nic.mcast_group_frees"),
        report.admission_waits,
    );
    println!(
        "  protocol:         {} retransmissions, {} unknown-group drops, {} tombstone re-acks",
        report.metrics.get("nic.mcast_retx_tx"),
        report.metrics.get("nic.mcast_unknown_group"),
        report.metrics.get("nic.mcast_left_reack"),
    );

    // The heaviest and lightest measured groups, by goodput.
    let mut by_rate: Vec<_> = report.per_group.iter().collect();
    by_rate.sort_by(|a, b| b.goodput_mbs.total_cmp(&a.goodput_mbs));
    if by_rate.len() > 1 {
        println!(
            "\nper-group goodput (top 3 / bottom 1 of {}):",
            by_rate.len()
        );
        for g in by_rate.iter().take(3) {
            println!(
                "  group {:>5}  {:>9.3} MB/s  ({} msgs, {} deliveries)",
                g.gid.0, g.goodput_mbs, g.messages, g.delivered
            );
        }
        let tail = by_rate.last().expect("nonempty");
        println!(
            "  group {:>5}  {:>9.3} MB/s  ({} msgs, {} deliveries)",
            tail.gid.0, tail.goodput_mbs, tail.messages, tail.delivered
        );
    }

    // Group-table occupancy telemetry: the busiest node's gauge history.
    let summaries: Vec<GaugeSummary> = report.series.summarize(report.end_time);
    if let Some(s) = summaries
        .iter()
        .filter(|s| s.gauge == "groups_used")
        .max_by_key(|s| (s.max, s.mean_x1000))
    {
        println!("\ngroup-table occupancy (busiest node, [{HIST_BINS}-bin value histogram]):");
        println!(
            "  n{:<3} min {:>3}  max {:>3}  last {:>3}  mean {:>7.3}  [{}]",
            s.node,
            s.min,
            s.max,
            s.last,
            s.mean_x1000 as f64 / 1000.0,
            sparkline(&s.hist),
        );
    }

    if report.metrics.get("parallel.shards") > 0 {
        println!(
            "\nsharded execution: {} shards, {} windows ({} idle shard-windows), \
             {} barrier waits, {}% event imbalance (max-min over max shard events)",
            report.metrics.get("parallel.shards"),
            report.metrics.get("parallel.windows"),
            report.metrics.get("parallel.idle_windows"),
            report.metrics.get("parallel.barrier_waits"),
            report.metrics.get("parallel.event_imbalance_pct"),
        );
        bench::print_shard_events(&report.metrics);
    }

    println!("\nsummary: {}", report.summary_json());

    if gate {
        cli::report_check("workload", &check(&report), || {
            format!(
                "workload check: OK (schema complete, percentiles monotone, fairness in (0,1], \
                 {} deliveries, group table conserved)",
                report.delivered
            )
        });
    }
}
