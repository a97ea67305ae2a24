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

use gm_sim::{GaugeSummary, SeriesConfig, SimDuration, HIST_BINS};
use nic_mcast::{ArrivalProcess, FanoutDist, StopCondition, Workload, WorkloadReport};

struct Opts {
    nodes: u32,
    groups: usize,
    zipf: Option<f64>,
    fanout: Option<u32>,
    overlap: f64,
    rate: f64,
    fixed_rate: bool,
    duration_ms: Option<u64>,
    messages: Option<u64>,
    warmup_us: u64,
    size: usize,
    slots: Option<usize>,
    seed: u64,
    shards: u32,
    series_capacity: Option<usize>,
    check: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: workload_explore [--nodes N] [--groups N] [--zipf EXP | --fanout K] \
         [--overlap P] [--rate HZ] [--fixed-rate] [--duration-ms MS | --messages N] \
         [--warmup-us US] [--size BYTES] [--slots N] [--seed S] [--shards N] \
         [--series-capacity N] [--check]"
    );
    std::process::exit(2)
}

fn parse() -> Opts {
    let mut o = Opts {
        nodes: 64,
        groups: 100,
        zipf: None,
        fanout: None,
        overlap: 0.5,
        rate: 20_000.0,
        fixed_rate: false,
        duration_ms: None,
        messages: None,
        warmup_us: 500,
        size: 256,
        slots: None,
        seed: 1,
        shards: 1,
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
            "--groups" => o.groups = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--zipf" => o.zipf = Some(val(&mut i).parse().unwrap_or_else(|_| usage())),
            "--fanout" => o.fanout = Some(val(&mut i).parse().unwrap_or_else(|_| usage())),
            "--overlap" => o.overlap = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--rate" => o.rate = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--fixed-rate" => o.fixed_rate = true,
            "--duration-ms" => o.duration_ms = Some(val(&mut i).parse().unwrap_or_else(|_| usage())),
            "--messages" => o.messages = Some(val(&mut i).parse().unwrap_or_else(|_| usage())),
            "--warmup-us" => o.warmup_us = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--size" => o.size = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--slots" => o.slots = Some(val(&mut i).parse().unwrap_or_else(|_| usage())),
            "--seed" => o.seed = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--shards" => o.shards = val(&mut i).parse().unwrap_or_else(|_| usage()),
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

fn build(o: &Opts) -> Workload {
    let fanout = match (o.zipf, o.fanout) {
        (Some(_), Some(_)) => usage(),
        (None, Some(k)) => FanoutDist::Fixed { fanout: k },
        (exp, None) => FanoutDist::Zipf {
            exponent: exp.unwrap_or(1.2),
        },
    };
    let arrivals = if o.fixed_rate {
        ArrivalProcess::FixedRate { rate_hz: o.rate }
    } else {
        ArrivalProcess::Poisson { rate_hz: o.rate }
    };
    let stop = match (o.duration_ms, o.messages) {
        (Some(_), Some(_)) => usage(),
        (None, Some(m)) => StopCondition::Messages(m),
        (ms, None) => StopCondition::Duration(SimDuration::from_millis(ms.unwrap_or(5))),
    };
    let mut params = gm::GmParams::default();
    if let Some(slots) = o.slots {
        params.group_table_slots = slots;
    }
    Workload::new(o.nodes)
        .groups(o.groups)
        .fanout(fanout)
        .overlap(o.overlap)
        .arrivals(arrivals)
        .stop(stop)
        .warmup(SimDuration::from_micros(o.warmup_us))
        .size(o.size)
        .params(params)
        .seed(o.seed)
        .shards(o.shards)
        .series(match o.series_capacity {
            Some(n) => SeriesConfig::with_capacity(n),
            None => SeriesConfig::on(),
        })
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
    // Ring overflow is a hard failure: dropped points mean the occupancy
    // telemetry silently lies. Opt up with --series-capacity instead.
    let dropped = report.metrics.get("series.dropped_points");
    if dropped > 0 {
        failures.push(format!(
            "series ring overflowed, {dropped} points dropped — rerun with --series-capacity"
        ));
    }
    failures
}

fn main() {
    let started = std::time::Instant::now();
    let o = parse();
    let built = match build(&o).build() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("workload_explore: invalid workload: {e}");
            std::process::exit(2)
        }
    };
    let scheduled = built.messages();
    let report = built.run();

    println!(
        "{} nodes, {} groups, {} scheduled messages over {:.2} ms simulated:",
        o.nodes,
        report.groups,
        scheduled,
        report.end_time.as_micros_f64() / 1e3,
    );
    println!("  delivery latency: p50 {:>9.2} us   p99 {:>9.2} us   p999 {:>9.2} us", report.p50_us, report.p99_us, report.p999_us);
    println!("                    mean {:>8.2} us   max {:>9.2} us   ({} measured deliveries)", report.mean_us, report.max_us, report.delivered);
    println!("  goodput:          {:>9.2} MB/s aggregate, Jain fairness {:.4} over {} groups", report.goodput_mbs, report.fairness, report.per_group.len());
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
        println!("\nper-group goodput (top 3 / bottom 1 of {}):", by_rate.len());
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
        println!(
            "\ngroup-table occupancy (busiest node, [{HIST_BINS}-bin value histogram]):"
        );
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
        for i in 0..report.metrics.get("parallel.shards") {
            println!(
                "  shard {i}: {} events",
                report.metrics.get(&format!("parallel.shard{i}.events"))
            );
        }
    }

    println!("\nsummary: {}", report.summary_json());
    if report.metrics.get("parallel.shards") > 1 {
        bench::perf::note_imbalance(report.metrics.get("parallel.event_imbalance_pct"));
    }
    bench::perf::record("workload_explore", started.elapsed());

    if o.check {
        let failures = check(&report);
        if failures.is_empty() {
            println!(
                "workload check: OK (schema complete, percentiles monotone, fairness in (0,1], \
                 {} deliveries, group table conserved)",
                report.delivered
            );
        } else {
            for f in &failures {
                eprintln!("workload check FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}
