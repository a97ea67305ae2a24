//! Deep-dive explorer: run one multicast configuration with span probes
//! enabled, export the full event timeline as Chrome trace-event JSON
//! (loadable in Perfetto or `chrome://tracing`) and print the latency
//! attribution table that splits each measured iteration into exclusive
//! host / NIC / PCI / serialization / contention / retransmission buckets.
//!
//! ```console
//! cargo run --release -p bench --bin trace_explore -- \
//!     --nodes 16 --size 4096 --mode nic --shape adaptive --loss 0.0
//! ```
//!
//! `--check` re-parses the emitted JSON and validates the trace-event
//! schema (used by CI): every event carries `ph`/`pid`/`tid`, non-metadata
//! events carry `ts`, `B`/`E` pairs balance per (pid, tid) lane, and
//! timestamps never decrease within a lane (a shard-merged probe stream
//! that interleaved wrongly would fail here).

use std::collections::BTreeMap;

use gm_sim::probe::perfetto;
use nic_mcast::{McastMode, ProbeConfig, Scenario, TreeShape};
use serde::Value;

struct Opts {
    nodes: u32,
    size: usize,
    mode: McastMode,
    shape: String,
    loss: f64,
    iters: u32,
    warmup: u32,
    seed: u64,
    check: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: trace_explore [--nodes N] [--size BYTES] [--mode nic|host] \
         [--shape adaptive|binomial|flat|chain|kary:K] [--loss P] \
         [--iters N] [--warmup N] [--seed S] [--check]"
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
        iters: 10,
        warmup: 2,
        seed: 1,
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

/// Validate the Chrome trace-event schema on the document we just wrote.
/// Returns the number of events checked, or an error description.
fn check_schema(doc: &str) -> Result<usize, String> {
    let v = serde_json::from_str(doc).map_err(|e| format!("not valid JSON: {e}"))?;
    let top = match v {
        Value::Map(m) => m,
        _ => return Err("top level is not an object".into()),
    };
    let events = top
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .and_then(|(_, v)| match v {
            Value::Seq(s) => Some(s),
            _ => None,
        })
        .ok_or("missing traceEvents array")?;
    // B/E balance per (pid, tid) lane: depth must never go negative and
    // must end at zero (every Begin has a matching End).
    let mut depth: BTreeMap<(u64, u64), i64> = BTreeMap::new();
    // Per-lane timestamps must be non-decreasing: a shard-merged probe
    // stream that interleaved wrongly would show up here as time running
    // backwards inside a track.
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut checked = 0usize;
    for (idx, ev) in events.iter().enumerate() {
        let fields = match ev {
            Value::Map(m) => m,
            _ => return Err(format!("event {idx} is not an object")),
        };
        let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let ph = match get("ph") {
            Some(Value::Str(s)) => s.as_str(),
            _ => return Err(format!("event {idx}: missing string `ph`")),
        };
        if !matches!(ph, "B" | "E" | "X" | "i" | "M" | "s" | "t" | "f") {
            return Err(format!("event {idx}: unknown phase {ph:?}"));
        }
        let num = |name: &str| -> Result<u64, String> {
            match get(name) {
                Some(Value::UInt(n)) => Ok(*n),
                Some(Value::Int(n)) if *n >= 0 => Ok(*n as u64),
                _ => Err(format!("event {idx}: missing numeric `{name}`")),
            }
        };
        let pid = num("pid")?;
        let tid = num("tid")?;
        if ph != "M" {
            let ts = match get("ts") {
                Some(Value::Float(f)) => *f,
                Some(Value::UInt(n)) => *n as f64,
                Some(Value::Int(n)) => *n as f64,
                _ => return Err(format!("event {idx}: missing numeric `ts`")),
            };
            let prev = last_ts.entry((pid, tid)).or_insert(f64::NEG_INFINITY);
            if ts < *prev {
                return Err(format!(
                    "event {idx}: timestamp runs backwards on lane {pid}/{tid} \
                     ({ts} after {prev})"
                ));
            }
            *prev = ts;
        }
        let lane = depth.entry((pid, tid)).or_insert(0);
        match ph {
            "B" => *lane += 1,
            "E" => {
                *lane -= 1;
                if *lane < 0 {
                    return Err(format!("event {idx}: E without matching B on {pid}/{tid}"));
                }
            }
            _ => {}
        }
        checked += 1;
    }
    if let Some(((pid, tid), d)) = depth.iter().find(|(_, d)| **d != 0) {
        return Err(format!("unbalanced B/E on lane {pid}/{tid}: depth {d}"));
    }
    Ok(checked)
}

fn main() {
    let o = parse();
    let scenario = match o.mode {
        McastMode::NicBased => Scenario::nic_based(o.nodes),
        McastMode::HostBased => Scenario::host_based(o.nodes),
    }
    .size(o.size)
    .tree(parse_shape(&o.shape))
    .warmup(o.warmup)
    .iters(o.iters)
    .seed(o.seed)
    .loss(o.loss)
    .probes(ProbeConfig::spans());
    let built = scenario.build().unwrap_or_else(|e| {
        eprintln!("invalid scenario: {e}");
        std::process::exit(2)
    });
    let report = built.run();

    let mode_tag = match o.mode {
        McastMode::NicBased => "nic",
        McastMode::HostBased => "host",
    };
    let doc = perfetto::chrome_trace_json(report.probe.iter());
    let dir = bench::results_dir();
    let path = dir.join(format!("trace_{}_{}n_{}B.json", mode_tag, o.nodes, o.size));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create results/: {e}");
    } else if let Err(e) = bench::atomic_write(&path, &doc) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    } else {
        eprintln!("(trace written to {} — open in ui.perfetto.dev)", path.display());
    }

    let mut tracks: Vec<&'static str> = Vec::new();
    for e in report.probe.iter() {
        let t = e.id.track.name();
        if !tracks.contains(&t) {
            tracks.push(t);
        }
    }
    println!(
        "{} multicast, {} nodes, {} bytes, loss {:.2}%: {} probe events, {} tracks ({})",
        match o.mode {
            McastMode::NicBased => "NIC-based",
            McastMode::HostBased => "host-based",
        },
        o.nodes,
        o.size,
        o.loss * 100.0,
        report.probe.len(),
        tracks.len(),
        tracks.join(", "),
    );
    println!("  latency (mean):   {:>10.2} us", report.latency.mean());

    // Sharded runs carry per-shard execution statistics under `parallel.*`.
    if report.metrics.get("parallel.shards") > 0 {
        let shards = report.metrics.get("parallel.shards");
        println!(
            "\nsharded execution: {} shards, {} windows ({} idle shard-windows), \
             {} horizon tightenings, {} barrier waits",
            shards,
            report.metrics.get("parallel.windows"),
            report.metrics.get("parallel.idle_windows"),
            report.metrics.get("parallel.horizon_tightenings"),
            report.metrics.get("parallel.barrier_waits"),
        );
        for i in 0..shards {
            println!(
                "  shard {i}: {} events",
                report.metrics.get(&format!("parallel.shard{i}.events"))
            );
        }
    }

    match &report.attribution {
        Some(attr) => {
            println!("\nlatency attribution (mean us per iteration):");
            for (label, mean) in attr.rows() {
                let pct = if attr.mean_total_us() > 0.0 {
                    100.0 * mean / attr.mean_total_us()
                } else {
                    0.0
                };
                println!("  {label:<15} {mean:>10.2}  {pct:>5.1}%");
            }
            println!("  {:<15} {:>10.2}", "total", attr.mean_total_us());
            let delta = (attr.mean_total_us() - report.latency.mean()).abs();
            let rel = if report.latency.mean() > 0.0 {
                delta / report.latency.mean()
            } else {
                0.0
            };
            println!(
                "  (attributed total vs measured mean: {:.3}% off)",
                rel * 100.0
            );
            if rel > 0.01 {
                eprintln!("error: attribution differs from measured mean by more than 1%");
                std::process::exit(1);
            }
        }
        None => println!("\n(no attribution: probes disabled or no measured windows)"),
    }

    if o.check {
        match check_schema(&doc) {
            Ok(n) => println!(
                "schema check: {n} events OK (ph/ts/pid/tid, B/E balanced, per-track ts non-decreasing)"
            ),
            Err(e) => {
                eprintln!("schema check FAILED: {e}");
                std::process::exit(1);
            }
        }
        if tracks.len() < 4 {
            eprintln!("error: expected at least 4 track types, saw {}", tracks.len());
            std::process::exit(1);
        }
        let dropped = report.metrics.get("probe.dropped_events");
        if dropped > 0 {
            eprintln!(
                "error: probe ring overflowed, {dropped} events dropped — \
                 attribution and lineage are incomplete (raise the ring capacity)"
            );
            std::process::exit(1);
        }
    }
}
