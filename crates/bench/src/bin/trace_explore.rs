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

use bench::cli::{self, mode_name};
use gm_sim::probe::perfetto;
use nic_mcast::{McastMode, ProbeConfig};
use serde::Value;

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
    let (built, check) = cli::parse_or_exit(cli::TRACE_EXPLORE, |a| {
        let scenario = cli::scenario(a, cli::mode(a)?, 4096, 10, 2)?;
        Ok((
            cli::build(scenario.probes(ProbeConfig::spans()))?,
            a.has("--check"),
        ))
    });
    let spec = built.spec();
    let report = built.run();

    let mode_tag = match spec.mode {
        McastMode::NicBased => "nic",
        McastMode::HostBased => "host",
    };
    let doc = perfetto::chrome_trace_json(report.probe.iter());
    let dir = bench::results_dir();
    let path = dir.join(format!(
        "trace_{}_{}n_{}B.json",
        mode_tag, spec.n_nodes, spec.size
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create results/: {e}");
    } else if let Err(e) = bench::atomic_write(&path, &doc) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    } else {
        eprintln!(
            "(trace written to {} — open in ui.perfetto.dev)",
            path.display()
        );
    }

    let mut tracks: Vec<&'static str> = Vec::new();
    for e in report.probe.iter() {
        let t = e.id().track.name();
        if !tracks.contains(&t) {
            tracks.push(t);
        }
    }
    println!(
        "{} multicast, {} nodes, {} bytes, loss {:.2}%: {} probe events, {} tracks ({})",
        mode_name(spec.mode),
        spec.n_nodes,
        spec.size,
        spec.faults.drop_prob * 100.0,
        report.probe.len(),
        tracks.len(),
        tracks.join(", "),
    );
    println!("  latency (mean):   {:>10.2} us", report.latency.mean());

    bench::print_sharded(&report.metrics);
    bench::print_shard_events(&report.metrics);

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

    if check {
        let mut failures = Vec::new();
        let checked = check_schema(&doc).unwrap_or_else(|e| {
            failures.push(format!("schema: {e}"));
            0
        });
        if tracks.len() < 4 {
            failures.push(format!(
                "expected at least 4 track types, saw {}",
                tracks.len()
            ));
        }
        cli::report_check("trace", &failures, || {
            format!(
                "schema check: {checked} events OK (ph/ts/pid/tid, B/E balanced, per-track ts \
                 non-decreasing)"
            )
        });
    }
}
