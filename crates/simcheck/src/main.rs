//! `simcheck` CLI — the model-checking gate run by `scripts/ci.sh`.
//!
//! Usage:
//!   cargo run -p simcheck -- --ci                 # CI config, write report
//!   cargo run -p simcheck -- [FLAGS]              # custom configuration
//!
//! Flags: --nodes N --packets N --window N --send-bufs N --recv-bufs N
//!        --loss N --dup N --reorder N --crash N --mutate NAME
//!        --no-symmetry --max-states N --trace PATH --report PATH
//!
//! Exit code 0 when the space is explored clean, 1 on a violation (the
//! counterexample trace goes to --trace, default
//! `results/simcheck_trace.json`), 2 on a usage error or exceeded budget.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use gm_proto::ProtoMutation;
use simcheck::{extract_replay, run, trace_json, Config, Limits, Topo};

/// Wall-clock budget for the CI run; generous — the CI configuration
/// explores in seconds — but bounds a state-space regression.
const CI_WALL_SECS: u64 = 600;

fn usage() -> ExitCode {
    eprintln!(
        "usage: simcheck --ci | simcheck [--nodes N] [--packets N] [--window N] \
         [--send-bufs N] [--recv-bufs N] [--loss N] [--dup N] [--reorder N] \
         [--crash N] [--mutate none|sender-window-off-by-one] [--no-symmetry] \
         [--eager-nic] [--max-states N] [--trace PATH] [--report PATH]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Config::ci();
    let mut limits = Limits::default();
    let mut ci = false;
    let mut trace_path: Option<PathBuf> = None;
    let mut report_path: Option<PathBuf> = None;

    fn next_u8(it: &mut std::slice::Iter<'_, String>, min: u8) -> Option<u8> {
        it.next()?.parse().ok().filter(|&v| v >= min)
    }

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ci" => ci = true,
            "--nodes" => match next_u8(&mut it, 2) {
                Some(v) => cfg.nodes = v,
                None => return usage(),
            },
            "--packets" => match next_u8(&mut it, 1) {
                Some(v) => cfg.packets = v,
                None => return usage(),
            },
            "--window" => match next_u8(&mut it, 1) {
                Some(v) => cfg.window = v,
                None => return usage(),
            },
            "--send-bufs" => match next_u8(&mut it, 1) {
                Some(v) => cfg.send_bufs = v,
                None => return usage(),
            },
            "--recv-bufs" => match next_u8(&mut it, 1) {
                Some(v) => cfg.recv_bufs = v,
                None => return usage(),
            },
            "--loss" => match next_u8(&mut it, 0) {
                Some(v) => cfg.loss = v,
                None => return usage(),
            },
            "--dup" => match next_u8(&mut it, 0) {
                Some(v) => cfg.dup = v,
                None => return usage(),
            },
            "--reorder" => match next_u8(&mut it, 0) {
                Some(v) => cfg.reorder = v,
                None => return usage(),
            },
            "--crash" => match next_u8(&mut it, 0) {
                Some(v) => cfg.crash = v,
                None => return usage(),
            },
            "--no-symmetry" => cfg.symmetry = false,
            "--eager-nic" => cfg.eager_nic = true,
            "--mutate" => match it.next().map(String::as_str).and_then(ProtoMutation::parse) {
                Some(m) => cfg.mutation = m,
                None => return usage(),
            },
            "--max-states" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => limits.max_states = v,
                None => return usage(),
            },
            "--trace" => match it.next() {
                Some(p) => trace_path = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--report" => match it.next() {
                Some(p) => report_path = Some(PathBuf::from(p)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    let results = bench::results_dir();
    #[expect(
        clippy::disallowed_methods,
        reason = "wall budget of the CI gate; never feeds the explored state"
    )]
    let started = Instant::now();
    let mut interrupt = || ci && started.elapsed().as_secs() > CI_WALL_SECS;
    let out = run(&cfg, &limits, &mut interrupt);
    let wall_ms = started.elapsed().as_millis();

    println!(
        "simcheck: {} nodes, {} packets, window {}, budgets loss={} dup={} reorder={} crash={}, \
         mutation {}, symmetry {}",
        cfg.nodes,
        cfg.packets,
        cfg.window,
        cfg.loss,
        cfg.dup,
        cfg.reorder,
        cfg.crash,
        cfg.mutation.name(),
        if cfg.symmetry { "on" } else { "off" }
    );
    println!(
        "simcheck: explored {} states, {} transitions, max depth {} ({} ms, {})",
        out.states,
        out.transitions,
        out.max_depth,
        wall_ms,
        if out.complete { "complete" } else { "INCOMPLETE" }
    );

    if ci {
        let report = report_path.unwrap_or_else(|| results.join("simcheck_report.json"));
        if let Some(dir) = report.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let json = simcheck::report_json(&cfg, &out);
        if let Err(e) = std::fs::write(&report, json) {
            eprintln!("simcheck: cannot write {}: {e}", report.display());
        } else {
            println!("simcheck: report at {}", report.display());
        }
    } else if let Some(report) = report_path {
        if let Some(dir) = report.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let json = simcheck::report_json(&cfg, &out);
        if let Err(e) = std::fs::write(&report, json) {
            eprintln!("simcheck: cannot write {}: {e}", report.display());
        }
    }

    match out.violation {
        None if out.complete => {
            println!("simcheck: no violations — exhaustive over this configuration");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "simcheck: search stopped early (max-states {} or {}s wall budget) — NOT exhaustive",
                limits.max_states, CI_WALL_SECS
            );
            ExitCode::from(2)
        }
        Some(cex) => {
            eprintln!("simcheck: VIOLATION ({}): {}", cex.kind, cex.detail);
            for (i, s) in cex.steps.iter().enumerate() {
                eprintln!("  {i:3}. {}", s.note);
            }
            // The trace from `run` is concrete (symmetry off); note whether
            // the simulator can replay it with targeted drop rules.
            let concrete = cfg.clone().with_symmetry(false);
            match extract_replay(&concrete, &cex) {
                Some(spec) => eprintln!(
                    "simcheck: replayable through the simulator ({} targeted drop(s))",
                    spec.drops.len()
                ),
                None => eprintln!(
                    "simcheck: trace uses dup/reorder/crash or non-first drops — \
                     not expressible as simulator drop rules"
                ),
            }
            let trace = trace_path.unwrap_or_else(|| results.join("simcheck_trace.json"));
            if let Some(dir) = trace.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            let topo = Topo::binomial(cfg.nodes);
            let json = trace_json(&concrete, &topo, &cex);
            if let Err(e) = std::fs::write(&trace, json) {
                eprintln!("simcheck: cannot write {}: {e}", trace.display());
            } else {
                eprintln!("simcheck: counterexample trace at {}", trace.display());
            }
            ExitCode::FAILURE
        }
    }
}
