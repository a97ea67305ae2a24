//! `mcbench`: the repository's benchmark of the NIC-based multicast
//! simulator, measured end to end and layer by layer on both of its clocks.
//!
//! ```console
//! cargo run --release --offline --manifest-path mcbench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! cargo run --release --offline --manifest-path mcbench/Cargo.toml -- compare A.json B.json
//! ```
//!
//! Without `--workload`, every workload runs, one at a time, each in its own
//! child process (so `peak_rss_mb` is that workload's own). Each prints its
//! end-to-end metrics as `workload metric unit median q1 q3 n` rows, then one
//! JSON line `{"correct", "attempted", "failed", "metrics"}` whose metrics
//! are the host-clock end-to-end ones (with `--trace`, the per-layer ones).
//! Results land in `target/mcbench/<workload>.json`, merged into
//! `target/mcbench/results.json` by a full run; nothing else is written.
//! `compare` prints one row per workload and end-to-end metric of two such
//! files with a verdict from the bounds in `BENCHMARK.json` (run it from the
//! repository root).
//!
//! Each workload gets one untimed warm-up pass, then a fixed number of timed
//! passes (`paper_sweep` 30, `group_churn` 20, the others 15), or with
//! `--seconds S` as many as start within S seconds (at least one per input,
//! see Seeds). At most two threads run: only `many_groups_2shard` uses the
//! second. `--smoke` runs one pass of each at a tenth of the simulated
//! length.
//!
//! # Two clocks
//!
//! *Simulated* metrics (`sim_*`) are what the modelled Myrinet/GM-2 cluster
//! would show: delivery latency, goodput, host CPU time. The simulator is
//! deterministic, so for one seed they are exact and identical on every
//! pass; any change to them is a change to the model, and `compare` treats
//! any difference as one. *Host* metrics (`setup_s`, `run_s`,
//! `peak_rss_mb`) are what the simulator itself costs on the machine running
//! it. They are noisy, so each is the median over passes, reported with its
//! quartiles and sample count, and judged against a bound. The host's own
//! speed drifts too, by tens of percent over minutes on a shared machine, so
//! `setup_s` and `run_s` are scaled by a fixed reference kernel timed before
//! every pass (see the `calibrate` module); the kernel's raw times are
//! reported beside them as `reference_kernel_s`. `peak_rss_mb` is `VmHWM`
//! after the warm-up pass.
//!
//! Every pass is checked: it fails if it panics (for instance on
//! `BuiltWorkload::run`'s all-delivered assertion), if member deliveries
//! differ from the scheduled messages times members, if a group-table entry
//! leaks, if a probe or series ring dropped records, if p50 exceeds p99, or
//! if its simulated results differ byte for byte from the first pass over
//! the same input. For input 0 that first pass is the warm-up; the sharded
//! workload runs a second, sequential warm-up that must match it.
//! `fail_frac` is failed passes over attempted passes.
//!
//! # Workloads
//!
//! Each loads a different part of the simulator.
//!
//! - `paper_sweep` (closed loop): Fig. 5 at 16 nodes on one crossbar, host-
//!   based binomial against NIC-based postal trees over the 15 GM sizes (10
//!   warm-up and 100 timed iterations each), then 16-rank MPI broadcast
//!   loops at 4 and 4096 B, NIC- and host-based, with 400 us of average
//!   skew. It is the paper's own experiment and the only workload on the
//!   host forwarding path and `mpi`. Reports `sim_speedup` (geometric mean
//!   of host-based over NIC-based latency, the Fig. 5(b) factor) and
//!   `sim_host_cpu_us` (NIC-based 4 B broadcast CPU time, Fig. 6's point).
//! - `many_groups` (open loop): 64 nodes on a two-level Clos, 200 groups
//!   with Zipf(1.2) fan-out and overlap 0.5, 256 B messages at 12 kHz per
//!   group for 50 ms after a 0.5 ms warm-up, no loss, no observability. Host
//!   time is almost all `Engine::run`: queue, fabric contention, NIC
//!   pipelines, forwarding. 12 kHz sits just under the saturation knee, so a
//!   change to the model's capacity shows in `sim_p99_us`.
//! - `many_groups_2shard`: the same inputs on 2 shards and 2 threads, the
//!   only workload on `sim::parallel` and weighted partitioning. Its
//!   simulated results must equal `many_groups`' byte for byte, which makes
//!   it the sequential-versus-sharded comparison.
//! - `observed_lossy`: the same population at 4 kHz for 5 ms with 2 %
//!   uniform loss and span probes, gauge series and watch detectors on. The
//!   opposite split to `many_groups`: most host time is analysis after
//!   dispatch (incident evidence), and Go-Back-N retransmission runs.
//! - `group_churn` (open loop): 1000 groups of fixed fan-out 4 at 1 kHz for
//!   10 ms over the default 32 group-table slots: the NIC and `ext` layers
//!   carry control traffic (installs, admission waits, unknown-group drops
//!   recovered by retransmission, re-acks of departed groups), a path
//!   `many_groups` never takes.
//!
//! Open-loop latency is measured from each message's scheduled arrival, so
//! queueing behind a stall counts.
//!
//! # Seeds
//!
//! `--seed` (default 1) makes the inputs. An input's seed makes each group's
//! Poisson arrival trace, handed to the program as an explicit trace;
//! membership, roots and fault draws come from `Workload::seed` with the
//! same seed, as the public API takes no explicit membership. The sweep's
//! MPI skew draws use it too. Timed passes cycle through eight inputs:
//! input 0 is `--seed` itself and gives the simulated metrics; the others
//! use seeds drawn from it. The host work in a pass follows its input
//! (`observed_lossy`'s analysis time tracks its incident count, which moves
//! by about 15% from seed to seed), so a median over eight inputs moves far
//! less between seeds than one input's time would. Seed 2 is held out: a
//! change claiming a gain must show it on seed 2 as well.
//!
//! # Validity
//!
//! The model is not validated against hardware. The paper's figures are
//! shape references (see EXPERIMENTS.md), not measurements to match, so no
//! error figure is given for any simulated metric.
//!
//! # Tracing
//!
//! `--trace` adds one pass per workload with spans around every call into
//! a layer (`core.build`, `core.run`, `mpi.execute`, and `sim.dispatch`
//! taken from the engine's dispatch counter) and allocation counting on.
//! Calls a run makes inside itself are then replayed on its output and
//! labelled `replay`: `myrinet.fabric_new`, `gm.build_cluster`,
//! `myrinet.partition`, and for `observed_lossy` `sim.probe.to_vec`,
//! `sim.flow_graph`, `sim.watch.scan` and `sim.watch.evidence`. Replays are
//! never part of `run_s`. `target/mcbench/trace/<workload>.json` holds the
//! spans with self times, self time per layer, how far the spans cover the
//! pass, the split of `run_s` naming its largest part, the tracing
//! overhead (traced `run_s` minus the untraced median) and allocations per
//! event. End-to-end metrics are always measured untraced.
//!
//! # Baseline
//!
//! Recorded at seed 1 with the default pass counts on a 2-core x86-64
//! virtual machine (Intel Xeon, `available_parallelism` 2), host times
//! scaled as above (median kernel times 8.2 to 9.3 ms in this run). Median
//! [q1, q3]:
//!
//! | workload | setup_s | run_s | peak_rss_mb | simulated |
//! |---|---|---|---|---|
//! | paper_sweep | 62 us [56, 72] | 0.263 [0.256, 0.273] | 5.5 | speedup 1.927x, host CPU 7.378 us |
//! | many_groups | 1.29 ms [1.28, 1.46] | 0.761 [0.722, 0.769] | 19.5 | p50 12.543 us, p99 41.983 us, 1101.95 MB/s |
//! | many_groups_2shard | 1.37 ms [1.21, 1.43] | 0.927 [0.885, 0.953] | 19.8 | identical to many_groups |
//! | observed_lossy | 260 us [243, 275] | 1.128 [1.081, 1.178] | 67.8 | p50 14.079 us, p99 138412 us, 386.40 MB/s |
//! | group_churn | 1.04 ms [0.96, 1.49] | 0.237 [0.216, 0.258] | 18.1 | p50 54526 us, p99 310378 us, 1012.09 MB/s |
//!
//! Sequential against sharded: on two cores the 2-shard run is 1.22x
//! slower than the sequential one (0.927 s against 0.761 s) with identical
//! simulated results; a second full run gave 1.16x (0.987 s against
//! 0.851 s). The traced runs put 98 to 99.6% of `run_s` in dispatch on
//! `paper_sweep`, `many_groups` and `group_churn`, and 92% in
//! `sim::watch::attach_evidence` (replayed) against 6% in dispatch on
//! `observed_lossy`. In two sets of ten seeds with 12-second runs, the
//! spread between the quartiles of `run_s` across seeds, as a share of its
//! median, was 0.013 to 0.067 per workload, that of `peak_rss_mb` at most
//! 0.020, and the two sets' medians agreed within 8%.

mod calibrate;
mod compare;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use serde_json::Value;

use crate::run::{run_workload, value_unit, Budget, Outcome};
use crate::stats::{summarize, Summary};
use crate::workloads::{Bench, Def, WORKLOADS};

const USAGE: &str =
    "usage: mcbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
       mcbench compare A.json B.json";

/// Parsed command line.
struct Opts {
    workload: Option<&'static Def>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let val = it.next_if(|v| !v.starts_with("--"));
        let value = || val.ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload =
                    Some(workloads::find(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds {s} must be positive"));
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match val.map(String::as_str) {
                    None | Some("1") => true,
                    Some("0") => false,
                    Some(v) => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" if val.is_none() => o.smoke = true,
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => compare::main(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    match parse(&args) {
        Ok(o) => match o.workload {
            Some(def) => one(def, &o),
            None => all(&o),
        },
        Err(e) => {
            eprintln!("mcbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from("target/mcbench")
}

fn cores() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// `{"seed", "cores", "smoke", "workloads": {...}}`.
fn results_doc(opts: &Opts, workloads: Vec<(String, Value)>) -> Value {
    let mut doc = Value::Map(vec![]);
    doc.insert("seed", Value::UInt(opts.seed));
    doc.insert("cores", Value::UInt(cores()));
    doc.insert("smoke", Value::Bool(opts.smoke));
    doc.insert("workloads", Value::Map(workloads));
    doc
}

fn write_json(path: &Path, doc: &Value) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, serde_json::to_string_pretty(doc).expect("renders")));
    if let Err(e) = written {
        eprintln!("mcbench: cannot write {}: {e}", path.display());
    }
}

/// Run one workload in this process.
fn one(def: &'static Def, opts: &Opts) -> ExitCode {
    let bench = Bench::new(def, opts.seed, opts.smoke);
    let budget = match (opts.smoke, opts.seconds) {
        (true, _) => Budget::Passes(1),
        (false, Some(s)) => Budget::Seconds(s),
        (false, None) => Budget::Passes(def.passes),
    };
    let out = run_workload(&bench, budget, opts.trace);
    let row = |name: &str, unit: &str, samples: &[f64]| {
        if let Some(s) = summarize(samples) {
            let Summary { median, q1, q3, n } = s;
            println!("{} {name} {unit} {median} {q1} {q3} {n}", def.name);
        }
    };
    for (m, samples) in out.e2e_samples() {
        row(m.name, m.unit, &samples);
    }
    // The raw host speed the scaled times were divided by.
    row("reference_kernel_s", "s", &out.samples.reference_s);
    let dir = out_dir();
    let doc = results_doc(opts, vec![(def.name.to_string(), out.to_value())]);
    write_json(&dir.join(format!("{}.json", def.name)), &doc);
    if let Some(t) = &out.trace {
        let path = dir.join("trace").join(format!("{}.json", def.name));
        write_json(&path, t);
        print_trace(def, t);
    }
    println!("{}", result_line(&out, opts.trace));
    ExitCode::SUCCESS
}

fn num(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::Float(x)) => *x,
        Some(Value::UInt(x)) => *x as f64,
        _ => 0.0,
    }
}

fn print_trace(def: &Def, t: &Value) {
    let largest = t.get("largest_share_of_run");
    let text = |k| match largest.and_then(|l| l.get(k)) {
        Some(Value::Str(s)) => s.clone(),
        _ => String::new(),
    };
    println!(
        "{} trace: spans cover {:.2}% of the pass; tracing overhead {:.6} s; {:.4} allocs/event; \
         largest share of run_s: {} ({} layer, {:.1}%) -> target/mcbench/trace/{}.json",
        def.name,
        100.0 * num(t.get("coverage")),
        num(t.get("trace_overhead_s")),
        num(t.get("allocs_per_event")),
        text("name"),
        text("layer"),
        100.0 * num(largest.and_then(|l| l.get("share_of_run"))),
        def.name,
    );
}

/// The last line of output: correctness, pass counts, and the host-clock
/// end-to-end metrics (traced: the per-layer metrics).
fn result_line(out: &Outcome, traced: bool) -> String {
    let metrics = if traced {
        out.per_layer_value()
    } else {
        Value::Map(
            out.e2e_samples()
                .into_iter()
                .filter(|(m, _)| !m.exact)
                .map(|(m, samples)| {
                    let median = summarize(&samples).map_or(0.0, |s| s.median);
                    (m.name.to_string(), value_unit(median, m.unit))
                })
                .collect(),
        )
    };
    let mut line = Value::Map(vec![]);
    line.insert("correct", Value::Bool(out.samples.failures.is_empty()));
    line.insert("attempted", Value::UInt(out.samples.attempted as u64));
    line.insert("failed", Value::UInt(out.samples.failures.len() as u64));
    line.insert("metrics", metrics);
    serde_json::to_string(&line).expect("renders")
}

/// Run every workload, each in a child process of its own, and merge their
/// results.
fn all(opts: &Opts) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let dir = out_dir();
    let mut merged = Vec::new();
    let mut ok = true;
    for def in &WORKLOADS {
        let file = dir.join(format!("{}.json", def.name));
        let _ = std::fs::remove_file(&file);
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", def.name, "--seed", &opts.seed.to_string()]);
        if let Some(s) = opts.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if opts.trace {
            cmd.arg("--trace");
        }
        if opts.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.status();
        let entry = std::fs::read_to_string(&file)
            .ok()
            .and_then(|s| serde_json::from_str(&s).ok())
            .and_then(|doc: Value| doc.get("workloads")?.get(def.name).cloned());
        match (status, entry) {
            (Ok(st), Some(entry)) if st.success() => {
                ok &= num(entry.get("failed")) == 0.0;
                merged.push((def.name.to_string(), entry));
            }
            (status, _) => {
                eprintln!("mcbench: {} did not finish ({status:?})", def.name);
                ok = false;
            }
        }
    }
    let path = dir.join("results.json");
    write_json(&path, &results_doc(opts, merged));
    println!("mcbench: results in {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
