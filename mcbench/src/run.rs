//! Running one workload: the warm-up, the timed passes, the traced pass,
//! and what they leave behind.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use serde_json::Value;

use crate::calibrate::{Reference, REF_S};
use crate::metrics::{self, E2E, PER_LAYER};
use crate::stats::{summarize, Summary};
use crate::trace::{self, Span, Tracer};
use crate::workloads::{Bench, Pass, INPUTS};

/// How many timed passes to run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// Exactly this many.
    Passes(usize),
    /// Until this many seconds have passed, and at least [`MIN_PASSES`].
    Seconds(f64),
}

/// The fewest timed passes a `--seconds` budget runs: one per input.
pub const MIN_PASSES: usize = INPUTS as usize;

/// What a pass is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Untimed; its simulated results are the reference later passes match.
    Warmup,
    /// Gives the end-to-end samples.
    Timed,
    /// Records spans; gives per-layer values only.
    Traced,
}

/// Everything the passes of one workload produced.
#[derive(Default)]
pub struct Samples {
    /// Passes run, of every role.
    pub attempted: usize,
    /// Why each failed pass failed.
    pub failures: Vec<String>,
    /// Each input's simulated results, from its first successful pass.
    pub reference: BTreeMap<u64, String>,
    /// End-to-end samples of the timed passes, by metric name. Simulated
    /// metrics come from input 0, the seed's own.
    pub e2e: BTreeMap<&'static str, Vec<f64>>,
    /// `run_s` of the timed passes over input 0, which the traced pass runs.
    pub input0_run_s: Vec<f64>,
    /// The reference kernel's time before each timed pass.
    pub reference_s: Vec<f64>,
    /// Per-layer samples of the timed and traced passes over input 0, so
    /// counts are the seed's own and exact.
    pub layer: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    /// Count the outcome of one pass over input `input`; the pass when it
    /// succeeded and matched that input's reference.
    pub fn record(
        &mut self,
        outcome: std::thread::Result<Result<Pass, String>>,
        role: Role,
        input: u64,
    ) -> Option<Pass> {
        self.attempted += 1;
        let pass = match outcome {
            Ok(Ok(pass)) => pass,
            Ok(Err(why)) => return self.fail(why),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(ToString::to_string)
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                return self.fail(format!("panicked: {msg}"));
            }
        };
        match self.reference.get(&input) {
            None => {
                self.reference.insert(input, pass.summary.clone());
            }
            Some(r) if *r != pass.summary => {
                return self.fail(format!(
                    "input {input}: simulated results differ from its first pass: {} vs {r}",
                    pass.summary
                ))
            }
            Some(_) => {}
        }
        if role == Role::Timed {
            let e2e = [("setup_s", pass.setup_s), ("run_s", pass.run_s)];
            let sim = if input == 0 { &pass.sim[..] } else { &[] };
            for &(k, v) in e2e.iter().chain(sim) {
                self.e2e.entry(k).or_default().push(v);
            }
            if input == 0 {
                self.input0_run_s.push(pass.run_s);
            }
        }
        if role != Role::Warmup && input == 0 {
            for &(k, v) in &pass.layer {
                self.layer.entry(k).or_default().push(v);
            }
        }
        Some(pass)
    }

    fn fail(&mut self, why: String) -> Option<Pass> {
        eprintln!("mcbench: pass {} failed: {why}", self.attempted);
        self.failures.push(why);
        None
    }

    /// Failed passes over attempted passes.
    pub fn fail_frac(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    /// What host times are scaled by: [`REF_S`] over the median kernel time
    /// (see [`crate::calibrate`]).
    pub fn speed_scale(&self) -> f64 {
        summarize(&self.reference_s).map_or(1.0, |s| REF_S / s.median)
    }

    /// The median of a per-layer metric over the passes that recorded it.
    pub fn layer_median(&self, name: &str) -> f64 {
        self.layer
            .get(name)
            .and_then(|v| summarize(v))
            .map_or(0.0, |s| s.median)
    }
}

/// Run timed passes within `budget`, pass `i` over input `i % INPUTS`, each
/// after one timing of the `reference` kernel, catching panics so a failed
/// pass is counted rather than ending the run.
pub fn measure(
    budget: Budget,
    samples: &mut Samples,
    mut reference: impl FnMut() -> f64,
    mut pass: impl FnMut(u64) -> Result<Pass, String>,
) {
    let started = Instant::now();
    let mut n = 0;
    while match budget {
        Budget::Passes(k) => n < k,
        Budget::Seconds(s) => n < MIN_PASSES || started.elapsed().as_secs_f64() < s,
    } {
        samples.reference_s.push(reference());
        let input = n as u64 % INPUTS;
        let outcome = catch_unwind(AssertUnwindSafe(|| pass(input)));
        samples.record(outcome, Role::Timed, input);
        n += 1;
    }
}

/// Everything one workload's run reports.
pub struct Outcome {
    /// The samples.
    pub samples: Samples,
    /// Peak resident set after the warm-up pass over input 0, MB. Later
    /// passes over other inputs leave the allocator holding different
    /// amounts, so the process's final peak would follow the order the
    /// inputs ran in.
    pub peak_rss_mb: f64,
    /// The traced pass's span file contents, when traced.
    pub trace: Option<Value>,
}

/// Warm up, run the timed passes, then (when `traced`) the traced pass.
pub fn run_workload(bench: &Bench, budget: Budget, traced: bool) -> Outcome {
    let mut samples = Samples::default();
    let warm = |shards| {
        catch_unwind(AssertUnwindSafe(|| {
            bench.pass(bench.input(0), &mut Tracer::off(), shards)
        }))
    };
    samples.record(warm(bench.shards()), Role::Warmup, 0);
    let peak_rss_mb = peak_rss_mb();
    if bench.shards() > 1 {
        // The sharded engine must reproduce the sequential one byte for byte.
        samples.record(warm(1), Role::Warmup, 0);
    }
    let mut reference = Reference::new();
    measure(
        budget,
        &mut samples,
        || reference.time(),
        |k| bench.pass(bench.input(k), &mut Tracer::off(), bench.shards()),
    );
    let trace = traced.then(|| traced_pass(bench, &mut samples));
    Outcome {
        samples,
        peak_rss_mb,
        trace,
    }
}

/// One extra pass over input 0 with spans and allocation counting on, then
/// replays of the calls the run makes internally, timed on its output.
fn traced_pass(bench: &Bench, samples: &mut Samples) -> Value {
    let input = bench.input(0);
    let mut tr = Tracer::on();
    trace::count_allocs(true);
    let (outcome, wall) = tr.span("bench.pass", |tr| {
        catch_unwind(AssertUnwindSafe(|| bench.pass(input, tr, bench.shards())))
    });
    trace::count_allocs(false);
    let pass = samples.record(outcome, Role::Traced, 0);
    let traced_run_s = pass.as_ref().map_or(0.0, |p| p.run_s);
    if let Some(replay) = pass.and_then(|p| p.replay) {
        let (replays, _) = tr.replay("bench.replay", |tr| replay.run(tr));
        for (k, v) in replays {
            samples.layer.entry(k).or_default().push(v);
        }
    }
    let untraced = summarize(&samples.input0_run_s).map_or(0.0, |s| s.median);
    let overhead = traced_run_s - untraced;
    samples
        .layer
        .insert("bench.trace_overhead_s", vec![overhead]);
    trace_doc(bench, tr.spans(), wall, traced_run_s, untraced, samples)
}

/// Calls a run makes inside itself that a replay times on its own, and the
/// replayed call that already contains them when both are present.
const NESTED: [(&str, &str); 2] = [
    ("myrinet.fabric_new", "gm.build_cluster"),
    ("sim.flow_graph", "sim.watch.evidence"),
];

/// The span file: every span with its self time, self time per layer, and
/// the split of the traced `run_s` into dispatch, replayed calls and the
/// rest, naming the largest part.
fn trace_doc(
    bench: &Bench,
    spans: &[Span],
    wall: f64,
    run_s: f64,
    untraced_run_s: f64,
    samples: &Samples,
) -> Value {
    let self_s = trace::self_times(spans);
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    let mut parts: BTreeMap<&str, f64> = BTreeMap::new();
    let mut covered = 0.0;
    let mut list = Vec::new();
    for (i, (s, &own)) in spans.iter().zip(&self_s).enumerate() {
        if s.parent == Some(0) {
            covered += s.secs();
        }
        if i > 0 && !s.replay {
            *by_layer.entry(s.layer()).or_default() += own;
        }
        if (s.name == "sim.dispatch" && !s.replay) || (s.replay && s.parent.is_some()) {
            *parts.entry(s.name).or_default() += s.secs();
        }
        let mut v = Value::Map(vec![]);
        v.insert("id", Value::UInt(i as u64));
        v.insert("name", Value::Str(s.name.to_string()));
        v.insert("layer", Value::Str(s.layer().to_string()));
        v.insert("start_s", Value::Float(s.start.as_secs_f64()));
        v.insert("end_s", Value::Float(s.end.as_secs_f64()));
        v.insert(
            "parent",
            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
        );
        v.insert(
            "pass",
            Value::Str(if s.replay { "replay" } else { "traced" }.to_string()),
        );
        v.insert("synthetic", Value::Bool(s.synthetic));
        v.insert("self_s", Value::Float(own));
        list.push(v);
    }
    for (inner, outer) in NESTED {
        if parts.contains_key(outer) {
            parts.remove(inner);
        }
    }
    let rest = (run_s - parts.values().sum::<f64>()).max(0.0);
    parts.insert("core.run (rest)", rest);
    let share = |secs: f64| if run_s > 0.0 { secs / run_s } else { 0.0 };
    let mut largest = Value::Map(vec![]);
    if let Some((name, &secs)) = parts.iter().max_by(|a, b| a.1.total_cmp(b.1)) {
        largest.insert("name", Value::Str(name.to_string()));
        let layer = name.split('.').next().unwrap_or(name);
        largest.insert("layer", Value::Str(layer.to_string()));
        largest.insert("share_of_run", Value::Float(share(secs)));
    }
    let mut split = Vec::new();
    for (name, &secs) in &parts {
        let mut v = Value::Map(vec![]);
        v.insert("name", Value::Str(name.to_string()));
        v.insert("s", Value::Float(secs));
        v.insert("share_of_run", Value::Float(share(secs)));
        let source = match *name {
            "sim.dispatch" => "dispatch counter",
            "core.run (rest)" => "remainder",
            _ => "replay",
        };
        v.insert("source", Value::Str(source.to_string()));
        split.push(v);
    }
    let mut doc = Value::Map(vec![]);
    doc.insert("workload", Value::Str(bench.def.name.to_string()));
    doc.insert("pass_wall_s", Value::Float(wall));
    doc.insert("covered_s", Value::Float(covered));
    doc.insert(
        "coverage",
        Value::Float(if wall > 0.0 { covered / wall } else { 0.0 }),
    );
    doc.insert("run_s", Value::Float(run_s));
    doc.insert("untraced_run_s_median", Value::Float(untraced_run_s));
    doc.insert("trace_overhead_s", Value::Float(run_s - untraced_run_s));
    doc.insert(
        "allocs_per_event",
        Value::Float(samples.layer_median("sim.allocs_per_event")),
    );
    doc.insert(
        "layer_self_s",
        Value::Map(
            by_layer
                .into_iter()
                .map(|(k, v)| (k.to_string(), Value::Float(v)))
                .collect(),
        ),
    );
    doc.insert("run_split", Value::Seq(split));
    doc.insert("largest_share_of_run", largest);
    doc.insert("spans", Value::Seq(list));
    doc
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status is readable on Linux");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// One metric's record in a results file.
fn metric_value(unit: &str, better: &str, exact: bool, samples: &[f64]) -> Option<Value> {
    let Summary { median, q1, q3, n } = summarize(samples)?;
    let mut v = Value::Map(vec![]);
    v.insert("unit", Value::Str(unit.to_string()));
    v.insert("better", Value::Str(better.to_string()));
    v.insert("exact", Value::Bool(exact));
    v.insert("median", Value::Float(median));
    v.insert("q1", Value::Float(q1));
    v.insert("q3", Value::Float(q3));
    v.insert("n", Value::UInt(n as u64));
    v.insert(
        "samples",
        Value::Seq(samples.iter().map(|&x| Value::Float(x)).collect()),
    );
    Some(v)
}

impl Outcome {
    /// Samples of every end-to-end metric this workload has, host times
    /// scaled to the reference speed.
    pub fn e2e_samples(&self) -> Vec<(&'static metrics::E2e, Vec<f64>)> {
        let scale = self.samples.speed_scale();
        E2E.iter()
            .filter_map(|m| {
                let v = match m.name {
                    "peak_rss_mb" => vec![self.peak_rss_mb],
                    "fail_frac" => vec![self.samples.fail_frac()],
                    "setup_s" | "run_s" => self
                        .samples
                        .e2e
                        .get(m.name)?
                        .iter()
                        .map(|x| x * scale)
                        .collect(),
                    name => self.samples.e2e.get(name)?.clone(),
                };
                Some((m, v))
            })
            .collect()
    }

    /// This workload's entry in a results file.
    pub fn to_value(&self) -> Value {
        let mut e2e = Value::Map(vec![]);
        for (m, samples) in self.e2e_samples() {
            let better = if m.higher_better { "higher" } else { "lower" };
            if let Some(v) = metric_value(m.unit, better, m.exact, &samples) {
                e2e.insert(m.name, v);
            }
        }
        let mut w = Value::Map(vec![]);
        w.insert("attempted", Value::UInt(self.samples.attempted as u64));
        w.insert("failed", Value::UInt(self.samples.failures.len() as u64));
        w.insert(
            "failures",
            Value::Seq(
                self.samples
                    .failures
                    .iter()
                    .map(|f| Value::Str(f.clone()))
                    .collect(),
            ),
        );
        w.insert(
            "summary",
            Value::Str(self.samples.reference.get(&0).cloned().unwrap_or_default()),
        );
        w.insert("metrics", e2e);
        if let Some(v) = metric_value("s", "lower", false, &self.samples.reference_s) {
            w.insert("reference_kernel_s", v);
        }
        if self.trace.is_some() {
            w.insert("per_layer", self.per_layer_value());
        }
        w
    }

    /// Every per-layer metric, `{name: {"value", "unit"}}`.
    pub fn per_layer_value(&self) -> Value {
        Value::Map(
            PER_LAYER
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        value_unit(self.samples.layer_median(m.name), m.unit),
                    )
                })
                .collect(),
        )
    }
}

/// `{"value": v, "unit": u}`.
pub fn value_unit(value: f64, unit: &str) -> Value {
    let mut v = Value::Map(vec![]);
    v.insert("value", Value::Float(value));
    v.insert("unit", Value::Str(unit.to_string()));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_pass(run_s: f64) -> Result<Pass, String> {
        Ok(Pass {
            setup_s: 0.001,
            run_s,
            summary: "same".into(),
            sim: vec![("sim_p50_us", 12.5)],
            layer: vec![("sim.events", 100.0)],
            replay: None,
        })
    }

    #[test]
    fn a_panicking_pass_counts_in_fail_frac() {
        let mut s = Samples::default();
        let mut k = 0;
        measure(
            Budget::Passes(4),
            &mut s,
            || 0.01,
            |_| {
                k += 1;
                if k == 2 {
                    panic!("all-delivered assert");
                }
                ok_pass(k as f64)
            },
        );
        assert_eq!(s.attempted, 4);
        assert_eq!(s.failures.len(), 1);
        assert!(s.failures[0].contains("all-delivered assert"));
        assert_eq!(s.fail_frac(), 0.25);
        assert_eq!(s.e2e["run_s"], vec![1.0, 3.0, 4.0]);
        assert_eq!(s.reference_s.len(), 4);
        assert!((s.speed_scale() - REF_S / 0.01).abs() < 1e-12);
    }

    #[test]
    fn a_pass_differing_from_its_input_reference_fails() {
        let mut s = Samples::default();
        s.record(Ok(ok_pass(1.0)), Role::Warmup, 0);
        let other = || {
            let mut p = ok_pass(2.0).unwrap();
            p.summary = "different".into();
            Ok(Ok(p))
        };
        assert!(s.record(other(), Role::Timed, 0).is_none());
        assert!(s
            .record(Ok(Err("p50 above p99".into())), Role::Timed, 0)
            .is_none());
        assert_eq!((s.attempted, s.failures.len()), (3, 2));
        assert!(
            !s.e2e.contains_key("run_s"),
            "failed passes give no samples"
        );
        assert!(
            !s.layer.contains_key("sim.events"),
            "the warm-up gives no samples"
        );
        // Another input is checked against its own first pass.
        assert!(s.record(other(), Role::Timed, 1).is_some());
        assert!(
            !s.layer.contains_key("sim.events"),
            "per-layer values come from input 0"
        );
        assert_eq!(s.e2e["run_s"], vec![2.0]);
        assert!(
            !s.e2e.contains_key("sim_p50_us"),
            "only input 0 gives simulated metrics"
        );
    }

    #[test]
    fn a_seconds_budget_runs_at_least_the_minimum() {
        let mut s = Samples::default();
        let mut inputs = Vec::new();
        measure(
            Budget::Seconds(1e-9),
            &mut s,
            || 0.01,
            |k| {
                inputs.push(k);
                ok_pass(1.0)
            },
        );
        assert_eq!(s.attempted, MIN_PASSES);
        assert_eq!(inputs, (0..MIN_PASSES as u64).collect::<Vec<_>>());
    }
}
