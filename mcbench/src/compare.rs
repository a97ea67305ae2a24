//! `mcbench compare A.json B.json`: one row per workload and end-to-end
//! metric, with a verdict for B against A.
//!
//! Host-clock metrics are judged against their bound in `BENCHMARK.json`
//! (a share of A's median). Where either side's quartile spread is wider
//! than the bound, the verdict is `unresolved` rather than `unchanged`,
//! unless every sample of B reads better than every sample of A. Simulated
//! metrics and `fail_frac` are exact: any difference is better or worse.

use std::collections::BTreeMap;
use std::process::ExitCode;

use serde_json::Value;

use crate::metrics::E2E;
use crate::stats::Summary;

/// How B compares with A on one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better than A by more than the bound (exact metrics: at all).
    Better,
    /// Worse than A by more than the bound (exact metrics: at all).
    Worse,
    /// Within the bound (exact metrics: identical).
    Unchanged,
    /// The spread between quartiles is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the summary and the range of its samples.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    /// Median and quartiles.
    pub summary: Summary,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

/// The verdict for `b` against `a`. `bound` is `None` for exact metrics.
pub fn verdict(a: &Side, b: &Side, higher_better: bool, bound: Option<f64>) -> Verdict {
    let (am, bm) = (a.summary.median, b.summary.median);
    let gain = if higher_better { bm - am } else { am - bm };
    let Some(bound) = bound.filter(|_| am != 0.0) else {
        return match gain {
            g if g > 0.0 => Verdict::Better,
            g if g < 0.0 => Verdict::Worse,
            _ => Verdict::Unchanged,
        };
    };
    let gain = gain / am.abs();
    let all_better = if higher_better {
        b.min > a.max
    } else {
        b.max < a.min
    };
    if !all_better && a.summary.spread().max(b.summary.spread()) > bound {
        Verdict::Unresolved
    } else if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// Read a side of one metric from a results file.
fn side(metric: &Value) -> Option<Side> {
    let num = |k: &str| match metric.get(k)? {
        Value::Float(x) => Some(*x),
        Value::UInt(x) => Some(*x as f64),
        Value::Int(x) => Some(*x as f64),
        _ => None,
    };
    let Value::Seq(samples) = metric.get("samples")? else {
        return None;
    };
    let samples: Vec<f64> = samples
        .iter()
        .filter_map(|s| match s {
            Value::Float(x) => Some(*x),
            Value::UInt(x) => Some(*x as f64),
            _ => None,
        })
        .collect();
    Some(Side {
        summary: Summary {
            median: num("median")?,
            q1: num("q1")?,
            q3: num("q3")?,
            n: samples.len(),
        },
        min: samples.iter().copied().fold(f64::INFINITY, f64::min),
        max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    })
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// The `bound` of every `end_to_end` metric in `BENCHMARK.json`.
fn bounds(doc: &Value) -> BTreeMap<String, f64> {
    let Some(Value::Seq(list)) = doc.get("end_to_end") else {
        return BTreeMap::new();
    };
    list.iter()
        .filter_map(|m| match (m.get("name")?, m.get("bound")?) {
            (Value::Str(n), Value::Float(b)) => Some((n.clone(), *b)),
            _ => None,
        })
        .collect()
}

fn workloads(doc: &Value) -> Vec<(&str, &Value)> {
    match doc.get("workloads") {
        Some(Value::Map(entries)) => entries.iter().map(|(k, v)| (k.as_str(), v)).collect(),
        _ => Vec::new(),
    }
}

/// `compare A B`: print the table; fail when any metric got worse.
pub fn main(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b, bench) = match (load(a_path), load(b_path), load("BENCHMARK.json")) {
        (Ok(a), Ok(b), Ok(bench)) => (a, b, bench),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("mcbench compare: {e} (run it from the repository root)");
            return ExitCode::from(2);
        }
    };
    let bounds = bounds(&bench);
    let b_workloads: BTreeMap<&str, &Value> = workloads(&b).into_iter().collect();
    println!("workload metric unit a_median a_q1 a_q3 b_median b_q1 b_q3 verdict");
    let mut worse = 0;
    for (name, wa) in workloads(&a) {
        let Some(wb) = b_workloads.get(name) else {
            println!("{name} - - - - - - - - missing-in-b");
            continue;
        };
        for m in &E2E {
            let metric = |w: &Value| {
                w.get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(side)
            };
            let (Some(sa), Some(sb)) = (metric(wa), metric(wb)) else {
                continue;
            };
            let bound = if m.exact {
                None
            } else {
                bounds.get(m.name).copied()
            };
            let v = verdict(&sa, &sb, m.higher_better, bound);
            worse += usize::from(v == Verdict::Worse);
            let (x, y) = (sa.summary, sb.summary);
            println!(
                "{name} {} {} {} {} {} {} {} {} {}",
                m.name,
                m.unit,
                x.median,
                x.q1,
                x.q3,
                y.median,
                y.q1,
                y.q3,
                v.name()
            );
        }
    }
    if worse > 0 {
        eprintln!("mcbench compare: {worse} metric(s) worse");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(samples: &[f64]) -> Side {
        Side {
            summary: crate::stats::summarize(samples).unwrap(),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    #[test]
    fn host_metrics_use_the_bound() {
        let a = s(&[1.00, 1.01, 0.99, 1.00, 1.02]);
        // 20% slower, tight spreads: worse.
        assert_eq!(
            verdict(&a, &s(&[1.2, 1.21, 1.19, 1.2]), false, Some(0.1)),
            Verdict::Worse
        );
        // 5% slower under a 10% bound: unchanged.
        assert_eq!(
            verdict(&a, &s(&[1.05, 1.06, 1.04]), false, Some(0.1)),
            Verdict::Unchanged
        );
        // 30% faster: better.
        assert_eq!(
            verdict(&a, &s(&[0.7, 0.71, 0.69]), false, Some(0.1)),
            Verdict::Better
        );
        // Higher-is-better flips the sign.
        assert_eq!(
            verdict(&a, &s(&[1.2, 1.21, 1.19]), true, Some(0.1)),
            Verdict::Better
        );
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_run_wins() {
        let a = s(&[1.0, 1.0, 1.0, 1.0]);
        let noisy = s(&[0.6, 1.0, 1.4, 1.1, 0.9]);
        assert_eq!(verdict(&a, &noisy, false, Some(0.1)), Verdict::Unresolved);
        // Every B sample below every A sample: resolved despite the spread.
        let a = s(&[1.0, 1.5, 2.0, 1.2]);
        let b = s(&[0.5, 0.6, 0.9, 0.55]);
        assert_eq!(verdict(&a, &b, false, Some(0.1)), Verdict::Better);
    }

    #[test]
    fn exact_metrics_compare_exactly() {
        let a = s(&[43.0; 3]);
        assert_eq!(verdict(&a, &s(&[43.0; 3]), false, None), Verdict::Unchanged);
        assert_eq!(verdict(&a, &s(&[43.001; 3]), false, None), Verdict::Worse);
        assert_eq!(verdict(&a, &s(&[43.001; 3]), true, None), Verdict::Better);
        // fail_frac: a zero median is compared exactly even with a bound.
        let zero = s(&[0.0]);
        assert_eq!(verdict(&zero, &s(&[0.1]), false, Some(0.1)), Verdict::Worse);
    }
}
