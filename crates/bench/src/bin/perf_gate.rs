//! CI perf-regression gate: compare a freshly recorded dispatch rate in
//! `results/perf_baseline.json` against a pre-run snapshot of the same
//! file and fail when the rate dropped by more than the allowed fraction.
//!
//! ```console
//! cp results/perf_baseline.json /tmp/perf_before.json
//! cargo run --release -p bench --bin ext_scalability -- --iters 10
//! cargo run --release -p bench --bin perf_gate -- \
//!     ext_scalability /tmp/perf_before.json results/perf_baseline.json 0.25
//! ```
//!
//! Rates compare per-key `events_per_sec` (a rate, so baseline and gate
//! runs may use different iteration counts). A missing key on either side
//! passes with a note — a new binary has no baseline yet. Rates are not
//! compared across different `cores` counts: a single-core CI runner
//! measuring a 4-shard record from a 16-core box would always "regress".
//! The count gates (shard event imbalance, allocations per event) do not
//! depend on the host and always run.

use serde::Value;

fn field<'a>(map: &'a Value, name: &str) -> Option<&'a Value> {
    match map {
        Value::Map(m) => m.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perf_gate: cannot read {path}: {e}");
        std::process::exit(2)
    });
    serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("perf_gate: {path} is not valid JSON: {e}");
        std::process::exit(2)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (key, before_path, after_path) = match &args[..] {
        [_, k, b, a] | [_, k, b, a, _] => (k.as_str(), b.as_str(), a.as_str()),
        _ => {
            eprintln!("usage: perf_gate <key> <baseline.json> <current.json> [max-regression]");
            std::process::exit(2)
        }
    };
    let max_regress: f64 = args
        .get(4)
        .map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("perf_gate: bad max-regression {s:?}");
                std::process::exit(2)
            })
        })
        .unwrap_or(0.25);

    let before = load(before_path);
    let after = load(after_path);
    let (Some(b), Some(a)) = (field(&before, key), field(&after, key)) else {
        println!("perf_gate: no `{key}` entry on both sides — nothing to compare, passing");
        return;
    };
    let mut notes = Vec::new();
    let verdict = compare(key, b, a, max_regress, &mut notes);
    for note in &notes {
        println!("perf_gate: {note}");
    }
    if let Err(fail) = verdict {
        eprintln!("perf_gate: FAIL — {fail} (set MYRI_CI_NO_PERF=1 to skip the gate)");
        std::process::exit(1);
    }
    println!("perf_gate: OK (allowed regression {:.0}%)", max_regress * 100.0);
}

/// Compare `key`'s fresh record `a` against its baseline `b`, pushing one
/// report line per comparison made onto `notes`; `Err` names the first
/// gate that failed. Each gate runs when both records carry its field.
fn compare(
    key: &str,
    b: &Value,
    a: &Value,
    max_regress: f64,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let num = |rec: &Value, name: &str| field(rec, name).and_then(as_f64);
    // Dispatch rate. Only a rate depends on the host, so a cores mismatch
    // skips this comparison alone.
    match (num(b, "events_per_sec"), num(a, "events_per_sec")) {
        (Some(rate_b), Some(rate_a)) => match (num(b, "cores"), num(a, "cores")) {
            (Some(cores_b), Some(cores_a)) if cores_b != cores_a => notes.push(format!(
                "`{key}` rate recorded on {cores_b}-core vs {cores_a}-core hosts — \
                 not comparable, skipped"
            )),
            _ => {
                let ratio = rate_a / rate_b;
                notes.push(format!(
                    "`{key}` {rate_a:.0} ev/s vs baseline {rate_b:.0} ev/s ({:+.1}%)",
                    (ratio - 1.0) * 100.0
                ));
                if ratio < 1.0 - max_regress {
                    return Err(format!(
                        "dispatch rate regressed more than {:.0}%",
                        max_regress * 100.0
                    ));
                }
            }
        },
        _ => notes.push(format!("`{key}` lacks events_per_sec on one side, rate skipped")),
    }
    // Sharding balance, when both sides recorded one (sharded runs report
    // `parallel.event_imbalance_pct` through `bench::perf::note_imbalance`).
    // The partition is deterministic, so the gate allows 10 percentage
    // points of drift before calling a placement regression.
    if let (Some(imb_b), Some(imb_a)) = (
        num(b, "event_imbalance_pct"),
        num(a, "event_imbalance_pct"),
    ) {
        notes.push(format!(
            "`{key}` {imb_a:.0}% event imbalance vs baseline {imb_b:.0}%"
        ));
        if imb_a > imb_b + 10.0 {
            return Err("shard event imbalance regressed more than 10 points".into());
        }
    }
    // Allocation churn, when both sides were measured with `alloc-count`.
    // Counts are near-deterministic and do not depend on the core count, so
    // the allowed headroom is a tight 10%.
    if let (Some(apb), Some(apa)) = (num(b, "allocs_per_event"), num(a, "allocs_per_event")) {
        notes.push(format!(
            "`{key}` {apa:.3} allocs/event vs baseline {apb:.3} ({:+.1}%)",
            (apa / apb.max(f64::MIN_POSITIVE) - 1.0) * 100.0
        ));
        if apa > apb * 1.10 {
            return Err("allocations per event regressed more than 10%".into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(json: &str) -> Value {
        serde_json::from_str(json).expect("valid JSON")
    }

    #[test]
    fn cores_mismatch_skips_only_the_rate() {
        let base = record(r#"{"events_per_sec": 3.0e6, "cores": 1, "allocs_per_event": 1.7307}"#);
        let fresh = |allocs: f64| {
            record(&format!(
                r#"{{"events_per_sec": 1.0e6, "cores": 2, "allocs_per_event": {allocs}}}"#
            ))
        };
        let mut notes = Vec::new();
        assert_eq!(compare("k", &base, &fresh(1.7307), 0.25, &mut notes), Ok(()));
        assert!(notes[0].contains("not comparable"), "{notes:?}");
        assert!(notes[1].contains("allocs/event"), "{notes:?}");
        let verdict = compare("k", &base, &fresh(1.7307 * 1.2), 0.25, &mut Vec::new());
        assert!(
            verdict.is_err_and(|e| e.contains("allocations per event")),
            "+20% allocs/event must fail across core counts"
        );
    }

    #[test]
    fn same_cores_gates_the_rate() {
        let base = record(r#"{"events_per_sec": 3.0e6, "cores": 2}"#);
        let slow = record(r#"{"events_per_sec": 2.0e6, "cores": 2}"#);
        assert!(compare("k", &base, &slow, 0.25, &mut Vec::new()).is_err());
        assert_eq!(compare("k", &base, &slow, 0.5, &mut Vec::new()), Ok(()));
    }
}
