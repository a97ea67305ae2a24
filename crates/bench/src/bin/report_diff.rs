//! Run-to-run regression differ: compare two report/summary JSON artifacts
//! (`results/health_explore.json`, a figure's `results/<bin>.json`, or any
//! other JSON document) and print a byte-stable structured diff.
//!
//! ```console
//! cargo run --release -p bench --bin report_diff -- \
//!     results/health_explore.json /tmp/health_after.json --tol-pct 5
//! ```
//!
//! Identical inputs produce no output and exit 0. Differences print one
//! line per diverging path, in sorted path order (so the diff itself is
//! byte-identical across runs), and exit 1. Numeric leaves within the
//! tolerance band — relative difference at most `--tol-pct` percent *or*
//! absolute difference at most `--tol-abs` — count as equal, so noisy
//! wall-clock fields can be banded out while counts stay exact.

use serde::Value;

struct Opts {
    a_path: String,
    b_path: String,
    tol_pct: f64,
    tol_abs: f64,
}

fn usage() -> ! {
    eprintln!("usage: report_diff <a.json> <b.json> [--tol-pct P] [--tol-abs X]");
    std::process::exit(2)
}

fn parse() -> Opts {
    let args: Vec<String> = std::env::args().collect();
    let mut o = Opts {
        a_path: String::new(),
        b_path: String::new(),
        tol_pct: 0.0,
        tol_abs: 0.0,
    };
    let mut pos = Vec::new();
    let mut i = 1;
    let val = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--tol-pct" => o.tol_pct = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--tol-abs" => o.tol_abs = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            other => pos.push(other.to_string()),
        }
        i += 1;
    }
    match &pos[..] {
        [a, b] => {
            o.a_path = a.clone();
            o.b_path = b.clone();
        }
        _ => usage(),
    }
    o
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("report_diff: cannot read {path}: {e}");
        std::process::exit(2)
    });
    serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("report_diff: {path} is not valid JSON: {e}");
        std::process::exit(2)
    })
}

/// Render a scalar leaf for diff lines (compact, locale-free).
fn leaf(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::UInt(n) => n.to_string(),
        Value::Int(n) => n.to_string(),
        Value::Float(f) => format!("{f}"),
        Value::Str(s) => format!("{s:?}"),
        Value::Seq(s) => format!("[{} elements]", s.len()),
        Value::Map(m) => format!("{{{} keys}}", m.len()),
    }
}

fn as_num(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// One diverging path: `(path, line)` — collected, then emitted in sorted
/// path order so the diff is byte-stable regardless of input key order.
struct Diff {
    lines: Vec<(String, String)>,
    tol_pct: f64,
    tol_abs: f64,
}

impl Diff {
    fn push(&mut self, path: &str, line: String) {
        self.lines.push((path.to_string(), line));
    }

    fn walk(&mut self, path: &str, a: &Value, b: &Value) {
        // Numeric leaves first: tolerance bands apply across UInt/Int/Float
        // representation changes (a count may serialize as 3 or 3.0).
        if let (Some(na), Some(nb)) = (as_num(a), as_num(b)) {
            if na == nb {
                return;
            }
            let abs = (nb - na).abs();
            let rel = if na != 0.0 {
                abs / na.abs()
            } else {
                f64::INFINITY
            };
            if abs <= self.tol_abs || rel * 100.0 <= self.tol_pct {
                return;
            }
            let pct = if na != 0.0 {
                format!(" ({:+.2}%)", (nb / na - 1.0) * 100.0)
            } else {
                String::new()
            };
            self.push(path, format!("~ {path}: {} -> {}{pct}", leaf(a), leaf(b)));
            return;
        }
        match (a, b) {
            (Value::Map(ma), Value::Map(mb)) => {
                // Key-sorted union walk: stable output, and a key present
                // on only one side is its own diff line.
                let mut keys: Vec<&str> = ma
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .chain(mb.iter().map(|(k, _)| k.as_str()))
                    .collect();
                keys.sort_unstable();
                keys.dedup();
                for k in keys {
                    let sub = if path.is_empty() {
                        k.to_string()
                    } else {
                        format!("{path}.{k}")
                    };
                    let va = ma.iter().find(|(key, _)| key == k).map(|(_, v)| v);
                    let vb = mb.iter().find(|(key, _)| key == k).map(|(_, v)| v);
                    match (va, vb) {
                        (Some(va), Some(vb)) => self.walk(&sub, va, vb),
                        (Some(va), None) => {
                            self.push(&sub, format!("- {sub}: {} (only in a)", leaf(va)));
                        }
                        (None, Some(vb)) => {
                            self.push(&sub, format!("+ {sub}: {} (only in b)", leaf(vb)));
                        }
                        (None, None) => unreachable!("key came from one of the maps"),
                    }
                }
            }
            (Value::Seq(sa), Value::Seq(sb)) => {
                if sa.len() != sb.len() {
                    self.push(
                        path,
                        format!("~ {path}: length {} -> {}", sa.len(), sb.len()),
                    );
                }
                for (i, (va, vb)) in sa.iter().zip(sb.iter()).enumerate() {
                    self.walk(&format!("{path}[{i}]"), va, vb);
                }
            }
            (Value::Str(x), Value::Str(y)) if x == y => {}
            (Value::Bool(x), Value::Bool(y)) if x == y => {}
            (Value::Null, Value::Null) => {}
            _ => self.push(path, format!("~ {path}: {} -> {}", leaf(a), leaf(b))),
        }
    }
}

fn main() {
    let o = parse();
    let a = load(&o.a_path);
    let b = load(&o.b_path);
    let mut diff = Diff {
        lines: Vec::new(),
        tol_pct: o.tol_pct,
        tol_abs: o.tol_abs,
    };
    diff.walk("", &a, &b);
    if diff.lines.is_empty() {
        return; // identical (within tolerance): silent, exit 0
    }
    diff.lines.sort();
    for (_, line) in &diff.lines {
        println!("{line}");
    }
    eprintln!(
        "report_diff: {} difference(s) between {} and {} \
         (tolerance: {}% relative or {} absolute)",
        diff.lines.len(),
        o.a_path,
        o.b_path,
        o.tol_pct,
        o.tol_abs
    );
    std::process::exit(1);
}
