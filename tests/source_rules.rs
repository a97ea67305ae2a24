//! Source rules that no compiler lint states, checked by plain string
//! matching over every `.rs` file of the repository outside `target/` and
//! `shims/` (this file aside), with `//` comments stripped:
//!
//! * **units**: time leaves its types only through their accessors.
//!   `as_nanos() as …` and `as_micros_f64() as …` fail, and so does a
//!   `SimTime::from_nanos(…)` or `SimDuration::from_nanos(…)` whose
//!   argument holds an ` as ` cast.
//! * **expect messages**: every `.expect(` names the invariant it relies on
//!   in a string literal (`clippy::unwrap_used` covers `unwrap()`).
//! * **probe names**: no two `ProbeId::new("<name>"` sites share a name, so
//!   every probe record names exactly one probe point.
//!
//! The determinism and suppression rules are clippy's: the root
//! `clippy.toml` and the workspace lint table (DESIGN.md §9). One more
//! check keeps that table whole: `crates/bench/Cargo.toml` copies its
//! clippy half, and the copy must hold exactly the same lines.

use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, in sorted order, skipping build output,
/// the vendored shims and hidden directories.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("source directory is readable")
        .map(|e| e.expect("directory entry is readable").path())
        .collect();
    paths.sort();
    for p in paths {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if p.is_dir() {
            if !(name == "target" || name == "shims" || name.starts_with('.')) {
                rust_sources(&p, out);
            }
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
}

/// `src` with every `//` comment cut off its line.
fn strip_comments(src: &str) -> String {
    src.lines()
        .map(|l| l.find("//").map_or(l, |i| &l[..i]))
        .collect::<Vec<_>>()
        .join("\n")
}

/// 1-based line of byte offset `at` in `code`.
fn line_of(code: &str, at: usize) -> usize {
    code[..at].matches('\n').count() + 1
}

/// What one scan of a set of sources found.
#[derive(Default)]
struct Scan {
    /// Broken rules, as `file:line: message`.
    broken: Vec<String>,
    /// Probe points declared, as `(name, file, line)`, first site of each.
    probes: Vec<(String, String, usize)>,
}

/// Check the units, expect-message and probe-name rules over `sources`,
/// each a `(file, text)` pair.
fn scan<'a>(sources: impl IntoIterator<Item = (&'a str, &'a str)>) -> Scan {
    let mut out = Scan::default();
    for (file, src) in sources {
        let code = strip_comments(src);
        let mut broke = |at: usize, what: String| {
            out.broken
                .push(format!("{file}:{}: {what}", line_of(&code, at)));
        };
        for pat in ["as_nanos() as ", "as_micros_f64() as "] {
            for (at, _) in code.match_indices(pat) {
                broke(at, format!("`{}` strips the time unit", pat.trim_end()));
            }
        }
        for pat in ["SimTime::from_nanos(", "SimDuration::from_nanos("] {
            for (at, _) in code.match_indices(pat) {
                let arg = &code[at + pat.len()..];
                let mut depth = 1;
                let end = arg
                    .find(|c| {
                        depth += match c {
                            '(' => 1,
                            ')' => -1,
                            _ => 0,
                        };
                        depth == 0
                    })
                    .unwrap_or(arg.len());
                if arg[..end].contains(" as ") {
                    broke(at, format!("`{pat}…)` built from a raw `as` cast"));
                }
            }
        }
        for (at, pat) in code.match_indices(".expect(") {
            let arg = code[at + pat.len()..].trim_start();
            if !(arg.starts_with('"') || arg.starts_with("r\"") || arg.starts_with("r#")) {
                broke(
                    at,
                    "`.expect(` without a string literal naming the invariant".into(),
                );
            }
        }
        let pat = "ProbeId::new(\"";
        for (at, _) in code.match_indices(pat) {
            let rest = &code[at + pat.len()..];
            let name = &rest[..rest.find('"').unwrap_or(rest.len())];
            let line = line_of(&code, at);
            match out.probes.iter().find(|(n, _, _)| n == name) {
                Some((_, f, l)) => out.broken.push(format!(
                    "{file}:{line}: probe name \"{name}\" already declared at {f}:{l}"
                )),
                None => out.probes.push((name.to_string(), file.to_string(), line)),
            }
        }
    }
    out
}

/// The repository's sources, as `(path relative to the root, text)`.
fn tree() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_sources(root, &mut files);
    files
        .iter()
        .map(|p| {
            let rel = p.strip_prefix(root).expect("found under the root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            let src = std::fs::read_to_string(p).expect("source file is readable");
            (rel, src)
        })
        .filter(|(rel, _)| rel != "tests/source_rules.rs")
        .collect()
}

/// The `key = value` lines of the TOML table `[name]` in `toml`, trimmed,
/// with comments and blank lines dropped.
fn table_lines<'a>(toml: &'a str, name: &str) -> Vec<&'a str> {
    let header = format!("[{name}]");
    toml.lines()
        .map(|l| l.find('#').map_or(l, |i| &l[..i]).trim())
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .collect()
}

/// Where bench's `[lints.clippy]` copy differs from the workspace's
/// `[workspace.lints.clippy]` table: one message per line that only one of
/// the two holds.
fn lint_drift(workspace: &str, bench: &str) -> Vec<String> {
    let ours = table_lines(workspace, "workspace.lints.clippy");
    let copy = table_lines(bench, "lints.clippy");
    let mut drift = Vec::new();
    for (from, to, lines, other) in [
        ("the workspace", "bench", &ours, &copy),
        ("bench", "the workspace", &copy, &ours),
    ] {
        for line in lines.iter().filter(|l| !other.contains(l)) {
            drift.push(format!(
                "`{line}` is in {from}'s clippy lint table, not in {to}'s"
            ));
        }
    }
    drift
}

#[test]
fn the_tree_keeps_the_source_rules() {
    let files = tree();
    assert!(files.len() > 100, "scanned only {} files", files.len());
    let found = scan(files.iter().map(|(f, s)| (f.as_str(), s.as_str())));
    assert!(
        found.broken.is_empty(),
        "{} source rule(s) broken:\n{}",
        found.broken.len(),
        found.broken.join("\n")
    );
}

/// A probe point the scan does not recognise escapes the name rule, so
/// every probe point the simulator declares must be among those it
/// collects.
#[test]
fn the_scan_sees_every_probe_point() {
    let declared: [(&str, &[&str]); 4] = [
        ("crates/sim/src/probe.rs", &["link_stall", "pkt_drop"]),
        ("crates/sim/src/critical_path.rs", &["flow_delivery"]),
        (
            "crates/gm/src/cluster.rs",
            &[
                "host_call",
                "host_busy",
                "notice",
                "lanai",
                "pci_dma",
                "wire_tx",
                "wire_flight",
                "rx_arrive",
                "nic_timer",
            ],
        ),
        ("crates/mpi/src/rank.rs", &["mpi_op", "mpi_bcast"]),
    ];
    let files = tree();
    let found = scan(files.iter().map(|(f, s)| (f.as_str(), s.as_str())));
    for (file, names) in declared {
        for name in names {
            assert!(
                found.probes.iter().any(|(n, f, _)| n == name && f == file),
                "probe point \"{name}\" of {file} not collected"
            );
        }
    }
}

/// `crates/bench` cannot inherit the workspace lints (its counting
/// allocator needs `unsafe_code` at deny, not forbid), so it copies the
/// clippy table; a lint added to one table only would skip the other.
#[test]
fn the_bench_lint_table_copies_the_workspace_one() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |p: &str| std::fs::read_to_string(root.join(p)).expect("manifest is readable");
    let drift = lint_drift(&read("Cargo.toml"), &read("crates/bench/Cargo.toml"));
    assert!(
        drift.is_empty(),
        "crates/bench/Cargo.toml's [lints.clippy] has drifted:\n{}",
        drift.join("\n")
    );
}

#[test]
fn the_matchers_catch_bad_code_and_pass_good_code() {
    let broken = |src: &str| scan([("t.rs", src)]).broken;

    let bad_units = r#"
pub fn skew(t: SimTime, raw: i64) -> SimTime {
    let ns = t.as_nanos() as f64 * 1.5;
    let us = t.as_micros_f64() as u64;
    SimTime::from_nanos(ns as u64 + raw as u64)
}"#;
    assert_eq!(
        broken(bad_units),
        [
            "t.rs:3: `as_nanos() as` strips the time unit",
            "t.rs:4: `as_micros_f64() as` strips the time unit",
            "t.rs:5: `SimTime::from_nanos(…)` built from a raw `as` cast",
        ]
    );
    let good_units = r#"
// t.as_nanos() as u64 in a comment is prose.
pub fn report(d: SimDuration) -> f64 {
    d.as_micros_f64()
}
pub fn extend(t: SimTime, d: SimDuration, n: u32) -> SimTime {
    let u = SimDuration::from_nanos(d.as_nanos().min(7)) * u64::from(n);
    t + u + SimDuration::from_micros(2) + SimDuration::from_nanos(d.as_nanos()) * n as u64
}"#;
    assert_eq!(broken(good_units), Vec::<String>::new());

    let bad_expect = r#"
pub fn take(q: &mut Vec<u64>, msg: &str) -> u64 {
    let first = q.pop().expect(msg);
    let second = q.pop().expect(
        &format!("{msg} again"));
    first + second
}"#;
    assert_eq!(
        broken(bad_expect),
        [
            "t.rs:3: `.expect(` without a string literal naming the invariant",
            "t.rs:4: `.expect(` without a string literal naming the invariant",
        ]
    );
    let good_expect = r#"
pub fn take(q: &mut Vec<u64>) -> u64 {
    let a = q.pop().expect("queue nonempty: caller checked is_empty above");
    let b = q.pop().expect(
        "two entries: the caller pushed a pair",
    );
    a + b + q.pop().expect(r"raw literal names it too")
}"#;
    assert_eq!(broken(good_expect), Vec::<String>::new());

    let bad_probes = r#"
pub static WIRE_TX: ProbeId = ProbeId::new("fixture_tx", Track::Wire);
pub static WIRE_RETX: ProbeId = ProbeId::new("fixture_tx", Track::Wire);"#;
    assert_eq!(
        broken(bad_probes),
        ["t.rs:3: probe name \"fixture_tx\" already declared at t.rs:2"]
    );
    let across_files = scan([
        (
            "a.rs",
            r#"static A: ProbeId = ProbeId::new("fixture_tx", Track::Wire);"#,
        ),
        (
            "b.rs",
            r#"static B: ProbeId = ProbeId::new("fixture_tx", Track::Pci);"#,
        ),
    ]);
    assert_eq!(
        across_files.broken,
        ["b.rs:1: probe name \"fixture_tx\" already declared at a.rs:1"]
    );
    let good_probes = r#"
// Mentioning a name ("fixture_tx") never counts as a definition:
// ProbeId::new("fixture_retx", Track::Wire)
pub static WIRE_TX: ProbeId = ProbeId::new("fixture_tx", Track::Wire);
pub static WIRE_RETX: ProbeId = ProbeId::new("fixture_retx", Track::Wire);"#;
    let good = scan([("t.rs", good_probes)]);
    assert_eq!(good.broken, Vec::<String>::new());
    assert_eq!(good.probes.len(), 2);

    let workspace = r#"
[workspace.lints.clippy]
# A comment, then a blank line.

unwrap_used = "warn"
allow_attributes = "warn"  # trailing comment

[package]
name = "x""#;
    let same = "[lints.rust]\nunsafe_code = \"deny\"\n[lints.clippy]\nallow_attributes = \"warn\"\nunwrap_used = \"warn\"";
    assert_eq!(lint_drift(workspace, same), Vec::<String>::new());
    let short = "[lints.clippy]\nunwrap_used = \"warn\"\ntodo = \"warn\"";
    assert_eq!(
        lint_drift(workspace, short),
        [
            "`allow_attributes = \"warn\"` is in the workspace's clippy lint table, not in bench's",
            "`todo = \"warn\"` is in bench's clippy lint table, not in the workspace's",
        ]
    );
}
