//! `simlint` — a determinism & unit-safety static-analysis pass for the
//! simulator workspace.
//!
//! The paper's reliability argument rests on a NIC work loop whose behaviour
//! is exactly reproducible; our discrete-event substitution only holds if
//! every run is bit-for-bit deterministic. This crate machine-checks the
//! invariants that keep it so (see `rules` for the rule set and DESIGN.md
//! "Static invariants" for the rationale), with no dependencies beyond std:
//! a lightweight lexer tokenizes every `.rs` file and rules match token
//! sequences, so nothing inside strings or comments can ever fire a rule.
//!
//! Suppressions are explicit and audited: `// simlint::allow(rule, reason)`
//! silences a finding on that line or the next, but a suppression without a
//! reason, naming an unknown rule, or suppressing nothing is itself a
//! violation — the gate stays honest under refactoring.
//!
//! Run `cargo run -p simlint -- --workspace` for the blocking CI gate; it
//! writes a machine-readable report to `results/simlint_report.json`.

pub mod lexer;
pub mod report;
pub mod rules;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use lexer::{lex, Comment, Tok, TokKind};
use rules::{
    is_known_rule, rule_info, ALLOW_HYGIENE, DET_HASH, DET_THREAD, DET_WALLTIME, ERROR_UNWRAP,
    FLOW_ID, HOT_ALLOC, PROBE_UNIQUE, STATE_PURE, UNITS,
};

// ---------------------------------------------------------------------------
// File classification
// ---------------------------------------------------------------------------

/// Which rule scopes apply to one file.
#[derive(Clone, Copy, Debug, Default)]
pub struct FileClass {
    /// Sim/protocol code: the `det-hash` rule applies.
    pub protocol: bool,
    /// Wall-clock measurement harness (the bench crate): `det-walltime` and
    /// `det-thread` do not apply.
    pub walltime_exempt: bool,
    /// `sim::time` itself — the one module allowed to convert between typed
    /// time and raw integers, so `units` does not apply.
    pub time_module: bool,
    /// `sim::flow` itself — the one module allowed to touch the raw packed
    /// representation of flow identity, so `flow-id` does not apply.
    pub flow_module: bool,
    /// The pure protocol core (`gm::proto`), shared between the simulator
    /// and the `simcheck` model checker: the `state-pure` rule applies.
    pub proto_module: bool,
}

impl FileClass {
    /// The strictest classification (used for explicitly-listed files and
    /// the fixture corpus): every rule on. `state-pure` is deliberately
    /// *not* part of strict — it only makes sense inside `gm::proto`
    /// (legitimate simulator code is full of `SimTime`s and probes).
    pub fn strict() -> FileClass {
        FileClass {
            protocol: true,
            walltime_exempt: false,
            time_module: false,
            flow_module: false,
            proto_module: false,
        }
    }
}

/// Map a workspace-relative path to its rule scopes. `None` means the file
/// is not linted (test code, vendored shims, fixtures, build output).
pub fn classify(rel: &str) -> Option<FileClass> {
    let rel = rel.replace('\\', "/");
    if !rel.ends_with(".rs") {
        return None;
    }
    // Vendored dependency shims and build output are not ours to lint;
    // the linter's own fixture corpus is deliberately full of violations.
    if rel.starts_with("target/") || rel.starts_with("shims/") || rel.contains("/fixtures/") {
        return None;
    }
    // Test and bench-target code is exempt end-to-end (the E-rule's "leave
    // test code untouched" applies to every rule).
    if rel.starts_with("tests/") || rel.contains("/tests/") || rel.contains("/benches/") {
        return None;
    }
    let protocol_roots = [
        "src/",
        "examples/",
        "crates/sim/",
        "crates/myrinet/",
        "crates/gm/",
        "crates/core/",
        "crates/mpi/",
    ];
    // Host-clock benchmarks: the bench crate and the standalone mcbench
    // package both exist to read the wall clock.
    let walltime_roots = ["crates/bench/", "mcbench/"];
    Some(FileClass {
        protocol: protocol_roots.iter().any(|p| rel.starts_with(p)),
        walltime_exempt: walltime_roots.iter().any(|p| rel.starts_with(p)),
        time_module: rel == "crates/sim/src/time.rs",
        flow_module: rel == "crates/sim/src/flow.rs",
        proto_module: rel == "crates/gm/src/proto.rs" || rel.starts_with("crates/gm/src/proto/"),
    })
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// One finding: a rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule key (see [`rules::RULES`]).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What was found.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// One *used, justified* suppression (recorded in the JSON report so the
/// audit trail survives even when the tree is clean).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuppressionRec {
    /// Rule being suppressed.
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the directive.
    pub line: u32,
    /// The justification given.
    pub reason: String,
}

/// One `ProbeId::new("<name>", ...)` definition site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProbeDef {
    /// The probe's static name (string-literal argument).
    pub name: String,
    /// 1-based line of the definition.
    pub line: u32,
}

/// Result of linting one file.
#[derive(Debug, Default)]
pub struct FileLint {
    /// Violations found (already suppression-filtered).
    pub diagnostics: Vec<Diagnostic>,
    /// Justified suppressions that fired.
    pub suppressions: Vec<SuppressionRec>,
    /// Probe definitions seen (first occurrence per name; feeds the
    /// workspace-wide `probe-unique` pass).
    pub probe_defs: Vec<ProbeDef>,
}

/// Result of a whole-tree scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of files linted.
    pub files_scanned: usize,
    /// All violations, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// All justified suppressions that fired.
    pub suppressions: Vec<SuppressionRec>,
}

impl Report {
    /// True when the tree passes the gate.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Render one diagnostic rustc-style.
pub fn render_diagnostic(d: &Diagnostic) -> String {
    let help = rule_info(d.rule).map_or("", |r| r.help);
    format!(
        "error[{rule}]: {msg}\n  --> {file}:{line}\n   |\n   | {snippet}\n   |\n   = help: {help}\n",
        rule = d.rule,
        msg = d.message,
        file = d.file,
        line = d.line,
        snippet = d.snippet,
    )
}

// ---------------------------------------------------------------------------
// Directives
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct AllowDirective {
    line: u32,
    rule: String,
    reason: Option<String>,
    used: bool,
}

#[derive(Debug)]
struct Directives {
    allows: Vec<AllowDirective>,
    /// Lines bearing a `// simlint::hot` marker.
    hot_lines: Vec<u32>,
}

/// Parse `simlint::allow(rule, reason)` / `simlint::hot` out of comments.
///
/// A directive must start the comment (after whitespace) — prose that merely
/// *mentions* a directive, like this doc comment, is not one.
fn parse_directives(comments: &[Comment]) -> Directives {
    let mut allows = Vec::new();
    let mut hot_lines = Vec::new();
    for c in comments {
        let text = c.text.trim_start();
        if let Some(after) = text.strip_prefix("simlint::allow(") {
            let close = after.find(')').unwrap_or(after.len());
            let inner = &after[..close];
            let (rule, reason) = match inner.split_once(',') {
                Some((r, why)) => {
                    let why = why.trim().trim_matches('"').trim();
                    (
                        r.trim().to_string(),
                        if why.is_empty() {
                            None
                        } else {
                            Some(why.to_string())
                        },
                    )
                }
                None => (inner.trim().to_string(), None),
            };
            allows.push(AllowDirective {
                line: c.line,
                rule,
                reason,
                used: false,
            });
        } else if text.starts_with("simlint::hot") {
            hot_lines.push(c.line);
        }
    }
    Directives { allows, hot_lines }
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

fn ident_at(toks: &[Tok], i: usize, s: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
}

fn punct_at(toks: &[Tok], i: usize, c: char) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text.len() == 1 && t.text.starts_with(c))
}

/// Index of the punct matching `open` at `start` (which must hold `open`),
/// or `None` if unbalanced.
fn matching(toks: &[Tok], start: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(start) {
        if t.kind != TokKind::Punct {
            continue;
        }
        if t.text.starts_with(open) && t.text.len() == 1 {
            depth += 1;
        } else if t.text.starts_with(close) && t.text.len() == 1 {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Test-region detection
// ---------------------------------------------------------------------------

/// Line ranges covered by `#[cfg(test)]` / `#[test]` items (inclusive).
fn test_line_ranges(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(punct_at(toks, i, '#') && punct_at(toks, i + 1, '[')) {
            i += 1;
            continue;
        }
        let Some(close) = matching(toks, i + 1, '[', ']') else {
            break;
        };
        let inner = &toks[i + 2..close];
        let is_test_attr = (inner.len() == 1 && inner[0].text == "test")
            || (inner.len() == 4
                && inner[0].text == "cfg"
                && inner[2].text == "test");
        if !is_test_attr {
            i = close + 1;
            continue;
        }
        let start_line = toks[i].line;
        // Skip any further attributes on the same item.
        let mut j = close + 1;
        while punct_at(toks, j, '#') && punct_at(toks, j + 1, '[') {
            match matching(toks, j + 1, '[', ']') {
                Some(c) => j = c + 1,
                None => break,
            }
        }
        // The item body is either brace-delimited or ends at a semicolon
        // (e.g. `#[cfg(test)] use proptest::...;`).
        let mut k = j;
        while k < toks.len() && !punct_at(toks, k, '{') && !punct_at(toks, k, ';') {
            k += 1;
        }
        if k >= toks.len() {
            ranges.push((start_line, u32::MAX));
            break;
        }
        if punct_at(toks, k, ';') {
            ranges.push((start_line, toks[k].line));
            i = k + 1;
            continue;
        }
        match matching(toks, k, '{', '}') {
            Some(end) => {
                ranges.push((start_line, toks[end].line));
                i = end + 1;
            }
            None => {
                ranges.push((start_line, u32::MAX));
                break;
            }
        }
    }
    ranges
}

fn in_ranges(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|&(a, b)| line >= a && line <= b)
}

// ---------------------------------------------------------------------------
// Hot-function spans
// ---------------------------------------------------------------------------

struct HotSpan {
    /// Token index range of the function body (inclusive braces).
    start: usize,
    end: usize,
    name: String,
}

/// Resolve each `// simlint::hot` marker to the body of the next `fn`.
/// Markers that do not precede a function within a few lines are reported.
fn hot_spans(toks: &[Tok], hot_lines: &[u32], diags: &mut Vec<RawDiag>) -> Vec<HotSpan> {
    let mut spans = Vec::new();
    for &line in hot_lines {
        let fn_idx = toks
            .iter()
            .position(|t| t.kind == TokKind::Ident && t.text == "fn" && t.line >= line);
        let resolved = fn_idx.and_then(|fi| {
            if toks[fi].line.saturating_sub(line) > 4 {
                return None;
            }
            let name = toks
                .get(fi + 1)
                .map_or_else(String::new, |t| t.text.clone());
            let mut k = fi;
            while k < toks.len() && !punct_at(toks, k, '{') {
                k += 1;
            }
            matching(toks, k, '{', '}').map(|end| HotSpan {
                start: k,
                end,
                name,
            })
        });
        match resolved {
            Some(span) => spans.push(span),
            None => diags.push(RawDiag {
                rule: ALLOW_HYGIENE,
                line,
                message: "`simlint::hot` marker does not precede a function".to_string(),
            }),
        }
    }
    spans
}

// ---------------------------------------------------------------------------
// Probe definitions
// ---------------------------------------------------------------------------

/// Collect `ProbeId::new("<name>", ...)` definition sites outside test
/// regions. Duplicates *within* the file are reported here; the first
/// occurrence of each name is returned for the workspace-wide pass.
fn collect_probe_defs(
    toks: &[Tok],
    test_ranges: &[(u32, u32)],
    diags: &mut Vec<RawDiag>,
) -> Vec<ProbeDef> {
    let mut defs: Vec<ProbeDef> = Vec::new();
    for i in 0..toks.len() {
        if !(ident_at(toks, i, "ProbeId")
            && punct_at(toks, i + 1, ':')
            && punct_at(toks, i + 2, ':')
            && ident_at(toks, i + 3, "new")
            && punct_at(toks, i + 4, '('))
        {
            continue;
        }
        let Some(arg) = toks.get(i + 5).filter(|a| a.kind == TokKind::Str) else {
            continue;
        };
        if in_ranges(test_ranges, toks[i].line) {
            continue;
        }
        let name = arg.text.clone();
        match defs.iter().find(|d| d.name == name) {
            Some(first) => diags.push(RawDiag {
                rule: PROBE_UNIQUE,
                line: toks[i].line,
                message: format!(
                    "ProbeId name \"{name}\" already defined on line {}",
                    first.line
                ),
            }),
            None => defs.push(ProbeDef {
                name,
                line: toks[i].line,
            }),
        }
    }
    defs
}

// ---------------------------------------------------------------------------
// Rule scanning
// ---------------------------------------------------------------------------

struct RawDiag {
    rule: &'static str,
    line: u32,
    message: String,
}

fn scan_rules(
    toks: &[Tok],
    class: &FileClass,
    test_ranges: &[(u32, u32)],
    hot: &[HotSpan],
    diags: &mut Vec<RawDiag>,
) {
    let in_hot = |i: usize| hot.iter().find(|s| i >= s.start && i <= s.end);
    for i in 0..toks.len() {
        let t = &toks[i];
        if in_ranges(test_ranges, t.line) {
            continue;
        }
        match t.kind {
            TokKind::Ident => {}
            _ => {
                // Hot-alloc patterns that start on punctuation: `.clone(`,
                // `.to_string(`, `.to_owned(`, `.to_vec(`.
                if let Some(span) = in_hot(i) {
                    if punct_at(toks, i, '.') {
                        for m in ["clone", "to_string", "to_owned", "to_vec"] {
                            if ident_at(toks, i + 1, m) && punct_at(toks, i + 2, '(') {
                                diags.push(RawDiag {
                                    rule: HOT_ALLOC,
                                    line: t.line,
                                    message: format!(
                                        "`.{m}()` allocates inside hot function `{}`",
                                        span.name
                                    ),
                                });
                            }
                        }
                    }
                }
                // error-unwrap: `.unwrap()` / `.expect(<non-literal>)`.
                if punct_at(toks, i, '.') {
                    if ident_at(toks, i + 1, "unwrap") && punct_at(toks, i + 2, '(') {
                        diags.push(RawDiag {
                            rule: ERROR_UNWRAP,
                            line: t.line,
                            message: "`unwrap()` in non-test simulator code".to_string(),
                        });
                    }
                    if ident_at(toks, i + 1, "expect") && punct_at(toks, i + 2, '(') {
                        let arg_ok = toks.get(i + 3).is_some_and(|a| {
                            a.kind == TokKind::Str && !a.text.trim().is_empty()
                        });
                        if !arg_ok {
                            diags.push(RawDiag {
                                rule: ERROR_UNWRAP,
                                line: t.line,
                                message:
                                    "`expect` without a literal message naming the invariant"
                                        .to_string(),
                            });
                        }
                    }
                }
                continue;
            }
        }
        // --- Ident-rooted patterns from here on. ---
        // det-hash.
        if class.protocol && (t.text == "HashMap" || t.text == "HashSet") {
            diags.push(RawDiag {
                rule: DET_HASH,
                line: t.line,
                message: format!(
                    "`{}` uses the default RandomState hasher (randomized iteration order)",
                    t.text
                ),
            });
        }
        // det-walltime.
        if !class.walltime_exempt && (t.text == "Instant" || t.text == "SystemTime") {
            diags.push(RawDiag {
                rule: DET_WALLTIME,
                line: t.line,
                message: format!("`{}` reads the wall clock inside simulator code", t.text),
            });
        }
        // det-thread: `thread::spawn` / `thread::scope` (scoped workers can
        // leak nondeterminism just as easily as detached ones).
        if !class.walltime_exempt
            && t.text == "thread"
            && punct_at(toks, i + 1, ':')
            && punct_at(toks, i + 2, ':')
            && (ident_at(toks, i + 3, "spawn") || ident_at(toks, i + 3, "scope"))
        {
            diags.push(RawDiag {
                rule: DET_THREAD,
                line: t.line,
                message: format!(
                    "`thread::{}` inside simulator code",
                    toks[i + 3].text
                ),
            });
        }
        // state-pure: the protocol core must stay a pure function of its
        // explicit state — no clocks, randomness, probes, or global state —
        // so the simcheck model checker explores exactly the code the
        // simulator runs.
        if class.proto_module {
            let impure: Option<&str> = if matches!(
                t.text.as_str(),
                "SimTime" | "SimDuration" | "Instant" | "SystemTime"
            ) {
                Some("clock/time type")
            } else if matches!(
                t.text.as_str(),
                "Rng" | "DetRng" | "splitmix64" | "thread_rng" | "random"
            ) || (t.text == "rand" && punct_at(toks, i + 1, ':'))
            {
                Some("randomness")
            } else if matches!(
                t.text.as_str(),
                "ProbeId" | "ProbeSink" | "ProbeEvent" | "Counters"
            ) {
                Some("observability hook")
            } else if t.text == "thread_local"
                || (t.text == "static" && ident_at(toks, i + 1, "mut"))
                || t.text.starts_with("Atomic")
                || (t.text == "env" && (punct_at(toks, i + 1, ':') || punct_at(toks, i + 1, '!')))
            {
                Some("global state")
            } else {
                None
            };
            if let Some(what) = impure {
                diags.push(RawDiag {
                    rule: STATE_PURE,
                    line: t.line,
                    message: format!(
                        "{what} `{}` inside the pure protocol core",
                        t.text
                    ),
                });
            }
        }
        // units: `as_nanos() as ...` / `as_micros_f64() as ...`.
        if !class.time_module
            && (t.text == "as_nanos" || t.text == "as_micros_f64")
            && punct_at(toks, i + 1, '(')
            && punct_at(toks, i + 2, ')')
            && ident_at(toks, i + 3, "as")
        {
            diags.push(RawDiag {
                rule: UNITS,
                line: t.line,
                message: format!(
                    "`{}() as {}` strips the time unit for raw arithmetic",
                    t.text,
                    toks.get(i + 4).map_or("_", |t| t.text.as_str()),
                ),
            });
        }
        // units: `SimTime::from_nanos(<expr with `as` cast>)`.
        if !class.time_module
            && t.text == "from_nanos"
            && i >= 3
            && punct_at(toks, i - 1, ':')
            && punct_at(toks, i - 2, ':')
            && (ident_at(toks, i - 3, "SimTime") || ident_at(toks, i - 3, "SimDuration"))
            && punct_at(toks, i + 1, '(')
        {
            if let Some(close) = matching(toks, i + 1, '(', ')') {
                if toks[i + 2..close]
                    .iter()
                    .any(|a| a.kind == TokKind::Ident && a.text == "as")
                {
                    diags.push(RawDiag {
                        rule: UNITS,
                        line: t.line,
                        message: format!(
                            "`{}::from_nanos` built from a raw `as` cast",
                            toks[i - 3].text
                        ),
                    });
                }
            }
        }
        // flow-id: a flow-named binding, field, or parameter typed as a bare
        // `u64` (`flow: u64`, `flow_id: u64`) — flow identity must stay in
        // the packed newtype. A double colon (`flow::`) is a module path,
        // not a type ascription.
        if !class.flow_module
            && (t.text == "flow" || t.text == "flow_id")
            && punct_at(toks, i + 1, ':')
            && !punct_at(toks, i + 2, ':')
            && ident_at(toks, i + 2, "u64")
        {
            diags.push(RawDiag {
                rule: FLOW_ID,
                line: t.line,
                message: format!("`{}: u64` stores flow identity as a raw integer", t.text),
            });
        }
        // hot-alloc patterns rooted on identifiers.
        if let Some(span) = in_hot(i) {
            let path2 = |a: &str, b: &str| {
                t.text == a
                    && punct_at(toks, i + 1, ':')
                    && punct_at(toks, i + 2, ':')
                    && ident_at(toks, i + 3, b)
            };
            let mac = |name: &str| t.text == name && punct_at(toks, i + 1, '!');
            let hit = if path2("Vec", "new") {
                Some("`Vec::new` allocates")
            } else if path2("String", "new") {
                Some("`String::new` allocates")
            } else if path2("Box", "new") {
                Some("`Box::new` heap-allocates")
            } else if mac("vec") {
                Some("`vec!` allocates")
            } else if mac("format") {
                Some("`format!` allocates")
            } else {
                None
            };
            if let Some(what) = hit {
                diags.push(RawDiag {
                    rule: HOT_ALLOC,
                    line: t.line,
                    message: format!("{what} inside hot function `{}`", span.name),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Per-file driver
// ---------------------------------------------------------------------------

/// Lint one file's source under the given classification.
pub fn lint_source(file: &str, src: &str, class: &FileClass) -> FileLint {
    let lexed = lex(src);
    let mut dirs = parse_directives(&lexed.comments);
    let test_ranges = test_line_ranges(&lexed.tokens);

    let mut raw: Vec<RawDiag> = Vec::new();
    let hot = {
        // Markers inside test regions are ignored wholesale.
        let hot_lines: Vec<u32> = dirs
            .hot_lines
            .iter()
            .copied()
            .filter(|&l| !in_ranges(&test_ranges, l))
            .collect();
        hot_spans(&lexed.tokens, &hot_lines, &mut raw)
    };
    scan_rules(&lexed.tokens, class, &test_ranges, &hot, &mut raw);
    let probe_defs = collect_probe_defs(&lexed.tokens, &test_ranges, &mut raw);

    // Apply suppressions: a directive covers its own line and the next one.
    let mut kept: Vec<RawDiag> = Vec::new();
    for d in raw {
        let allow = dirs.allows.iter_mut().find(|a| {
            a.rule == d.rule && (a.line == d.line || a.line + 1 == d.line)
        });
        match allow {
            Some(a) if d.rule != ALLOW_HYGIENE => a.used = true,
            _ => kept.push(d),
        }
    }

    // Suppression hygiene (not itself suppressible).
    for a in &dirs.allows {
        if in_ranges(&test_ranges, a.line) {
            continue;
        }
        if !is_known_rule(&a.rule) {
            kept.push(RawDiag {
                rule: ALLOW_HYGIENE,
                line: a.line,
                message: format!("suppression names unknown rule `{}`", a.rule),
            });
        } else if a.reason.is_none() {
            kept.push(RawDiag {
                rule: ALLOW_HYGIENE,
                line: a.line,
                message: format!(
                    "bare `simlint::allow({})` without a reason — justify the suppression",
                    a.rule
                ),
            });
        } else if !a.used {
            kept.push(RawDiag {
                rule: ALLOW_HYGIENE,
                line: a.line,
                message: format!(
                    "unused suppression for `{}` — nothing fires here any more; delete it",
                    a.rule
                ),
            });
        }
    }

    let lines: Vec<&str> = src.lines().collect();
    let snippet = |line: u32| {
        lines
            .get(line.saturating_sub(1) as usize)
            .map_or_else(String::new, |s| s.trim().to_string())
    };
    let mut diagnostics: Vec<Diagnostic> = kept
        .into_iter()
        .map(|d| Diagnostic {
            rule: d.rule,
            file: file.to_string(),
            line: d.line,
            message: d.message,
            snippet: snippet(d.line),
        })
        .collect();
    diagnostics.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));

    let suppressions = dirs
        .allows
        .iter()
        .filter(|a| a.used && a.reason.is_some() && is_known_rule(&a.rule))
        .map(|a| SuppressionRec {
            rule: a.rule.clone(),
            file: file.to_string(),
            line: a.line,
            reason: a.reason.clone().unwrap_or_default(),
        })
        .collect();

    FileLint {
        diagnostics,
        suppressions,
        probe_defs,
    }
}

// ---------------------------------------------------------------------------
// Workspace driver
// ---------------------------------------------------------------------------

/// The workspace root: the nearest directory at or above the current one
/// whose `Cargo.toml` declares `[workspace]`, else the current directory.
/// It is found at run time, so a copy of the repository that reuses another
/// copy's `target/` still reads and writes its own tree.
pub fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let declares_workspace = |dir: &Path| {
        std::fs::read_to_string(dir.join("Cargo.toml"))
            .is_ok_and(|toml| toml.lines().any(|line| line.trim() == "[workspace]"))
    };
    let root = cwd.ancestors().find(|dir| declares_workspace(dir));
    root.map_or_else(|| cwd.clone(), Path::to_path_buf)
}

/// Recursively collect `.rs` files under `root`, in sorted (deterministic)
/// order, skipping obvious non-source directories.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if p.is_dir() {
            if matches!(name, "target" | ".git" | "results") {
                continue;
            }
            collect_rs_files(&p, out);
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
}

/// Scan the whole workspace tree under `root`.
pub fn lint_workspace(root: &Path) -> Report {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files);
    let mut report = Report::default();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    // First definition site of each probe name across the tree, for the
    // workspace-wide `probe-unique` pass (cross-file duplicates cannot be
    // caught per-file and are not suppressible).
    let mut probe_names: Vec<(String, String, u32)> = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(class) = classify(&rel) else {
            continue;
        };
        if !seen.insert(rel.clone()) {
            continue;
        }
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        report.files_scanned += 1;
        let mut fl = lint_source(&rel, &src, &class);
        report.diagnostics.append(&mut fl.diagnostics);
        report.suppressions.append(&mut fl.suppressions);
        for def in fl.probe_defs {
            match probe_names.iter().find(|(n, _, _)| *n == def.name) {
                Some((_, first_file, first_line)) => report.diagnostics.push(Diagnostic {
                    rule: PROBE_UNIQUE,
                    file: rel.clone(),
                    line: def.line,
                    message: format!(
                        "ProbeId name \"{}\" already defined at {first_file}:{first_line}",
                        def.name
                    ),
                    snippet: src
                        .lines()
                        .nth(def.line.saturating_sub(1) as usize)
                        .map_or_else(String::new, |s| s.trim().to_string()),
                }),
                None => probe_names.push((def.name, rel.clone(), def.line)),
            }
        }
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
        .suppressions
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict(src: &str) -> Vec<Diagnostic> {
        lint_source("t.rs", src, &FileClass::strict()).diagnostics
    }

    #[test]
    fn hashmap_fires_in_protocol_code_only() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(strict(src).len(), 1);
        assert_eq!(strict(src)[0].rule, "det-hash");
        let class = FileClass {
            protocol: false,
            ..FileClass::strict()
        };
        assert!(lint_source("t.rs", src, &class).diagnostics.is_empty());
    }

    #[test]
    fn host_clock_benchmarks_are_walltime_exempt() {
        for rel in ["crates/bench/src/lib.rs", "mcbench/src/run.rs", "mcbench/src/trace.rs"] {
            let class = classify(rel).expect("benchmark sources are linted");
            assert!(class.walltime_exempt, "{rel}");
            assert!(!class.protocol, "{rel}");
        }
        let sim = classify("crates/sim/src/engine.rs").expect("sim sources are linted");
        assert!(!sim.walltime_exempt && sim.protocol);
        // The exemption is by path prefix, not by substring.
        assert!(!classify("crates/core/src/mcbench/x.rs").expect("linted").walltime_exempt);
        assert!(classify("mcbench/tests/x.rs").is_none(), "test code is not linted");
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "// HashMap Instant unwrap()\nlet s = \"HashMap\";\n";
        assert!(strict(src).is_empty());
    }

    #[test]
    fn cfg_test_region_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    fn f() { x.unwrap(); }
}
";
        assert!(strict(src).is_empty());
    }

    #[test]
    fn code_after_test_region_still_fires() {
        let src = "\
#[cfg(test)]
mod tests {
    fn f() { x.unwrap(); }
}
fn g() { y.unwrap(); }
";
        let d = strict(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 5);
    }

    #[test]
    fn allow_with_reason_suppresses_and_is_recorded() {
        let src = "\
// simlint::allow(det-walltime, \"wall-clock dispatch-rate stat\")
let t = std::time::Instant::now();
";
        let out = lint_source("t.rs", src, &FileClass::strict());
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
        assert_eq!(out.suppressions.len(), 1);
        assert_eq!(out.suppressions[0].rule, "det-walltime");
    }

    #[test]
    fn bare_allow_is_a_violation() {
        let src = "// simlint::allow(det-hash)\nuse std::collections::HashMap;\n";
        let d = strict(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "allow-hygiene");
    }

    #[test]
    fn unused_allow_is_a_violation() {
        let src = "// simlint::allow(det-hash, \"historical\")\nlet x = 1;\n";
        let d = strict(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "allow-hygiene");
        assert!(d[0].message.contains("unused"));
    }

    #[test]
    fn unknown_rule_allow_is_a_violation() {
        let src = "// simlint::allow(no-such-rule, \"x\")\nlet x = 1;\n";
        let d = strict(src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("unknown rule"));
    }

    #[test]
    fn expect_requires_literal_message() {
        assert!(strict("let x = o.expect(\"queue nonempty after peek\");\n").is_empty());
        assert_eq!(strict("let x = o.expect(msg);\n")[0].rule, "error-unwrap");
        assert_eq!(strict("let x = o.unwrap();\n")[0].rule, "error-unwrap");
        assert!(strict("let x = o.unwrap_or(4);\n").is_empty());
    }

    #[test]
    fn units_patterns() {
        assert_eq!(strict("let x = t.as_nanos() as f64;\n")[0].rule, "units");
        assert_eq!(
            strict("let t = SimTime::from_nanos(x as u64);\n")[0].rule,
            "units"
        );
        assert!(strict("let t = SimTime::from_nanos(x);\n").is_empty());
        // Unrelated from_nanos (std Duration) is not flagged.
        assert!(strict("let d = Duration::from_nanos(x as u64);\n").is_empty());
    }

    #[test]
    fn hot_function_rejects_allocation() {
        let src = "\
// simlint::hot
fn hot(xs: &[u32]) -> Vec<u32> {
    let mut v = Vec::new();
    let s = format!(\"{}\", xs.len());
    let c = xs.to_vec();
    v
}
fn cold() -> Vec<u32> { Vec::new() }
";
        let d = strict(src);
        let rules: Vec<&str> = d.iter().map(|x| x.rule).collect();
        assert_eq!(rules, vec!["hot-alloc"; 3], "{d:?}");
    }

    #[test]
    fn hot_marker_without_fn_is_flagged() {
        let src = "// simlint::hot\nconst X: u32 = 1;\n";
        let d = strict(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "allow-hygiene");
    }

    #[test]
    fn duplicate_probe_name_in_one_file_fires() {
        // Probe points are declared as `static`s; a `const` with the same
        // name is still the same name.
        for second in [
            "static B: ProbeId = ProbeId::new(\"wire_tx\", Track::Host);",
            "const B: ProbeId = ProbeId::new(\"wire_tx\", Track::Host);",
        ] {
            let src = format!("pub static A: ProbeId = ProbeId::new(\"wire_tx\", Track::Wire);\n{second}\n");
            let d = strict(&src);
            assert_eq!(d.len(), 1, "{second}: {d:?}");
            assert_eq!(d[0].rule, "probe-unique");
            assert_eq!(d[0].line, 2);
        }
    }

    #[test]
    fn unique_probe_names_are_collected_not_flagged() {
        let src = "\
const A: ProbeId = ProbeId::new(\"wire_tx\", Track::Wire);
const B: ProbeId = ProbeId::new(\"pci_dma\", Track::Pci);
";
        let out = lint_source("t.rs", src, &FileClass::strict());
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
        let names: Vec<&str> = out.probe_defs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["wire_tx", "pci_dma"]);
    }

    #[test]
    fn probe_defs_in_test_regions_are_ignored() {
        let src = "\
#[cfg(test)]
mod tests {
    const A: ProbeId = ProbeId::new(\"wire_tx\", Track::Wire);
    const B: ProbeId = ProbeId::new(\"wire_tx\", Track::Host);
}
";
        let out = lint_source("t.rs", src, &FileClass::strict());
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
        assert!(out.probe_defs.is_empty());
    }

    #[test]
    fn state_pure_scoped_to_proto_module() {
        let src = "pub fn f(t: SimTime, r: &mut DetRng) -> u64 { t.raw() }\n";
        // Plain strict (any ordinary simulator file): SimTime is fine.
        assert!(strict(src).is_empty());
        // Inside gm::proto, both the clock type and the RNG fire.
        let class = FileClass {
            proto_module: true,
            ..FileClass::strict()
        };
        let d = lint_source("crates/gm/src/proto.rs", src, &class).diagnostics;
        let rules: Vec<&str> = d.iter().map(|x| x.rule).collect();
        assert_eq!(rules, vec!["state-pure"; 2], "{d:?}");
    }

    #[test]
    fn state_pure_catches_global_state() {
        let class = FileClass {
            proto_module: true,
            ..FileClass::strict()
        };
        for src in [
            "static mut COUNT: u64 = 0;\n",
            "use std::sync::atomic::AtomicU64;\n",
            "thread_local! { static X: u64 = 0; }\n",
            "let home = std::env::var(\"HOME\");\n",
        ] {
            let d = lint_source("crates/gm/src/proto.rs", src, &class).diagnostics;
            assert!(
                d.iter().any(|x| x.rule == "state-pure"),
                "expected state-pure for {src:?}, got {d:?}"
            );
        }
        // Immutable statics (lookup tables) are pure and allowed.
        let d = lint_source(
            "crates/gm/src/proto.rs",
            "static TABLE: [u8; 2] = [0, 1];\n",
            &class,
        )
        .diagnostics;
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn thread_spawn_and_scope_flagged() {
        assert_eq!(strict("thread::spawn(|| {});\n")[0].rule, "det-thread");
        assert_eq!(strict("thread::scope(|s| {});\n")[0].rule, "det-thread");
    }
}
