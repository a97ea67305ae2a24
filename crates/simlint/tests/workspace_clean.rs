//! The workspace itself must pass its own lint gate: zero violations, and
//! every suppression justified. This is the same scan `scripts/ci.sh` runs
//! (via the CLI), expressed as a test so `cargo test` alone catches
//! regressions.

use simlint::{lint_workspace, workspace_root};

#[test]
fn workspace_scan_is_clean() {
    let report = lint_workspace(&workspace_root());
    assert!(
        report.files_scanned > 30,
        "scan looks truncated: only {} files",
        report.files_scanned
    );
    let rendered: String = report
        .diagnostics
        .iter()
        .map(simlint::render_diagnostic)
        .collect();
    assert!(
        report.clean(),
        "workspace has {} lint violation(s):\n{rendered}",
        report.diagnostics.len()
    );
    // Every recorded suppression carries a reason by construction; make sure
    // the tree hasn't accumulated a silent pile of them either.
    for s in &report.suppressions {
        assert!(
            !s.reason.is_empty(),
            "suppression without reason at {}:{}",
            s.file,
            s.line
        );
    }
}

#[test]
fn json_report_is_well_formed() {
    let report = lint_workspace(&workspace_root());
    let json = simlint::report::to_json(&report);
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"files_scanned\""));
    assert!(json.contains("\"suppressions\""));
}

/// The `probe-unique` rule sees a probe point only where its site parser
/// recognises the declaration, so a declaration form it misses would turn
/// the rule off without a diagnostic. Every probe point the workspace
/// declares must be among the definitions the scan collects.
#[test]
fn probe_unique_sees_every_probe_point() {
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
    let root = workspace_root();
    for (file, names) in declared {
        let src = std::fs::read_to_string(root.join(file)).expect("probe-declaring file is readable");
        let class = simlint::classify(file).expect("a linted workspace file");
        let seen: Vec<String> = simlint::lint_source(file, &src, &class)
            .probe_defs
            .into_iter()
            .map(|d| d.name)
            .collect();
        assert_eq!(seen, names, "{file}");
    }
}
