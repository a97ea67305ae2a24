//! Results land in the tree a binary runs in. The workspace root is found
//! at run time, walking up from the current directory to the `Cargo.toml`
//! that declares `[workspace]`, so a copy of the repository that reuses
//! this build's binaries writes its own `results/` and leaves this one's
//! alone. Only a run at the committed configuration writes at all.

use std::path::PathBuf;
use std::process::{Command, ExitStatus};

const BIN: &str = "ablation_ack_coalesce";

/// Run [`BIN`] with `args` from inside a fresh copy of a workspace, and
/// report its exit status, its stderr and whether it wrote the copy's
/// `results/<BIN>.json`; this tree's own artifact must be left as it was.
fn run_in_a_copy(case: &str, args: &[&str]) -> (ExitStatus, String, bool) {
    let ours = bench::results_dir().join(format!("{BIN}.json"));
    let before = std::fs::read(&ours).ok();

    let copy: PathBuf =
        std::env::temp_dir().join(format!("results-path-{case}-{}", std::process::id()));
    let cwd = copy.join("crates/bench");
    std::fs::create_dir_all(&cwd).expect("temporary copy");
    std::fs::write(copy.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("manifest");
    let out = Command::new(env!("CARGO_BIN_EXE_ablation_ack_coalesce"))
        .args(args)
        .current_dir(&cwd)
        .output()
        .expect("the binary runs");
    let written = copy.join("results").join(format!("{BIN}.json")).is_file();
    std::fs::remove_dir_all(&copy).expect("temporary copy removed");

    assert_eq!(
        std::fs::read(&ours).ok(),
        before,
        "{BIN} wrote into this tree"
    );
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status, stderr, written)
}

#[test]
fn a_binary_run_from_a_copy_writes_under_the_copy() {
    let (status, _, written) = run_in_a_copy("default", &[]);
    assert!(status.success(), "{BIN} failed: {status}");
    assert!(written, "{BIN} did not write under the copy's root");
}

#[test]
fn a_quick_run_writes_nothing() {
    let (status, stderr, written) = run_in_a_copy("quick", &["--quick"]);
    assert!(status.success(), "{BIN} --quick failed: {status}");
    assert!(!written, "{BIN} --quick wrote its artifact");
    assert!(
        stderr.contains(&format!("results/{BIN}.json not written")),
        "{BIN} --quick did not say it wrote nothing: {stderr}"
    );
}
