//! Results land in the tree a binary runs in. The workspace root is found
//! at run time, walking up from the current directory to the `Cargo.toml`
//! that declares `[workspace]`, so a copy of the repository that reuses
//! this build's binaries writes its own `results/` and leaves this one's
//! alone.

use std::process::Command;

#[test]
fn a_binary_run_from_a_copy_writes_under_the_copy() {
    const BIN: &str = "ablation_ack_coalesce";
    let ours = bench::results_dir().join(format!("{BIN}.json"));
    let before = std::fs::read(&ours).ok();

    let copy = std::env::temp_dir().join(format!("results-path-{}", std::process::id()));
    let cwd = copy.join("crates/bench");
    std::fs::create_dir_all(&cwd).expect("temporary copy");
    std::fs::write(copy.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("manifest");
    let status = Command::new(env!("CARGO_BIN_EXE_ablation_ack_coalesce"))
        .arg("--quick")
        .current_dir(&cwd)
        .output()
        .expect("the binary runs")
        .status;
    let written = copy.join("results").join(format!("{BIN}.json")).is_file();
    std::fs::remove_dir_all(&copy).expect("temporary copy removed");

    assert!(status.success(), "{BIN} --quick failed: {status}");
    assert!(written, "{BIN} did not write under the copy's root");
    assert_eq!(
        std::fs::read(&ours).ok(),
        before,
        "{BIN} wrote into this tree"
    );
}
