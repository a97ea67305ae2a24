//! The shared command-line parser: flag groups, the `--shape`/`--mode`
//! decoders, typed values and their errors, and each binary's exact flag
//! set — all driven from argument lists, without exiting the process. The
//! rejection checks run the explorers themselves, since what they pin is
//! each binary's exit status.

use std::process::Command;

use bench::cli::{self, parse_mode, parse_shape, Args, CliError, CliOpts, Flags, WorkloadOpts};
use gm_sim::SimDuration;
use nic_mcast::{McastMode, PostalParams, TreeShape};

fn args(argv: &[&str], groups: &[Flags]) -> Result<Args, CliError> {
    Args::parse(argv, groups)
}

fn names(groups: &[Flags]) -> Vec<&'static str> {
    let mut v: Vec<_> = cli::flags(groups).map(|(name, _)| name).collect();
    v.sort_unstable();
    v
}

#[test]
fn every_shape_form_decodes() {
    let us = SimDuration::from_micros;
    assert_eq!(parse_shape("adaptive"), Some(TreeShape::auto()));
    assert_eq!(parse_shape("binomial"), Some(TreeShape::Binomial));
    assert_eq!(parse_shape("flat"), Some(TreeShape::Flat));
    assert_eq!(parse_shape("chain"), Some(TreeShape::Chain));
    assert_eq!(parse_shape("kary:3"), Some(TreeShape::KAry(3)));
    assert_eq!(
        parse_shape("postal:5:2"),
        Some(TreeShape::Postal(PostalParams::new(us(5), us(2))))
    );
    for bad in [
        "star",
        "kary:",
        "kary:0",
        "kary:x",
        "postal:5",
        "postal:5:x",
        "postal",
    ] {
        assert_eq!(parse_shape(bad), None, "{bad}");
    }
}

#[test]
fn both_modes_decode() {
    assert_eq!(parse_mode("nic"), Some(McastMode::NicBased));
    assert_eq!(parse_mode("host"), Some(McastMode::HostBased));
    assert_eq!(parse_mode("NIC"), None);
    let a = args(&["--mode", "host", "--shape", "postal:3:1"], cli::EXPLORE).unwrap();
    assert_eq!(cli::mode(&a), Ok(McastMode::HostBased));
    let built = cli::build(cli::scenario(&a, McastMode::HostBased, 1024, 100, 10).unwrap());
    let spec = built.unwrap().spec().clone();
    assert_eq!(spec.mode, McastMode::HostBased);
    assert!(matches!(spec.shape, TreeShape::Postal(_)));
}

#[test]
fn scenario_group_defaults_come_from_the_binary() {
    let a = args(&[], cli::TRACE_EXPLORE).unwrap();
    assert_eq!(cli::mode(&a), Ok(McastMode::NicBased));
    let built = cli::build(cli::scenario(&a, McastMode::NicBased, 4096, 10, 2).unwrap());
    let spec = built.unwrap().spec().clone();
    assert_eq!(
        (spec.n_nodes, spec.size, spec.iters, spec.warmup),
        (16, 4096, 10, 2)
    );
    assert_eq!((spec.seed, spec.faults.drop_prob), (1, 0.0));
    let a = args(
        &["--nodes", "8", "--nodes", "32", "--loss", "0.01"],
        cli::FLOW_EXPLORE,
    )
    .unwrap();
    let built = cli::build(cli::scenario(&a, McastMode::NicBased, 4096, 5, 2).unwrap());
    let spec = built.unwrap().spec().clone();
    assert_eq!(
        (spec.n_nodes, spec.faults.drop_prob),
        (32, 0.01),
        "the last value wins"
    );
}

#[test]
fn workload_group_decodes_with_binary_defaults() {
    let a = args(&["--groups", "64", "--shards", "2"], cli::HEALTH_EXPLORE).unwrap();
    let o = WorkloadOpts::from_args(&a, 32, 64, 2).unwrap();
    assert_eq!((o.nodes, o.groups, o.duration_ms, o.shards), (32, 64, 2, 2));
    assert_eq!(
        (o.zipf, o.overlap, o.rate, o.warmup_us, o.size),
        (1.2, 0.5, 20_000.0, 500, 256)
    );
}

#[test]
fn missing_unparsable_and_unknown_are_errors() {
    assert_eq!(
        args(&["--nodes"], cli::EXPLORE).unwrap_err(),
        CliError::MissingValue("--nodes")
    );
    let a = args(&["--nodes", "many"], cli::EXPLORE).unwrap();
    assert_eq!(
        cli::scenario(&a, McastMode::NicBased, 1024, 100, 10).unwrap_err(),
        CliError::BadValue("--nodes", "many".into())
    );
    let a = args(&["--shape", "star", "--mode", "both"], cli::EXPLORE).unwrap();
    assert_eq!(
        cli::scenario(&a, McastMode::NicBased, 1024, 100, 10).unwrap_err(),
        CliError::BadValue("--shape", "star".into())
    );
    assert_eq!(
        cli::mode(&a),
        Err(CliError::BadValue("--mode", "both".into()))
    );
    let a = args(&["--nodes", "1"], cli::EXPLORE).unwrap();
    let invalid = cli::build(cli::scenario(&a, McastMode::NicBased, 1024, 100, 10).unwrap());
    assert!(matches!(invalid, Err(CliError::Invalid(_))));
    assert_eq!(
        args(&["--bogus"], cli::EXPLORE).unwrap_err(),
        CliError::UnknownFlag("--bogus".into())
    );
    assert_eq!(args(&["--help"], cli::EXPLORE).unwrap_err(), CliError::Help);
    assert_eq!(
        args(&["-h"], &[cli::FIGURE_FLAGS]).unwrap_err(),
        CliError::Help
    );
}

#[test]
fn a_flag_only_one_binary_accepts() {
    assert!(args(&["--tree"], cli::EXPLORE).is_ok());
    for other in [
        cli::TRACE_EXPLORE,
        cli::FLOW_EXPLORE,
        cli::WORKLOAD_EXPLORE,
        cli::HEALTH_EXPLORE,
    ] {
        assert_eq!(
            args(&["--tree"], other).unwrap_err(),
            CliError::UnknownFlag("--tree".into())
        );
    }
    assert!(args(&["--fixed-rate"], cli::WORKLOAD_EXPLORE)
        .unwrap()
        .has("--fixed-rate"));
    assert!(args(&["--fixed-rate"], cli::HEALTH_EXPLORE).is_err());
    assert!(args(&["--window-us", "50"], cli::HEALTH_EXPLORE).is_ok());
    assert!(args(&["--window-us", "50"], cli::WORKLOAD_EXPLORE).is_err());
    assert!(args(&["--check"], cli::EXPLORE).is_err());
}

#[test]
fn each_binary_accepts_exactly_its_flags() {
    let scenario = [
        "--nodes", "--size", "--mode", "--shape", "--loss", "--iters", "--warmup", "--seed",
    ];
    let workload = [
        "--nodes",
        "--groups",
        "--zipf",
        "--overlap",
        "--rate",
        "--duration-ms",
        "--warmup-us",
        "--size",
        "--seed",
        "--shards",
    ];
    let expect = |group: &[&'static str], own: &[&'static str]| {
        let mut v: Vec<&str> = group.iter().chain(own).copied().collect();
        v.sort_unstable();
        v
    };
    assert_eq!(names(cli::EXPLORE), expect(&scenario, &["--tree"]));
    assert_eq!(names(cli::TRACE_EXPLORE), expect(&scenario, &["--check"]));
    assert_eq!(
        names(cli::FLOW_EXPLORE),
        expect(&scenario, &["--shards", "--check"])
    );
    assert_eq!(
        names(cli::WORKLOAD_EXPLORE),
        expect(
            &workload,
            &[
                "--fanout",
                "--fixed-rate",
                "--messages",
                "--slots",
                "--check"
            ]
        )
    );
    assert_eq!(
        names(cli::HEALTH_EXPLORE),
        expect(&workload, &["--loss", "--window-us", "--check"])
    );
    assert_eq!(
        names(&[cli::FIGURE_FLAGS]),
        expect(&[], &["--iters", "--warmup", "--all-probes", "--quick"])
    );
}

#[test]
fn switches_take_no_value_and_values_may_look_like_flags() {
    let a = args(&["--check", "--nodes", "4"], cli::TRACE_EXPLORE).unwrap();
    assert!(a.has("--check"));
    assert_eq!(a.get("--nodes", 16u32).unwrap(), 4);
    let a = args(&["--seed", "--check"], cli::TRACE_EXPLORE).unwrap();
    assert!(!a.has("--check"), "--check was --seed's value");
    assert!(a.get("--seed", 1u64).is_err());
}

#[test]
fn figure_flags_and_quick() {
    let o = CliOpts::from_args(&args(&[], &[cli::FIGURE_FLAGS]).unwrap()).unwrap();
    assert_eq!((o.iters, o.warmup, o.all_probes), (100, 10, false));
    assert!(
        o.is_committed(),
        "the defaults make the committed artifacts"
    );
    let o = CliOpts::from_args(&args(&["--quick", "--all-probes"], &[cli::FIGURE_FLAGS]).unwrap())
        .unwrap();
    assert_eq!((o.iters, o.warmup, o.all_probes), (20, 3, true));
    assert!(!o.is_committed());
    for off in [
        &["--quick"][..],
        &["--all-probes"],
        &["--iters", "99"],
        &["--warmup", "0"],
    ] {
        let o = CliOpts::from_args(&args(off, &[cli::FIGURE_FLAGS]).unwrap()).unwrap();
        assert!(!o.is_committed(), "{off:?} is off the committed run");
    }
    let o = CliOpts::from_args(
        &args(
            &["--quick", "--iters", "100", "--warmup", "10"],
            &[cli::FIGURE_FLAGS],
        )
        .unwrap(),
    )
    .unwrap();
    assert!(o.is_committed(), "explicit defaults are the committed run");
    let o = CliOpts::from_args(&args(&["--iters", "50", "--quick"], &[cli::FIGURE_FLAGS]).unwrap())
        .unwrap();
    assert_eq!(
        (o.iters, o.warmup),
        (50, 3),
        "an explicit --iters wins over --quick"
    );
    let a = args(&["--iters", "0"], &[cli::FIGURE_FLAGS]).unwrap();
    assert_eq!(
        CliOpts::from_args(&a).err(),
        Some(CliError::Invalid("need at least 1 timed iteration".into())),
        "zero timed iterations measure nothing"
    );
}

#[test]
fn usage_lists_every_flag() {
    assert_eq!(
        cli::usage("fig", &[cli::FIGURE_FLAGS]),
        "usage: fig [--iters N] [--warmup N] [--all-probes] [--quick]"
    );
}

/// Whether `bin` rejects `argv` the way every bad command line is
/// rejected: exit status 2, the usage line last on stderr.
fn rejected(bin: &str, argv: &[&str]) -> bool {
    let out = Command::new(bin)
        .args(argv)
        .output()
        .expect("explorer runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    out.status.code() == Some(2)
        && stderr
            .lines()
            .last()
            .is_some_and(|l| l.starts_with("usage: "))
}

#[test]
fn configurations_the_run_cannot_honour_are_rejected() {
    let explore = env!("CARGO_BIN_EXE_explore");
    assert!(
        rejected(explore, &["--nodes", "129"]),
        "explore must reject more nodes than a topology holds"
    );
    assert!(
        rejected(explore, &["--shape", "kary:0"]),
        "explore must reject a zero-ary tree"
    );
    let workload = env!("CARGO_BIN_EXE_workload_explore");
    assert!(
        rejected(
            workload,
            &["--nodes", "129", "--groups", "10", "--duration-ms", "1"]
        ),
        "workload_explore must reject more nodes than a topology holds"
    );
    let health = env!("CARGO_BIN_EXE_health_explore");
    assert!(
        rejected(health, &["--window-us", "0"]),
        "health_explore must reject a zero detector window"
    );
}
