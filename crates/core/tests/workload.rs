//! The workload layer's contracts: typed validation (every error variant,
//! with its rustc-style message), determinism of the summary JSON, arrival
//! stream monotonicity, and group-table saturation/recovery under admission
//! backpressure.

use gm::GmParams;
use gm_sim::{SeriesConfig, SimDuration, SimTime};
use myrinet::FaultPlan;
use nic_mcast::{
    ArrivalProcess, FanoutDist, StopCondition, Workload, WorkloadError, MAX_GROUPS,
};
use proptest::prelude::*;

fn base() -> Workload {
    Workload::new(8)
        .groups(3)
        .arrivals(ArrivalProcess::Poisson { rate_hz: 50_000.0 })
        .stop(StopCondition::Duration(SimDuration::from_millis(1)))
}

#[track_caller]
fn expect_err(w: Workload, want: WorkloadError, msg: &str) {
    let err = w.build().expect_err("build must reject invalid input");
    assert_eq!(err, want);
    assert_eq!(err.to_string(), msg);
}

#[test]
fn rejects_too_few_nodes() {
    expect_err(
        Workload::new(1),
        WorkloadError::TooFewNodes(1),
        "need at least 2 nodes, got 1",
    );
}

#[test]
fn rejects_zero_groups() {
    expect_err(
        base().groups(0),
        WorkloadError::NoGroups,
        "group population is empty",
    );
}

#[test]
fn rejects_too_many_groups() {
    expect_err(
        base().groups(MAX_GROUPS + 1),
        WorkloadError::TooManyGroups(MAX_GROUPS + 1),
        "16385 groups exceed the tag-encoding limit of 16384",
    );
}

#[test]
fn rejects_zero_rate() {
    expect_err(
        base().arrivals(ArrivalProcess::Poisson { rate_hz: 0.0 }),
        WorkloadError::ZeroRate(0.0),
        "arrival rate 0 must be positive and finite",
    );
    assert!(matches!(
        base()
            .arrivals(ArrivalProcess::FixedRate { rate_hz: f64::INFINITY })
            .build(),
        Err(WorkloadError::ZeroRate(_))
    ));
}

#[test]
fn rejects_bad_zipf_exponent() {
    expect_err(
        base().fanout(FanoutDist::Zipf { exponent: 0.0 }),
        WorkloadError::InvalidZipfExponent(0.0),
        "Zipf exponent 0 must be positive and finite",
    );
    assert!(matches!(
        base().fanout(FanoutDist::Zipf { exponent: -1.5 }).build(),
        Err(WorkloadError::InvalidZipfExponent(_))
    ));
    assert!(matches!(
        base().fanout(FanoutDist::Zipf { exponent: f64::NAN }).build(),
        Err(WorkloadError::InvalidZipfExponent(_))
    ));
}

#[test]
fn rejects_zero_fanout() {
    expect_err(
        base().fanout(FanoutDist::Fixed { fanout: 0 }),
        WorkloadError::ZeroFanout,
        "fixed fan-out must be at least 1",
    );
}

#[test]
fn rejects_overlap_outside_unit_interval() {
    expect_err(
        base().overlap(1.5),
        WorkloadError::InvalidOverlap(1.5),
        "membership overlap 1.5 is outside [0, 1]",
    );
    assert!(matches!(
        base().overlap(-0.1).build(),
        Err(WorkloadError::InvalidOverlap(_))
    ));
}

#[test]
fn rejects_probability_outside_half_open_unit_interval() {
    let loss = |p| {
        base().faults(FaultPlan {
            drop_prob: p,
            ..FaultPlan::none()
        })
    };
    expect_err(
        loss(1.0),
        WorkloadError::InvalidProbability(1.0),
        "probability 1 is outside [0, 1)",
    );
    let corrupt = base().faults(FaultPlan {
        corrupt_prob: -0.1,
        ..FaultPlan::none()
    });
    expect_err(
        corrupt,
        WorkloadError::InvalidProbability(-0.1),
        "probability -0.1 is outside [0, 1)",
    );
    assert!(matches!(
        loss(f64::NAN).build(),
        Err(WorkloadError::InvalidProbability(p)) if p.is_nan()
    ));
}

#[test]
fn rejects_zero_duration() {
    expect_err(
        base().stop(StopCondition::Duration(SimDuration::ZERO)),
        WorkloadError::ZeroDuration,
        "run duration must be positive",
    );
}

#[test]
fn rejects_zero_messages() {
    expect_err(
        base().stop(StopCondition::Messages(0)),
        WorkloadError::NoMessages,
        "need at least 1 message",
    );
}

#[test]
fn rejects_warmup_swallowing_the_run() {
    let err = base()
        .warmup(SimDuration::from_millis(1))
        .build()
        .expect_err("warmup == duration leaves nothing measured");
    assert_eq!(
        err,
        WorkloadError::MeasurementWindowOutsideRun {
            warmup: SimDuration::from_millis(1),
            duration: SimDuration::from_millis(1),
        }
    );
    assert!(err.to_string().contains("nothing is measured"));
}

#[test]
fn rejects_empty_message() {
    expect_err(
        base().size(0),
        WorkloadError::EmptyMessage,
        "message size must be at least 1 byte",
    );
}

#[test]
fn rejects_empty_trace() {
    expect_err(
        base().arrivals(ArrivalProcess::Trace(Vec::new())),
        WorkloadError::EmptyTrace,
        "arrival trace is empty",
    );
}

#[test]
fn rejects_trace_group_out_of_range() {
    expect_err(
        base().arrivals(ArrivalProcess::Trace(vec![(SimTime::from_nanos(10), 3)])),
        WorkloadError::TraceGroupOutOfRange(3),
        "trace entry names group 3, outside the population",
    );
}

#[test]
fn rejects_per_group_message_overflow() {
    // One group absorbing 70 000 arrivals exceeds the 16-bit message index.
    let err = base()
        .groups(1)
        .stop(StopCondition::Messages(70_000))
        .build()
        .expect_err("per-group encoding limit");
    assert_eq!(err, WorkloadError::TooManyMessagesPerGroup(70_000));
    assert!(err.to_string().contains("exceed the per-group limit"));
}

#[test]
fn identical_seeds_give_byte_identical_reports() {
    let wl = || {
        Workload::new(16)
            .groups(12)
            .fanout(FanoutDist::Zipf { exponent: 1.2 })
            .overlap(0.5)
            .arrivals(ArrivalProcess::Poisson { rate_hz: 30_000.0 })
            .stop(StopCondition::Duration(SimDuration::from_millis(1)))
            .warmup(SimDuration::from_micros(100))
            .seed(7)
    };
    let a = wl().run();
    let b = wl().run();
    assert_eq!(a.summary_json(), b.summary_json());
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.events, b.events);
    assert_eq!(a.metrics, b.metrics);
    // A different seed draws a different population and different arrivals.
    let c = wl().seed(8).run();
    assert_ne!(a.summary_json(), c.summary_json());
}

#[test]
fn group_table_saturates_and_recovers_under_backpressure() {
    // 12 all-node groups on a 4-slot table: 8 installs must park per node,
    // admit in FIFO order as earlier groups disband, and the occupancy gauge
    // has to show the saturate-then-drain cycle.
    let params = GmParams {
        group_table_slots: 4,
        ..GmParams::default()
    };
    let report = Workload::new(4)
        .groups(12)
        .fanout(FanoutDist::Fixed { fanout: 3 })
        .arrivals(ArrivalProcess::Poisson { rate_hz: 100_000.0 })
        .stop(StopCondition::Duration(SimDuration::from_millis(1)))
        .size(64)
        .params(params)
        .series(SeriesConfig::on())
        .run();
    assert!(
        report.admission_waits > 0,
        "12 groups on 4 slots must queue installs"
    );
    assert_eq!(
        report.metrics.get("nic.mcast_group_installs"),
        report.metrics.get("nic.mcast_group_frees"),
        "every admitted entry must be freed again"
    );
    // The gauge on node 0 must hit capacity and come back down to empty.
    let occupancy: Vec<u64> = report
        .series
        .iter()
        .filter(|p| p.gauge == "groups_used" && p.node == 0)
        .map(|p| p.value)
        .collect();
    assert!(
        occupancy.contains(&4),
        "occupancy never saturated: {occupancy:?}"
    );
    assert_eq!(
        *occupancy.last().expect("gauge recorded"),
        0,
        "occupancy must drain to zero after all groups disband"
    );
    assert!(
        occupancy.iter().all(|&v| v <= 4),
        "occupancy exceeded capacity: {occupancy:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arrival streams are strictly increasing in sim-time for every
    /// process/stop combination the generator covers.
    #[test]
    fn arrival_streams_are_monotonic(
        seed in any::<u64>(),
        groups in 1usize..20,
        rate in 1_000.0f64..500_000.0,
        poisson in any::<bool>(),
        by_count in any::<bool>(),
    ) {
        let proc_ = if poisson {
            ArrivalProcess::Poisson { rate_hz: rate }
        } else {
            ArrivalProcess::FixedRate { rate_hz: rate }
        };
        let stop = if by_count {
            StopCondition::Messages(200)
        } else {
            StopCondition::Duration(SimDuration::from_micros(500))
        };
        let built = Workload::new(8)
            .groups(groups)
            .arrivals(proc_)
            .stop(stop)
            .seed(seed)
            .build();
        // Short durations can legitimately produce zero arrivals overall.
        if let Ok(built) = built {
            for g in built.groups() {
                prop_assert!(!g.arrivals.is_empty());
                for w in g.arrivals.windows(2) {
                    prop_assert!(w[0] < w[1], "arrivals must strictly increase");
                }
            }
        }
    }
}
