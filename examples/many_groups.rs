//! Sustained many-group traffic through the Workload API.
//!
//! Drives 48 multicast groups with Zipf-distributed fan-out and Poisson
//! arrivals over a 32-node Clos fabric, then prints the steady-state
//! picture: delivery-latency percentiles, aggregate goodput, Jain fairness
//! and group-table admission backpressure.
//!
//! ```console
//! cargo run --release --example many_groups
//! ```

use myri_mcast::sim::SimDuration;
use myri_mcast::{ArrivalProcess, FanoutDist, StopCondition, Workload};

fn main() {
    let report = Workload::new(32)
        .groups(48)
        .fanout(FanoutDist::Zipf { exponent: 1.2 })
        .overlap(0.5)
        .arrivals(ArrivalProcess::Poisson { rate_hz: 25_000.0 })
        .stop(StopCondition::Duration(SimDuration::from_millis(3)))
        .warmup(SimDuration::from_micros(300))
        .size(512)
        .seed(42)
        .run();

    println!(
        "{} groups, {} scheduled messages, {} member deliveries measured",
        report.groups, report.messages, report.delivered
    );
    println!(
        "delivery latency: p50 {:.2} us, p99 {:.2} us, p999 {:.2} us",
        report.p50_us, report.p99_us, report.p999_us
    );
    println!(
        "goodput {:.2} MB/s aggregate, Jain fairness {:.4}",
        report.goodput_mbs, report.fairness
    );
    println!(
        "group table: {} installs, {} admission waits",
        report.metrics.get("nic.mcast_group_installs"),
        report.admission_waits
    );
}
