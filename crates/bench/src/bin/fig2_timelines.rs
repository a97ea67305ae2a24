//! Figure 2: abstract timing diagrams comparing host-based multiple
//! unicasts, the NIC-based multisend, and NIC-based forwarding — regenerated
//! as real event timelines from the probe layer.
//!
//! Panel (a): the host posts one send request per destination and the NIC
//! repeats the token processing. Panel (b): one multisend request, replicas
//! produced by descriptor callbacks. Panel (c): an intermediate NIC forwards
//! a received packet before its own host hears about the message.

use gm_sim::probe::{Phase, ProbeEvent};
use gm_sim::SimTime;
use nic_mcast::{McastMode, ProbeConfig, Scenario, TreeShape};

fn describe(e: &ProbeEvent) -> String {
    let (name, label) = (e.id().name, e.label());
    match e.phase() {
        Phase::Begin if label.is_empty() => format!("{name} start"),
        Phase::Begin => format!("{name} start ({label})"),
        Phase::End => format!("{name} end"),
        Phase::Mark if label.is_empty() => name.to_string(),
        Phase::Mark => format!("{name} ({label})"),
        Phase::Complete => format!("{name} span {:.2}us", e.dur().as_micros_f64()),
    }
}

fn render(title: &str, scenario: Scenario, focus: &[u32], window_from_first: &str) {
    let report = scenario.probes(ProbeConfig::spans()).run();
    // The workload computes for 200us before the first iteration; show the
    // window from the first post-sync host call on the root.
    let start = report
        .probe
        .iter()
        .find(|e| e.time() > SimTime::from_nanos(200_000) && *e.id() == gm::probes::HOST_CALL)
        .map(ProbeEvent::time)
        .unwrap_or(SimTime::ZERO);
    println!("== {title} ==");
    println!("(t=0 is the root's send request; {window_from_first})");
    println!("{:>10}  {:<5} event", "t (us)", "node");
    let mut shown = 0;
    for e in report.probe.iter() {
        if e.time() < start || shown > 60 {
            continue;
        }
        if !focus.contains(&e.node()) {
            continue;
        }
        let rel = e.time().saturating_since(start).as_micros_f64();
        if rel > 60.0 {
            break;
        }
        println!("{rel:>10.2}  n{:<4} {}", e.node(), describe(e));
        shown += 1;
    }
    println!();
}

fn main() {
    let mk = |mode: McastMode, shape: TreeShape| {
        Scenario::new(5, mode)
            .size(1024)
            .tree(shape)
            .warmup(0)
            .iters(1)
    };
    render(
        "Figure 2(a): host-based multiple unicasts (root = n0, 4 dests)",
        mk(McastMode::HostBased, TreeShape::Flat),
        &[0],
        "note the repeated send_token processing per destination",
    );
    render(
        "Figure 2(b): NIC-based multisend (one request, callback replicas)",
        mk(McastMode::NicBased, TreeShape::Flat),
        &[0],
        "one host_req, then per-replica callback + wire_tx",
    );
    render(
        "Figure 2(c): NIC-based forwarding (chain 0->1->2..., watch n1)",
        mk(McastMode::NicBased, TreeShape::Chain),
        &[1],
        "n1's wire_tx (forward) precedes its host notice (recv)",
    );
}
