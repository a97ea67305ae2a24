//! Ablation: per-packet acknowledgments (GM-2-alpha behaviour, what the
//! paper ran on) vs coalesced cumulative acks. Coalescing cuts control
//! traffic on bulk transfers but delays the sender's completion notice —
//! a classic protocol trade-off worth quantifying on this substrate.

use bench::{par_map, us, CliOpts, Table};
use gm::GmParams;
use gm_sim::SimDuration;
use nic_mcast::{AckMode, Scenario, TreeShape};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    coalesce_us: u64,
    latency_us: f64,
    completion_us: f64,
    acks: u64,
    coalesced: u64,
}

/// Host-based multicast of 16KB over 8 nodes: latency to the probe plus
/// the root's completion time (NIC-level acks), total ack packets, and
/// how many acknowledgments merged into an already-pending flush.
fn measure(coalesce_us: u64, iters: u32, warmup: u32) -> (f64, f64, u64, u64) {
    let run_with = |ack: AckMode| {
        let params = GmParams {
            ack_coalesce: SimDuration::from_micros(coalesce_us),
            ..GmParams::default()
        };
        let rep = Scenario::host_based(8)
            .size(16 * 1024)
            .tree(TreeShape::Binomial)
            .ack(ack)
            .warmup(warmup)
            .iters(iters)
            .params(params)
            .run();
        let acks = rep.metrics.get("nic.tx_acks");
        let coalesced = rep.metrics.get("nic.acks_coalesced");
        (rep.latency.mean(), acks, coalesced)
    };
    let (latency, acks, coalesced) = run_with(AckMode::ProbeReply);
    let (completion, _, _) = run_with(AckMode::NicAck);
    (latency, completion, acks, coalesced)
}

fn main() {
    let opts = CliOpts::parse();
    let results: Vec<Point> = par_map(vec![0u64, 10, 30, 100, 300], |&coalesce_us| {
        let (latency_us, completion_us, acks, coalesced) =
            measure(coalesce_us, opts.iters, opts.warmup);
        Point {
            coalesce_us,
            latency_us,
            completion_us,
            acks,
            coalesced,
        }
    });
    let mut t = Table::new(
        "Ack-coalescing ablation: 16KB host-based multicast, 8 nodes",
        &[
            "coalesce (us)",
            "delivery (us)",
            "send completion (us)",
            "ack packets",
            "acks merged",
        ],
    );
    for p in &results {
        t.row(vec![
            p.coalesce_us.to_string(),
            us(p.latency_us),
            us(p.completion_us),
            p.acks.to_string(),
            p.coalesced.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nCoalescing barely moves delivery latency (data packets pipeline\n\
         regardless) while cutting ack packets several-fold; the cost shows\n\
         in the sender's completion time, which waits for the flushed\n\
         cumulative ack."
    );
    opts.write_json("ablation_ack_coalesce", &results);
}
