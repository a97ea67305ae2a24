//! Ablation: replica-generation mechanism at the root (paper §5 "Sending of
//! Multiple Message Replicas").
//!
//! Approach 1 generates one send token per destination ("it saves nothing
//! more than the posting of multiple send events"); approach 2 — the
//! paper's choice — reuses the packet through descriptor callbacks, paying
//! only a header rewrite per replica. We compare both against host-based
//! multiple unicasts for small messages, where the processing cost
//! dominates.

use bench::{factor, par_map, us, CliOpts, Table};
use nic_mcast::{AckMode, McastConfig, MultisendImpl, Scenario, TreeShape};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    dests: u32,
    size: usize,
    host_based_us: f64,
    per_dest_token_us: f64,
    callback_us: f64,
}

fn main() {
    let opts = CliOpts::parse();
    let mut points = Vec::new();
    for &k in &[3u32, 4, 8] {
        for &size in &[8usize, 128, 1024, 4096] {
            points.push((k, size));
        }
    }
    let results: Vec<Point> = par_map(points, |&(k, size)| {
        let m = |s: Scenario, ms: MultisendImpl| {
            s.size(size)
                .tree(TreeShape::Flat)
                .ack(AckMode::NicAck)
                .warmup(opts.warmup)
                .iters(opts.iters)
                .config(McastConfig {
                    multisend: ms,
                    ..McastConfig::default()
                })
                .run()
                .latency
                .mean()
        };
        Point {
            dests: k,
            size,
            host_based_us: m(Scenario::host_based(k + 1), MultisendImpl::Callback),
            per_dest_token_us: m(Scenario::nic_based(k + 1), MultisendImpl::PerDestToken),
            callback_us: m(Scenario::nic_based(k + 1), MultisendImpl::Callback),
        }
    });

    let mut t = Table::new(
        "Multisend-mechanism ablation (latency us; NIC-level ack)",
        &[
            "dests",
            "size",
            "host-based",
            "per-dest token",
            "callback",
            "callback vs per-dest",
        ],
    );
    for p in &results {
        t.row(vec![
            p.dests.to_string(),
            p.size.to_string(),
            us(p.host_based_us),
            us(p.per_dest_token_us),
            us(p.callback_us),
            factor(p.per_dest_token_us, p.callback_us),
        ]);
    }
    t.print();
    println!(
        "\nPer-destination tokens only save the host postings (paper: \"no more\n\
         than 1us\"); the callback mechanism removes the repeated token\n\
         processing entirely and wins for small messages."
    );
    opts.write_json("ablation_multisend_impl", &results);
}
