//! Ablation: reliability cost under packet loss (paper §5 "Reliability and
//! In Order Delivery").
//!
//! Sweeps the random loss rate and reports multicast latency and the number
//! of retransmissions for both schemes. The NIC-based scheme retransmits
//! only to the children that have not acknowledged, from the host-memory
//! replica; everything still arrives exactly once and in order (asserted by
//! the workload).

use bench::{par_map, us, CliOpts, Table};
use nic_mcast::{Scenario, TreeShape};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    loss_pct: f64,
    nb_us: f64,
    nb_p99: f64,
    nb_retx: u64,
    hb_us: f64,
    hb_retx: u64,
}

fn main() {
    let opts = CliOpts::parse();
    let rates = [0.0f64, 0.001, 0.005, 0.01, 0.02, 0.05];
    let results: Vec<Point> = par_map(rates.to_vec(), |&rate| {
        let m = |s: Scenario| {
            let out = s
                .size(2048)
                .tree(TreeShape::Binomial)
                .warmup(opts.warmup)
                .iters(opts.iters)
                .loss(rate)
                .run();
            (out.latency.mean(), out.latency_p99, out.retransmissions)
        };
        let (nb_us, nb_p99, nb_retx) = m(Scenario::nic_based(16));
        let (hb_us, _, hb_retx) = m(Scenario::host_based(16));
        Point {
            loss_pct: rate * 100.0,
            nb_us,
            nb_p99,
            nb_retx,
            hb_us,
            hb_retx,
        }
    });

    let mut t = Table::new(
        "Loss ablation: 2KB multicast over 16 nodes (binomial tree)",
        &[
            "loss %", "NB mean", "NB p99", "NB retx", "HB mean", "HB retx",
        ],
    );
    for p in &results {
        t.row(vec![
            format!("{:.1}", p.loss_pct),
            us(p.nb_us),
            us(p.nb_p99),
            p.nb_retx.to_string(),
            us(p.hb_us),
            p.hb_retx.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nBoth schemes deliver every message despite loss; latency grows with\n\
         the (20 ms, exponentially backed-off) timeout recoveries. Zero loss\n\
         means zero retransmissions."
    );
    opts.write_json("ablation_loss", &results);
}
