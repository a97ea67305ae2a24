//! Figure 3: the NIC-based multisend vs host-based multiple unicasts.
//!
//! "Our tests were conducted by having the source node transmit a message to
//! multiple destinations, and wait for an acknowledgment from the last
//! destination. All destinations received the message from the source node,
//! and none of them forwarded the message."
//!
//! Regenerates both panels: (a) latency for 3/4/8 destinations across
//! 1 B..16 KB, and (b) the NB-over-HB improvement factor.

use bench::{factor, par_map, us, CliOpts, Sweep, Table};
use nic_mcast::{AckMode, Scenario, TreeShape};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    dests: u32,
    size: usize,
    hb_us: f64,
    nb_us: f64,
    improvement: f64,
}

fn main() {
    let opts = CliOpts::parse();
    let dest_counts = [3u32, 4, 8];
    let sweep = Sweep::gm_sizes();

    let mut points = Vec::new();
    for &k in &dest_counts {
        for size in &sweep {
            points.push((k, size));
        }
    }
    let results: Vec<Point> = par_map(points, |&(k, size)| {
        let measure = |s: Scenario| -> f64 {
            // Multisend: a flat tree — every destination is a direct child
            // of the root, no forwarding.
            s.size(size)
                .tree(TreeShape::Flat)
                .ack(AckMode::NicAck)
                .warmup(opts.warmup)
                .iters(opts.iters)
                .run()
                .latency
                .mean()
        };
        let hb = measure(Scenario::host_based(k + 1));
        let nb = measure(Scenario::nic_based(k + 1));
        Point {
            dests: k,
            size,
            hb_us: hb,
            nb_us: nb,
            improvement: hb / nb,
        }
    });

    let mut latency = Table::new(
        "Figure 3(a): multisend latency (us)",
        &["size", "HB-3", "HB-4", "HB-8", "NB-3", "NB-4", "NB-8"],
    );
    let mut improv = Table::new(
        "Figure 3(b): improvement factor (HB/NB)",
        &["size", "3", "4", "8"],
    );
    for size in &sweep {
        let get = |k: u32| {
            results
                .iter()
                .find(|p| p.dests == k && p.size == size)
                .expect("point exists")
        };
        latency.row(vec![
            size.to_string(),
            us(get(3).hb_us),
            us(get(4).hb_us),
            us(get(8).hb_us),
            us(get(3).nb_us),
            us(get(4).nb_us),
            us(get(8).nb_us),
        ]);
        improv.row(vec![
            size.to_string(),
            factor(get(3).hb_us, get(3).nb_us),
            factor(get(4).hb_us, get(4).nb_us),
            factor(get(8).hb_us, get(8).nb_us),
        ]);
    }
    latency.print();
    println!();
    improv.print();

    let peak = results
        .iter()
        .filter(|p| p.dests == 4 && p.size <= 128)
        .map(|p| p.improvement)
        .fold(0.0f64, f64::max);
    println!("\nPaper: improvement up to 2.05x for <=128B at 4 destinations.");
    println!("Measured peak (<=128B, 4 dests): {peak:.2}x");
    opts.write_json_sweep("fig3_multisend", &sweep, &results);
}
