//! Figure 5: GM-level multicast with NIC-based forwarding (optimal tree)
//! vs the traditional host-based multicast (binomial tree), for 4, 8 and
//! 16 node systems across 1 B..16 KB.
//!
//! The paper's headline numbers: up to 1.48x for <=512 B and up to 1.86x
//! for 16 KB on 16 nodes, with a dip at 2-4 KB where messages are too big
//! for the multisend win and too small for pipelining.

use bench::{factor, par_map, us, CliOpts, Sweep, Table};
use nic_mcast::{Scenario, TreeShape};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    nodes: u32,
    size: usize,
    hb_us: f64,
    nb_us: f64,
    improvement: f64,
    nb_tree_height: usize,
    nb_tree_fanout: f64,
}

fn main() {
    let opts = CliOpts::parse();
    let node_counts = [4u32, 8, 16];
    let sweep = Sweep::gm_sizes();

    let mut points = Vec::new();
    for &n in &node_counts {
        for size in &sweep {
            points.push((n, size));
        }
    }
    let results: Vec<Point> = par_map(points, |&(n, size)| {
        let run_one = |s: Scenario, shape: TreeShape| {
            let built = s
                .size(size)
                .tree(shape)
                .warmup(opts.warmup)
                .iters(opts.iters)
                .build()
                .expect("valid scenario");
            if opts.all_probes {
                built.run_max_over_probes()
            } else {
                built.run()
            }
        };
        let hb = run_one(Scenario::host_based(n), TreeShape::Binomial);
        let nb = run_one(Scenario::nic_based(n), TreeShape::auto());
        Point {
            nodes: n,
            size,
            hb_us: hb.latency.mean(),
            nb_us: nb.latency.mean(),
            improvement: hb.latency.mean() / nb.latency.mean(),
            nb_tree_height: nb.height,
            nb_tree_fanout: nb.avg_fanout,
        }
    });

    let mut latency = Table::new(
        "Figure 5(a): GM-level multicast latency (us)",
        &["size", "HB-4", "HB-8", "HB-16", "NB-4", "NB-8", "NB-16"],
    );
    let mut improv = Table::new(
        "Figure 5(b): improvement factor (HB/NB)",
        &["size", "4", "8", "16", "NB16 tree h/fan"],
    );
    for size in &sweep {
        let get = |n: u32| {
            results
                .iter()
                .find(|p| p.nodes == n && p.size == size)
                .expect("point exists")
        };
        latency.row(vec![
            size.to_string(),
            us(get(4).hb_us),
            us(get(8).hb_us),
            us(get(16).hb_us),
            us(get(4).nb_us),
            us(get(8).nb_us),
            us(get(16).nb_us),
        ]);
        let p16 = get(16);
        improv.row(vec![
            size.to_string(),
            factor(get(4).hb_us, get(4).nb_us),
            factor(get(8).hb_us, get(8).nb_us),
            factor(p16.hb_us, p16.nb_us),
            format!("{}/{:.1}", p16.nb_tree_height, p16.nb_tree_fanout),
        ]);
    }
    latency.print();
    println!();
    improv.print();

    let small = results
        .iter()
        .filter(|p| p.nodes == 16 && p.size <= 512)
        .map(|p| p.improvement)
        .fold(0.0f64, f64::max);
    let large = results
        .iter()
        .find(|p| p.nodes == 16 && p.size == 16384)
        .map(|p| p.improvement)
        .unwrap_or(0.0);
    let dip = results
        .iter()
        .filter(|p| p.nodes == 16 && (p.size == 2048 || p.size == 4096))
        .map(|p| p.improvement)
        .fold(f64::INFINITY, f64::min);
    println!("\nPaper (16 nodes): up to 1.48x (<=512B), up to 1.86x (16KB), dip at 2-4KB.");
    println!("Measured: small peak {small:.2}x, 16KB {large:.2}x, 2-4KB dip {dip:.2}x");
    opts.write_json_sweep("fig5_gm_multicast", &sweep, &results);
}
