//! Ablation: spanning-tree shape for the NIC-based multicast (paper §5
//! "The Spanning Tree" / §6.1 fan-out discussion).
//!
//! Compares the size-adaptive shape (`auto_shape`: postal-optimal for
//! single-packet messages, pipeline k-ary for multi-packet) against fixed
//! binomial, flat and chain trees over 16 nodes.

use bench::{par_map, us, CliOpts, Sweep, Table};
use nic_mcast::{Scenario, TreeShape};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    size: usize,
    adaptive_us: f64,
    adaptive_root_util: f64,
    binomial_us: f64,
    flat_us: f64,
    flat_root_util: f64,
    chain_us: f64,
}

fn main() {
    let opts = CliOpts::parse();
    let n = 16u32;
    let sweep = Sweep::gm_sizes();
    let results: Vec<Point> = par_map(&sweep, |&size| {
        let m = |shape: TreeShape| {
            let out = Scenario::nic_based(n)
                .size(size)
                .tree(shape)
                .warmup(opts.warmup)
                .iters(opts.iters)
                .run();
            (out.latency.mean(), out.root_link_utilization)
        };
        let (adaptive_us, adaptive_root_util) = m(TreeShape::auto());
        let (binomial_us, _) = m(TreeShape::Binomial);
        let (flat_us, flat_root_util) = m(TreeShape::Flat);
        let (chain_us, _) = m(TreeShape::Chain);
        Point {
            size,
            adaptive_us,
            adaptive_root_util,
            binomial_us,
            flat_us,
            flat_root_util,
            chain_us,
        }
    });

    let mut t = Table::new(
        "Tree-shape ablation: NIC-based multicast latency (us), 16 nodes",
        &[
            "size",
            "adaptive",
            "binomial",
            "flat",
            "chain",
            "adaptive vs binomial",
            "root-link util (adaptive/flat)",
        ],
    );
    for p in &results {
        t.row(vec![
            p.size.to_string(),
            us(p.adaptive_us),
            us(p.binomial_us),
            us(p.flat_us),
            us(p.chain_us),
            format!("{:.2}x", p.binomial_us / p.adaptive_us),
            format!(
                "{:.0}%/{:.0}%",
                p.adaptive_root_util * 100.0,
                p.flat_root_util * 100.0
            ),
        ]);
    }
    t.print();
    println!(
        "\nThe adaptive shape tracks or beats the best fixed shape everywhere:\n\
         a moderate-fanout postal tree for small sizes (NIC forwarding hops\n\
         are cheap, so pure flat multisend loses), k-ary pipeline trees for\n\
         multi-packet sizes. Flat trees saturate the root's injection link\n\
         (last column) and chains pay maximal depth."
    );
    opts.write_json_sweep("ablation_tree", &sweep, &results);
}
