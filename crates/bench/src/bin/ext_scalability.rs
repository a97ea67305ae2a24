//! Extension study (paper future work): "we intend to study its
//! scalability in large scale systems". The simulated substrate runs
//! two-level Clos fabrics up to 128 nodes; this binary sweeps system size
//! for a small and a large message and reports both schemes.

use bench::{factor, par_map, us, CliOpts, Table};
use nic_mcast::{Scenario, TreeShape};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    nodes: u32,
    size: usize,
    hb_us: f64,
    nb_us: f64,
    improvement: f64,
    nb_height: usize,
}

fn main() {
    let opts = CliOpts::parse();
    let mut points = Vec::new();
    for &n in &[8u32, 16, 24, 32, 48, 64, 96, 128] {
        for &size in &[64usize, 16384] {
            points.push((n, size));
        }
    }
    let results: Vec<Point> = par_map(points, |&(n, size)| {
        let m = |s: Scenario, shape: TreeShape| {
            s.size(size)
                .tree(shape)
                .warmup(opts.warmup)
                .iters(opts.iters)
                .run()
        };
        let hb = m(Scenario::host_based(n), TreeShape::Binomial);
        let nb = m(Scenario::nic_based(n), TreeShape::auto());
        Point {
            nodes: n,
            size,
            hb_us: hb.latency.mean(),
            nb_us: nb.latency.mean(),
            improvement: hb.latency.mean() / nb.latency.mean(),
            nb_height: nb.height,
        }
    });

    for &size in &[64usize, 16384] {
        let mut t = Table::new(
            &format!("Scalability sweep, {size}-byte multicast"),
            &["nodes", "host-based", "NIC-based", "factor", "NB height"],
        );
        for p in results.iter().filter(|p| p.size == size) {
            t.row(vec![
                p.nodes.to_string(),
                us(p.hb_us),
                us(p.nb_us),
                factor(p.hb_us, p.nb_us),
                p.nb_height.to_string(),
            ]);
        }
        t.print();
        println!();
    }
    println!(
        "No centralized state anywhere: group tables, sequence arrays and\n\
         retransmission records are all per-node, so the advantage compounds\n\
         with depth instead of saturating."
    );
    opts.write_json("ext_scalability", &results);
}
