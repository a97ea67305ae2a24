//! Figure 7: the effect of process skew for systems of different sizes —
//! improvement factor of NIC-based over host-based `MPI_Bcast` host CPU
//! time, for 4-byte and 4 KB messages at a fixed 400 µs average skew, over
//! 4/8/12/16 nodes.
//!
//! Paper: "the improvement factor becomes greater as the system size
//! increases ... a larger size system can benefit more from the NIC-based
//! multicast for the reduced effects of process skew."

use bench::{par_map, CliOpts, Table};
use gm_mpi::{execute_mpi, BcastImpl, MpiRun};
use gm_sim::SimDuration;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    nodes: u32,
    size: usize,
    hb_cpu_us: f64,
    nb_cpu_us: f64,
    improvement: f64,
}

fn main() {
    let opts = CliOpts::parse();
    let sizes = [4usize, 4096];
    let node_counts = [4u32, 8, 12, 16];
    // 400us average skew => uniform window of 1600us (see fig6_skew).
    let skew = SimDuration::from_micros(1600);

    let mut points = Vec::new();
    for &size in &sizes {
        for &n in &node_counts {
            points.push((size, n));
        }
    }
    let results: Vec<Point> = par_map(points, |&(size, n)| {
        let measure = |b: BcastImpl| {
            let run = MpiRun::bcast_loop(n, size, b, skew, opts.warmup, opts.iters);
            execute_mpi(&run).bcast_cpu.mean()
        };
        let hb = measure(BcastImpl::HostBinomial);
        let nb = measure(BcastImpl::NicBased);
        Point {
            nodes: n,
            size,
            hb_cpu_us: hb,
            nb_cpu_us: nb,
            improvement: hb / nb,
        }
    });

    let mut t = Table::new(
        "Figure 7: improvement factor vs system size (400us average skew)",
        &[
            "nodes",
            "4B HB",
            "4B NB",
            "4B factor",
            "4KB HB",
            "4KB NB",
            "4KB factor",
        ],
    );
    for &n in &node_counts {
        let get = |size: usize| {
            results
                .iter()
                .find(|p| p.nodes == n && p.size == size)
                .expect("point exists")
        };
        t.row(vec![
            n.to_string(),
            format!("{:.2}", get(4).hb_cpu_us),
            format!("{:.2}", get(4).nb_cpu_us),
            format!("{:.2}", get(4).improvement),
            format!("{:.2}", get(4096).hb_cpu_us),
            format!("{:.2}", get(4096).nb_cpu_us),
            format!("{:.2}", get(4096).improvement),
        ]);
    }
    t.print();

    let mono = |size: usize| -> bool {
        let f: Vec<f64> = node_counts
            .iter()
            .map(|&n| {
                results
                    .iter()
                    .find(|p| p.nodes == n && p.size == size)
                    .expect("point")
                    .improvement
            })
            .collect();
        f.windows(2).all(|w| w[1] >= w[0] * 0.95)
    };
    println!("\nPaper: improvement grows with system size for both sizes (to ~5.8x/~2.9x).");
    println!(
        "Measured: growth with size holds for 4B: {}, for 4KB: {}",
        mono(4),
        mono(4096)
    );
    opts.write_json("fig7_skew_scaling", &results);
}
