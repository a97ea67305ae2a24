//! Figure 4: MPI-level broadcast latency, NIC-based vs host-based, for
//! 4/8/16 ranks across 1 B..16 287 B (the largest eager message).
//!
//! Paper headlines: up to 2.02x for 8 KB over 16 nodes, up to 1.78x for
//! small messages, and a dip at 16 287 B "due to the larger cost of copying
//! the data to their final locations".

use bench::{factor, par_map, us, CliOpts, Sweep, Table};
use gm_mpi::{execute_mpi, BcastImpl, MpiRun};
use gm_sim::SimDuration;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    ranks: u32,
    size: usize,
    hb_us: f64,
    nb_us: f64,
    improvement: f64,
}

fn main() {
    let opts = CliOpts::parse();
    let rank_counts = [4u32, 8, 16];
    let sweep = Sweep::mpi_sizes();
    let mut points = Vec::new();
    for &n in &rank_counts {
        for size in &sweep {
            points.push((n, size));
        }
    }
    let results: Vec<Point> = par_map(points, |&(n, size)| {
        let measure = |b: BcastImpl| {
            let run = MpiRun::bcast_loop(n, size, b, SimDuration::ZERO, opts.warmup, opts.iters);
            execute_mpi(&run).latency.mean()
        };
        let hb = measure(BcastImpl::HostBinomial);
        let nb = measure(BcastImpl::NicBased);
        Point {
            ranks: n,
            size,
            hb_us: hb,
            nb_us: nb,
            improvement: hb / nb,
        }
    });

    let mut latency = Table::new(
        "Figure 4(a): MPI_Bcast latency (us)",
        &["size", "HB-4", "HB-8", "HB-16", "NB-4", "NB-8", "NB-16"],
    );
    let mut improv = Table::new(
        "Figure 4(b): improvement factor (HB/NB)",
        &["size", "4", "8", "16"],
    );
    for size in &sweep {
        let get = |n: u32| {
            results
                .iter()
                .find(|p| p.ranks == n && p.size == size)
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
        improv.row(vec![
            size.to_string(),
            factor(get(4).hb_us, get(4).nb_us),
            factor(get(8).hb_us, get(8).nb_us),
            factor(get(16).hb_us, get(16).nb_us),
        ]);
    }
    latency.print();
    println!();
    improv.print();

    let peak = results
        .iter()
        .filter(|p| p.ranks == 16 && p.size == 8192)
        .map(|p| p.improvement)
        .next()
        .unwrap_or(0.0);
    let small = results
        .iter()
        .filter(|p| p.ranks == 16 && p.size <= 512)
        .map(|p| p.improvement)
        .fold(0.0f64, f64::max);
    let last = results
        .iter()
        .find(|p| p.ranks == 16 && p.size == 16287)
        .map(|p| p.improvement)
        .unwrap_or(0.0);
    println!("\nPaper (16 ranks): 2.02x at 8KB, up to 1.78x small, dip at 16287B.");
    println!("Measured: 8KB {peak:.2}x, small peak {small:.2}x, 16287B {last:.2}x");
    opts.write_json_sweep("fig4_mpi_bcast", &sweep, &results);
}
