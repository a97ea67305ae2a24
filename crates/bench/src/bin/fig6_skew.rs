//! Figure 6: average host CPU time spent in `MPI_Bcast` under process skew
//! (16 nodes; 2-, 4- and 8-byte messages; average skew 0..400 µs), for the
//! host-based and NIC-based broadcasts, plus the improvement factors.
//!
//! Methodology (paper §6.3): all ranks synchronize with `MPI_Barrier`; every
//! non-root rank draws a skew uniformly in [−max/2, +max/2]; positive draws
//! compute for that long before calling `MPI_Bcast`. The average host CPU
//! time in the broadcast call is plotted against the average skew.
//!
//! Paper headline: with 400 µs average skew the NIC-based approach improves
//! host CPU time by up to 5.82x for 2-8 byte messages, and the curves
//! diverge around 40 µs (host-based starts rising, NIC-based keeps falling).

use bench::{par_map, us, CliOpts, Table};
use gm_mpi::{execute_mpi, BcastImpl, MpiRun};
use gm_sim::SimDuration;
use serde::Serialize;

/// The drawn skew is uniform on [−max/2, +max/2]; the positive half has
/// mean max/4, and only it delays the broadcast, so the paper's "average
/// skew" axis maps to max/4.
fn max_for_avg(avg_us: u64) -> SimDuration {
    SimDuration::from_micros(avg_us * 4)
}

#[derive(Serialize)]
struct Point {
    size: usize,
    avg_skew_us: u64,
    hb_cpu_us: f64,
    nb_cpu_us: f64,
    improvement: f64,
}

fn main() {
    let opts = CliOpts::parse();
    // Small messages (Figure 6 proper) plus the large-message variant the
    // paper reports via its technical report ("when broadcasting large
    // messages (2KB to 8KB), a similar trend ... is also observed",
    // "an improvement factor up to 2.9 for large (2KB) messages").
    let sizes = [2usize, 4, 8, 2048, 4096, 8192];
    let skews = [0u64, 25, 50, 100, 150, 200, 250, 300, 350, 400];
    let n = 16u32;

    let mut points = Vec::new();
    for &size in &sizes {
        for &avg in &skews {
            points.push((size, avg));
        }
    }
    let results: Vec<Point> = par_map(points, |&(size, avg)| {
        let measure = |b: BcastImpl| {
            let run = MpiRun::bcast_loop(n, size, b, max_for_avg(avg), opts.warmup, opts.iters);
            execute_mpi(&run).bcast_cpu.mean()
        };
        let hb = measure(BcastImpl::HostBinomial);
        let nb = measure(BcastImpl::NicBased);
        Point {
            size,
            avg_skew_us: avg,
            hb_cpu_us: hb,
            nb_cpu_us: nb,
            improvement: hb / nb,
        }
    });

    let mut cpu = Table::new(
        "Figure 6(a): average host CPU time in MPI_Bcast (us), 16 nodes",
        &[
            "avg skew", "HB 2B", "HB 4B", "HB 8B", "NB 2B", "NB 4B", "NB 8B",
        ],
    );
    let mut improv = Table::new(
        "Figure 6(b): improvement factor (HB/NB)",
        &["avg skew", "2B", "4B", "8B"],
    );
    let mut large = Table::new(
        "Figure 6 (large-message variant, from the technical report): factor (HB/NB)",
        &["avg skew", "2KB", "4KB", "8KB"],
    );
    for &avg in &skews {
        let get = |size: usize| {
            results
                .iter()
                .find(|p| p.size == size && p.avg_skew_us == avg)
                .expect("point exists")
        };
        cpu.row(vec![
            avg.to_string(),
            us(get(2).hb_cpu_us),
            us(get(4).hb_cpu_us),
            us(get(8).hb_cpu_us),
            us(get(2).nb_cpu_us),
            us(get(4).nb_cpu_us),
            us(get(8).nb_cpu_us),
        ]);
        improv.row(vec![
            avg.to_string(),
            format!("{:.2}", get(2).improvement),
            format!("{:.2}", get(4).improvement),
            format!("{:.2}", get(8).improvement),
        ]);
        large.row(vec![
            avg.to_string(),
            format!("{:.2}", get(2048).improvement),
            format!("{:.2}", get(4096).improvement),
            format!("{:.2}", get(8192).improvement),
        ]);
    }
    cpu.print();
    println!();
    improv.print();
    println!();
    large.print();

    let peak = results
        .iter()
        .filter(|p| p.avg_skew_us == 400 && p.size <= 8)
        .map(|p| p.improvement)
        .fold(0.0f64, f64::max);
    let large_2k = results
        .iter()
        .find(|p| p.avg_skew_us == 400 && p.size == 2048)
        .map(|p| p.improvement)
        .unwrap_or(0.0);
    println!("\nPaper: up to 5.82x (small) and ~2.9x (2KB) at 400us average skew.");
    println!("Measured at 400us: small peak {peak:.2}x, 2KB {large_2k:.2}x");
    opts.write_json("fig6_skew", &results);
}
