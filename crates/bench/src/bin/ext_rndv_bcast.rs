//! Extension study (paper future work): NIC-based broadcast beyond the
//! eager limit. MPICH-GM's rendezvous protocol made the paper fall back to
//! host-based broadcast above 16 287 bytes; "we also intend to study the
//! NIC-based multicast using remote DMA operations". Our substrate's group
//! machinery handles arbitrarily large messages (per-packet pipelining),
//! so this binary measures what that fallback left on the table.

use bench::{factor, par_map, us, CliOpts, Table};
use gm_mpi::{execute_mpi, BcastImpl, MpiRun};
use gm_sim::SimDuration;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    size: usize,
    hb_rndv_us: f64,
    nb_direct_us: f64,
    improvement: f64,
}

fn main() {
    let opts = CliOpts::parse();
    let sizes = [32 * 1024usize, 64 * 1024, 128 * 1024, 256 * 1024];
    let n = 16u32;
    let results: Vec<Point> = par_map(sizes.to_vec(), |&size| {
        let hb = {
            // The paper's configuration: rendezvous sizes take the
            // host-based binomial path regardless of the bcast impl.
            let run = MpiRun::bcast_loop(
                n,
                size,
                BcastImpl::NicBased,
                SimDuration::ZERO,
                opts.warmup,
                opts.iters,
            );
            execute_mpi(&run).latency.mean()
        };
        let nb = {
            let mut run = MpiRun::bcast_loop(
                n,
                size,
                BcastImpl::NicBased,
                SimDuration::ZERO,
                opts.warmup,
                opts.iters,
            );
            run.nic_rndv = true;
            execute_mpi(&run).latency.mean()
        };
        Point {
            size,
            hb_rndv_us: hb,
            nb_direct_us: nb,
            improvement: hb / nb,
        }
    });

    let mut t = Table::new(
        "Rendezvous-size broadcast, 16 ranks: host-based fallback vs direct NIC multicast",
        &[
            "size (KB)",
            "HB rendezvous (us)",
            "NB direct (us)",
            "factor",
        ],
    );
    for p in &results {
        t.row(vec![
            (p.size / 1024).to_string(),
            us(p.hb_rndv_us),
            us(p.nb_direct_us),
            factor(p.hb_rndv_us, p.nb_direct_us),
        ]);
    }
    t.print();
    println!(
        "\nPer-packet NIC forwarding pipelines the whole transfer; the\n\
         host-based rendezvous path re-serializes the full message at every\n\
         tree level (RTS/CTS handshakes included)."
    );
    opts.write_json("ext_rndv_bcast", &results);
}
