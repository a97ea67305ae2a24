//! Quickstart: compare the paper's NIC-based multicast against the
//! traditional host-based multicast on a 16-node simulated Myrinet cluster.
//!
//! Run with: `cargo run --release --example quickstart`

use myri_mcast::{Scenario, TreeShape};

fn main() {
    println!("NIC-based vs host-based multicast, 16 nodes (simulated Myrinet/GM-2)\n");
    println!(
        "{:>8}  {:>12}  {:>12}  {:>8}  {:>16}",
        "size", "host-based", "NIC-based", "speedup", "NB tree (h/fan)"
    );
    for size in [8usize, 128, 1024, 4096, 16384] {
        let measure =
            |s: Scenario, shape: TreeShape| s.size(size).tree(shape).warmup(5).iters(50).run();
        // Binomial for the traditional scheme; TreeShape::auto() resolves to
        // the size-adapted (postal-optimal or pipeline k-ary) tree.
        let hb = measure(Scenario::host_based(16), TreeShape::Binomial);
        let nb = measure(Scenario::nic_based(16), TreeShape::auto());
        println!(
            "{size:>8}  {:>9.2} us  {:>9.2} us  {:>7.2}x  {:>13}",
            hb.latency.mean(),
            nb.latency.mean(),
            hb.latency.mean() / nb.latency.mean(),
            format!("{}/{:.1}", nb.height, nb.avg_fanout),
        );
    }
    println!(
        "\nThe NIC-based scheme wins everywhere: small messages avoid repeated\n\
         send-request processing (multisend), large messages pipeline packet\n\
         by packet through forwarding NICs without host involvement."
    );
}
