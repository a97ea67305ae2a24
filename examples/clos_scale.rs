//! Scalability beyond the paper's testbed: the paper evaluated on a
//! 16-node cluster and left large-system scalability as future work ("we
//! intend to study its scalability in large scale systems"). The simulated
//! substrate has no such limit: this example runs the same GM-level
//! comparison over two-level Clos fabrics up to 128 nodes.
//!
//! Run with: `cargo run --release --example clos_scale`

use myri_mcast::net::{TopoKind, Topology};
use myri_mcast::{McastMode, Scenario, TreeShape};

fn main() {
    println!("NIC-based vs host-based multicast at scale (256-byte messages)\n");
    println!(
        "{:>6}  {:>10}  {:>12}  {:>12}  {:>8}",
        "nodes", "topology", "host-based", "NIC-based", "speedup"
    );
    for n in [8u32, 16, 32, 64, 128] {
        let topo = Topology::for_nodes(n);
        let kind = match topo.kind() {
            TopoKind::SingleCrossbar => "crossbar".to_string(),
            TopoKind::Clos { leaves, spines, .. } => format!("clos {leaves}x{spines}"),
        };
        // TreeShape::auto() accounts for route depth (4 hops cross-leaf in
        // a two-level Clos) when picking the size-adapted tree.
        let measure = |mode: McastMode, shape: TreeShape| {
            Scenario::new(n, mode)
                .size(256)
                .tree(shape)
                .warmup(3)
                .iters(30)
                .run()
                .latency
                .mean()
        };
        let hb = measure(McastMode::HostBased, TreeShape::Binomial);
        let nb = measure(McastMode::NicBased, TreeShape::auto());
        println!(
            "{n:>6}  {kind:>10}  {:>9.2} us  {:>9.2} us  {:>7.2}x",
            hb,
            nb,
            hb / nb
        );
    }
    println!(
        "\nThe advantage grows with system size: deeper trees mean more\n\
         intermediate hosts removed from the critical path, with no\n\
         centralized resource anywhere in the scheme."
    );
}
