//! Interactive explorer: run one multicast configuration from the command
//! line and print everything the simulator measured.
//!
//! ```console
//! cargo run --release -p bench --bin explore -- \
//!     --nodes 16 --size 4096 --mode nic --shape adaptive --loss 0.01 --iters 50
//! ```

use bench::cli::{self, mode_name};
use nic_mcast::SpanningTree;

fn print_tree(tree: &SpanningTree, node: myrinet::NodeId, depth: usize) {
    println!("{:indent$}{node}", "", indent = depth * 2);
    for &c in tree.children(node) {
        print_tree(tree, c, depth + 1);
    }
}

fn main() {
    let (built, show_tree) = cli::parse_or_exit(cli::EXPLORE, |a| {
        let scenario = cli::scenario(a, cli::mode(a)?, 1024, 100, 10)?;
        Ok((cli::build(scenario)?, a.has("--tree")))
    });
    let spec = built.spec();
    let shape = spec.shape;
    if show_tree {
        let tree = SpanningTree::build(spec.root, &spec.dests, shape);
        println!("spanning tree ({shape:?}):");
        print_tree(&tree, spec.root, 0);
        println!();
    }
    let out = built.run();
    println!(
        "{} multicast, {} nodes, {} bytes, shape {:?}, loss {:.2}%",
        mode_name(spec.mode),
        spec.n_nodes,
        spec.size,
        shape,
        spec.faults.drop_prob * 100.0,
    );
    println!("  latency (mean):   {:>10.2} us", out.latency.mean());
    println!("  latency (p50):    {:>10.2} us", out.latency_p50);
    println!("  latency (p99):    {:>10.2} us", out.latency_p99);
    println!("  latency (stddev): {:>10.2} us", out.latency.stddev());
    println!("  tree height:      {:>10}", out.height);
    println!("  avg fan-out:      {:>10.2}", out.avg_fanout);
    println!("  retransmissions:  {:>10}", out.retransmissions);
    println!(
        "  root link util:   {:>9.1}%",
        out.root_link_utilization * 100.0
    );
    println!("  sim events:       {:>10}", out.events);
    println!("  sim time:         {:>10}", out.end_time);
}
