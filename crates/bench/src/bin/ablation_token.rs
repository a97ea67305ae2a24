//! Ablation: where a forwarding NIC gets its transmit token (paper §5
//! "Messages Forwarding", first design issue).
//!
//! The paper transforms the receive token into a send token because
//! grabbing one from the free pool "can lead to the possibility of deadlock
//! when the intermediate nodes are running out of send tokens". We compare
//! both policies while shrinking the send-token pool: the transform policy
//! is immune; the free-pool policy stalls forwarding whenever the pool runs
//! dry (visible as `mcast_fwd_token_stall` events and inflated latency).

use bench::{par_map, us, CliOpts, Table};
use gm::GmParams;
use nic_mcast::{FwdTokenPolicy, McastConfig, Scenario, TreeShape};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    send_tokens: usize,
    transform_us: f64,
    freepool_us: f64,
    freepool_stalls: u64,
}

fn measure(tokens: usize, policy: FwdTokenPolicy, iters: u32, warmup: u32) -> (f64, u64) {
    let params = GmParams {
        send_tokens: tokens,
        ..GmParams::default()
    };
    let rep = Scenario::nic_based(16)
        .size(8192)
        .tree(TreeShape::Binomial)
        .warmup(warmup)
        .iters(iters)
        .params(params)
        .config(McastConfig {
            fwd_token: policy,
            ..McastConfig::default()
        })
        .run();
    (
        rep.latency.mean(),
        rep.metrics.get("nic.mcast_fwd_token_stall"),
    )
}

fn main() {
    let opts = CliOpts::parse();
    let results: Vec<Point> = par_map(vec![64usize, 8, 4, 2, 1], |&tokens| {
        let (transform_us, tstalls) = measure(
            tokens,
            FwdTokenPolicy::TransformRecv,
            opts.iters,
            opts.warmup,
        );
        assert_eq!(tstalls, 0, "transform policy never touches the pool");
        let (freepool_us, freepool_stalls) =
            measure(tokens, FwdTokenPolicy::FreePool, opts.iters, opts.warmup);
        Point {
            send_tokens: tokens,
            transform_us,
            freepool_us,
            freepool_stalls,
        }
    });

    let mut t = Table::new(
        "Forward-token ablation: 8KB multicast over 16 nodes",
        &[
            "send tokens",
            "transform (us)",
            "free pool (us)",
            "pool stalls",
        ],
    );
    for p in &results {
        t.row(vec![
            p.send_tokens.to_string(),
            us(p.transform_us),
            us(p.freepool_us),
            p.freepool_stalls.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nThe receive-token transformation (the paper's choice) is insensitive\n\
         to pool size; the free-pool policy stalls forwarding as tokens dry up."
    );
    opts.write_json("ablation_token", &results);
}
