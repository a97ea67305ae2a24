//! Ablation: retransmission data source at forwarding NICs (paper §5
//! "Messages Forwarding", second design issue).
//!
//! The "naive solution" holds the NIC receive buffer until every child has
//! acknowledged — but "the NIC receive buffer is a limited resource, and
//! holding on to one or more receive buffers will slow down the receiver or
//! even block the network". The paper instead frees the buffer when
//! forwarding completes and retransmits from the registered host-memory
//! replica. We shrink the receive-buffer pool and stream back-to-back
//! multicasts: the hold-SRAM policy exhausts buffers (visible as
//! `rx_drop_no_sram` drops and timeout recoveries), the host-memory policy
//! does not.

use bench::{par_map, us, CliOpts, Table};
use gm::GmParams;
use nic_mcast::{McastConfig, RetxBufferPolicy, Scenario, TreeShape};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    recv_buffers: usize,
    host_memory_us: f64,
    hold_sram_us: f64,
    hold_sram_drops: u64,
    host_memory_drops: u64,
}

fn measure(bufs: usize, policy: RetxBufferPolicy, iters: u32, warmup: u32) -> (f64, u64) {
    let params = GmParams {
        recv_buffers: bufs,
        ..GmParams::default()
    };
    // Mild loss delays some acknowledgments by the retransmission timeout
    // (`GmParams::timeout`, 20 ms by default), so the hold-SRAM policy
    // keeps buffers pinned long enough to starve the pool.
    let rep = Scenario::nic_based(16)
        .size(16384)
        .tree(TreeShape::Binomial)
        .warmup(warmup)
        .iters(iters)
        .loss(0.01)
        .params(params)
        .config(McastConfig {
            retx_buffer: policy,
            ..McastConfig::default()
        })
        .run();
    (rep.latency.mean(), rep.metrics.get("nic.rx_drop_no_sram"))
}

fn main() {
    let opts = CliOpts::parse();
    let results: Vec<Point> = par_map(vec![64usize, 12, 8, 6], |&bufs| {
        let (host_memory_us, host_memory_drops) =
            measure(bufs, RetxBufferPolicy::HostMemory, opts.iters, opts.warmup);

        let (hold_sram_us, hold_sram_drops) =
            measure(bufs, RetxBufferPolicy::HoldSram, opts.iters, opts.warmup);
        Point {
            recv_buffers: bufs,
            host_memory_us,
            hold_sram_us,
            hold_sram_drops,
            host_memory_drops,
        }
    });

    let mut t = Table::new(
        "Retransmit-buffer ablation: 16KB multicast over 16 nodes",
        &[
            "recv bufs",
            "host-mem (us)",
            "hold-SRAM (us)",
            "host-mem drops",
            "hold-SRAM drops",
        ],
    );
    for p in &results {
        t.row(vec![
            p.recv_buffers.to_string(),
            us(p.host_memory_us),
            us(p.hold_sram_us),
            p.host_memory_drops.to_string(),
            p.hold_sram_drops.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nHolding SRAM buffers until children ack starves the receive path as\n\
         the pool shrinks; retransmitting from host memory (the paper's choice)\n\
         keeps the pipeline full."
    );
    opts.write_json("ablation_retx_buffer", &results);
}
