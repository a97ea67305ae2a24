//! Golden test for the `gm::trace` → probe-layer port.
//!
//! PR 3 replaced the bespoke protocol trace with `gm_sim::probe`. The files
//! under `tests/golden/` hold the *pre-port* trace output for two Figure-2
//! runs, captured before the old module was deleted. Rendering the probe
//! event stream back into the legacy line format must reproduce them
//! byte-for-byte — proving the port lost no event, reordered nothing, and
//! shifted no timestamp — and must be identical across seeded runs.

use gm_sim::probe::{Phase, ProbeConfig, ProbeEvent};
use nic_mcast::{build_cluster, McastMode, McastRun, TreeShape};

/// Render a probe event in the legacy `gm::trace` debug format, or `None`
/// for event kinds the old trace did not record (host busy spans, wire
/// flight, stalls, drops, timers).
fn legacy_line(e: &ProbeEvent) -> Option<String> {
    let what = match (e.id.name, e.phase) {
        ("host_call", Phase::Mark) => format!("HostCall({:?})", e.label),
        ("lanai", Phase::Begin) => format!("LanaiStart({:?})", e.label),
        ("lanai", Phase::End) => format!("LanaiEnd({:?})", e.label),
        ("pci_dma", Phase::Begin) => format!("DmaStart {{ ns: {} }}", e.a),
        ("pci_dma", Phase::End) => "DmaEnd".to_string(),
        ("wire_tx", Phase::Begin) => {
            format!("TxStart {{ dst: NodeId({}), bytes: {} }}", e.a, e.b)
        }
        ("wire_tx", Phase::End) => "TxEnd".to_string(),
        ("rx_arrive", Phase::Mark) => format!("RxArrive {{ src: NodeId({}) }}", e.a),
        ("notice", Phase::Mark) => format!("Notice({:?})", e.label),
        _ => return None,
    };
    Some(format!("{} n{} {}", e.time.as_nanos(), e.node, what))
}

fn rendered_trace(shape: TreeShape) -> String {
    let mut run = McastRun::new(5, 1024, McastMode::NicBased, shape);
    run.warmup = 0;
    run.iters = 1;
    let mut cluster = build_cluster(&run);
    cluster.set_probes(ProbeConfig::spans());
    let d = gm::drive(cluster, 1);
    let mut out = String::new();
    for e in d.worlds[0].probe.iter() {
        if let Some(line) = legacy_line(e) {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn flat_multisend_timeline_matches_the_pre_port_trace() {
    let got = rendered_trace(TreeShape::Flat);
    let want = include_str!("golden/golden_fig2_flat_nic.txt");
    assert_eq!(got, want, "probe port changed the flat multisend timeline");
}

#[test]
fn chain_forwarding_timeline_matches_the_pre_port_trace() {
    let got = rendered_trace(TreeShape::Chain);
    let want = include_str!("golden/golden_fig2_chain_nic.txt");
    assert_eq!(got, want, "probe port changed the chain forwarding timeline");
}

#[test]
fn timelines_are_byte_identical_across_runs() {
    assert_eq!(rendered_trace(TreeShape::Flat), rendered_trace(TreeShape::Flat));
    assert_eq!(rendered_trace(TreeShape::Chain), rendered_trace(TreeShape::Chain));
}
