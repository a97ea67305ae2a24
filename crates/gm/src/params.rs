//! Calibration constants for the node model.
//!
//! Values are chosen to reproduce the published behaviour of the paper's
//! testbed (16 quad-SMP 700 MHz PIII nodes, 66 MHz/64-bit PCI, LANai 9.1 at
//! 133 MHz, Myrinet-2000): GM short-message one-way latency around 7 µs and
//! host overhead under 1 µs. Every constant can be overridden; the benchmark
//! harness uses the defaults. See DESIGN.md §4 for the rationale table.

use gm_proto::ProtoMutation;
use gm_sim::watch::{Detector, DetectorKind, Severity, Thresh};
use gm_sim::SimDuration;

/// All timing and resource parameters of a GM node (host + NIC + PCI).
#[derive(Clone, Debug)]
pub struct GmParams {
    // --- PCI bus (shared by SDMA and RDMA engines) ---
    /// Effective PCI bandwidth in bytes/second.
    pub pci_bandwidth: u64,
    /// Fixed startup cost per DMA transfer.
    pub dma_startup: SimDuration,

    // --- LANai processor (serial work loop) ---
    /// Processing a host send request into a send token and per-packet
    /// bookkeeping (the cost the NIC-based multisend avoids repeating).
    pub send_token_proc: SimDuration,
    /// Handling one received data packet (seq check, token match, ack gen).
    pub recv_proc: SimDuration,
    /// Handling one received ack packet.
    pub ack_proc: SimDuration,
    /// A packet-descriptor callback: rewrite the header and requeue the
    /// packet for transmission (the GM-2 mechanism the multisend uses).
    pub callback_proc: SimDuration,
    /// Processing a host extension request (e.g. posting a multicast send).
    pub ext_req_proc: SimDuration,
    /// Per-child cost of installing group-membership entries in the NIC
    /// group table (paid once per group, on creation).
    pub group_install_per_child: SimDuration,
    /// Fixed cost of a group-table update.
    pub group_install_base: SimDuration,

    // --- Host processor ---
    /// Posting a send event to the NIC ("host overhead over GM is < 1 µs").
    pub host_send_post: SimDuration,
    /// Handling a receive-event notification (not counting data copy).
    pub host_recv_event: SimDuration,
    /// Handling a send-completion notification.
    pub host_send_complete: SimDuration,
    /// Posting a receive buffer.
    pub host_provide_recv: SimDuration,
    /// Posting an extension request.
    pub host_ext_post: SimDuration,

    // --- Protocol ---
    /// Go-Back-N retransmission timeout. GM's firmware used resend timers
    /// in the tens of milliseconds; anything tighter than the worst
    /// congested round-trip causes spurious Go-Back-N storms (each timer
    /// also backs off exponentially with the retry count).
    pub timeout: SimDuration,
    /// Maximum unacked packets per unicast connection.
    pub send_window: usize,
    /// Send tokens per port (outstanding host send requests).
    pub send_tokens: usize,
    /// Unicast ack coalescing window: instead of acking every data packet,
    /// the receiving NIC sends one cumulative ack this long after the first
    /// unacknowledged packet (ZERO = ack per packet, GM-2-alpha behaviour).
    /// Multicast acks are never coalesced — they gate the root's completion
    /// notice and the forwarding pipeline's record cleanup.
    pub ack_coalesce: SimDuration,

    // --- NIC SRAM ---
    /// Packet-sized send buffers (gates SDMA-ahead).
    pub send_buffers: usize,
    /// Packet-sized receive buffers (a packet with no free buffer is
    /// dropped, as in GM, and recovered by retransmission).
    pub recv_buffers: usize,
    /// Group-table slots: how many multicast groups a NIC can hold state
    /// for simultaneously ("per-group state only" lives in SRAM, so the
    /// table is an exhaustible resource like tokens and buffers). Installs
    /// past capacity queue deterministically at the NIC until a group is
    /// left.
    pub group_table_slots: usize,

    // --- Verification ---
    /// Deliberately seeded protocol bug for model↔implementation conformance
    /// tests (see `gm_proto` and `crates/simcheck`). Always
    /// [`ProtoMutation::None`] outside those tests.
    pub mutation: ProtoMutation,
}

impl Default for GmParams {
    fn default() -> Self {
        GmParams {
            pci_bandwidth: 450_000_000,
            dma_startup: SimDuration::from_nanos(600),
            send_token_proc: SimDuration::from_nanos(3_200),
            recv_proc: SimDuration::from_nanos(1_000),
            ack_proc: SimDuration::from_nanos(450),
            callback_proc: SimDuration::from_nanos(450),
            ext_req_proc: SimDuration::from_nanos(3_200),
            group_install_per_child: SimDuration::from_nanos(250),
            group_install_base: SimDuration::from_nanos(2_000),
            host_send_post: SimDuration::from_nanos(500),
            host_recv_event: SimDuration::from_nanos(650),
            host_send_complete: SimDuration::from_nanos(300),
            host_provide_recv: SimDuration::from_nanos(150),
            host_ext_post: SimDuration::from_nanos(400),
            timeout: SimDuration::from_millis(20),
            send_window: 64,
            send_tokens: 64,
            ack_coalesce: SimDuration::ZERO,
            send_buffers: 4,
            recv_buffers: 64,
            group_table_slots: 32,
            mutation: ProtoMutation::None,
        }
    }
}

impl GmParams {
    /// DMA duration for `bytes` over the PCI bus, including startup.
    pub fn dma_time(&self, bytes: u64) -> SimDuration {
        self.dma_startup + SimDuration::for_bytes(bytes, self.pci_bandwidth)
    }

    /// The built-in health-detector set (`sim::watch`), with thresholds
    /// derived from this node's resource parameters so detectors track
    /// whatever capacities a run actually configured:
    ///
    /// * **`retx_storm`** — a Go-Back-N rewind resends the unacked window
    ///   in one burst, so cumulative retransmissions growing by a window's
    ///   worth within one detector window is the storm signature (isolated
    ///   single-packet recoveries stay below it).
    /// * **`send_token_starvation`** / **`sram_starvation`** — the token and
    ///   buffer pools the paper's flow-control argument rests on, pinned at
    ///   100% occupancy for consecutive windows.
    /// * **`group_table_saturation`** / **`group_admission_backpressure`** —
    ///   the exhaustible per-group SRAM state: a full table sustained over
    ///   time, and installs that had to queue for a slot.
    pub fn watch_detectors(&self) -> Vec<Detector> {
        vec![
            Detector {
                id: "retx_storm",
                severity: Severity::Critical,
                kind: DetectorKind::RateOfChange {
                    gauge: "retx_total",
                    // One full-window rewind per millisecond; with the
                    // default 100 µs detector window this needs a burst of
                    // `send_window / 10` inside one window to fire.
                    rate: Thresh::per_ms((self.send_window as u64).max(4)),
                },
            },
            Detector {
                id: "send_token_starvation",
                severity: Severity::Warn,
                kind: DetectorKind::Saturation {
                    gauge: "send_tokens_used",
                    capacity: self.send_tokens as u64,
                    pct: Thresh::pct(100),
                    sustain: 2,
                },
            },
            Detector {
                id: "sram_starvation",
                severity: Severity::Warn,
                kind: DetectorKind::Saturation {
                    gauge: "sram_used",
                    capacity: (self.send_buffers + self.recv_buffers) as u64,
                    pct: Thresh::pct(100),
                    sustain: 2,
                },
            },
            Detector {
                id: "group_table_saturation",
                severity: Severity::Warn,
                kind: DetectorKind::Saturation {
                    gauge: "groups_used",
                    capacity: self.group_table_slots as u64,
                    pct: Thresh::pct(100),
                    sustain: 2,
                },
            },
            Detector {
                id: "group_admission_backpressure",
                severity: Severity::Info,
                kind: DetectorKind::Counter {
                    key: "nic.mcast_group_admission_waits",
                    min: Thresh::count(1),
                },
            },
        ]
    }
}

/// MPICH-GM's largest eager-mode message; broadcasts above this fall back to
/// the host-based path (paper §6.2).
pub const EAGER_LIMIT: usize = 16_287;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = GmParams::default();
        assert!(p.host_send_post < SimDuration::from_micros(1), "host overhead must be sub-microsecond");
        assert!(p.send_token_proc > p.callback_proc, "multisend must save processing");
        assert!(p.send_buffers >= 1 && p.recv_buffers >= 1);
    }

    #[test]
    fn dma_time_scales() {
        let p = GmParams::default();
        let small = p.dma_time(8);
        let large = p.dma_time(4096);
        assert!(large > small);
        assert!(small >= p.dma_startup);
        // 4096B at 450MB/s is ~9.1us plus startup.
        let expect_ns = 600 + (4096f64 * 1e9 / 450e6).ceil() as u64;
        assert_eq!(large.as_nanos(), expect_ns);
    }
}
