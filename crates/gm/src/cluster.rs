//! The composed world: N hosts, N NICs, one fabric.
//!
//! `Cluster<X>` implements [`gm_sim::World`]; its event alphabet [`Ev`]
//! covers every hand-off in the system (host call arrival, LANai work
//! completion, DMA completion, wire drain, packet arrival, timers, notice
//! delivery). All protocol logic lives in [`NicCore`] and the installed
//! extension; this module only routes events and converts NIC intents into
//! scheduled events.
//!
//! Events are thin: an [`Ev`] is at most a node id and a `u32` (12 bytes),
//! with no extension type parameter, so the event queue moves it inline.
//! Each payload parks with the node that owns it until its event fires —
//! host calls, arriving packets and timer tags in per-node slabs, notices
//! in a per-node FIFO, the one in-flight transmit callback in the node's
//! slot, the running LANai work item and DMA job at the front of the NIC's
//! own queues — and packet hand-offs in the cluster's wire slab.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

use gm_sim::probe::{ProbeConfig, ProbeSink};
use gm_sim::{
    Engine, FlowId, GaugeId, OutMsg, Scheduler, SeriesConfig, SeriesSink, SimDuration, SimTime,
    Slab, World, FLOW_DELIVERY,
};
use myrinet::{Fabric, NodeId, Packet, RxOutcome, WireHandoff};

use crate::ext::NicExtension;
use crate::host::{Host, HostApp, HostCall, HostCtx};
use crate::nic::{flow_of_packet, Cb, NicCore, Notice, TimerTag, TxJob};
use crate::params::GmParams;

/// The cluster's scheduler: its events, and packets as the hand-offs
/// between shards.
type Sched = Scheduler<Ev, WireHandoff>;

/// The probe points the cluster records (see `gm_sim::probe`). Every
/// hand-off the old `gm::trace` captured maps onto one of these, plus host
/// busy intervals, wire flight, link stalls, drops and timer fires.
pub mod probes {
    use gm_sim::probe::{ProbeId, Track};

    /// A host call reached the NIC (doorbell). Label: `"send"` / `"ext"`.
    pub static HOST_CALL: ProbeId = ProbeId::new("host_call", Track::Host);
    /// Host CPU busy interval (API overhead, notice handling, compute).
    pub static HOST_BUSY: ProbeId = ProbeId::new("host_busy", Track::Host);
    /// A notice was delivered to the host application. Label: notice kind.
    pub static NOTICE: ProbeId = ProbeId::new("notice", Track::Host);
    /// LANai work-item span. Label: work kind (`"send_token"`, ...).
    pub static LANAI: ProbeId = ProbeId::new("lanai", Track::Lanai);
    /// PCI DMA transfer span. Payload `a`: transfer nanoseconds.
    pub static PCI_DMA: ProbeId = ProbeId::new("pci_dma", Track::Pci);
    /// Wire serialization span on the injection link. Payload: `a` =
    /// destination node, `b` = wire bytes.
    pub static WIRE_TX: ProbeId = ProbeId::new("wire_tx", Track::Wire);
    /// Flight of a packet to its destination (propagation + switching +
    /// eject serialization), recorded on the destination's wire track.
    pub static WIRE_FLIGHT: ProbeId = ProbeId::new("wire_flight", Track::Wire);
    /// A packet's tail arrived from the wire. Payload `a`: source node.
    pub static RX_ARRIVE: ProbeId = ProbeId::new("rx_arrive", Track::Wire);
    /// A NIC timer fired. Label: `"conn"` / `"ack_flush"` / `"ext"`.
    pub static NIC_TIMER: ProbeId = ProbeId::new("nic_timer", Track::Lanai);

    pub use gm_sim::probe::{LINK_STALL, PKT_DROP};
}

/// The cluster's event alphabet. Each variant names the node it runs on
/// and, where the event carries a payload, the id under which the payload
/// is parked (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ev {
    /// Kick a node's application.
    AppStart(NodeId),
    /// A host call (post-overhead) arrives at the NIC (id into the node's
    /// host-call slab).
    HostCall(NodeId, u32),
    /// The front of the node's notice FIFO reaches the host (delivered when
    /// the CPU is free). Notices are scheduled `immediately`, so they fire
    /// in the order they were queued.
    NoticeArrive(NodeId),
    /// The host CPU freed up; deliver pending notices.
    HostWake(NodeId),
    /// The node's running LANai work item finished (it waits at the front
    /// of the NIC's work queue; the LANai runs one item at a time).
    LanaiDone(NodeId),
    /// The node's running PCI DMA transfer finished (it waits at the front
    /// of the NIC's DMA queue).
    PciDone(NodeId),
    /// The transmit engine finished serializing the node's in-flight packet
    /// (its callback waits in the node's slot; the engine sends one packet
    /// at a time).
    TxDrained(NodeId),
    /// A packet's tail arrived at a NIC (id into the node's packet slab).
    PacketArrive(NodeId, u32),
    /// A timer fired (id into the node's timer slab).
    Timer(NodeId, u32),
    /// The receive stage of one [`WireHandoff`] (id into the wire slab),
    /// run at the instant its head reaches destination-owned links.
    /// Scheduled with [`Scheduler::at_wire`] under the hand-off's canonical
    /// `(src, wire_seq)` key, so it runs before any normal event of the
    /// instant and after every hand-off with a smaller key — the canonical
    /// position that makes sequential and sharded runs identical.
    WireRx(u32),
}

struct Slot<X: NicExtension> {
    host: Host<X>,
    nic: NicCore<X>,
    ext: X,
    app: Option<Box<dyn HostApp<X>>>,
    /// Sends the GM library parked while the NIC was out of send tokens
    /// (a blocking `gm_send` queues client-side; replayed as tokens free).
    parked_sends: VecDeque<crate::nic::SendArgs>,
    /// Host calls on their way to the NIC ([`Ev::HostCall`]).
    calls: Slab<HostCall<X::Request>>,
    /// Notices on their way to the host, in firing order
    /// ([`Ev::NoticeArrive`]).
    notices: VecDeque<Notice<X::Notice>>,
    /// Packets whose tail arrival is scheduled ([`Ev::PacketArrive`]).
    packets: Slab<Packet>,
    /// Armed timers ([`Ev::Timer`]).
    timers: Slab<TimerTag<X::Tag>>,
    /// Descriptor callback of the packet on the wire ([`Ev::TxDrained`]).
    tx_cb: Option<Cb<X::Tag>>,
}

impl<X: NicExtension> Slot<X> {
    fn new(node: NodeId, params: &GmParams, ext: X) -> Self {
        Slot {
            host: Host::new(node),
            nic: NicCore::new(node, params.clone()),
            ext,
            app: Some(Box::new(crate::host::IdleApp)),
            parked_sends: VecDeque::new(),
            calls: Slab::new(),
            notices: VecDeque::new(),
            packets: Slab::new(),
            timers: Slab::new(),
            tx_cb: None,
        }
    }
}

/// The NIC gauges every pump samples, in sampling order.
const NIC_GAUGES: [&str; 8] = [
    "send_tokens_used",
    "recv_tokens_avail",
    "sram_used",
    "lanai_queue",
    "pci_queue",
    "tx_queue",
    "groups_used",
    "retx_total",
];

/// A series sink for `config` and the handles of [`NIC_GAUGES`] in it.
fn series_sink(config: SeriesConfig) -> (SeriesSink, [GaugeId; NIC_GAUGES.len()]) {
    let mut sink = SeriesSink::new(config);
    let gauges = NIC_GAUGES.map(|name| sink.gauge(name));
    (sink, gauges)
}

/// N nodes plus the fabric — or, in a sharded engine, one shard's
/// contiguous slice of them (plus that shard's fabric clone).
pub struct Cluster<X: NicExtension> {
    params: GmParams,
    fabric: Fabric,
    slots: Vec<Slot<X>>,
    start_times: Vec<SimTime>,
    /// Observability sink (disabled by default; see [`set_probes`](Self::set_probes)).
    pub probe: ProbeSink,
    /// Time-series gauge sink (disabled by default; see
    /// [`set_series`](Self::set_series)). Crate-private because
    /// `nic_gauges` must be its handles; [`harvest`](crate::harvest) hands
    /// it out.
    pub(crate) series: SeriesSink,
    /// Handles of [`NIC_GAUGES`] in `series`.
    nic_gauges: [GaugeId; NIC_GAUGES.len()],
    /// Owning shard of every node (all zero in an unsplit cluster).
    shard_of: Arc<Vec<u32>>,
    /// This cluster's shard index (0 in an unsplit cluster).
    my_shard: u32,
    /// Global node id of `slots[0]` (shards own contiguous node ranges).
    node_base: u32,
    /// Per-node expected-event-load weights guiding sharding (`None`:
    /// balance node counts). See
    /// [`set_partition_weights`](Self::set_partition_weights).
    partition_weights: Option<Vec<u64>>,
    /// Hand-offs whose receive stage is scheduled here ([`Ev::WireRx`]).
    wire: Slab<WireHandoff>,
}

impl<X: NicExtension> Cluster<X> {
    /// Build a cluster of `fabric.topology().n_nodes()` nodes. Extensions
    /// are produced per node by `mk_ext`; applications default to idle and
    /// are installed with [`set_app`](Self::set_app).
    pub fn new(params: GmParams, fabric: Fabric, mut mk_ext: impl FnMut(NodeId) -> X) -> Self {
        let n = fabric.topology().n_nodes();
        let slots = (0..n)
            .map(|i| Slot::new(NodeId(i), &params, mk_ext(NodeId(i))))
            .collect();
        let (series, nic_gauges) = series_sink(SeriesConfig::off());
        Cluster {
            params,
            fabric,
            slots,
            start_times: vec![SimTime::ZERO; n as usize],
            probe: ProbeSink::disabled(),
            series,
            nic_gauges,
            shard_of: Arc::new(vec![0; n as usize]),
            my_shard: 0,
            node_base: 0,
            partition_weights: None,
            wire: Slab::new(),
        }
    }

    /// Supply a per-node expected-event-load estimate (any cost model — the
    /// workload layer derives one from group membership, tree degree and
    /// arrival counts). A sharded engine then places shard boundaries with
    /// [`Topology::partition_weighted`](myrinet::Topology::partition_weighted),
    /// minimizing the heaviest shard's load instead of balancing node
    /// counts — less time parked at window barriers when the traffic is
    /// skewed. Weights steer *placement only*: results stay bit-for-bit
    /// identical at any shard count and any weighting, because shard
    /// ownership never affects event outcomes.
    pub fn set_partition_weights(&mut self, weights: Vec<u64>) {
        assert_eq!(
            weights.len(),
            self.n_nodes() as usize,
            "one weight per node"
        );
        self.partition_weights = Some(weights);
    }

    /// The shard map [`split`](Self::split) uses: weighted when
    /// [`set_partition_weights`](Self::set_partition_weights) was called,
    /// count-balanced otherwise.
    fn partition_map(&self, n_shards: u32) -> Vec<u32> {
        match &self.partition_weights {
            Some(w) => self.fabric.topology().partition_weighted(n_shards, w),
            None => self.fabric.topology().partition(n_shards),
        }
    }

    /// Install an observability configuration. With [`ProbeConfig::off`]
    /// (the default) no events are recorded and nothing is allocated.
    pub fn set_probes(&mut self, config: ProbeConfig) {
        self.probe = ProbeSink::new(config);
    }

    /// Install a time-series telemetry configuration. With
    /// [`SeriesConfig::off`] (the default) no gauges are sampled and
    /// nothing is allocated.
    pub fn set_series(&mut self, config: SeriesConfig) {
        (self.series, self.nic_gauges) = series_sink(config);
    }

    /// Number of nodes in the whole cluster (not just this shard's slice).
    pub fn n_nodes(&self) -> u32 {
        self.fabric.topology().n_nodes()
    }

    /// The global node ids this cluster (shard) owns.
    pub fn local_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.slots.len() as u32).map(|i| NodeId(self.node_base + i))
    }

    /// Index of `node` into this cluster's slot slice.
    #[inline]
    fn local(&self, node: NodeId) -> usize {
        debug_assert_eq!(
            self.shard_of[node.idx()],
            self.my_shard,
            "{node} is not owned by shard {}",
            self.my_shard
        );
        node.idx() - self.node_base as usize
    }

    /// The parameter set.
    pub fn params(&self) -> &GmParams {
        &self.params
    }

    /// The fabric (topology, parameters and counters).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Install `app` on `node`.
    pub fn set_app(&mut self, node: NodeId, app: Box<dyn HostApp<X>>) {
        let li = self.local(node);
        self.slots[li].app = Some(app);
    }

    /// The app installed on `node`, as the type it was installed as. After
    /// a run, this is how its measurements are read back.
    ///
    /// Panics if `node` runs an app of another type.
    pub fn app<A: HostApp<X>>(&self, node: NodeId) -> &A {
        let app: &dyn Any = self.slots[self.local(node)]
            .app
            .as_deref()
            .expect("no app callback is running");
        app.downcast_ref()
            .unwrap_or_else(|| panic!("{node} does not run a {}", std::any::type_name::<A>()))
    }

    /// Set the time `node`'s application starts.
    pub fn set_start(&mut self, node: NodeId, at: SimTime) {
        self.start_times[node.idx()] = at;
    }

    /// A node's NIC (counters, token state).
    pub fn nic(&self, node: NodeId) -> &NicCore<X> {
        &self.slots[self.local(node)].nic
    }

    /// A node's host (CPU accounting).
    pub fn host(&self, node: NodeId) -> &Host<X> {
        &self.slots[self.local(node)].host
    }

    /// A node's extension state.
    pub fn ext(&self, node: NodeId) -> &X {
        &self.slots[self.local(node)].ext
    }

    /// Every node's application start, as `(node, time)`.
    fn app_starts(&self) -> Vec<(NodeId, SimTime)> {
        let nodes = (0..).map(NodeId);
        nodes.zip(self.start_times.iter().copied()).collect()
    }

    /// Why this cluster cannot be split `n_shards` ways (`None` = it can).
    /// Infeasible configurations run on one shard instead.
    pub fn shard_infeasible(&self, n_shards: u32) -> Option<&'static str> {
        if n_shards <= 1 {
            return Some("a single shard was requested");
        }
        if !self.fabric.faults().rules.is_empty() {
            // Rule counters decrement on match; with shards deciding fates
            // independently the count-down order would be racy.
            return Some("targeted drop rules carry shared count-down state");
        }
        let part = self.partition_map(n_shards);
        if part.iter().max().copied().unwrap_or(0) == 0 {
            return Some("the topology has a single indivisible placement unit");
        }
        None
    }

    /// Wrap in an engine of (at most) `n_shards` shards, with every node's
    /// `AppStart` scheduled on its owning shard. A request that
    /// [`shard_infeasible`](Self::shard_infeasible) refuses gets one shard.
    /// The results are bit-for-bit the same at any shard count: shards
    /// change only the wall-clock parallelism.
    pub fn into_engine(self, n_shards: u32) -> Engine<Cluster<X>> {
        assert_eq!(
            self.slots.len(),
            self.n_nodes() as usize,
            "into_engine on a shard slice"
        );
        let starts = self.app_starts();
        let mut eng = if self.shard_infeasible(n_shards).is_some() {
            Engine::new(self)
        } else {
            let (shards, lookahead) = self.split(n_shards);
            Engine::sharded(shards, lookahead)
        };
        let shard_of = Arc::clone(&eng.world(0).shard_of);
        for (node, at) in starts {
            eng.schedule(shard_of[node.idx()] as usize, at, Ev::AppStart(node));
        }
        eng
    }

    /// Split a cluster [`shard_infeasible`](Self::shard_infeasible) accepts
    /// into per-shard clusters plus the window lookahead. Each shard owns a
    /// contiguous, fabric-partition-aligned range of nodes and a clone of
    /// the (still pristine) fabric; disjoint link ownership under the
    /// two-stage wire protocol keeps the clones consistent.
    fn split(self, n_shards: u32) -> (Vec<Cluster<X>>, SimDuration) {
        let shard_of = Arc::new(self.partition_map(n_shards));
        let lookahead = self
            .fabric
            .cross_lookahead(&shard_of)
            .expect("feasible partitions have cross-shard pairs");
        let actual = shard_of.iter().max().copied().unwrap_or(0) + 1;
        let config = self.probe.config();
        let series_config = self.series.config();
        let mut shards = Vec::with_capacity(actual as usize);
        let mut slots = self.slots.into_iter();
        let mut node_base = 0u32;
        for s in 0..actual {
            let count = shard_of.iter().filter(|&&x| x == s).count();
            let (series, nic_gauges) = series_sink(series_config);
            shards.push(Cluster {
                params: self.params.clone(),
                fabric: self.fabric.clone(),
                slots: slots.by_ref().take(count).collect(),
                start_times: self.start_times.clone(),
                probe: ProbeSink::new(config),
                series,
                nic_gauges,
                shard_of: Arc::clone(&shard_of),
                my_shard: s,
                node_base,
                partition_weights: None,
                wire: Slab::new(),
            });
            node_base += count as u32;
        }
        (shards, lookahead)
    }

    // -- internals -----------------------------------------------------------

    /// Run an app callback on `node` and pump the fallout.
    fn with_app(
        &mut self,
        node: NodeId,
        sched: &mut Sched,
        f: impl FnOnce(&mut dyn HostApp<X>, &mut HostCtx<'_, X>),
    ) {
        self.with_app_from(node, sched, None, f);
    }

    /// Like [`with_app`](Self::with_app), but the host-busy span opens at
    /// `busy_from` if given (used when cost was charged before the callback,
    /// e.g. notice handling overhead).
    fn with_app_from(
        &mut self,
        node: NodeId,
        sched: &mut Sched,
        busy_from: Option<SimTime>,
        f: impl FnOnce(&mut dyn HostApp<X>, &mut HostCtx<'_, X>),
    ) {
        let now = sched.now();
        let li = self.local(node);
        let slot = &mut self.slots[li];
        let busy_from = busy_from.unwrap_or_else(|| slot.host.free_at().max(now));
        let mut app = slot.app.take().expect("app re-entry");
        {
            let mut ctx = HostCtx::new(&mut slot.host, &self.params, &mut self.probe, now);
            f(app.as_mut(), &mut ctx);
        }
        slot.app = Some(app);
        let free_after = slot.host.free_at();
        if free_after > busy_from {
            let dur = free_after.saturating_since(busy_from);
            self.probe
                .complete(busy_from, node.0, &probes::HOST_BUSY, dur, "");
        }
        self.pump_host(node, sched);
        self.pump_nic(node, sched);
    }

    /// Schedule the host calls an app produced.
    fn pump_host(&mut self, node: NodeId, sched: &mut Sched) {
        let li = self.local(node);
        let slot = &mut self.slots[li];
        for (at, call) in slot.host.calls.drain(..) {
            sched.at(at, Ev::HostCall(node, slot.calls.insert(call)));
        }
    }

    /// Convert NIC intents into scheduled events. Iterates until the NIC is
    /// quiescent: a pump step may free a resource another intent was
    /// waiting on (e.g. a drained tx freeing a send buffer enqueues a new
    /// DMA). Each pass schedules at least one completion event, so the loop
    /// terminates.
    fn pump_nic(&mut self, node: NodeId, sched: &mut Sched) {
        let now = sched.now();
        let li = self.local(node);
        self.slots[li].nic.set_now(now);
        // Null-pump early exit: roughly a third of pumps arrive with no
        // startable work, nothing to drain, and no replayable parked send —
        // the body below would be a pure no-op for them. Gauges may still
        // have moved (the event arm that called us mutated NIC state first),
        // so fall through to the sample either way.
        let slot = &mut self.slots[li];
        if slot.nic.wants_pump()
            || (!slot.parked_sends.is_empty() && slot.nic.send_tokens_free() > 0)
        {
            loop {
                let slot = &mut self.slots[li];
                // Replay parked sends as tokens free up.
                while slot.nic.send_tokens_free() > 0 {
                    let Some(args) = slot.parked_sends.pop_front() else {
                        break;
                    };
                    let accepted = slot.nic.host_send(args);
                    debug_assert!(accepted, "token accounting out of sync");
                }
                if let Some(cost) = slot.nic.lanai_start() {
                    // Flow attribution walks token/record maps; only pay for
                    // it when probes are actually recording.
                    if self.probe.is_enabled() {
                        let flow = slot.nic.flow_of_work(&slot.ext);
                        let name = slot.nic.work_kind();
                        self.probe
                            .begin_flow(now, node.0, &probes::LANAI, name, 0, 0, flow);
                    }
                    sched.after(cost, Ev::LanaiDone(node));
                }
                if let Some(dur) = slot.nic.pci_start() {
                    if self.probe.is_enabled() {
                        let flow = slot.nic.flow_of_pci(&slot.ext);
                        self.probe.begin_flow(
                            now,
                            node.0,
                            &probes::PCI_DMA,
                            "dma",
                            dur.as_nanos(),
                            0,
                            flow,
                        );
                    }
                    sched.after(dur, Ev::PciDone(node));
                }
                if let Some(TxJob { pkt, cb }) = slot.nic.tx_start() {
                    if self.probe.is_enabled() {
                        self.probe.begin_flow(
                            now,
                            node.0,
                            &probes::WIRE_TX,
                            "tx",
                            u64::from(pkt.dst.0),
                            pkt.wire_bytes(),
                            flow_of_packet(&pkt),
                        );
                    }
                    let tx = self.fabric.tx_stage(now, pkt);
                    let stall = self.fabric.last_inject_stall();
                    if stall > SimDuration::ZERO && self.probe.is_enabled() {
                        let flow = flow_of_packet(&tx.handoff.pkt);
                        self.probe
                            .complete_flow(now, node.0, &probes::LINK_STALL, stall, "", flow);
                    }
                    sched.at(tx.src_free, Ev::TxDrained(node));
                    let slot = &mut self.slots[li];
                    debug_assert!(slot.tx_cb.is_none(), "{node}: two packets on the wire");
                    slot.tx_cb = Some(cb);
                    let h = tx.handoff;
                    let dst_shard = self.shard_of[h.pkt.dst.idx()];
                    if dst_shard == self.my_shard {
                        // Local receive: the same keyed wire-class position a
                        // cross-shard hand-off gets.
                        self.park_handoff(h, sched);
                    } else {
                        let (src, seq) = (u64::from(h.pkt.src.0), h.wire_seq);
                        sched.send(dst_shard, h.head_at, src, seq, h);
                    }
                }
                let slot = &mut self.slots[li];
                if slot.nic.take_resource_signal() {
                    slot.ext.resources_available(&mut slot.nic);
                }
                // Drain in place (keeps the Vecs' capacity) instead of the
                // pub `drain_*` methods, which swap in fresh Vecs — this loop
                // runs per pump and must not churn the allocator.
                for (delay, tag) in slot.nic.timer_reqs.drain(..) {
                    sched.after(delay, Ev::Timer(node, slot.timers.insert(tag)));
                }
                for notice in slot.nic.notices.drain(..) {
                    slot.notices.push_back(notice);
                    sched.immediately(Ev::NoticeArrive(node));
                }
                if !self.slots[li].nic.wants_pump() {
                    break;
                }
            }
        }
        self.sample_nic_gauges(node, now);
    }

    /// Sample this node's resource gauges into the series sink. Gauges are
    /// step functions of NIC state only, so the stream is identical whether
    /// the node runs on one shard or many; consecutive equal samples
    /// deduplicate inside the sink.
    fn sample_nic_gauges(&mut self, node: NodeId, now: SimTime) {
        if !self.series.is_enabled() {
            return;
        }
        let li = self.local(node);
        let nic = &self.slots[li].nic;
        // Cumulative retransmissions (unicast Go-Back-N + multicast) sampled
        // as a step function of NIC state, so rate-of-change health
        // detectors (`sim::watch`) can resolve storms in time. Consecutive
        // equal samples deduplicate inside the sink, so the quiet case costs
        // one comparison per pump.
        let values = [
            nic.send_tokens_used() as u64,
            nic.recv_tokens_avail() as u64,
            nic.sram_buffers_used() as u64,
            nic.lanai_queue_len() as u64,
            nic.pci_queue_len() as u64,
            nic.tx_queue_len() as u64,
            nic.groups_used() as u64,
            nic.retransmissions(),
        ];
        for (gauge, value) in self.nic_gauges.into_iter().zip(values) {
            self.series.record_gauge(now, node.0, gauge, value);
        }
    }

    /// Park a hand-off whose receive stage runs on this shard and schedule
    /// it at its head arrival under its canonical `(src, wire_seq)` key.
    fn park_handoff(&mut self, h: WireHandoff, sched: &mut Sched) {
        let (at, src, seq) = (h.head_at, u64::from(h.pkt.src.0), h.wire_seq);
        sched.at_wire(at, src, seq, Ev::WireRx(self.wire.insert(h)));
    }

    /// Run the receive stage of one boundary hand-off: reserve the
    /// destination-owned links, decide the packet's fate, and schedule the
    /// tail arrival. `now` must equal `h.head_at`.
    fn rx_deliver(&mut self, h: WireHandoff, sched: &mut Sched) {
        let now = sched.now();
        debug_assert_eq!(now, h.head_at, "receive stage off its boundary instant");
        let dst = h.pkt.dst;
        let flow = flow_of_packet(&h.pkt);
        match self.fabric.rx_stage(&h) {
            RxOutcome::Delivered { at } => {
                let stall = self.fabric.last_inject_stall();
                if stall > SimDuration::ZERO {
                    self.probe
                        .complete_flow(now, dst.0, &probes::LINK_STALL, stall, "", flow);
                }
                self.probe.complete_flow(
                    now,
                    dst.0,
                    &probes::WIRE_FLIGHT,
                    at.saturating_since(now),
                    "flight",
                    flow,
                );
                let li = self.local(dst);
                let id = self.slots[li].packets.insert(h.pkt);
                sched.at(at, Ev::PacketArrive(dst, id));
            }
            RxOutcome::Dropped { .. } => {
                self.probe
                    .instant_flow(now, dst.0, &probes::PKT_DROP, "", 0, flow);
            }
        }
    }

    /// Deliver a notice now if the host is free; otherwise queue it.
    fn deliver_or_queue(&mut self, node: NodeId, notice: Notice<X::Notice>, sched: &mut Sched) {
        let li = self.local(node);
        let slot = &mut self.slots[li];
        let free_at = slot.host.free_at();
        if sched.now() < free_at {
            slot.host.pending.push_back(notice);
            if !slot.host.wake_scheduled {
                slot.host.wake_scheduled = true;
                sched.at(free_at, Ev::HostWake(node));
            }
            return;
        }
        self.deliver(node, notice, sched);
    }

    /// Deliver one notice: charge the host's handling cost, then run the app.
    fn deliver(&mut self, node: NodeId, notice: Notice<X::Notice>, sched: &mut Sched) {
        let (cost, name) = match &notice {
            Notice::Recv { .. } => (self.params.host_recv_event, "recv"),
            Notice::SendComplete { .. } => (self.params.host_send_complete, "send_complete"),
            Notice::ComputeDone { .. } => (gm_sim::SimDuration::ZERO, "compute_done"),
            Notice::Ext(_) => (self.params.host_send_complete, "ext"),
        };
        let now = sched.now();
        let li = self.local(node);
        let flow = {
            let slot = &self.slots[li];
            slot.nic.flow_of_notice(&notice, &slot.ext)
        };
        self.probe
            .instant_flow(now, node.0, &probes::NOTICE, name, 0, flow);
        if flow.is_some() {
            // The lineage terminal: this message reached its destination
            // application (see `gm_sim::critical_path`).
            self.probe
                .instant_flow(now, node.0, &FLOW_DELIVERY, name, 0, flow);
        }
        let slot = &mut self.slots[li];
        let busy_from = slot.host.free_at().max(now);
        slot.host.charge(now, cost);
        self.with_app_from(node, sched, Some(busy_from), |app, ctx| {
            app.on_notice(notice, ctx);
        });
    }

    /// The host CPU freed up: deliver as many pending notices as possible.
    fn host_wake(&mut self, node: NodeId, sched: &mut Sched) {
        let li = self.local(node);
        self.slots[li].host.wake_scheduled = false;
        loop {
            let li = self.local(node);
            let slot = &mut self.slots[li];
            if slot.host.pending.is_empty() {
                return;
            }
            let free_at = slot.host.free_at();
            if sched.now() < free_at {
                if !slot.host.wake_scheduled {
                    slot.host.wake_scheduled = true;
                    sched.at(free_at, Ev::HostWake(node));
                }
                return;
            }
            let notice = slot.host.pending.pop_front().expect("nonempty");
            self.deliver(node, notice, sched);
        }
    }
}

impl<X: NicExtension> World for Cluster<X> {
    type Event = Ev;
    type Handoff = WireHandoff;

    fn handle(&mut self, event: Ev, sched: &mut Sched) {
        match event {
            Ev::AppStart(n) => {
                self.with_app(n, sched, HostApp::on_start);
            }
            Ev::HostCall(n, id) => {
                let now = sched.now();
                let li = self.local(n);
                let slot = &mut self.slots[li];
                let call = slot.calls.take(id);
                slot.nic.set_now(now);
                match call {
                    HostCall::Send(args) => {
                        let flow = FlowId::new(n.0, crate::nic::flow_tag(args.tag), args.dst.0);
                        self.probe
                            .instant_flow(now, n.0, &probes::HOST_CALL, "send", 0, flow);
                        if slot.nic.send_tokens_free() == 0 || !slot.parked_sends.is_empty() {
                            // Out of tokens (or behind earlier parked
                            // sends): queue client-side, replay in order
                            // once acknowledgments return tokens.
                            slot.parked_sends.push_back(args);
                        } else {
                            let accepted = slot.nic.host_send(args);
                            assert!(accepted, "{n}: token accounting out of sync");
                        }
                    }
                    HostCall::ProvideRecv { port, n: count } => {
                        slot.nic.host_provide_recv(port, count);
                    }
                    HostCall::Ext(req) => {
                        let flow = slot.ext.flow_of_request(n.0, &req);
                        self.probe
                            .instant_flow(now, n.0, &probes::HOST_CALL, "ext", 0, flow);
                        let cost = slot.ext.request_cost(&req, &self.params);
                        slot.nic.host_ext_request(cost, req);
                    }
                    HostCall::ComputeDone { tag } => {
                        self.deliver_or_queue(n, Notice::ComputeDone { tag }, sched);
                        return;
                    }
                }
                self.pump_nic(n, sched);
            }
            Ev::NoticeArrive(n) => {
                let li = self.local(n);
                let notice = self.slots[li]
                    .notices
                    .pop_front()
                    .expect("a notice event for every queued notice");
                self.deliver_or_queue(n, notice, sched);
            }
            Ev::HostWake(n) => {
                self.host_wake(n, sched);
            }
            Ev::LanaiDone(n) => {
                let li = self.local(n);
                if self.probe.is_enabled() {
                    let name = self.slots[li].nic.work_kind();
                    self.probe.end(sched.now(), n.0, &probes::LANAI, name);
                }
                let slot = &mut self.slots[li];
                slot.nic.set_now(sched.now());
                slot.nic.lanai_finish(&mut slot.ext);
                self.pump_nic(n, sched);
            }
            Ev::PciDone(n) => {
                self.probe.end(sched.now(), n.0, &probes::PCI_DMA, "dma");
                let li = self.local(n);
                let slot = &mut self.slots[li];
                slot.nic.set_now(sched.now());
                slot.nic.pci_finish(&mut slot.ext);
                self.pump_nic(n, sched);
            }
            Ev::TxDrained(n) => {
                self.probe.end(sched.now(), n.0, &probes::WIRE_TX, "tx");
                let li = self.local(n);
                let slot = &mut self.slots[li];
                let cb = slot
                    .tx_cb
                    .take()
                    .expect("a callback for the packet on the wire");
                slot.nic.set_now(sched.now());
                slot.nic.tx_drained(cb);
                self.pump_nic(n, sched);
            }
            Ev::PacketArrive(n, id) => {
                let li = self.local(n);
                let pkt = self.slots[li].packets.take(id);
                self.probe.instant_flow(
                    sched.now(),
                    n.0,
                    &probes::RX_ARRIVE,
                    "",
                    u64::from(pkt.src.0),
                    flow_of_packet(&pkt),
                );
                let slot = &mut self.slots[li];
                slot.nic.set_now(sched.now());
                slot.nic.packet_arrived(pkt);
                self.pump_nic(n, sched);
            }
            Ev::Timer(n, id) => {
                let li = self.local(n);
                let tag = self.slots[li].timers.take(id);
                let label = match &tag {
                    TimerTag::Conn { .. } => "conn",
                    TimerTag::AckFlush { .. } => "ack_flush",
                    TimerTag::Ext(_) => "ext",
                };
                self.probe
                    .instant(sched.now(), n.0, &probes::NIC_TIMER, label, 0);
                let slot = &mut self.slots[li];
                slot.nic.set_now(sched.now());
                slot.nic.timer_fired(tag, &mut slot.ext);
                self.pump_nic(n, sched);
            }
            Ev::WireRx(id) => {
                let h = self.wire.take(id);
                self.rx_deliver(h, sched);
            }
        }
    }

    fn absorb(&mut self, m: OutMsg<WireHandoff>, sched: &mut Sched) {
        debug_assert_eq!((m.time, m.seq), (m.payload.head_at, m.payload.wire_seq));
        self.park_handoff(m.payload, sched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_thin() {
        // Payloads park with their owners, so the event queue moves a node
        // id and a u32 at most; the queue stores events inline.
        assert!(
            std::mem::size_of::<Ev>() <= 16,
            "Ev is {} bytes",
            std::mem::size_of::<Ev>()
        );
    }
}
