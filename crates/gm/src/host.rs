//! The host-processor model and the application interface.
//!
//! A host is a serially-busy CPU: every GM library call charges overhead, a
//! `compute` block occupies it for a stretch, and NIC notices are only
//! delivered when it is free. Applications drive workloads by implementing
//! [`HostApp`]: a state machine poked by notices, issuing calls through
//! [`HostCtx`].

use std::any::Any;
use std::collections::VecDeque;

use gm_sim::probe::{ProbeId, ProbeSink};
use gm_sim::{FlowId, SimDuration, SimTime};
use myrinet::{NodeId, Payload, PortId};

use crate::ext::NicExtension;
use crate::nic::{Notice, SendArgs};
use crate::params::GmParams;

/// Host-to-NIC calls produced by applications (scheduled to arrive at the
/// NIC once the host overhead has been paid).
#[derive(Debug)]
pub enum HostCall<R> {
    /// A unicast send request.
    Send(SendArgs),
    /// Prepost `1` receive buffer(s) on a port.
    ProvideRecv {
        /// The port to credit.
        port: PortId,
        /// Number of buffers.
        n: usize,
    },
    /// An extension request (multicast operations).
    Ext(R),
    /// Host-internal: a compute block finished.
    ComputeDone {
        /// Tag passed to `compute`.
        tag: u64,
    },
}

/// Per-node host state.
pub struct Host<X: NicExtension> {
    node: NodeId,
    /// The host CPU is occupied until this instant.
    free_at: SimTime,
    /// Notices waiting for the CPU to free up.
    pub(crate) pending: VecDeque<Notice<X::Notice>>,
    /// Whether a wake event is already scheduled.
    pub(crate) wake_scheduled: bool,
    /// Calls produced by the app, to be scheduled by the cluster.
    pub(crate) calls: Vec<(SimTime, HostCall<X::Request>)>,
    /// Total CPU time charged (API overheads + compute).
    busy_total: SimDuration,
}

impl<X: NicExtension> Host<X> {
    /// A fresh, idle host.
    pub fn new(node: NodeId) -> Self {
        Host {
            node,
            free_at: SimTime::ZERO,
            pending: VecDeque::new(),
            wake_scheduled: false,
            calls: Vec::new(),
            busy_total: SimDuration::ZERO,
        }
    }

    /// This host's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The instant the CPU becomes free.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total CPU time charged so far.
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// Charge the CPU for `cost` starting no earlier than `now`; returns the
    /// completion instant.
    pub(crate) fn charge(&mut self, now: SimTime, cost: SimDuration) -> SimTime {
        let start = self.free_at.max(now);
        self.free_at = start + cost;
        self.busy_total += cost;
        self.free_at
    }
}

/// The application interface handed to [`HostApp`] callbacks.
pub struct HostCtx<'a, X: NicExtension> {
    host: &'a mut Host<X>,
    params: &'a GmParams,
    probe: &'a mut ProbeSink,
    now: SimTime,
}

impl<'a, X: NicExtension> HostCtx<'a, X> {
    /// Internal constructor used by the cluster.
    pub(crate) fn new(
        host: &'a mut Host<X>,
        params: &'a GmParams,
        probe: &'a mut ProbeSink,
        now: SimTime,
    ) -> Self {
        HostCtx {
            host,
            params,
            probe,
            now,
        }
    }

    /// Record an instant probe event on this node's timeline. Applications
    /// use this to mark their own milestones (e.g. MPI operations) on the
    /// `App` track; a no-op when probes are disabled.
    pub fn mark(&mut self, id: &'static ProbeId, label: &'static str, a: u64) {
        let node = self.host.node().0;
        self.probe.instant(self.now, node, id, label, a);
    }

    /// Like [`HostCtx::mark`], but tagging the record with the causal flow
    /// of the message the milestone concerns (see `sim::flow`).
    pub fn mark_flow(&mut self, id: &'static ProbeId, label: &'static str, a: u64, flow: FlowId) {
        let node = self.host.node().0;
        self.probe.instant_flow(self.now, node, id, label, a, flow);
    }

    /// The event time this callback was invoked at.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The host CPU's current horizon: when all charges issued so far (in
    /// this and earlier callbacks) will have retired. MPI-level CPU-time
    /// accounting uses this as "the time at which the call returns".
    pub fn cpu_now(&self) -> SimTime {
        self.host.free_at.max(self.now)
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.host.node
    }

    /// Post a unicast send of `data` to `(dst, dst_port)` from `src_port`.
    /// Completion arrives as [`Notice::SendComplete`] carrying `tag`.
    pub fn send(
        &mut self,
        dst: NodeId,
        dst_port: PortId,
        src_port: PortId,
        data: Payload,
        tag: u64,
    ) {
        let at = self.host.charge(self.now, self.params.host_send_post);
        self.host.calls.push((
            at,
            HostCall::Send(SendArgs {
                dst,
                dst_port,
                src_port,
                data,
                tag,
            }),
        ));
    }

    /// Prepost `n` receive buffers on `port`.
    pub fn provide_recv(&mut self, port: PortId, n: usize) {
        let at = self.host.charge(self.now, self.params.host_provide_recv);
        self.host
            .calls
            .push((at, HostCall::ProvideRecv { port, n }));
    }

    /// Post an extension request (multicast group create / send ...).
    pub fn ext(&mut self, req: X::Request) {
        let at = self.host.charge(self.now, self.params.host_ext_post);
        self.host.calls.push((at, HostCall::Ext(req)));
    }

    /// Occupy the CPU for `dur`; [`Notice::ComputeDone`] with `tag` is
    /// delivered when it ends.
    pub fn compute(&mut self, dur: SimDuration, tag: u64) {
        let at = self.host.charge(self.now, dur);
        self.host.calls.push((at, HostCall::ComputeDone { tag }));
    }

    /// Schedule a [`Notice::ComputeDone`] wake-up at an absolute deadline
    /// *without* occupying the CPU until then. Open-loop traffic drivers use
    /// this as an alarm clock: the host stays free to service receive and
    /// completion notices while waiting for the next scheduled arrival.
    /// Deadlines in the past fire at the current event time.
    pub fn wake_at(&mut self, deadline: SimTime, tag: u64) {
        let at = deadline.max(self.now);
        self.host.calls.push((at, HostCall::ComputeDone { tag }));
    }
}

/// An event-driven host application (workload driver).
///
/// Apps must prepost receive buffers before peers send to them, exactly as
/// GM clients must: "The responsibility of making receive tokens available
/// ... is left to client programs."
///
/// An app keeps its own measurements in plain fields: after a run, read it
/// back with [`Driven::app`](crate::Driven::app) (or
/// [`Cluster::app`](crate::Cluster::app) on an engine stepped by hand).
pub trait HostApp<X: NicExtension>: Any + Send {
    /// Called once at the node's start time.
    fn on_start(&mut self, ctx: &mut HostCtx<'_, X>);

    /// Called for every notice delivered to this host.
    fn on_notice(&mut self, notice: Notice<X::Notice>, ctx: &mut HostCtx<'_, X>);
}

/// A do-nothing application (passive nodes).
pub struct IdleApp;

impl<X: NicExtension> HostApp<X> for IdleApp {
    fn on_start(&mut self, _ctx: &mut HostCtx<'_, X>) {}
    fn on_notice(&mut self, _notice: Notice<X::Notice>, _ctx: &mut HostCtx<'_, X>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ext::NoExt;

    #[test]
    fn charge_serializes_and_accumulates() {
        let mut h: Host<NoExt> = Host::new(NodeId(0));
        let t1 = h.charge(SimTime::from_nanos(100), SimDuration::from_nanos(50));
        assert_eq!(t1.as_nanos(), 150);
        // Second charge at an earlier `now` still queues behind the first.
        let t2 = h.charge(SimTime::from_nanos(120), SimDuration::from_nanos(30));
        assert_eq!(t2.as_nanos(), 180);
        assert_eq!(h.busy_total().as_nanos(), 80);
    }

    #[test]
    fn ctx_calls_emit_in_charge_order() {
        let params = GmParams::default();
        let mut h: Host<NoExt> = Host::new(NodeId(0));
        let mut probe = ProbeSink::disabled();
        let mut ctx = HostCtx::new(&mut h, &params, &mut probe, SimTime::ZERO);
        ctx.provide_recv(PortId(0), 2);
        ctx.send(NodeId(1), PortId(0), PortId(0), Payload::new(1, 1), 7);
        assert_eq!(h.calls.len(), 2);
        assert!(
            h.calls[0].0 < h.calls[1].0,
            "calls pay serial host overhead"
        );
        assert!(matches!(h.calls[0].1, HostCall::ProvideRecv { .. }));
        assert!(matches!(h.calls[1].1, HostCall::Send(_)));
    }

    #[test]
    fn compute_blocks_cpu() {
        let params = GmParams::default();
        let mut h: Host<NoExt> = Host::new(NodeId(0));
        let mut probe = ProbeSink::disabled();
        let mut ctx = HostCtx::new(&mut h, &params, &mut probe, SimTime::ZERO);
        ctx.compute(SimDuration::from_micros(10), 1);
        ctx.send(NodeId(1), PortId(0), PortId(0), Payload::EMPTY, 2);
        // The send's arrival time is after the compute block.
        assert!(h.calls[1].0 > SimTime::from_nanos(10_000));
    }

    #[test]
    fn marks_read_back_across_a_merge() {
        use gm_sim::probe::{Phase, ProbeConfig, Track};
        static MARK: ProbeId = ProbeId::new("host_test_mark", Track::App);
        let params = GmParams::default();
        // Two hosts mark the same labels in opposite orders into two sinks.
        let sinks = [(0, ["bcast", "barrier"]), (1, ["barrier", "bcast"])].map(|(node, labels)| {
            let mut h: Host<NoExt> = Host::new(NodeId(node));
            let mut probe = ProbeSink::new(ProbeConfig::spans());
            let mut ctx = HostCtx::new(&mut h, &params, &mut probe, SimTime::from_nanos(100));
            ctx.mark(&MARK, labels[0], u64::MAX);
            ctx.mark_flow(&MARK, labels[1], 3, FlowId::new(node, 5, 2));
            probe
        });
        let merged = ProbeSink::merge_canonical(sinks.into());
        let got: Vec<_> = merged
            .as_slice()
            .iter()
            .map(|e| {
                (
                    e.node(),
                    e.id().name,
                    e.id().track,
                    e.label(),
                    e.phase(),
                    e.a(),
                    e.b(),
                    e.dur(),
                    e.flow(),
                )
            })
            .collect();
        let (zero, none) = (SimDuration::ZERO, FlowId::NONE);
        let (name, app, mark) = ("host_test_mark", Track::App, Phase::Mark);
        assert_eq!(
            got,
            vec![
                (0, name, app, "bcast", mark, u64::MAX, 0, zero, none),
                (
                    0,
                    name,
                    app,
                    "barrier",
                    mark,
                    3,
                    0,
                    zero,
                    FlowId::new(0, 5, 2)
                ),
                (1, name, app, "barrier", mark, u64::MAX, 0, zero, none),
                (
                    1,
                    name,
                    app,
                    "bcast",
                    mark,
                    3,
                    0,
                    zero,
                    FlowId::new(1, 5, 2)
                ),
            ]
        );
    }
}
