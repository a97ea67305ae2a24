//! The NIC firmware extension surface.
//!
//! GM-2.0 alpha introduced *myrinet packet descriptors* with per-packet
//! *callback handlers*, which is what made the paper's firmware modification
//! practical: "Using the descriptor and its callback handler, one can easily
//! have a packet queued again for transmission before it is freed."
//!
//! This trait is our model of that surface. The base GM firmware
//! ([`crate::cluster::Cluster`]) handles all unicast traffic itself and
//! delegates to the installed extension for:
//!
//! * host requests it does not recognise (multicast group management, send),
//! * multicast-typed packets ([`PacketKind::Mcast`]/[`McastAck`]),
//! * transmit-complete descriptor callbacks carrying an extension tag,
//! * extension-armed timers, DMA completions and deferred work items.
//!
//! The NIC-based multicast scheme in the `nic-mcast` crate is the one real
//! implementation; [`NoExt`] is the unmodified firmware used for baselines.
//!
//! [`PacketKind::Mcast`]: myrinet::PacketKind::Mcast
//! [`McastAck`]: myrinet::PacketKind::McastAck

use std::fmt::Debug;

use gm_sim::{FlowId, SimDuration};
use myrinet::Packet;

use crate::nic::NicCore;
use crate::params::GmParams;

/// Firmware extension installed into each NIC.
///
/// All hooks run on the (serial) LANai processor: the cluster charges the
/// configured processing cost *before* invoking a hook, so hook bodies apply
/// their effects instantaneously at cost-completion time.
pub trait NicExtension: Sized + Send + 'static {
    /// Host-to-NIC request type (e.g. create-group, multicast-send).
    type Request: Debug + Send;
    /// NIC-to-host notification payload (e.g. multicast-complete).
    type Notice: Debug + Clone + Send;
    /// Opaque tag threaded through callbacks, timers, DMA jobs and work
    /// items back to the extension.
    type Tag: Debug + Clone + Send;

    /// LANai cost of processing `req` (charged before [`host_request`]).
    ///
    /// [`host_request`]: NicExtension::host_request
    fn request_cost(&self, req: &Self::Request, params: &GmParams) -> SimDuration {
        let _ = req;
        params.ext_req_proc
    }

    /// A host request arrived at the NIC.
    fn host_request(&mut self, core: &mut NicCore<Self>, req: Self::Request);

    /// A multicast-typed packet arrived from the wire (already charged
    /// `recv_proc`). The base firmware never sees these.
    fn packet(&mut self, core: &mut NicCore<Self>, pkt: Packet);

    /// The transmit DMA engine finished serializing a packet whose
    /// descriptor carried this extension tag (the GM-2 callback mechanism).
    fn tx_callback(&mut self, core: &mut NicCore<Self>, tag: Self::Tag);

    /// A deferred LANai work item the extension enqueued completed.
    fn work(&mut self, core: &mut NicCore<Self>, tag: Self::Tag);

    /// An extension DMA transfer (host<->NIC) completed.
    fn dma_done(&mut self, core: &mut NicCore<Self>, tag: Self::Tag);

    /// An extension timer fired.
    fn timer(&mut self, core: &mut NicCore<Self>, tag: Self::Tag);

    /// Called when NIC resources (SRAM buffers, tokens) were freed while
    /// the extension had signalled it was waiting for some
    /// (see [`NicCore::signal_resource_wait`]). Default: nothing.
    fn resources_available(&mut self, core: &mut NicCore<Self>) {
        let _ = core;
    }

    /// The causal flow a host request belongs to (`node` is the NIC's node).
    /// Extensions with message-scoped requests override this so the LANai
    /// span of request processing joins the message's lineage. Default:
    /// [`FlowId::NONE`].
    fn flow_of_request(&self, node: u32, req: &Self::Request) -> FlowId {
        let _ = (node, req);
        FlowId::NONE
    }

    /// The causal flow an extension tag (work item, DMA job, tx callback)
    /// belongs to. Default: [`FlowId::NONE`].
    fn flow_of_tag(&self, node: u32, tag: &Self::Tag) -> FlowId {
        let _ = (node, tag);
        FlowId::NONE
    }

    /// The causal flow an extension notice delivers (`node` is the
    /// receiving node). A delivery notice returning a real flow is what
    /// anchors the flow's lineage end (see `sim::critical_path`). Default:
    /// [`FlowId::NONE`].
    fn flow_of_notice(&self, node: u32, notice: &Self::Notice) -> FlowId {
        let _ = (node, notice);
        FlowId::NONE
    }
}

/// The unmodified GM firmware: no multicast support.
///
/// Receiving a multicast packet with `NoExt` installed is a protocol error
/// and panics — the host-based baselines must never generate one.
#[derive(Debug, Default, Clone)]
pub struct NoExt;

/// Uninhabited request/notice/tag for [`NoExt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Never {}

impl NicExtension for NoExt {
    type Request = Never;
    type Notice = Never;
    type Tag = Never;

    fn host_request(&mut self, _core: &mut NicCore<Self>, req: Never) {
        match req {}
    }

    fn packet(&mut self, core: &mut NicCore<Self>, pkt: Packet) {
        panic!(
            "unmodified GM firmware on {} received a multicast packet: {:?}",
            core.node(),
            pkt.kind
        );
    }

    fn tx_callback(&mut self, _core: &mut NicCore<Self>, tag: Never) {
        match tag {}
    }

    fn work(&mut self, _core: &mut NicCore<Self>, tag: Never) {
        match tag {}
    }

    fn dma_done(&mut self, _core: &mut NicCore<Self>, tag: Never) {
        match tag {}
    }

    fn timer(&mut self, _core: &mut NicCore<Self>, tag: Never) {
        match tag {}
    }
}
