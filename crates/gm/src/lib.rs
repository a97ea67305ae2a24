//! `gm` — a GM-2-like user-level protocol over the simulated Myrinet fabric.
//!
//! This crate models the node: a host processor running applications against
//! the GM library API, and a LANai-like NIC running the GM firmware —
//! send/receive tokens, registered-memory DMA, per-connection Go-Back-N
//! reliability with acks and timeout/retransmission, and GM-2's packet
//! descriptors with callback handlers.
//!
//! The NIC-based multicast of the paper is *not* here: it is an extension
//! (see [`NicExtension`]) implemented in the `nic-mcast` crate, exactly as
//! the original work was a modification layered on GM-2.0 alpha1's
//! descriptor/callback mechanism.
//!
//! # Quick start
//!
//! ```
//! use gm::{Cluster, GmParams, HostApp, HostCtx, NoExt, Notice};
//! use gm_sim::SimTime;
//! use myrinet::{Fabric, NodeId, Payload, PortId, Topology};
//!
//! // A sender app and an echoing receiver app.
//! struct Sender;
//! impl HostApp<NoExt> for Sender {
//!     fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
//!         // Message 1, two bytes long: the model carries a descriptor.
//!         ctx.send(NodeId(1), PortId(0), PortId(0), Payload::new(1, 2), 7);
//!     }
//!     fn on_notice(&mut self, n: Notice<gm::Never>, _ctx: &mut HostCtx<'_, NoExt>) {
//!         if let Notice::SendComplete { tag, .. } = n {
//!             assert_eq!(tag, 7);
//!         }
//!     }
//! }
//! struct Receiver {
//!     got: Vec<Payload>,
//! }
//! impl HostApp<NoExt> for Receiver {
//!     fn on_start(&mut self, ctx: &mut HostCtx<'_, NoExt>) {
//!         ctx.provide_recv(PortId(0), 1);
//!     }
//!     fn on_notice(&mut self, n: Notice<gm::Never>, _ctx: &mut HostCtx<'_, NoExt>) {
//!         if let Notice::Recv { data, .. } = n {
//!             self.got.push(data);
//!         }
//!     }
//! }
//!
//! let fabric = Fabric::new(Topology::for_nodes(2), 1);
//! let mut cluster = Cluster::new(GmParams::default(), fabric, |_| NoExt);
//! cluster.set_app(NodeId(0), Box::new(Sender));
//! cluster.set_app(NodeId(1), Box::new(Receiver { got: Vec::new() }));
//! let run = gm::drive(cluster, 1);
//! assert!(run.end > SimTime::ZERO);
//! // Apps keep what they measured: read them back from the finished run.
//! assert_eq!(run.app::<Receiver>(NodeId(1)).got, [Payload::new(1, 2)]);
//! ```
//!
//! [`drive`], [`harvest`] and [`analyze`] are the one run pipeline every
//! simulation goes through.

#![warn(missing_docs)]

mod cluster;
mod ext;
mod host;
mod nic;
mod params;
mod pipeline;

pub use cluster::{probes, Cluster, Ev};
pub use ext::{Never, NicExtension, NoExt};
pub use host::{Host, HostApp, HostCall, HostCtx, IdleApp};
pub use nic::{
    flow_of_packet, flow_tag, Cb, ConnKey, NicCore, Notice, PciJob, SendArgs, TimerTag, TxJob, Work,
};
pub use params::{GmParams, EAGER_LIMIT};
pub use pipeline::{analyze, drive, harvest, Driven, Harvest, EVENT_CAP};
