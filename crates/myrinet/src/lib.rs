//! `myrinet` — a discrete-event model of a Myrinet-2000-like fabric.
//!
//! Provides the substrate under the GM protocol model: wormhole cut-through
//! switching over a single crossbar or a two-level Clos of 16-port switches,
//! with deterministic source routing, link contention, and fault injection.
//!
//! ```
//! use gm_sim::SimTime;
//! use myrinet::{Fabric, NodeId, Packet, PortId, RxOutcome, Topology};
//!
//! let mut fabric = Fabric::new(Topology::for_nodes(16), 42);
//! let pkt = Packet::ack(NodeId(0), NodeId(5), PortId(0), 0);
//! // The source side reserves its half of the route; the destination side
//! // finishes it when the head crosses over, and decides the packet's fate.
//! let tx = fabric.tx_stage(SimTime::ZERO, pkt);
//! match fabric.rx_stage(&tx.handoff) {
//!     RxOutcome::Delivered { at } => assert!(at > tx.handoff.head_at),
//!     RxOutcome::Dropped { .. } => unreachable!("no faults configured"),
//! }
//! ```

#![warn(missing_docs)]

mod fabric;
mod fault;
mod packet;
mod topology;

pub use fabric::{Fabric, NetParams, RxOutcome, TxVerdict, WireHandoff};
pub use fault::{DropReason, DropRule, FaultPlan};
pub use packet::{GroupId, NodeId, Packet, PacketKind, Payload, PortId, HEADER_BYTES, MTU};
pub use topology::{LinkEnds, LinkId, SwitchId, TopoKind, Topology, MAX_NODES, SWITCH_PORTS};
