//! `simcheck` — exhaustive explicit-state model checking of the NIC-based
//! reliable-multicast protocol.
//!
//! The checker explores every interleaving of a small configuration (2–5
//! nodes, short messages, bounded loss/duplication/reorder/crash budgets)
//! of the one-to-many Go-Back-N multicast, built directly on the same
//! pure transition functions (`gm_proto`) the simulator's firmware model
//! executes. It verifies, in every reachable state:
//!
//! * **exactly-once delivery** to every non-crashed member,
//! * **token and SRAM-buffer conservation** (pools and credits never go
//!   negative or over-free; usage matches held references),
//! * **sequence-window sanity** (the sender never outruns its window, no
//!   parent records more acks than its child sent),
//! * **absence of deadlock** (a state with no enabled action is the goal).
//!
//! Violations come back as minimal (BFS-shortest) counterexample traces;
//! traces whose only environment actions are targeted drops replay through
//! the real simulator via [`nic_mcast::replay`], comparing delivery
//! verdicts member-by-member through the flow-lineage machinery.
//!
//! ```no_run
//! let cfg = simcheck::Config::ci();
//! let out = simcheck::run(&cfg, &simcheck::Limits::default(), &mut || false);
//! assert!(out.violation.is_none());
//! ```

#![warn(missing_docs)]

mod explore;
mod model;
mod trace;

pub use explore::{explore, CounterExample, Limits, Outcome, TraceStep};
pub use model::{
    apply, check, describe, enabled, is_goal, Action, Chain, Config, NodeSt, Pkt, Rec, State, Topo,
};
pub use trace::{report_json, trace_json};

use std::collections::BTreeSet;

/// Explore `cfg`; when a violation is found under symmetry reduction,
/// re-explore with symmetry off so the returned counterexample is a
/// concrete, simulator-replayable run (canonicalization relabels sibling
/// leaves between steps, so a symmetric-mode trace is only sound up to
/// that relabelling).
pub fn run(cfg: &Config, limits: &Limits, interrupt: &mut dyn FnMut() -> bool) -> Outcome {
    let first = explore(cfg, limits, interrupt);
    if first.violation.is_none() || !cfg.symmetry {
        return first;
    }
    let concrete = explore(&cfg.clone().with_symmetry(false), limits, interrupt);
    if concrete.violation.is_some() {
        // Keep the reduced run's statistics; take the concrete trace.
        Outcome {
            violation: concrete.violation,
            ..first
        }
    } else {
        // Cannot happen for a sound reduction; surface the symmetric trace
        // rather than losing the finding.
        first
    }
}

/// Members the counterexample's final state delivered the message to.
pub fn model_delivered(cex: &CounterExample) -> BTreeSet<u32> {
    cex.state
        .nodes
        .iter()
        .enumerate()
        .skip(1)
        .filter(|(_, n)| n.delivered == 1)
        .map(|(id, _)| id as u32)
        .collect()
}

/// Distill a concrete counterexample into a simulator [`nic_mcast::ReplaySpec`].
///
/// Returns `None` when the trace is not expressible as targeted
/// first-transmission drops: it duplicates or reorders packets, crashes a
/// leaf, drops an ack, or drops a retransmission of a packet whose first
/// copy already left the wire (the simulator's one-shot `DropRule` always
/// kills the *first* matching transmission).
pub fn extract_replay(cfg: &Config, cex: &CounterExample) -> Option<nic_mcast::ReplaySpec> {
    let topo = Topo::binomial(cfg.nodes);
    let mut st = State::initial(cfg, &topo);
    let mut removed: BTreeSet<(u8, u8, u8)> = BTreeSet::new();
    let mut drops = Vec::new();
    for step in &cex.steps {
        match step.action {
            Action::Dup { .. } | Action::CrashLeaf { .. } => return None,
            Action::Deliver { link, pos } => {
                if pos > 0 {
                    return None;
                }
                if let Pkt::Data { seq } = st.queues[link as usize][0] {
                    let (src, dst) = topo.links[link as usize];
                    removed.insert((src, dst, seq));
                }
            }
            Action::Drop { link, pos } => {
                let Pkt::Data { seq } = st.queues[link as usize][pos as usize] else {
                    return None; // ack drops have no DropRule shape here
                };
                let (src, dst) = topo.links[link as usize];
                if !removed.insert((src, dst, seq)) {
                    return None; // not the first transmission of this packet
                }
                drops.push(nic_mcast::ReplayDrop {
                    src: u32::from(src),
                    dst: u32::from(dst),
                    seq: u64::from(seq),
                });
            }
            _ => {}
        }
        st = apply(cfg, &topo, &st, step.action);
    }
    Some(nic_mcast::ReplaySpec {
        nodes: u32::from(cfg.nodes),
        packets: u32::from(cfg.packets),
        mutation: cfg.mutation,
        drops,
    })
}
