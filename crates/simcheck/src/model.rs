//! The protocol model: one multicast, rendered as a finite transition
//! system over the **same** pure transition functions (`gm_proto`) the
//! simulator's firmware model executes.
//!
//! A state is the cross product of per-node protocol state (Go-Back-N
//! windows, per-child acknowledged counts, SRAM buffer pools, receive
//! credits, forwarding chains, RDMA queues) and per-link FIFO packet
//! queues, plus the remaining environment budgets (loss, duplication,
//! reordering, leaf crashes). Actions are the individual steps the NIC
//! work loop, the PCI engines and the wire can take; the checker explores
//! every interleaving.
//!
//! ## Abstractions (where the model is coarser than the simulator)
//!
//! * **No time.** The Go-Back-N retransmission timer becomes a
//!   [`Action::Timeout`] action that is enabled only at *quiescence* (no
//!   protocol or network action enabled anywhere). This is sound for
//!   safety: the simulator's timer is long enough that a firing races only
//!   with other timers, and firing earlier only retransmits packets the
//!   model can also duplicate with its dup budget. The guard keeps the
//!   state space finite.
//! * **Retransmission needs no send buffer.** At quiescence every replica
//!   chain is `Done`, so the root's send buffers are provably free; the
//!   model skips the transient buffer cycling of the simulator's
//!   retransmit DMA.
//! * **Replica chains are position-ordered.** A record may feed child `i`
//!   only when every lower-sequence record has already fed child `i` —
//!   the per-link FIFO ascending-sequence order the single TX DMA engine
//!   enforces. Interleavings *across* links are all explored.
//! * **Payload bytes are dropped.** Delivery correctness is sequence-number
//!   bookkeeping; the simulator's own tests cover payload integrity.

use gm_proto::{self as proto, ChildAcks, Credits, GbnRx, GbnTx, Pool, ProtoMutation, RxVerdict};

// ---------------------------------------------------------------------------
// Configuration and topology
// ---------------------------------------------------------------------------

/// A checkable configuration: cluster size, message length, window and
/// environment budgets. Keep these small — the checker is exhaustive.
#[derive(Clone, Debug)]
pub struct Config {
    /// Cluster size (node 0 is the root; the tree is binomial, matching
    /// `nic_mcast::TreeShape::Binomial` over ids `1..nodes`).
    pub nodes: u8,
    /// Message length in packets.
    pub packets: u8,
    /// Go-Back-N sender window (max outstanding records at the root).
    pub window: u8,
    /// Root SRAM send-buffer pool size (gates SDMA-ahead).
    pub send_bufs: u8,
    /// Per-member SRAM receive-buffer pool size (a data packet arriving
    /// with no free buffer is dropped, as in GM).
    pub recv_bufs: u8,
    /// How many packets the environment may drop.
    pub loss: u8,
    /// How many packets the environment may duplicate.
    pub dup: u8,
    /// How many out-of-order (non-head) deliveries the environment may
    /// force. Per-link wire order is otherwise FIFO, as on Myrinet.
    pub reorder: u8,
    /// How many leaves the environment may crash (fail-stop; a crashed
    /// leaf silently consumes arriving packets).
    pub crash: u8,
    /// Deliberately seeded protocol bug (see [`ProtoMutation`]).
    pub mutation: ProtoMutation,
    /// Canonicalize states under sibling-leaf symmetry (sound reduction;
    /// turn off to extract concrete, simulator-replayable traces).
    pub symmetry: bool,
    /// Restrict scheduling to the simulator's timing regime: NIC-internal
    /// actions (admit, SDMA, chain step, RDMA completion) drain before any
    /// wire action fires. This is a real restriction — it hides schedules
    /// where an ack outruns a pending local DMA — so it is **off** for
    /// verification and used only to extract counterexample traces the
    /// deterministic simulator can reproduce.
    pub eager_nic: bool,
}

impl Config {
    /// The CI configuration from the roadmap: 3 nodes, 2-packet message,
    /// window 2, loss budget 2, plus one duplication, one reorder and one
    /// leaf crash.
    pub fn ci() -> Config {
        Config {
            nodes: 3,
            packets: 2,
            window: 2,
            send_bufs: 2,
            recv_bufs: 2,
            loss: 2,
            dup: 1,
            reorder: 1,
            crash: 1,
            mutation: ProtoMutation::None,
            symmetry: true,
            eager_nic: false,
        }
    }

    /// This configuration with a seeded protocol bug.
    pub fn with_mutation(mut self, m: ProtoMutation) -> Config {
        self.mutation = m;
        self
    }

    /// This configuration with symmetry reduction on or off.
    pub fn with_symmetry(mut self, on: bool) -> Config {
        self.symmetry = on;
        self
    }
}

/// The fixed tree topology derived from a [`Config`]: parent/children
/// arrays and a deterministic table of directed links.
#[derive(Clone, Debug)]
pub struct Topo {
    /// `parent[node]`, `None` at the root.
    pub parent: Vec<Option<u8>>,
    /// `children[node]` in send order.
    pub children: Vec<Vec<u8>>,
    /// Directed links `(src, dst)`: for every tree edge, the down link
    /// (parent to child) followed by the up link (child to parent).
    pub links: Vec<(u8, u8)>,
    /// Sibling-leaf symmetry groups: `(parent, child positions)` for every
    /// parent with two or more leaf children.
    pub leaf_groups: Vec<(u8, Vec<u8>)>,
}

impl Topo {
    /// Binomial tree over ids `0..n` — the same shape
    /// `nic_mcast::SpanningTree::build(.., TreeShape::Binomial)` produces
    /// over the ID-sorted destination list (checked by a conformance test).
    pub fn binomial(n: u8) -> Topo {
        let n = n as usize;
        let mut parent: Vec<Option<u8>> = vec![None; n];
        let mut children: Vec<Vec<u8>> = vec![Vec::new(); n];
        let mut step = 1usize;
        while step < n {
            let ranks = parent.iter_mut().enumerate().take((2 * step).min(n));
            for (high, p) in ranks.skip(step) {
                let low = high - step;
                *p = Some(low as u8);
                children[low].push(high as u8);
            }
            step <<= 1;
        }
        let mut links = Vec::new();
        for (p, kids) in children.iter().enumerate() {
            for &c in kids {
                links.push((p as u8, c));
                links.push((c, p as u8));
            }
        }
        let mut leaf_groups = Vec::new();
        for (p, kids) in children.iter().enumerate() {
            let leaves: Vec<u8> = (0..kids.len())
                .filter(|&ci| children[kids[ci] as usize].is_empty())
                .map(|ci| ci as u8)
                .collect();
            if leaves.len() >= 2 {
                leaf_groups.push((p as u8, leaves));
            }
        }
        Topo {
            parent,
            children,
            links,
            leaf_groups,
        }
    }

    /// Index of the directed link `src -> dst` in [`Topo::links`].
    pub fn link(&self, src: u8, dst: u8) -> usize {
        self.links
            .iter()
            .position(|&l| l == (src, dst))
            .expect("link exists for every tree edge in both directions")
    }
}

// ---------------------------------------------------------------------------
// State
// ---------------------------------------------------------------------------

/// A packet in flight on one directed link.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pkt {
    /// Multicast data packet with this sequence number.
    Data {
        /// Sequence number.
        seq: u8,
    },
    /// Multicast per-packet acknowledgment.
    Ack {
        /// Highest contiguously received sequence number.
        seq: u8,
    },
}

/// Replica-chain progress of one record (mirrors the simulator's
/// callback-driven multisend: feed child 0, then 1, ...).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Chain {
    /// Admitted at the root but not yet SDMA'd into SRAM.
    Waiting,
    /// Next replica goes to the child at this position.
    Active(u8),
    /// All children fed (first transmission complete).
    Done,
}

/// One unacknowledged packet's bookkeeping at a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rec {
    /// Sequence number.
    pub seq: u8,
    /// Replica-chain progress.
    pub chain: Chain,
}

/// One node's protocol state. Built entirely from `gm_proto` types plus
/// plain queues, so every field the checker branches on is the field the
/// simulator branches on.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeSt {
    /// Fail-stop flag (environment action; crashed nodes consume arriving
    /// packets silently and take no protocol action).
    pub crashed: bool,
    /// Go-Back-N receiver window (packets from the parent).
    pub rx: GbnRx,
    /// Go-Back-N sender window (root only).
    pub tx: GbnTx,
    /// Per-child contiguously-acknowledged counts.
    pub acks: ChildAcks,
    /// Unacknowledged records, ascending seq.
    pub records: Vec<Rec>,
    /// Root: admitted seqs awaiting SDMA into an SRAM send buffer.
    pub sdma_q: Vec<u8>,
    /// Accepted seqs awaiting RDMA up to the host.
    pub rdma_q: Vec<u8>,
    /// Packets RDMA'd to the host so far.
    pub rdma_done: u8,
    /// Complete messages delivered to the application (exactly-once says
    /// this never exceeds 1 — there is one message per run).
    pub delivered: u8,
    /// SRAM send-buffer pool (root only).
    pub send_bufs: Pool,
    /// SRAM receive-buffer pool (members only).
    pub recv_bufs: Pool,
    /// Host receive credits (one per message, consumed by packet 0).
    pub recv_tokens: Credits,
    /// Held receive buffers: `(seq, refcount)`; the refcount is
    /// [`proto::fwd_buf_refs`] at acceptance and the buffer frees at zero.
    pub refs: Vec<(u8, u8)>,
}

/// A complete model state: all nodes, all link queues, all budgets.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct State {
    /// Per-node protocol state, indexed by node id.
    pub nodes: Vec<NodeSt>,
    /// Per-link FIFO queues, parallel to [`Topo::links`].
    pub queues: Vec<Vec<Pkt>>,
    /// Remaining loss budget.
    pub loss: u8,
    /// Remaining duplication budget.
    pub dup: u8,
    /// Remaining reorder budget.
    pub reorder: u8,
    /// Remaining crash budget.
    pub crash: u8,
}

impl State {
    /// The initial state: nothing admitted, all pools full, one receive
    /// credit per member, full budgets.
    pub fn initial(cfg: &Config, topo: &Topo) -> State {
        let nodes = (0..cfg.nodes as usize)
            .map(|id| NodeSt {
                crashed: false,
                rx: GbnRx::default(),
                tx: GbnTx::default(),
                acks: ChildAcks::new(topo.children[id].len()),
                records: Vec::new(),
                sdma_q: Vec::new(),
                rdma_q: Vec::new(),
                rdma_done: 0,
                delivered: 0,
                send_bufs: Pool::new(if id == 0 { cfg.send_bufs as usize } else { 0 }),
                recv_bufs: Pool::new(if id == 0 { 0 } else { cfg.recv_bufs as usize }),
                recv_tokens: Credits::new(if id == 0 { 0 } else { 1 }),
                refs: Vec::new(),
            })
            .collect();
        State {
            nodes,
            queues: vec![Vec::new(); topo.links.len()],
            loss: cfg.loss,
            dup: cfg.dup,
            reorder: cfg.reorder,
            crash: cfg.crash,
        }
    }
}

// ---------------------------------------------------------------------------
// Actions
// ---------------------------------------------------------------------------

/// One atomic step of the protocol or its environment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Action {
    /// Root admits the next packet into the sender window (send-token
    /// processing).
    Admit,
    /// Root SDMAs the oldest admitted packet into a free SRAM send buffer.
    SdmaStart,
    /// `node` transmits record `seq`'s next replica to one child.
    ChainStep {
        /// Transmitting node.
        node: u8,
        /// Record sequence number.
        seq: u8,
    },
    /// The wire hands the packet at `pos` in `link`'s queue to its
    /// destination NIC (`pos > 0` spends the reorder budget).
    Deliver {
        /// Index into [`Topo::links`].
        link: u8,
        /// Queue position.
        pos: u8,
    },
    /// The environment loses the packet at `pos` in `link`'s queue.
    Drop {
        /// Index into [`Topo::links`].
        link: u8,
        /// Queue position.
        pos: u8,
    },
    /// The environment duplicates the packet at `pos` (copy appended at
    /// the back of the queue).
    Dup {
        /// Index into [`Topo::links`].
        link: u8,
        /// Queue position.
        pos: u8,
    },
    /// `node`'s RDMA engine finishes uploading the oldest accepted packet
    /// to host memory (delivers the message when it is the last one).
    RdmaDone {
        /// Receiving node.
        node: u8,
    },
    /// The environment fail-stops a leaf.
    CrashLeaf {
        /// The leaf to crash.
        node: u8,
    },
    /// `node`'s Go-Back-N timer fires: selectively retransmit every fully
    /// transmitted record to every child that has not acknowledged it.
    /// Only enabled at quiescence (see the module docs).
    Timeout {
        /// Retransmitting node.
        node: u8,
    },
}

/// Enumerate the enabled actions of `st` in deterministic order: protocol
/// and network actions first, then environment crashes, then (only if no
/// protocol/network action is enabled anywhere) timeouts.
pub fn enabled(cfg: &Config, topo: &Topo, st: &State) -> Vec<Action> {
    let mut acts = Vec::new();
    let root = &st.nodes[0];
    // Admit: send-token processing at the root.
    if (root.tx.next_seq() as u8) < cfg.packets
        && root.tx.can_admit(root.records.len(), cfg.window as usize)
    {
        acts.push(Action::Admit);
    }
    // SdmaStart: oldest admitted packet into a free send buffer.
    if !root.sdma_q.is_empty() && root.send_bufs.free() > 0 {
        acts.push(Action::SdmaStart);
    }
    // ChainStep: any active record whose lower-seq predecessors have all
    // already fed the child it would feed (per-link ascending order).
    for (id, ns) in st.nodes.iter().enumerate() {
        if ns.crashed {
            continue;
        }
        for (i, rec) in ns.records.iter().enumerate() {
            let Chain::Active(ci) = rec.chain else {
                continue;
            };
            let preds_fed = ns.records[..i].iter().all(|r| match r.chain {
                Chain::Done => true,
                Chain::Active(cj) => cj > ci,
                Chain::Waiting => false,
            });
            if preds_fed {
                acts.push(Action::ChainStep {
                    node: id as u8,
                    seq: rec.seq,
                });
            }
        }
    }
    // Wire actions per link and position.
    for (li, q) in st.queues.iter().enumerate() {
        for pos in 0..q.len() {
            let (link, pos) = (li as u8, pos as u8);
            if pos == 0 || st.reorder > 0 {
                acts.push(Action::Deliver { link, pos });
            }
            if st.loss > 0 {
                acts.push(Action::Drop { link, pos });
            }
            if st.dup > 0 {
                acts.push(Action::Dup { link, pos });
            }
        }
    }
    // RdmaDone.
    for (id, ns) in st.nodes.iter().enumerate() {
        if !ns.crashed && !ns.rdma_q.is_empty() {
            acts.push(Action::RdmaDone { node: id as u8 });
        }
    }
    // Eager-NIC trace-extraction mode: while any NIC-internal action is
    // enabled, wire and environment actions wait (DMA completions beat the
    // round trip, as in the simulator's timing).
    if cfg.eager_nic {
        let wire = |a: &Action| {
            matches!(
                a,
                Action::Deliver { .. } | Action::Drop { .. } | Action::Dup { .. }
            )
        };
        if acts.iter().any(|a| !wire(a)) {
            acts.retain(|a| !wire(a));
            return acts;
        }
    }
    let quiescent = acts.is_empty();
    // CrashLeaf: an environment action, deliberately *not* counted against
    // quiescence (a timeout must stay reachable without spending the crash
    // budget).
    if st.crash > 0 {
        for (id, ns) in st.nodes.iter().enumerate().skip(1) {
            if !ns.crashed && topo.children[id].is_empty() {
                acts.push(Action::CrashLeaf { node: id as u8 });
            }
        }
    }
    // Timeout: quiescence-guarded selective retransmission.
    if quiescent {
        for (id, ns) in st.nodes.iter().enumerate() {
            if ns.crashed {
                continue;
            }
            let needs_retx = ns.records.iter().any(|rec| {
                rec.chain == Chain::Done
                    && (0..topo.children[id].len())
                        .any(|ci| ns.acks.needs(ci, rec.seq as u64))
            });
            if needs_retx {
                acts.push(Action::Timeout { node: id as u8 });
            }
        }
    }
    acts
}

/// Apply `action` to `st`, returning the successor state. Pure: the input
/// state is untouched. Panics (via `expect`) only on actions that are not
/// enabled — the explorer always feeds it from [`enabled`].
pub fn apply(cfg: &Config, topo: &Topo, st: &State, action: Action) -> State {
    let mut s = st.clone();
    match action {
        Action::Admit => {
            let seq = s.nodes[0].tx.assign_seq() as u8;
            s.nodes[0].records.push(Rec {
                seq,
                chain: Chain::Waiting,
            });
            s.nodes[0].sdma_q.push(seq);
        }
        Action::SdmaStart => {
            let seq = s.nodes[0].sdma_q.remove(0);
            let took = s.nodes[0].send_bufs.try_take();
            debug_assert!(took, "SdmaStart enabled implies a free send buffer");
            let rec = s.nodes[0]
                .records
                .iter_mut()
                .find(|r| r.seq == seq)
                .expect("admitted seq has a record");
            rec.chain = Chain::Active(0);
        }
        Action::ChainStep { node, seq } => {
            let id = node as usize;
            let nchildren = topo.children[id].len();
            let rec = s.nodes[id]
                .records
                .iter_mut()
                .find(|r| r.seq == seq)
                .expect("chain-step record exists");
            let Chain::Active(ci) = rec.chain else {
                panic!("chain-step record is active");
            };
            let child = topo.children[id][ci as usize];
            match proto::next_replica(nchildren, ci as usize) {
                Some(j) => rec.chain = Chain::Active(j as u8),
                None => {
                    rec.chain = Chain::Done;
                    if id == 0 {
                        s.nodes[id].send_bufs.put();
                    } else {
                        dec_ref(&mut s.nodes[id], seq);
                    }
                }
            }
            s.queues[topo.link(node, child)].push(Pkt::Data { seq });
        }
        Action::Deliver { link, pos } => {
            let pkt = s.queues[link as usize].remove(pos as usize);
            if pos > 0 {
                s.reorder -= 1;
            }
            let (src, dst) = topo.links[link as usize];
            if s.nodes[dst as usize].crashed {
                return s; // fail-stop: consumed silently
            }
            match pkt {
                Pkt::Data { seq } => deliver_data(cfg, topo, &mut s, src, dst, seq),
                Pkt::Ack { seq } => deliver_ack(cfg, topo, &mut s, src, dst, seq),
            }
        }
        Action::Drop { link, pos } => {
            s.queues[link as usize].remove(pos as usize);
            s.loss -= 1;
        }
        Action::Dup { link, pos } => {
            let pkt = s.queues[link as usize][pos as usize];
            s.queues[link as usize].push(pkt);
            s.dup -= 1;
        }
        Action::RdmaDone { node } => {
            let ns = &mut s.nodes[node as usize];
            let seq = ns.rdma_q.remove(0);
            dec_ref(ns, seq);
            ns.rdma_done += 1;
            if ns.rdma_done == cfg.packets {
                ns.delivered += 1;
            }
        }
        Action::CrashLeaf { node } => {
            s.nodes[node as usize].crashed = true;
            s.crash -= 1;
        }
        Action::Timeout { node } => {
            let id = node as usize;
            let retx: Vec<(u8, u8)> = s.nodes[id]
                .records
                .iter()
                .filter(|rec| rec.chain == Chain::Done)
                .flat_map(|rec| {
                    (0..topo.children[id].len())
                        .filter(|&ci| s.nodes[id].acks.needs(ci, rec.seq as u64))
                        .map(|ci| (rec.seq, topo.children[id][ci]))
                        .collect::<Vec<_>>()
                })
                .collect();
            for (seq, child) in retx {
                s.queues[topo.link(node, child)].push(Pkt::Data { seq });
            }
        }
    }
    s
}

/// A data packet arrives at `dst` from its parent `src`: the GM receive
/// path (SRAM buffer, sequence verdict, receive credit, forwarding chain,
/// RDMA queue, per-packet ack) built on `gm_proto`.
fn deliver_data(_cfg: &Config, topo: &Topo, s: &mut State, src: u8, dst: u8, seq: u8) {
    let up = topo.link(dst, src);
    let node = &mut s.nodes[dst as usize];
    if !node.recv_bufs.try_take() {
        return; // no free SRAM buffer: dropped, recovered by retransmission
    }
    match node.rx.verdict(seq as u64) {
        RxVerdict::OutOfOrder { reack } => {
            node.recv_bufs.put();
            if let Some(a) = reack {
                s.queues[up].push(Pkt::Ack { seq: a as u8 });
            }
        }
        RxVerdict::Accept => {
            if seq == 0 && !node.recv_tokens.try_consume() {
                node.recv_bufs.put();
                return; // no receive credit posted: dropped, no ack
            }
            node.rx.accept();
            let has_children = !topo.children[dst as usize].is_empty();
            node.refs.push((seq, proto::fwd_buf_refs(has_children, false)));
            if has_children {
                node.records.push(Rec {
                    seq,
                    chain: Chain::Active(0),
                });
            }
            node.rdma_q.push(seq);
            s.queues[up].push(Pkt::Ack { seq });
        }
    }
}

/// An ack arrives at `dst` from its child `src`: update the per-child
/// acknowledged counts and release every record below the release horizon
/// (the seeded off-by-one mutation widens that horizon, freeing a record
/// no child confirmed — which kills retransmission).
fn deliver_ack(cfg: &Config, topo: &Topo, s: &mut State, src: u8, dst: u8, seq: u8) {
    let id = dst as usize;
    let ci = topo.children[id]
        .iter()
        .position(|&c| c == src)
        .expect("acks only flow child to parent");
    let node = &mut s.nodes[id];
    node.acks.on_ack(ci, seq as u64);
    let horizon = proto::release_horizon(node.acks.min_acked(), cfg.mutation);
    while let Some(front) = node.records.first().copied() {
        if front.seq as u64 >= horizon {
            break;
        }
        node.records.remove(0);
        match front.chain {
            Chain::Waiting => node.sdma_q.retain(|&q| q != front.seq),
            Chain::Active(_) => {
                if id == 0 {
                    node.send_bufs.put();
                } else {
                    dec_ref(node, front.seq);
                }
            }
            Chain::Done => {}
        }
    }
}

/// Drop one reference on the receive buffer holding `seq`; free it at zero.
fn dec_ref(node: &mut NodeSt, seq: u8) {
    let i = node
        .refs
        .iter()
        .position(|&(q, _)| q == seq)
        .expect("ref exists for every held receive buffer");
    node.refs[i].1 -= 1;
    if node.refs[i].1 == 0 {
        node.refs.remove(i);
        node.recv_bufs.put();
    }
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

/// The protocol's goal: every child acknowledged every packet at the root
/// and every non-crashed member's application received the message.
pub fn is_goal(cfg: &Config, _topo: &Topo, st: &State) -> bool {
    st.nodes[0].acks.min_acked() >= cfg.packets as u64
        && st
            .nodes
            .iter()
            .skip(1)
            .all(|n| n.crashed || n.delivered == 1)
}

/// Check every safety invariant of `st`; `Some(description)` on violation.
///
/// * **Exactly-once delivery**: no member delivers the message twice.
/// * **Token/buffer conservation**: every pool and credit counter is
///   conserved, the root's send-buffer usage equals its active chains, and
///   each member's receive-buffer usage equals its held references.
/// * **SRAM occupancy bounds**: implied by pool conservation (a `Pool` can
///   never exceed its capacity without tripping the conservation check).
/// * **Sequence-window sanity**: the root never outruns its window or the
///   message, records stay sorted and unique, receivers never expect more
///   than the message, and no parent has more acks from a child than the
///   child has accepted packets.
pub fn check(cfg: &Config, topo: &Topo, st: &State) -> Option<String> {
    for (id, ns) in st.nodes.iter().enumerate() {
        if ns.delivered > 1 {
            return Some(format!("node {id}: message delivered {} times", ns.delivered));
        }
        if !ns.send_bufs.is_conserved() || !ns.recv_bufs.is_conserved() {
            return Some(format!("node {id}: SRAM buffer pool over-freed"));
        }
        if !ns.recv_tokens.is_conserved() {
            return Some(format!("node {id}: receive credits consumed beyond grants"));
        }
        let active = ns
            .records
            .iter()
            .filter(|r| matches!(r.chain, Chain::Active(_)))
            .count();
        if id == 0 && ns.send_bufs.in_use() != active {
            return Some(format!(
                "root: {} send buffers in use but {active} active chains",
                ns.send_bufs.in_use()
            ));
        }
        if ns.recv_bufs.in_use() != ns.refs.len() {
            return Some(format!(
                "node {id}: {} recv buffers in use but {} held refs",
                ns.recv_bufs.in_use(),
                ns.refs.len()
            ));
        }
        if ns.rx.expected() > cfg.packets as u64 {
            return Some(format!(
                "node {id}: receiver expects seq {} beyond the message",
                ns.rx.expected()
            ));
        }
        if !ns.records.windows(2).all(|w| w[0].seq < w[1].seq) {
            return Some(format!("node {id}: records out of order or duplicated"));
        }
        for ci in 0..topo.children[id].len() {
            let child = topo.children[id][ci] as usize;
            if ns.acks.count(ci) > st.nodes[child].rx.expected() {
                return Some(format!(
                    "node {id}: child {child} acked {} packets but accepted {}",
                    ns.acks.count(ci),
                    st.nodes[child].rx.expected()
                ));
            }
        }
    }
    let root = &st.nodes[0];
    if root.records.len() > cfg.window as usize {
        return Some(format!(
            "root: {} outstanding records exceed window {}",
            root.records.len(),
            cfg.window
        ));
    }
    if root.tx.next_seq() > cfg.packets as u64 {
        return Some(format!(
            "root: assigned seq {} beyond the message",
            root.tx.next_seq()
        ));
    }
    None
}

/// Human-readable annotation for `action` taken from `st` (packet details
/// for wire actions), used in counterexample traces.
pub fn describe(topo: &Topo, st: &State, action: Action) -> String {
    let wire = |link: u8, pos: u8| {
        let (src, dst) = topo.links[link as usize];
        match st.queues[link as usize][pos as usize] {
            Pkt::Data { seq } => format!("data seq={seq} {src}->{dst}"),
            Pkt::Ack { seq } => format!("ack seq={seq} {src}->{dst}"),
        }
    };
    match action {
        Action::Admit => "root admits next packet into the send window".to_string(),
        Action::SdmaStart => "root SDMAs oldest admitted packet into SRAM".to_string(),
        Action::ChainStep { node, seq } => {
            let ns = &st.nodes[node as usize];
            let rec = ns
                .records
                .iter()
                .find(|r| r.seq == seq)
                .expect("described record exists");
            let Chain::Active(ci) = rec.chain else {
                return format!("node {node} chain step seq={seq}");
            };
            let child = topo.children[node as usize][ci as usize];
            format!("node {node} transmits seq={seq} replica to child {child}")
        }
        Action::Deliver { link, pos } => format!("wire delivers {}", wire(link, pos)),
        Action::Drop { link, pos } => format!("environment drops {}", wire(link, pos)),
        Action::Dup { link, pos } => format!("environment duplicates {}", wire(link, pos)),
        Action::RdmaDone { node } => format!("node {node} RDMA completes oldest packet"),
        Action::CrashLeaf { node } => format!("leaf {node} fail-stops"),
        Action::Timeout { node } => format!("node {node} Go-Back-N timer fires"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_goal(cfg: &Config) -> (Topo, State, usize) {
        // Drive the model deterministically by always taking the first
        // enabled action; with no environment budgets this is one fixed
        // fault-free execution.
        let topo = Topo::binomial(cfg.nodes);
        let mut st = State::initial(cfg, &topo);
        let mut steps = 0;
        loop {
            assert_eq!(check(cfg, &topo, &st), None, "invariant at step {steps}");
            let acts = enabled(cfg, &topo, &st);
            let Some(&a) = acts.first() else {
                return (topo, st, steps);
            };
            st = apply(cfg, &topo, &st, a);
            steps += 1;
            assert!(steps < 10_000, "fault-free run must terminate");
        }
    }

    fn no_faults(mut cfg: Config) -> Config {
        cfg.loss = 0;
        cfg.dup = 0;
        cfg.reorder = 0;
        cfg.crash = 0;
        cfg
    }

    #[test]
    fn fault_free_run_reaches_goal() {
        let cfg = no_faults(Config::ci());
        let (topo, st, _) = run_to_goal(&cfg);
        assert!(is_goal(&cfg, &topo, &st), "final state: {st:?}");
        assert!(st.nodes[0].records.is_empty());
        assert_eq!(st.nodes[0].send_bufs.free(), cfg.send_bufs as usize);
        for m in &st.nodes[1..] {
            assert_eq!(m.delivered, 1);
            assert_eq!(m.recv_bufs.free(), cfg.recv_bufs as usize);
            assert!(m.refs.is_empty());
        }
    }

    #[test]
    fn fault_free_run_reaches_goal_on_deeper_trees() {
        for nodes in [2u8, 4, 5] {
            let cfg = no_faults(Config {
                nodes,
                ..Config::ci()
            });
            let (topo, st, _) = run_to_goal(&cfg);
            assert!(is_goal(&cfg, &topo, &st), "n={nodes} final state: {st:?}");
        }
    }

    #[test]
    fn binomial_topo_matches_simulator_tree() {
        use myrinet_check::check_tree;
        for n in 2u8..=6 {
            check_tree(n);
        }
    }

    /// Compare [`Topo::binomial`] against the simulator's tree builder.
    mod myrinet_check {
        use super::super::Topo;

        pub fn check_tree(n: u8) {
            use nic_mcast::{SpanningTree, TreeShape};
            let dests: Vec<myrinet::NodeId> =
                (1..n as u32).map(myrinet::NodeId).collect();
            let tree = SpanningTree::build(myrinet::NodeId(0), &dests, TreeShape::Binomial);
            let topo = Topo::binomial(n);
            for id in 0..n {
                let sim: Vec<u32> = tree
                    .children(myrinet::NodeId(id as u32))
                    .iter()
                    .map(|c| c.0)
                    .collect();
                let model: Vec<u32> =
                    topo.children[id as usize].iter().map(|&c| c as u32).collect();
                assert_eq!(model, sim, "children of {id} with n={n}");
            }
        }
    }

    #[test]
    fn mutation_widens_release_horizon() {
        assert_eq!(proto::release_horizon(1, ProtoMutation::None), 1);
        assert_eq!(
            proto::release_horizon(1, ProtoMutation::SenderWindowOffByOne),
            2
        );
    }
}
