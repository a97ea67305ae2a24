//! The per-rank MPI interpreter.
//!
//! Each rank runs a small op program (`Barrier`, `Compute`, `SkewUniform`,
//! `Bcast`, `Send`, `Recv`) repeated a number of times, implemented as a
//! [`gm::HostApp`] state machine — the moral equivalent of MPICH-GM's
//! channel device:
//!
//! * **eager protocol** for messages up to the eager limit (one GM send;
//!   the receiver pays a bounce-buffer copy to the user buffer);
//! * **rendezvous protocol** above it (RTS → CTS → bulk data, modelling the
//!   remote-DMA path);
//! * **`MPI_Barrier`** as a dissemination barrier;
//! * **`MPI_Bcast`** either host-based (binomial store-and-forward over
//!   point-to-point, the stock MPICH-GM algorithm) or NIC-based (the
//!   paper's scheme: demand-driven group creation on the first broadcast
//!   per root, then a single multicast send; receivers block exactly like
//!   `MPI_Recv`). Rendezvous-sized broadcasts always take the host-based
//!   path, as in the paper.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use gm::{flow_tag, HostApp, HostCtx, Notice};
use gm_sim::{DetRng, FlowId, SimDuration, SimTime};
use myrinet::{GroupId, NodeId, Payload};
use nic_mcast::{McastExt, McastNotice, McastRequest, SpanningTree, TreeShape};

use crate::msg::{barrier_tag, group_setup_len, tag, untag, Ctx, BCAST_PORT, MPI_PORT};
use crate::stats::{BcastRecord, Records};

/// App-track probe points for the MPI layer.
pub mod probes {
    use gm_sim::probe::{ProbeId, Track};

    /// A rank entered an MPI operation (label = op kind, payload = iteration).
    pub static MPI_OP: ProbeId = ProbeId::new("mpi_op", Track::App);

    /// NIC-based broadcast endpoints, annotated with the message's
    /// [`FlowId`](gm_sim::FlowId) so MPI-level send/deliver marks join the
    /// causal lineage of the underlying multicast (label = "send" or
    /// "deliver", payload = broadcast sequence).
    pub static MPI_BCAST_FLOW: ProbeId = ProbeId::new("mpi_bcast", Track::App);
}

/// One MPI operation in a rank program.
#[derive(Clone, Debug)]
pub enum MpiOp {
    /// Dissemination barrier over all ranks.
    Barrier,
    /// Busy the host CPU for a fixed duration.
    Compute(SimDuration),
    /// Draw a skew uniformly in [−max/2, +max/2]; positive draws compute
    /// for that long, others proceed immediately (paper §6.3). The root
    /// never skews.
    SkewUniform {
        /// Full width of the skew window.
        max: SimDuration,
    },
    /// Broadcast `size` bytes from `root` to every rank.
    Bcast {
        /// Broadcast root rank.
        root: u32,
        /// Payload size in bytes.
        size: usize,
    },
    /// Point-to-point send (blocking until local completion).
    Send {
        /// Destination rank.
        to: u32,
        /// Payload size.
        size: usize,
        /// User tag.
        tag: u32,
    },
    /// Point-to-point receive (blocking).
    Recv {
        /// Source rank.
        from: u32,
        /// User tag.
        tag: u32,
    },
}

/// Which `MPI_Bcast` algorithm eager-sized broadcasts use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BcastImpl {
    /// The paper's NIC-based multicast.
    NicBased,
    /// Stock binomial store-and-forward over point-to-point.
    HostBinomial,
}

/// Static configuration shared by all ranks (rank r lives on node r).
#[derive(Clone, Debug)]
pub struct RankCfg {
    /// The communicator: the sorted world ranks participating in this
    /// program's collectives. Collectives, barrier partners and broadcast
    /// trees are all expressed over this subset (`0..n` = MPI_COMM_WORLD).
    pub comm: Vec<u32>,
    /// Broadcast algorithm for eager sizes.
    pub bcast: BcastImpl,
    /// Eager/rendezvous switchover (bytes).
    pub eager_limit: usize,
    /// Host memcpy bandwidth for the eager bounce-buffer copy (bytes/s).
    pub copy_bandwidth: u64,
    /// Tree shape for NIC-based broadcast groups.
    pub nic_tree: TreeShape,
    /// Allow the NIC-based broadcast above the eager limit (the paper's
    /// future-work "multicast using remote DMA": the group tree carries the
    /// whole message, receivers keep enough credits posted). When false
    /// (the paper's implementation), oversized broadcasts fall back to the
    /// host-based rendezvous path.
    pub nic_rndv: bool,
    /// Warmup broadcast ordinals excluded from stats.
    pub warmup: u32,
    /// Master seed for skew draws.
    pub seed: u64,
}

const INTERNAL_OP: u64 = 0;
const INTERNAL_COPY: u64 = 1;

#[derive(Debug)]
enum Wait {
    /// Between ops.
    None,
    /// A Compute/Skew/recv-copy block.
    ComputeDone,
    /// A barrier round's partner message.
    Barrier {
        round: u32,
    },
    /// Root, NIC-based: group setup acks plus the local GroupReady.
    GroupCreate {
        acks: u32,
        local_ready: bool,
    },
    /// Root, NIC-based: the multicast SendDone.
    McastSendDone {
        tag: u64,
    },
    /// A matched receive: (src node, full tag).
    Msg {
        from: u32,
        tag: u64,
    },
    /// Outstanding child sends and/or the local bounce-buffer copy.
    SendsAndCopy,
    /// Rendezvous sender: waiting for CTS before pushing data.
    RndvCts {
        to: u32,
        value: u64,
        size: usize,
    },
    /// Sequential rendezvous fan-out for oversized broadcasts.
    BcastRndv {
        children: Vec<u32>,
        next: usize,
        size: usize,
        seq: u64,
        awaiting_cts: bool,
    },
    Done,
}

/// The per-rank application.
pub struct RankApp {
    cfg: RankCfg,
    me: u32,
    ops: Vec<MpiOp>,
    repeat: u32,
    rng: DetRng,
    /// What this rank measured, read back after the run.
    pub records: Records,

    iter: u32,
    pc: usize,
    wait: Wait,

    /// (src node, full tag) → queued messages not yet matched.
    unexpected: BTreeMap<(u32, u64), VecDeque<Payload>>,
    barrier_seq: u64,
    /// Per-root broadcast sequence numbers (collective ordinal per root).
    bcast_seq: BTreeMap<u32, u64>,
    /// Groups this rank (as root) has installed.
    groups_ready: BTreeSet<u32>,
    /// Member side: root to ack once our GroupReady notice arrives.
    pending_group_ack: Option<u32>,
    /// Outstanding tracked send completions.
    sends_pending: u32,
    /// Outstanding local bounce-buffer copy.
    copy_pending: bool,
    bcast_enter: SimTime,
    bcast_is_root: bool,
}

impl RankApp {
    /// Build rank `me`'s app for `ops` repeated `repeat` times.
    pub fn new(cfg: RankCfg, me: u32, ops: Vec<MpiOp>, repeat: u32) -> RankApp {
        assert!(!ops.is_empty() && repeat > 0);
        let rng = DetRng::substream(cfg.seed, "mpi-skew", me as u64);
        // Records sized from the program: at most one per op and repetition.
        let per_run =
            |f: fn(&MpiOp) -> bool| ops.iter().filter(|op| f(op)).count() * repeat as usize;
        let records = Records {
            bcasts: Vec::with_capacity(per_run(|op| matches!(op, MpiOp::Bcast { .. }))),
            skews: Vec::with_capacity(per_run(|op| matches!(op, MpiOp::SkewUniform { .. }))),
            barrier_exits: Vec::with_capacity(per_run(|op| matches!(op, MpiOp::Barrier))),
        };
        RankApp {
            cfg,
            me,
            ops,
            repeat,
            rng,
            records,
            iter: 0,
            pc: 0,
            wait: Wait::None,
            unexpected: BTreeMap::new(),
            barrier_seq: 0,
            bcast_seq: BTreeMap::new(),
            groups_ready: BTreeSet::new(),
            pending_group_ack: None,
            sends_pending: 0,
            copy_pending: false,
            bcast_enter: SimTime::ZERO,
            bcast_is_root: false,
        }
    }

    /// Group ids are unique per (communicator, root) pair, exactly the key
    /// of the paper's demand-driven creation.
    fn gid(&self, root: u32) -> GroupId {
        let mut h: u32 = 0x811C_9DC5;
        for &r in &self.cfg.comm {
            h = (h ^ r).wrapping_mul(0x0100_0193);
        }
        GroupId(h.wrapping_mul(31).wrapping_add(root + 1))
    }

    /// My index within the communicator.
    fn comm_index(&self) -> usize {
        self.cfg
            .comm
            .iter()
            .position(|&r| r == self.me)
            .expect("rank runs a program but is not in the communicator")
    }

    fn node(rank: u32) -> NodeId {
        NodeId(rank)
    }

    fn copy_time(&self, bytes: usize) -> SimDuration {
        SimDuration::for_bytes(bytes as u64, self.cfg.copy_bandwidth)
    }

    fn barrier_rounds(&self) -> u32 {
        let n = self.cfg.comm.len() as u32;
        if n <= 1 {
            0
        } else {
            32 - (n - 1).leading_zeros()
        }
    }

    fn take_unexpected(&mut self, from: u32, t: u64) -> Option<Payload> {
        let q = self.unexpected.get_mut(&(from, t))?;
        let m = q.pop_front();
        if q.is_empty() {
            self.unexpected.remove(&(from, t));
        }
        m
    }

    fn stash(&mut self, from: u32, t: u64, data: Payload) {
        self.unexpected
            .entry((from, t))
            .or_default()
            .push_back(data);
    }

    /// Binomial broadcast children over the communicator, rotated so `root`
    /// (a world rank, which must be a member) sits at virtual rank 0.
    fn hb_children(&self, root: u32) -> Vec<u32> {
        let comm = &self.cfg.comm;
        let n = comm.len() as u32;
        let root_ci = comm.iter().position(|&r| r == root).expect("root in comm") as u32;
        let ci = self.comm_index() as u32;
        let vrank = (ci + n - root_ci) % n;
        let mut children = Vec::new();
        let mut step = 1u32;
        while step < n {
            if vrank < step {
                let child = vrank + step;
                if child < n {
                    children.push(comm[((child + root_ci) % n) as usize]);
                }
            }
            step <<= 1;
        }
        children
    }

    fn hb_parent(&self, root: u32) -> Option<u32> {
        let comm = &self.cfg.comm;
        let n = comm.len() as u32;
        let root_ci = comm.iter().position(|&r| r == root).expect("root in comm") as u32;
        let ci = self.comm_index() as u32;
        let vrank = (ci + n - root_ci) % n;
        if vrank == 0 {
            return None;
        }
        let parent_v = vrank - (1 << (31 - vrank.leading_zeros()));
        Some(comm[((parent_v + root_ci) % n) as usize])
    }

    // -- op driver ------------------------------------------------------------

    /// Start the current op; ops that complete synchronously chain into the
    /// next one.
    fn step(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        loop {
            if self.iter >= self.repeat {
                self.wait = Wait::Done;
                return;
            }
            let op = self.ops[self.pc].clone();
            let label = match &op {
                MpiOp::Barrier => "barrier",
                MpiOp::Compute(_) => "compute",
                MpiOp::SkewUniform { .. } => "skew",
                MpiOp::Bcast { .. } => "bcast",
                MpiOp::Send { .. } => "send",
                MpiOp::Recv { .. } => "recv",
            };
            ctx.mark(&probes::MPI_OP, label, self.iter as u64);
            let advanced = match op {
                MpiOp::Barrier => self.op_barrier(ctx),
                MpiOp::Compute(d) => {
                    ctx.compute(d, tag(Ctx::Internal, INTERNAL_OP));
                    self.wait = Wait::ComputeDone;
                    false
                }
                MpiOp::SkewUniform { max } => self.op_skew(ctx, max),
                MpiOp::Bcast { root, size } => self.op_bcast(ctx, root, size),
                MpiOp::Send { to, size, tag: t } => self.op_send(ctx, to, size, t),
                MpiOp::Recv { from, tag: t } => self.op_recv(ctx, from, t),
            };
            if !advanced {
                return;
            }
            self.advance_pc();
        }
    }

    fn advance_pc(&mut self) {
        self.pc += 1;
        if self.pc >= self.ops.len() {
            self.pc = 0;
            self.iter += 1;
        }
        self.wait = Wait::None;
    }

    fn op_done(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        self.advance_pc();
        self.step(ctx);
    }

    // -- ops --------------------------------------------------------------------

    fn op_skew(&mut self, ctx: &mut HostCtx<'_, McastExt>, max: SimDuration) -> bool {
        let half = (max.as_nanos() / 2) as i64;
        let draw = if self.me == 0 || half == 0 {
            0
        } else {
            self.rng.range_inclusive(-half, half)
        };
        if draw <= 0 {
            return true;
        }
        let d = SimDuration::from_nanos(draw.unsigned_abs());
        if self.records.bcasts.len() >= self.cfg.warmup as usize {
            self.records.skews.push((ctx.now(), d));
        }
        ctx.compute(d, tag(Ctx::Internal, INTERNAL_OP));
        self.wait = Wait::ComputeDone;
        false
    }

    fn op_barrier(&mut self, ctx: &mut HostCtx<'_, McastExt>) -> bool {
        if self.cfg.comm.len() <= 1 {
            return true;
        }
        self.barrier_seq += 1;
        let done = self.barrier_progress(ctx, 0);
        if done {
            self.records.barrier_exits.push(ctx.cpu_now());
        }
        done
    }

    /// Drive the dissemination barrier from `round`; returns true when all
    /// rounds are complete.
    fn barrier_progress(&mut self, ctx: &mut HostCtx<'_, McastExt>, mut round: u32) -> bool {
        let n = self.cfg.comm.len() as u32;
        let ci = self.comm_index() as u32;
        let rounds = self.barrier_rounds();
        while round < rounds {
            let to = self.cfg.comm[((ci + (1 << round)) % n) as usize];
            let from = self.cfg.comm[((ci + n - (1 << round)) % n) as usize];
            let t = barrier_tag(self.barrier_seq, round);
            ctx.send(Self::node(to), MPI_PORT, MPI_PORT, Payload::EMPTY, t);
            if self.take_unexpected(from, t).is_some() {
                round += 1;
                continue;
            }
            self.wait = Wait::Barrier { round };
            return false;
        }
        true
    }

    fn op_send(
        &mut self,
        ctx: &mut HostCtx<'_, McastExt>,
        to: u32,
        size: usize,
        user: u32,
    ) -> bool {
        if size <= self.cfg.eager_limit {
            let t = tag(Ctx::P2p, user as u64);
            ctx.send(Self::node(to), MPI_PORT, MPI_PORT, Payload::new(0, size), t);
            self.sends_pending = 1;
            self.copy_pending = false;
            self.wait = Wait::SendsAndCopy;
        } else {
            ctx.send(
                Self::node(to),
                MPI_PORT,
                MPI_PORT,
                Payload::EMPTY,
                tag(Ctx::Rts, user as u64),
            );
            if self
                .take_unexpected(to, tag(Ctx::Cts, user as u64))
                .is_some()
            {
                self.rndv_push_data(ctx, to, size, user as u64);
            } else {
                self.wait = Wait::RndvCts {
                    to,
                    value: user as u64,
                    size,
                };
            }
        }
        false
    }

    fn rndv_push_data(
        &mut self,
        ctx: &mut HostCtx<'_, McastExt>,
        to: u32,
        size: usize,
        value: u64,
    ) {
        ctx.send(
            Self::node(to),
            MPI_PORT,
            MPI_PORT,
            Payload::new(0, size),
            tag(Ctx::RndvData, value),
        );
        self.sends_pending = 1;
        self.copy_pending = false;
        self.wait = Wait::SendsAndCopy;
    }

    fn op_recv(&mut self, ctx: &mut HostCtx<'_, McastExt>, from: u32, user: u32) -> bool {
        if let Some(data) = self.take_unexpected(from, tag(Ctx::P2p, user as u64)) {
            return self.charge_copy_then_done(ctx, data.len());
        }
        if self
            .take_unexpected(from, tag(Ctx::Rts, user as u64))
            .is_some()
        {
            ctx.send(
                Self::node(from),
                MPI_PORT,
                MPI_PORT,
                Payload::EMPTY,
                tag(Ctx::Cts, user as u64),
            );
            self.wait = Wait::Msg {
                from,
                tag: tag(Ctx::RndvData, user as u64),
            };
            return false;
        }
        self.wait = Wait::Msg {
            from,
            tag: tag(Ctx::P2p, user as u64),
        };
        false
    }

    /// Charge the receive-side copy; true if nothing to charge.
    fn charge_copy_then_done(&mut self, ctx: &mut HostCtx<'_, McastExt>, bytes: usize) -> bool {
        let d = self.copy_time(bytes);
        if d == SimDuration::ZERO {
            return true;
        }
        ctx.compute(d, tag(Ctx::Internal, INTERNAL_OP));
        self.wait = Wait::ComputeDone;
        false
    }

    // -- broadcast ---------------------------------------------------------------

    fn op_bcast(&mut self, ctx: &mut HostCtx<'_, McastExt>, root: u32, size: usize) -> bool {
        self.bcast_enter = ctx.cpu_now();
        self.bcast_is_root = self.me == root;
        let seq = {
            let e = self.bcast_seq.entry(root).or_insert(0);
            let s = *e;
            *e += 1;
            s
        };
        let nic = self.cfg.bcast == BcastImpl::NicBased
            && (size <= self.cfg.eager_limit || self.cfg.nic_rndv);
        let done = if nic {
            if self.bcast_is_root {
                if self.groups_ready.contains(&root) {
                    self.mcast_send(ctx, root, size, seq);
                } else {
                    self.create_group(ctx, root);
                }
                false
            } else {
                let t = tag(Ctx::Bcast, seq);
                if let Some(data) = self.take_unexpected(root, t) {
                    self.start_bcast_copy(ctx, data.len())
                } else {
                    self.wait = Wait::Msg { from: root, tag: t };
                    false
                }
            }
        } else {
            self.hb_bcast(ctx, root, size, seq)
        };
        if done {
            self.finish_bcast(ctx);
        }
        done
    }

    fn mcast_send(&mut self, ctx: &mut HostCtx<'_, McastExt>, root: u32, size: usize, seq: u64) {
        let t = tag(Ctx::Bcast, seq);
        // Same self-flow the NIC assigns the request (origin == dest == root),
        // so this mark is the lineage's host-level starting point.
        ctx.mark_flow(
            &probes::MPI_BCAST_FLOW,
            "send",
            seq,
            FlowId::new(self.me, flow_tag(t), self.me),
        );
        ctx.ext(McastRequest::Send {
            group: self.gid(root),
            data: Payload::new(0, size),
            tag: t,
        });
        self.wait = Wait::McastSendDone { tag: t };
    }

    /// Demand-driven group creation: build the tree at the host, push each
    /// member its slice, install our own entry, and wait for everyone's
    /// ack ("the first broadcast operation for any group will pay the cost
    /// of creating group membership").
    fn create_group(&mut self, ctx: &mut HostCtx<'_, McastExt>, root: u32) {
        let tree = self.group_tree(root);
        for &d in tree.dests() {
            let setup = Payload::new(0, group_setup_len(tree.children(d).len()));
            ctx.send(
                d,
                MPI_PORT,
                MPI_PORT,
                setup,
                tag(Ctx::GroupSetup, root as u64),
            );
        }
        ctx.provide_recv(BCAST_PORT, 64);
        ctx.ext(McastRequest::CreateGroup {
            group: self.gid(root),
            port: BCAST_PORT,
            root: Self::node(root),
            parent: None,
            children: tree.children(Self::node(root)).to_vec(),
        });
        self.wait = Wait::GroupCreate {
            acks: self.cfg.comm.len() as u32 - 1,
            local_ready: false,
        };
    }

    /// The spanning tree of `root`'s group over the communicator. The root
    /// builds it to push each member its slice; a member rebuilds it from
    /// the same inputs to read its slice back.
    fn group_tree(&self, root: u32) -> SpanningTree {
        let dests: Vec<NodeId> = self
            .cfg
            .comm
            .iter()
            .filter(|&&r| r != root)
            .map(|&r| Self::node(r))
            .collect();
        SpanningTree::build(Self::node(root), &dests, self.cfg.nic_tree)
    }

    /// Group is live: fire the broadcast that triggered creation.
    fn group_create_finished(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        let MpiOp::Bcast { root, size } = self.ops[self.pc] else {
            unreachable!("group creation outside a bcast")
        };
        self.groups_ready.insert(root);
        let seq = self.bcast_seq[&root] - 1; // assigned at op start
        self.mcast_send(ctx, root, size, seq);
    }

    fn hb_bcast(
        &mut self,
        ctx: &mut HostCtx<'_, McastExt>,
        root: u32,
        size: usize,
        seq: u64,
    ) -> bool {
        if self.bcast_is_root {
            return self.hb_forward(ctx, root, size, seq, false);
        }
        let eager = size <= self.cfg.eager_limit;
        let parent = self.hb_parent(root).expect("non-root has a parent");
        if eager {
            let t = tag(Ctx::Bcast, seq);
            if let Some(data) = self.take_unexpected(parent, t) {
                return self.hb_forward(ctx, root, data.len().max(size), seq, true);
            }
            self.wait = Wait::Msg {
                from: parent,
                tag: t,
            };
        } else {
            let t = tag(Ctx::Rts, seq);
            if self.take_unexpected(parent, t).is_some() {
                ctx.send(
                    Self::node(parent),
                    MPI_PORT,
                    MPI_PORT,
                    Payload::EMPTY,
                    tag(Ctx::Cts, seq),
                );
                self.wait = Wait::Msg {
                    from: parent,
                    tag: tag(Ctx::RndvData, seq),
                };
            } else {
                self.wait = Wait::Msg {
                    from: parent,
                    tag: t,
                };
            }
        }
        false
    }

    /// Forward the broadcast payload to this rank's binomial children and
    /// (for non-roots) charge the bounce-buffer copy. Returns true if the
    /// bcast completed synchronously (leaf, zero copy).
    fn hb_forward(
        &mut self,
        ctx: &mut HostCtx<'_, McastExt>,
        root: u32,
        size: usize,
        seq: u64,
        copy: bool,
    ) -> bool {
        let children = self.hb_children(root);
        let eager = size <= self.cfg.eager_limit;
        if eager {
            for &c in &children {
                ctx.send(
                    Self::node(c),
                    MPI_PORT,
                    MPI_PORT,
                    Payload::new(0, size),
                    tag(Ctx::Bcast, seq),
                );
            }
            self.sends_pending = children.len() as u32;
            self.copy_pending = false;
            if copy {
                let d = self.copy_time(size);
                if d > SimDuration::ZERO {
                    self.copy_pending = true;
                    ctx.compute(d, tag(Ctx::Internal, INTERNAL_COPY));
                }
            }
            if self.sends_pending == 0 && !self.copy_pending {
                return true;
            }
            self.wait = Wait::SendsAndCopy;
            return false;
        }
        // Rendezvous fan-out, one child at a time (the copy is subsumed by
        // the zero-copy remote-DMA path).
        if children.is_empty() {
            return true;
        }
        ctx.send(
            Self::node(children[0]),
            MPI_PORT,
            MPI_PORT,
            Payload::EMPTY,
            tag(Ctx::Rts, seq),
        );
        self.wait = Wait::BcastRndv {
            children,
            next: 0,
            size,
            seq,
            awaiting_cts: true,
        };
        false
    }

    /// Non-root NIC-based delivery: only the local copy remains. Returns
    /// true if the bcast completed synchronously.
    fn start_bcast_copy(&mut self, ctx: &mut HostCtx<'_, McastExt>, bytes: usize) -> bool {
        let d = self.copy_time(bytes);
        self.sends_pending = 0;
        if d == SimDuration::ZERO {
            return true;
        }
        self.copy_pending = true;
        ctx.compute(d, tag(Ctx::Internal, INTERNAL_COPY));
        self.wait = Wait::SendsAndCopy;
        false
    }

    /// Record this rank's bcast exit.
    fn finish_bcast(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        self.records.bcasts.push(BcastRecord {
            at: ctx.now(),
            enter: self.bcast_enter,
            exit: ctx.cpu_now(),
            root: self.bcast_is_root,
        });
    }

    fn finish_bcast_and_continue(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        self.finish_bcast(ctx);
        self.op_done(ctx);
    }

    /// Both legs of a SendsAndCopy wait retired?
    fn sends_and_copy_done(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        if self.sends_pending != 0 || self.copy_pending {
            return;
        }
        match self.ops[self.pc] {
            MpiOp::Bcast { .. } => self.finish_bcast_and_continue(ctx),
            _ => self.op_done(ctx),
        }
    }

    // -- message dispatch ----------------------------------------------------------

    fn on_message(&mut self, ctx: &mut HostCtx<'_, McastExt>, src: u32, t: u64, data: Payload) {
        let (c, value) = untag(t);
        // Control traffic is processed regardless of the current op.
        if c == Ctx::GroupSetup as u8 {
            let root = value as u32;
            let (tree, me) = (self.group_tree(root), Self::node(self.me));
            ctx.provide_recv(BCAST_PORT, 64);
            ctx.ext(McastRequest::CreateGroup {
                group: self.gid(root),
                port: BCAST_PORT,
                root: Self::node(root),
                parent: Some(tree.parent(me).expect("a member has a parent")),
                children: tree.children(me).to_vec(),
            });
            self.pending_group_ack = Some(root);
            return;
        }
        if c == Ctx::GroupAck as u8 {
            let finished = match &mut self.wait {
                Wait::GroupCreate { acks, local_ready } => {
                    *acks -= 1;
                    *acks == 0 && *local_ready
                }
                _ => false,
            };
            if finished {
                self.group_create_finished(ctx);
            }
            return;
        }
        if c == Ctx::Cts as u8 {
            if let Wait::RndvCts { to, value: v, size } = self.wait {
                if to == src && v == value {
                    self.rndv_push_data(ctx, to, size, v);
                    return;
                }
            }
            let bcast_push = match &mut self.wait {
                Wait::BcastRndv {
                    children,
                    next,
                    size,
                    seq,
                    awaiting_cts,
                } if *awaiting_cts && children[*next] == src && *seq == value => {
                    *awaiting_cts = false;
                    Some((children[*next], *size, *seq))
                }
                _ => None,
            };
            if let Some((child, size, seq)) = bcast_push {
                ctx.send(
                    Self::node(child),
                    MPI_PORT,
                    MPI_PORT,
                    Payload::new(0, size),
                    tag(Ctx::RndvData, seq),
                );
                self.sends_pending = 1;
                return;
            }
            self.stash(src, t, data);
            return;
        }
        if c == Ctx::Rts as u8 {
            // May satisfy a blocking user recv or a rendezvous bcast recv.
            let wants = match self.wait {
                Wait::Msg { from, tag: want } if from == src => {
                    let (wc, wv) = untag(want);
                    (wc == Ctx::P2p as u8 || wc == Ctx::Rts as u8) && wv == value
                }
                _ => false,
            };
            if wants {
                ctx.send(
                    Self::node(src),
                    MPI_PORT,
                    MPI_PORT,
                    Payload::EMPTY,
                    tag(Ctx::Cts, value),
                );
                self.wait = Wait::Msg {
                    from: src,
                    tag: tag(Ctx::RndvData, value),
                };
                return;
            }
            self.stash(src, t, data);
            return;
        }
        if c == Ctx::Barrier as u8 {
            let matched = match self.wait {
                Wait::Barrier { round } => {
                    let n = self.cfg.comm.len() as u32;
                    let ci = self.comm_index() as u32;
                    let from = self.cfg.comm[((ci + n - (1 << round)) % n) as usize];
                    if src == from && t == barrier_tag(self.barrier_seq, round) {
                        Some(round)
                    } else {
                        None
                    }
                }
                _ => None,
            };
            match matched {
                Some(round) => {
                    if self.barrier_progress(ctx, round + 1) {
                        self.records.barrier_exits.push(ctx.cpu_now());
                        self.op_done(ctx);
                    }
                }
                None => self.stash(src, t, data),
            }
            return;
        }
        // Payload traffic: eager bcast, multicast delivery, p2p, rndv data.
        let matched =
            matches!(self.wait, Wait::Msg { from, tag: want } if from == src && want == t);
        if !matched {
            self.stash(src, t, data);
            return;
        }
        let len = data.len();
        match self.ops[self.pc].clone() {
            MpiOp::Bcast { root, size } => {
                let nic = self.cfg.bcast == BcastImpl::NicBased
                    && (size <= self.cfg.eager_limit || self.cfg.nic_rndv);
                let done = if nic {
                    self.start_bcast_copy(ctx, len)
                } else {
                    self.hb_forward(ctx, root, size.max(len), value, true)
                };
                if done {
                    self.finish_bcast_and_continue(ctx);
                }
            }
            MpiOp::Recv { .. } => {
                if self.charge_copy_then_done(ctx, len) {
                    self.op_done(ctx);
                }
            }
            op => unreachable!("payload matched outside bcast/recv: {op:?}"),
        }
    }
}

impl HostApp<McastExt> for RankApp {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, McastExt>) {
        ctx.provide_recv(MPI_PORT, 512);
        self.step(ctx);
    }

    fn on_notice(&mut self, n: Notice<McastNotice>, ctx: &mut HostCtx<'_, McastExt>) {
        match n {
            Notice::Recv {
                port,
                src,
                tag: t,
                data,
                ..
            } => {
                ctx.provide_recv(port, 1);
                self.on_message(ctx, src.0, t, data);
            }
            Notice::SendComplete { tag: t, .. } => {
                let (c, _) = untag(t);
                let tracked =
                    c == Ctx::Bcast as u8 || c == Ctx::RndvData as u8 || c == Ctx::P2p as u8;
                if !tracked || self.sends_pending == 0 {
                    return;
                }
                self.sends_pending -= 1;
                match &mut self.wait {
                    Wait::SendsAndCopy => self.sends_and_copy_done(ctx),
                    Wait::BcastRndv {
                        children,
                        next,
                        seq,
                        awaiting_cts,
                        ..
                    } => {
                        debug_assert!(!*awaiting_cts);
                        *next += 1;
                        if *next < children.len() {
                            let child = children[*next];
                            let seq = *seq;
                            *awaiting_cts = true;
                            ctx.send(
                                Self::node(child),
                                MPI_PORT,
                                MPI_PORT,
                                Payload::EMPTY,
                                tag(Ctx::Rts, seq),
                            );
                        } else {
                            self.finish_bcast_and_continue(ctx);
                        }
                    }
                    _ => {}
                }
            }
            Notice::ComputeDone { tag: t } => {
                let (_, v) = untag(t);
                if v == INTERNAL_COPY {
                    self.copy_pending = false;
                    if matches!(self.wait, Wait::SendsAndCopy) {
                        self.sends_and_copy_done(ctx);
                    }
                } else if matches!(self.wait, Wait::ComputeDone) {
                    self.op_done(ctx);
                }
            }
            Notice::Ext(McastNotice::GroupReady { .. }) => {
                if let Some(root) = self.pending_group_ack.take() {
                    ctx.send(
                        Self::node(root),
                        MPI_PORT,
                        MPI_PORT,
                        Payload::EMPTY,
                        tag(Ctx::GroupAck, root as u64),
                    );
                    return;
                }
                let finished = match &mut self.wait {
                    Wait::GroupCreate { acks, local_ready } => {
                        *local_ready = true;
                        *acks == 0
                    }
                    _ => false,
                };
                if finished {
                    self.group_create_finished(ctx);
                }
            }
            Notice::Ext(McastNotice::SendDone { tag: t, .. }) => {
                if matches!(self.wait, Wait::McastSendDone { tag } if tag == t) {
                    self.finish_bcast_and_continue(ctx);
                }
            }
            // The MPI layer drives barriers at host level and never leaves
            // groups; NIC-collective and lifecycle completions are not part
            // of its protocol.
            Notice::Ext(McastNotice::BarrierDone { .. })
            | Notice::Ext(McastNotice::AllreduceDone { .. })
            | Notice::Ext(McastNotice::GroupLeft { .. }) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(n: u32, me: u32) -> RankApp {
        let cfg = RankCfg {
            comm: (0..n).collect(),
            bcast: BcastImpl::HostBinomial,
            eager_limit: 16_287,
            copy_bandwidth: 400_000_000,
            nic_tree: TreeShape::Binomial,
            nic_rndv: false,
            warmup: 0,
            seed: 1,
        };
        RankApp::new(cfg, me, vec![MpiOp::Barrier], 1)
    }

    /// Reconstruct the tree from children lists and check it is a valid
    /// spanning tree rooted at `root` with consistent parent pointers.
    fn check_tree(n: u32, root: u32) {
        let mut seen = vec![false; n as usize];
        seen[root as usize] = true;
        let mut frontier = vec![root];
        let mut edges = 0;
        while let Some(r) = frontier.pop() {
            for c in app(n, r).hb_children(root) {
                assert!(!seen[c as usize], "n={n} root={root}: {c} reached twice");
                assert_eq!(
                    app(n, c).hb_parent(root),
                    Some(r),
                    "n={n} root={root}: parent of {c}"
                );
                seen[c as usize] = true;
                edges += 1;
                frontier.push(c);
            }
        }
        assert_eq!(edges, n - 1, "n={n} root={root}: tree edge count");
        assert!(seen.iter().all(|&s| s), "n={n} root={root}: full coverage");
        assert_eq!(app(n, root).hb_parent(root), None);
    }

    #[test]
    fn binomial_rotation_covers_every_root_and_size() {
        for n in [2u32, 3, 4, 5, 7, 8, 13, 16] {
            for root in 0..n {
                check_tree(n, root);
            }
        }
    }

    #[test]
    fn barrier_round_count_is_ceil_log2() {
        for (n, rounds) in [
            (2u32, 1u32),
            (3, 2),
            (4, 2),
            (5, 3),
            (8, 3),
            (9, 4),
            (16, 4),
        ] {
            assert_eq!(app(n, 0).barrier_rounds(), rounds, "n={n}");
        }
    }

    #[test]
    fn unexpected_queue_is_fifo_per_key() {
        let mut a = app(2, 0);
        let (first, second, other) = (Payload::new(1, 5), Payload::new(2, 5), Payload::new(3, 5));
        a.stash(1, 42, first);
        a.stash(1, 42, second);
        a.stash(1, 43, other);
        assert_eq!(a.take_unexpected(1, 42), Some(first));
        assert_eq!(a.take_unexpected(1, 42), Some(second));
        assert!(a.take_unexpected(1, 42).is_none());
        assert_eq!(a.take_unexpected(1, 43), Some(other));
    }

    #[test]
    fn copy_time_uses_configured_bandwidth() {
        let a = app(2, 0);
        // 400 MB/s: 4000 bytes = 10 us.
        assert_eq!(a.copy_time(4000), SimDuration::from_micros(10));
        assert_eq!(a.copy_time(0), SimDuration::ZERO);
    }
}
