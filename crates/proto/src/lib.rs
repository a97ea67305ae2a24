//! `gm-proto` — the pure protocol core, shared by the simulator and the
//! `simcheck` model checker.
//!
//! Everything in this crate is a side-effect-free state machine fragment:
//! plain data plus transition functions over it. No clocks, no RNG, no
//! probes, no global state — the crate depends on nothing but `alloc`, so
//! the compiler enforces that: no simulator crate means no `SimTime`,
//! `DetRng` or probe, and `no_std` means no `std::time`, `std::env` or
//! `thread_local!`. The payoff is that `gm::nic` and the multicast firmware
//! in `nic-mcast` execute *these exact functions* inside the discrete-event
//! simulator, while `crates/simcheck` explores the same functions
//! exhaustively over all interleavings of small configurations. A checker
//! counterexample is therefore always a real trace of the shipped code, not
//! of a hand-maintained re-model.
//!
//! ```compile_fail,E0433
//! // The simulator's clock is out of reach here.
//! let _now = gm_sim::SimTime::ZERO;
//! ```
//!
//! The pieces, mapped to the paper's protocol (§5):
//!
//! * [`Pool`] — counted NIC resources: send tokens and SRAM packet buffers.
//!   Conservation (`free + in_use == capacity`, no double-free) is both a
//!   checker invariant and a `debug_assert!` at every grant/release site.
//! * [`Credits`] — host-granted receive tokens (grow-only grants, bounded
//!   consumption).
//! * [`GbnTx`] / [`GbnRx`] — the Go-Back-N sender/receiver window: sequence
//!   assignment, window admission, in-order acceptance, and the
//!   cumulative-ack release horizon.
//! * [`backoff_multiplier`] — how far a retransmission timer backs off.
//! * [`ChildAcks`] — the one-to-many generalization: the per-child array of
//!   acknowledged sequence numbers whose minimum gates record release.
//! * [`next_replica`] / [`fwd_buf_refs`] — the tree-forwarding step: replica
//!   chain advancement and receive-buffer reference accounting.
//! * [`Collective`] — one member's round of the NIC-level barrier and
//!   allreduce: UP counts, the subtree fold and the round advance.
//! * [`ProtoMutation`] — deliberately seeded bugs for model↔implementation
//!   conformance tests. A mutation changes the shared transition function,
//!   so enabling one breaks the checker *and* the simulator identically.

#![cfg_attr(not(test), no_std)]
#![warn(missing_docs)]

extern crate alloc;

use alloc::collections::BTreeMap;
use alloc::vec;
use alloc::vec::Vec;

/// A deliberately seeded protocol bug, threaded through [`release_horizon`]
/// so the checker and the simulator misbehave the same way. `None` in all
/// production configurations; conformance tests enable a specific mutation,
/// let `simcheck` find the counterexample, and replay it through the real
/// simulator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProtoMutation {
    /// The correct protocol.
    #[default]
    None,
    /// Cumulative-ack release slides one record too far: a packet is freed
    /// before every receiver acknowledged it, so a loss of that packet can
    /// never be repaired by retransmission.
    SenderWindowOffByOne,
}

impl ProtoMutation {
    /// Parse a CLI spelling (`none`, `sender-window-off-by-one`).
    pub fn parse(s: &str) -> Option<ProtoMutation> {
        match s {
            "none" => Some(ProtoMutation::None),
            "sender-window-off-by-one" => Some(ProtoMutation::SenderWindowOffByOne),
            _ => None,
        }
    }

    /// The CLI spelling accepted by [`ProtoMutation::parse`].
    pub fn name(self) -> &'static str {
        match self {
            ProtoMutation::None => "none",
            ProtoMutation::SenderWindowOffByOne => "sender-window-off-by-one",
        }
    }
}

/// A counted pool of identical NIC resources (send tokens, SRAM send
/// buffers, SRAM receive buffers).
///
/// The conservation invariant — a resource is never freed that was not
/// taken, so `free <= capacity` and `free + in_use == capacity` always —
/// is asserted on every release in debug builds and checked globally by
/// `simcheck`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pool {
    capacity: usize,
    free: usize,
}

impl Pool {
    /// A full pool of `capacity` resources.
    pub fn new(capacity: usize) -> Pool {
        Pool {
            capacity,
            free: capacity,
        }
    }

    /// Claim one resource. Returns `false` (without changing state) when
    /// the pool is exhausted.
    pub fn try_take(&mut self) -> bool {
        if self.free > 0 {
            self.free -= 1;
            true
        } else {
            false
        }
    }

    /// Release one resource back to the pool.
    ///
    /// Releasing more than were taken is a protocol bug (a double-free of a
    /// token or buffer); debug builds abort on it, and the `simcheck`
    /// token-conservation invariant reports it as a violation.
    pub fn put(&mut self) {
        debug_assert!(
            self.free < self.capacity,
            "token conservation: released a resource that was never taken \
             (free={} capacity={})",
            self.free,
            self.capacity
        );
        self.free = (self.free + 1).min(self.capacity);
    }

    /// Resources currently available.
    pub fn free(&self) -> usize {
        self.free
    }

    /// Resources currently claimed.
    pub fn in_use(&self) -> usize {
        self.capacity - self.free
    }

    /// Total pool size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The conservation invariant: never more free than the capacity.
    pub fn is_conserved(&self) -> bool {
        self.free <= self.capacity
    }
}

/// Host-granted receive credits for one port.
///
/// Unlike a [`Pool`], grants arrive over time (`gm_provide_receive_buffer`),
/// so the bound is the grant count, not a fixed capacity: conservation means
/// `consumed <= granted`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Credits {
    granted: u64,
    consumed: u64,
}

impl Credits {
    /// A counter with `n` initial credits.
    pub fn new(n: u64) -> Credits {
        Credits {
            granted: n,
            consumed: 0,
        }
    }

    /// The host posted `n` more receive buffers.
    pub fn grant(&mut self, n: u64) {
        self.granted += n;
    }

    /// Consume one credit; `false` (and no state change) when none remain.
    pub fn try_consume(&mut self) -> bool {
        if self.consumed < self.granted {
            self.consumed += 1;
            true
        } else {
            false
        }
    }

    /// Credits currently available.
    pub fn available(&self) -> u64 {
        self.granted - self.consumed
    }

    /// Total credits ever granted.
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// Total credits ever consumed.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// The conservation invariant: consumption never exceeds grants.
    pub fn is_conserved(&self) -> bool {
        self.consumed <= self.granted
    }
}

/// Go-Back-N sender state: the next sequence number to assign, plus the
/// window-admission and release-horizon decision functions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GbnTx {
    next_seq: u64,
}

impl GbnTx {
    /// Window admission: may another packet record be created while
    /// `outstanding` records are unacknowledged?
    pub fn can_admit(&self, outstanding: usize, window: usize) -> bool {
        outstanding < window
    }

    /// Assign the next sequence number.
    pub fn assign_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// The next sequence number that would be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

/// The exclusive upper bound of sequence numbers a cumulative acknowledgment
/// releases: given that packets `0..acked_count` are acknowledged by every
/// receiver, records with `seq < release_horizon(acked_count, m)` may be
/// freed.
///
/// For a unicast ack carrying sequence `s`, `acked_count` is `s + 1`; for
/// the one-to-many protocol it is [`ChildAcks::min_acked`]. The correct
/// horizon is `acked_count` itself; the
/// [`SenderWindowOffByOne`](ProtoMutation::SenderWindowOffByOne) mutation
/// frees one record too many, which is exactly the kind of bug the
/// `simcheck` exactly-once and deadlock invariants exist to catch.
pub fn release_horizon(acked_count: u64, mutation: ProtoMutation) -> u64 {
    match mutation {
        ProtoMutation::None => acked_count,
        ProtoMutation::SenderWindowOffByOne => acked_count.saturating_add(1),
    }
}

/// The factor a Go-Back-N retransmission timer is stretched by when its
/// records have been retransmitted up to `retries` times: it doubles per
/// retry, so a sender does not beat a congested network that is still
/// draining its duplicates, and stops at 32 (from 5 retries on).
pub fn backoff_multiplier(retries: u32) -> u64 {
    1 << retries.min(5)
}

/// The receiver's verdict on an arriving data packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RxVerdict {
    /// The packet is the next in sequence: accept it (the caller then calls
    /// [`GbnRx::accept`] once resources are secured).
    Accept,
    /// Out of order under Go-Back-N: drop the packet and, if anything was
    /// received in order before, immediately re-acknowledge it so the
    /// sender's window can advance even if the original ack was lost.
    OutOfOrder {
        /// The cumulative sequence to re-ack, if any packet was accepted.
        reack: Option<u64>,
    },
}

/// Go-Back-N receiver state: the next expected sequence number.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GbnRx {
    expected: u64,
}

impl GbnRx {
    /// Classify an arriving sequence number. Pure: acceptance is committed
    /// separately by [`GbnRx::accept`], because the real receive path may
    /// still drop an in-order packet for lack of a receive token or SRAM
    /// buffer (in which case the sender's timeout recovers it).
    pub fn verdict(&self, seq: u64) -> RxVerdict {
        if seq == self.expected {
            RxVerdict::Accept
        } else {
            RxVerdict::OutOfOrder {
                reack: self.expected.checked_sub(1),
            }
        }
    }

    /// Commit the in-order packet: advance the window.
    pub fn accept(&mut self) {
        self.expected += 1;
    }

    /// The next sequence number this receiver will accept.
    pub fn expected(&self) -> u64 {
        self.expected
    }

    /// The cumulative acknowledgment to send: the last in-order sequence
    /// accepted, or `None` if nothing has been.
    pub fn cum_ack(&self) -> Option<u64> {
        self.expected.checked_sub(1)
    }
}

/// Per-child acknowledged-sequence array — the paper's third piece of
/// sequence state (§5): "an array of acknowledged sequence numbers, one per
/// child". Entries hold *counts* (acked seq + 1) so zero means "nothing
/// acknowledged".
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChildAcks {
    acked: Vec<u64>,
}

impl ChildAcks {
    /// All-zero array for `n` children.
    pub fn new(n: usize) -> ChildAcks {
        ChildAcks { acked: vec![0; n] }
    }

    /// A cumulative ack for `seq` arrived from child `ci`. Monotonic:
    /// duplicate or stale acks never regress the count. Returns `true` if
    /// the count advanced.
    pub fn on_ack(&mut self, ci: usize, seq: u64) -> bool {
        let new = seq + 1;
        if new > self.acked[ci] {
            self.acked[ci] = new;
            true
        } else {
            false
        }
    }

    /// Lowest per-child acked count: packets below this are globally
    /// acknowledged and their records may be released. `u64::MAX` with no
    /// children (a leaf holds nothing).
    pub fn min_acked(&self) -> u64 {
        self.acked.iter().copied().min().unwrap_or(u64::MAX)
    }

    /// Child `ci`'s acked count.
    pub fn count(&self, ci: usize) -> u64 {
        self.acked[ci]
    }

    /// Does child `ci` still need packet `seq` (not yet acknowledged)?
    /// This is the selective-retransmission test: on timeout, a packet is
    /// resent "only for the destinations which have not acknowledged".
    pub fn needs(&self, ci: usize, seq: u64) -> bool {
        self.acked[ci] <= seq
    }

    /// Number of children.
    pub fn len(&self) -> usize {
        self.acked.len()
    }

    /// True for a leaf (no children to track).
    pub fn is_empty(&self) -> bool {
        self.acked.is_empty()
    }
}

/// Tree-forwarding step: after feeding child index `idx` of `children`,
/// which child does the replica chain feed next? `None` ends the chain
/// (the packet's buffer reference is released).
pub fn next_replica(children: usize, idx: usize) -> Option<usize> {
    let next = idx + 1;
    if next < children {
        Some(next)
    } else {
        None
    }
}

/// References a freshly accepted multicast packet holds on its SRAM receive
/// buffer: one for the RDMA upload to host memory, one for the forwarding
/// chain if this node has children, and — only under the `HoldSram`
/// ablation the paper rejects — one held until every child acknowledges.
pub fn fwd_buf_refs(has_children: bool, hold_sram: bool) -> u8 {
    1 + u8::from(has_children) + u8::from(has_children && hold_sram)
}

/// The combining operator of a NIC-level allreduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReduceOp {
    /// Wrapping sum.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl ReduceOp {
    /// Combine two operands.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

/// What a collective round computes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CollKind {
    /// Synchronization only.
    #[default]
    Barrier,
    /// Every member's value, folded up the tree with the operator.
    Allreduce(ReduceOp),
}

/// One member's side of a NIC-level collective round over a group tree
/// (paper §7, as cs/0402027 builds it): each member sends its parent one
/// "subtree entered" UP token with its subtree's partial value, and the
/// root releases everyone with one reliable multicast. UP tokens count
/// rounds: an UP for round `r` means the child's subtree is ready for every
/// round up to `r`, so a stale or repeated UP never lowers a count.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Collective {
    round: u64,
    /// Whether the local host has entered `round`, with `tag`, `kind` and
    /// its own `value`.
    entered: bool,
    tag: u64,
    kind: CollKind,
    value: u64,
    /// Whether this member's UP for `round` went to its parent.
    up_sent: bool,
    /// Per child: rounds reported UP, and the latest partial value.
    children: Vec<(u64, u64)>,
}

impl Collective {
    /// Round 0, not entered, for a member with `children` children.
    pub fn new(children: usize) -> Collective {
        Collective {
            children: vec![(0, 0); children],
            ..Collective::default()
        }
    }

    /// The local host enters the round in progress.
    pub fn enter(&mut self, tag: u64, kind: CollKind, value: u64) {
        assert!(!self.entered, "host re-entered an open collective round");
        (self.entered, self.tag, self.kind, self.value) = (true, tag, kind, value);
    }

    /// Whether the local host entered a round that has not completed.
    pub fn is_open(&self) -> bool {
        self.entered
    }

    /// The round in progress.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Child `ci` reported UP for `round` with its subtree's `value`.
    pub fn on_up(&mut self, ci: usize, round: u64, value: u64) {
        let (count, partial) = &mut self.children[ci];
        if round + 1 >= *count {
            *partial = value;
        }
        *count = (*count).max(round + 1);
    }

    /// Whether the host entered the round and every child reported UP.
    pub fn subtree_ready(&self) -> bool {
        self.entered && self.children.iter().all(|&(count, _)| count > self.round)
    }

    /// This subtree's partial result: the local value folded with every
    /// child's, or `None` for a barrier, which folds nothing.
    pub fn fold(&self) -> Option<u64> {
        let CollKind::Allreduce(op) = self.kind else {
            return None;
        };
        Some(
            self.children
                .iter()
                .fold(self.value, |acc, &(_, v)| op.apply(acc, v)),
        )
    }

    /// Mark this member's UP for the round as sent; `false` if it was.
    pub fn send_up(&mut self) -> bool {
        !core::mem::replace(&mut self.up_sent, true)
    }

    /// Whether the UP for `round` was sent and its round is still open.
    pub fn up_outstanding(&self, round: u64) -> bool {
        self.up_sent && self.round == round
    }

    /// Complete the round in progress (the root releases it, or a member
    /// accepts the release) and open the next; returns the completed
    /// round's tag.
    pub fn advance(&mut self) -> u64 {
        (self.round, self.entered, self.up_sent) = (self.round + 1, false, false);
        self.tag
    }
}

/// The NIC group table: a fixed-capacity slab of per-group state slots.
///
/// The paper keeps all multicast state ("per-group state only") in NIC
/// SRAM, which makes the number of simultaneously installed groups an
/// exhaustible resource exactly like send tokens and packet buffers. The
/// slab hands out the **lowest free slot** deterministically, keeps an
/// id→slot index, and conserves `used + free == capacity` — checked by a
/// `debug_assert!` at every alloc/free site in `gm::nic`.
///
/// Generic over the id type so the pure core stays independent of
/// `myrinet` (the NIC instantiates it with `GroupId`).
#[derive(Clone, Debug)]
pub struct GroupTable<K: Ord + Copy> {
    /// slot → installed id (`None` = free).
    slots: Vec<Option<K>>,
    /// id → slot, for O(log n) membership tests.
    index: BTreeMap<K, usize>,
    /// Free slot indices, kept sorted descending so `pop()` yields the
    /// lowest free slot (deterministic placement).
    free: Vec<usize>,
}

impl<K: Ord + Copy> GroupTable<K> {
    /// An empty table with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        GroupTable {
            slots: vec![None; capacity],
            index: BTreeMap::new(),
            free: (0..capacity).rev().collect(),
        }
    }

    /// Install `id` in the lowest free slot, returning it. `None` when the
    /// table is full (the caller must queue or reject the install) or when
    /// `id` is already installed (its existing slot is kept).
    pub fn alloc(&mut self, id: K) -> Option<usize> {
        if self.index.contains_key(&id) {
            return None;
        }
        let slot = self.free.pop()?;
        self.slots[slot] = Some(id);
        self.index.insert(id, slot);
        Some(slot)
    }

    /// Release `id`'s slot, returning it (`None` if not installed).
    pub fn release(&mut self, id: K) -> Option<usize> {
        let slot = self.index.remove(&id)?;
        self.slots[slot] = None;
        // Keep `free` sorted descending: binary-search the insertion point.
        let pos = self.free.partition_point(|&s| s > slot);
        self.free.insert(pos, slot);
        Some(slot)
    }

    /// The slot `id` occupies, if installed.
    pub fn slot_of(&self, id: K) -> Option<usize> {
        self.index.get(&id).copied()
    }

    /// Installed groups.
    pub fn used(&self) -> usize {
        self.index.len()
    }

    /// Free slots.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Total slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Whether no slot is free.
    pub fn is_full(&self) -> bool {
        self.free.is_empty()
    }

    /// Slot-conservation invariant: every slot is either free or indexed,
    /// and the index matches the slab contents.
    pub fn is_conserved(&self) -> bool {
        self.index.len() + self.free.len() == self.slots.len()
            && self
                .index
                .iter()
                .all(|(id, &s)| self.slots.get(s).copied().flatten() == Some(*id))
            && self.free.windows(2).all(|w| w[0] > w[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_per_retry_up_to_32() {
        assert_eq!(
            [0, 1, 5, 6, u32::MAX].map(backoff_multiplier),
            [1, 2, 32, 32, 32]
        );
    }

    #[test]
    fn group_table_allocs_lowest_slot_and_conserves() {
        let mut t: GroupTable<u32> = GroupTable::new(3);
        assert_eq!(t.alloc(10), Some(0));
        assert_eq!(t.alloc(20), Some(1));
        assert_eq!(t.alloc(30), Some(2));
        assert!(t.is_full());
        assert_eq!(t.alloc(40), None, "full table rejects");
        assert_eq!(t.alloc(10), None, "duplicate install rejected");
        assert!(t.is_conserved());
        assert_eq!(t.release(20), Some(1));
        assert_eq!(t.release(20), None, "double free rejected");
        assert_eq!(t.alloc(40), Some(1), "lowest free slot reused");
        assert_eq!(t.slot_of(40), Some(1));
        assert_eq!(t.used(), 3);
        assert!(t.is_conserved());
        t.release(10);
        t.release(30);
        assert_eq!(t.free_slots(), 2);
        assert_eq!(t.alloc(50), Some(0), "slot 0 before slot 2");
        assert!(t.is_conserved());
    }

    #[test]
    fn pool_conserves() {
        let mut p = Pool::new(2);
        assert!(p.try_take());
        assert!(p.try_take());
        assert!(!p.try_take(), "exhausted");
        assert_eq!(p.in_use(), 2);
        p.put();
        assert_eq!(p.free(), 1);
        assert!(p.is_conserved());
    }

    #[test]
    #[should_panic(expected = "token conservation")]
    #[cfg(debug_assertions)]
    fn pool_double_free_asserts() {
        let mut p = Pool::new(1);
        p.put();
    }

    #[test]
    fn credits_grow_and_consume() {
        let mut c = Credits::new(1);
        assert!(c.try_consume());
        assert!(!c.try_consume());
        c.grant(2);
        assert_eq!(c.available(), 2);
        assert!(c.try_consume());
        assert!(c.is_conserved());
    }

    #[test]
    fn gbn_tx_window_and_seqs() {
        let mut tx = GbnTx::default();
        assert!(tx.can_admit(0, 2));
        assert!(tx.can_admit(1, 2));
        assert!(!tx.can_admit(2, 2));
        assert_eq!(tx.assign_seq(), 0);
        assert_eq!(tx.assign_seq(), 1);
        assert_eq!(tx.next_seq(), 2);
    }

    #[test]
    fn gbn_rx_in_order_and_reack() {
        let mut rx = GbnRx::default();
        assert_eq!(rx.verdict(1), RxVerdict::OutOfOrder { reack: None });
        assert_eq!(rx.verdict(0), RxVerdict::Accept);
        rx.accept();
        assert_eq!(rx.cum_ack(), Some(0));
        // A duplicate of 0 is out of order now and re-acks 0.
        assert_eq!(rx.verdict(0), RxVerdict::OutOfOrder { reack: Some(0) });
    }

    #[test]
    fn release_horizon_mutation_is_off_by_one() {
        assert_eq!(release_horizon(3, ProtoMutation::None), 3);
        assert_eq!(release_horizon(3, ProtoMutation::SenderWindowOffByOne), 4);
    }

    #[test]
    fn child_acks_min_and_needs() {
        let mut a = ChildAcks::new(3);
        assert_eq!(a.min_acked(), 0);
        assert!(a.on_ack(0, 2)); // counts: [3,0,0]
        assert!(a.on_ack(1, 0)); // counts: [3,1,0]
        assert!(!a.on_ack(1, 0), "duplicate ack does not advance");
        assert_eq!(a.min_acked(), 0);
        assert!(a.on_ack(2, 1)); // counts: [3,1,2]
        assert_eq!(a.min_acked(), 1);
        assert!(a.needs(1, 1));
        assert!(!a.needs(0, 1));
        assert_eq!(ChildAcks::new(0).min_acked(), u64::MAX);
    }

    #[test]
    fn replica_chain_steps_through_children() {
        assert_eq!(next_replica(3, 0), Some(1));
        assert_eq!(next_replica(3, 2), None);
        assert_eq!(next_replica(1, 0), None);
    }

    #[test]
    fn buf_refs_match_forwarding_roles() {
        assert_eq!(fwd_buf_refs(false, false), 1, "leaf: RDMA only");
        assert_eq!(fwd_buf_refs(true, false), 2, "forwarder: RDMA + chain");
        assert_eq!(fwd_buf_refs(true, true), 3, "HoldSram ablation");
        assert_eq!(fwd_buf_refs(false, true), 1, "leaf ignores HoldSram");
    }

    #[test]
    fn collective_counts_rounds_and_folds_the_subtree() {
        let mut c = Collective::new(2);
        c.enter(7, CollKind::Allreduce(ReduceOp::Sum), 1);
        c.on_up(0, 0, 10);
        assert!(!c.subtree_ready(), "child 1 has not reported");
        c.on_up(1, 0, 100);
        assert!(c.subtree_ready());
        assert_eq!(c.fold(), Some(111));
        assert!(c.send_up() && !c.send_up(), "one UP a round");
        assert!(c.up_outstanding(0));
        assert_eq!(c.advance(), 7);
        assert!(!c.is_open() && !c.up_outstanding(0));
        c.on_up(0, 1, 20);
        c.on_up(0, 0, 10); // a stale UP neither lowers the count nor the value
        c.enter(8, CollKind::Barrier, 0);
        assert!(!c.subtree_ready(), "child 1 has not reported round 1");
        c.on_up(1, 1, 0);
        assert!(c.subtree_ready() && c.fold().is_none());
        assert_eq!(c.children, [(2, 20), (2, 0)]);
    }

    #[test]
    fn mutation_parses_round_trip() {
        for m in [ProtoMutation::None, ProtoMutation::SenderWindowOffByOne] {
            assert_eq!(ProtoMutation::parse(m.name()), Some(m));
        }
        assert_eq!(ProtoMutation::parse("bogus"), None);
    }
}
