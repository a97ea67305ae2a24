//! The pending-event set: a stable priority queue keyed on time.
//!
//! Events pop in `(time, tiebreak)` order. An ordinary event's tiebreak is
//! its insertion sequence, so events scheduled for the same instant are
//! delivered in the order they were scheduled (FIFO), which keeps
//! simulations deterministic without requiring the event type to be `Ord`.
//!
//! A *wire-class* event ([`EventQueue::push_wire`]) is a packet hand-off.
//! Its tiebreak is the hand-off's canonical `(src, seq)` key with the class
//! bit clear, so at any instant every wire event pops before every ordinary
//! one, and wire events pop in key order — whenever, and on whichever
//! shard, they were pushed. That canonical position is what the engine's
//! deterministic merge rests on; a one-shard run uses the same rule, so
//! every shard count agrees bit for bit.
//!
//! Two interchangeable implementations sit behind [`EventQueue`]:
//!
//! * **Wheel** (default): a sliding circular timing wheel tuned for the
//!   simulator's short-horizon traffic. A small sorted *active* deque holds
//!   the bucket being drained; the next ~131 µs are a ring of 1,024
//!   buckets of 128 ns with an occupancy bitmap; later events wait in a
//!   far heap and move into the ring as the window slides past them. Most
//!   pushes are an O(1) bucket prepend, pops are O(1) front-pops, and
//!   sorting happens once per (small) bucket drain.
//! * **Heap**: the classic single binary heap, kept as the reference
//!   implementation for differential tests.
//!
//! Events are stored inline in the entries. The simulator's events are
//! 12-byte ids — payloads park with the node that owns them (see
//! `gm::cluster`) — so an entry is as cheap to move as an index record and
//! no payload arena is needed. The ring's buckets share one pool of entries
//! instead: each slot heads a list linked through a [`Slab`], whose free
//! list hands a drained entry's slot to the next push. The wheel's bucket
//! storage therefore follows the number of events pending, not the busiest
//! lap each bucket has seen.
//!
//! Both implementations produce the exact same pop order, so simulated
//! results are bit-for-bit identical; tests switch the default to the heap
//! in-process with [`set_kind_override`] for parity runs. See DESIGN.md §6.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};

use crate::slab::Slab;
use crate::time::SimTime;

/// Tiebreak bit of ordinary events. Wire keys have it clear, so within an
/// instant every wire event sorts before every ordinary one.
const NORMAL: u64 = 1 << 63;
/// Bits of a wire key's source field (16M sources).
const WIRE_SRC_BITS: u32 = 24;
/// Bits of a wire key's per-source sequence field (5.5e11 hand-offs each).
const WIRE_SEQ_BITS: u32 = 63 - WIRE_SRC_BITS;

/// Pack a hand-off's canonical `(src, seq)` key into a wire tiebreak,
/// refusing keys that would collide after packing.
#[inline]
fn wire_tie(src: u64, seq: u64) -> u64 {
    assert!(
        src >> WIRE_SRC_BITS == 0 && seq >> WIRE_SEQ_BITS == 0,
        "wire key ({src}, {seq}) exceeds the queue's {WIRE_SRC_BITS}+{WIRE_SEQ_BITS}-bit packing"
    );
    (src << WIRE_SEQ_BITS) | seq
}

/// One pending event with its sort key, stored inline.
struct Entry<E> {
    time: SimTime,
    tie: u64,
    event: E,
}

impl<E> Entry<E> {
    /// Chronological sort key; wire events first (in key order), then FIFO,
    /// within an instant.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.tie)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest key pops first.
        other.key().cmp(&self.key())
    }
}

/// log2 of the bucket width: 128 ns buckets. On the many-group workload
/// ~97% of pushes land under 4 µs ahead, so a bucket holds a handful of
/// events and its drain sort is tiny.
const BUCKET_SHIFT: u32 = 7;
/// Number of buckets in the ring: 1,024 × 128 ns ≈ 131 µs of near future
/// (99.6% of many-group pushes); retransmission timers and other later
/// events wait in the far heap.
const BUCKETS: u64 = 1024;
const SLOT_MASK: u64 = BUCKETS - 1;
const WORDS: usize = (BUCKETS / 64) as usize;
#[cfg(test)]
const BUCKET_WIDTH: u64 = 1 << BUCKET_SHIFT;
#[cfg(test)]
const WINDOW: u64 = BUCKETS * BUCKET_WIDTH;

/// The link past a bucket's oldest entry, and the head of an empty slot.
const NIL: u32 = u32::MAX;

/// The absolute bucket index of `time`.
#[inline]
fn bucket_of(time: SimTime) -> u64 {
    time.as_nanos() >> BUCKET_SHIFT
}

/// Which queue implementation a new [`EventQueue`] uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueueKind {
    /// Sliding bucketed wheel (default).
    Wheel,
    /// Single binary heap (reference).
    Heap,
}

/// Whether [`set_kind_override`] picked the reference heap.
static HEAP_OVERRIDE: AtomicBool = AtomicBool::new(false);

/// Force the kind of queues constructed after this call (`None` restores
/// the wheel default). Differential tests use it to run the same
/// simulation on the wheel and on the reference heap in one process; runs
/// are bit-for-bit identical either way.
pub fn set_kind_override(kind: Option<QueueKind>) {
    HEAP_OVERRIDE.store(kind == Some(QueueKind::Heap), AtomicOrdering::Relaxed);
}

/// Sliding circular timing wheel with a sorted-deque active tier and a
/// far-future heap.
///
/// `active` is a `VecDeque` in ascending key order: the earliest event pops
/// from the front in O(1), an event later than everything pending appends
/// at the back in O(1) (the hot path for causal chains), and a mid-span
/// insert moves only the shorter side of the ring.
///
/// Partition invariants (checked by the differential tests):
///
/// * `active` holds every pending event in a bucket before `cursor`;
/// * absolute bucket `b` (`time >> BUCKET_SHIFT`) with
///   `cursor ≤ b < cursor + BUCKETS` lives in slot `b % BUCKETS`, so the
///   ring holds one window of buckets and every slot one bucket;
/// * `far` holds every event in a bucket at or after `cursor + BUCKETS`.
///   Hence, when the ring is non-empty, its first occupied bucket holds
///   the earliest event outside `active`;
/// * `active` is refilled lazily: [`refill`](Self::refill) (called by peek
///   and pop) drains the next occupied bucket when `active` is empty, or
///   jumps to the far heap's earliest bucket when the ring is empty, then
///   slides the window and migrates the far events it now covers;
/// * every live `pool` node is linked into exactly one slot's list, newest
///   first, and a slot's `occupied` bit is set exactly when its list is
///   non-empty.
struct Wheel<E> {
    /// Sorted ascending by key; earliest event at the front.
    active: VecDeque<Entry<E>>,
    /// Absolute index of the first bucket not yet drained into `active`.
    cursor: u64,
    /// Per slot, the pool node of its bucket's newest entry (`NIL` when the
    /// bucket is empty).
    heads: [u32; BUCKETS as usize],
    /// Every bucketed entry, with the node of the entry pushed before it
    /// into the same bucket. The pool grows only when all its slots are
    /// live, so it never has more slots than events were ever pending.
    pool: Slab<(Entry<E>, u32)>,
    /// One bit per slot; lets `refill` skip empty slots 64 at a time.
    occupied: [u64; WORDS],
    far: BinaryHeap<Entry<E>>,
}

impl<E> Wheel<E> {
    fn new() -> Self {
        Wheel {
            active: VecDeque::new(),
            cursor: 0,
            heads: [NIL; BUCKETS as usize],
            pool: Slab::new(),
            occupied: [0; WORDS],
            far: BinaryHeap::new(),
        }
    }

    /// Insert into `active`, preserving ascending key order. Only events in
    /// an already-drained bucket land here, so `active` stays small and the
    /// end cases dominate.
    fn insert_active(&mut self, entry: Entry<E>) {
        let k = entry.key();
        // O(1) end cases first; they dominate real schedules (an event later
        // than everything imminent, or earlier than everything pending).
        match self.active.back() {
            None => return self.active.push_back(entry),
            Some(b) if b.key() < k => return self.active.push_back(entry),
            _ => {}
        }
        if self.active.front().map(Entry::key) > Some(k) {
            return self.active.push_front(entry);
        }
        let pos = self.active.partition_point(|e| e.key() < k);
        self.active.insert(pos, entry);
    }

    /// Add to absolute bucket `b`, which must lie inside the window.
    #[inline]
    fn bucket_push(&mut self, b: u64, entry: Entry<E>) {
        debug_assert!(
            b >= self.cursor && b - self.cursor < BUCKETS,
            "bucket outside the window"
        );
        let slot = (b & SLOT_MASK) as usize;
        self.heads[slot] = self.pool.insert((entry, self.heads[slot]));
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    // Forced: with the pool's insert inlined into it, LLVM kept `push` out
    // of line, and the call on every push cost ~5% of `many_groups`'
    // dispatch. The rare far-heap path stays out of line instead.
    #[inline(always)]
    fn push(&mut self, entry: Entry<E>) {
        let b = bucket_of(entry.time);
        if b < self.cursor {
            self.insert_active(entry);
        } else if b - self.cursor < BUCKETS {
            self.bucket_push(b, entry);
        } else {
            self.far_push(entry);
        }
    }

    /// Queue an event a window or more ahead: rare (retransmission timers,
    /// for instance), so its heap sift stays out of the inlined `push`.
    #[cold]
    #[inline(never)]
    fn far_push(&mut self, entry: Entry<E>) {
        self.far.push(entry);
    }

    /// The absolute index of the first occupied bucket (the ring must be
    /// non-empty). Scans the bitmap circularly from the cursor's slot; slot
    /// order from there is bucket order, because the ring holds exactly
    /// one window.
    fn next_occupied(&self) -> u64 {
        debug_assert!(!self.pool.is_empty());
        let start = self.cursor & SLOT_MASK;
        let mut wi = (start / 64) as usize;
        let mut word = self.occupied[wi] & (!0u64 << (start % 64));
        // Some bit is set, so this ends within WORDS more words: revisiting
        // the start word unmasked yields its low bits — the window's far
        // end. A pool node whose bucket lost its bit fails here, not spins.
        for _ in 0..WORDS {
            if word != 0 {
                break;
            }
            wi = (wi + 1) % WORDS;
            word = self.occupied[wi];
        }
        assert!(
            word != 0,
            "{} pooled entries but no occupied slot",
            self.pool.len()
        );
        let slot = (wi as u64) * 64 + u64::from(word.trailing_zeros());
        self.cursor + (slot.wrapping_sub(start) & SLOT_MASK)
    }

    /// Move the next non-empty bucket into the (empty) active tier, then
    /// slide the window past it. Caller guarantees an event is pending in
    /// the ring or the far heap.
    fn refill(&mut self) {
        debug_assert!(self.active.is_empty());
        let c = if !self.pool.is_empty() {
            let c = self.next_occupied();
            let slot = (c & SLOT_MASK) as usize;
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            // The list runs newest first, so pushing each entry at the
            // front leaves `active` in push order, which the sort's
            // insertion pass takes in near-linear time.
            let mut node = std::mem::replace(&mut self.heads[slot], NIL);
            while node != NIL {
                let (entry, older) = self.pool.take(node);
                self.active.push_front(entry);
                node = older;
            }
            self.active
                .make_contiguous()
                .sort_unstable_by_key(Entry::key);
            c
        } else {
            // The ring is empty: jump to the far heap's earliest bucket.
            let head = self.far.peek().expect("refill on an empty queue");
            bucket_of(head.time)
        };
        self.cursor = c + 1;
        // Slide the window to [cursor, cursor + BUCKETS) and migrate the far
        // events it now covers. Bucket `c` was emptied above, so an event
        // exactly one window after it lands in an empty slot.
        while let Some(head) = self.far.peek() {
            let b = bucket_of(head.time);
            if b >= self.cursor + BUCKETS {
                break;
            }
            let e = self.far.pop().expect("peeked");
            if b < self.cursor {
                // Bucket `c` itself, after a jump: the far heap yields it in
                // key order into the empty active tier.
                self.active.push_back(e);
            } else {
                self.bucket_push(b, e);
            }
        }
    }

    /// The earliest pending entry (refilling `active` first if needed);
    /// `pending` counts every event the wheel holds.
    #[inline]
    fn front(&mut self, pending: usize) -> Option<&Entry<E>> {
        if self.active.is_empty() && pending > 0 {
            self.refill();
        }
        self.active.front()
    }

    fn clear(&mut self) {
        self.active.clear();
        self.far.clear();
        self.heads = [NIL; BUCKETS as usize];
        self.occupied = [0; WORDS];
        self.pool.clear();
        self.cursor = 0;
    }

    /// Walk every bucket list and check the pool against it (see
    /// [`EventQueue::check_pool`]). Returns the number of linked entries;
    /// a link to a vacant or missing pool slot panics.
    fn check_pool(&self) -> Result<usize, String> {
        let mut linked = vec![false; self.pool.capacity()];
        let mut count = 0;
        for (slot, &head) in self.heads.iter().enumerate() {
            let bit = (self.occupied[slot / 64] >> (slot % 64)) & 1 == 1;
            if bit != (head != NIL) {
                return Err(format!("slot {slot}: occupancy bit {bit}, head {head}"));
            }
            let mut node = head;
            while node != NIL {
                if std::mem::replace(&mut linked[node as usize], true) {
                    return Err(format!(
                        "node {node} is linked twice (again from slot {slot})"
                    ));
                }
                let (entry, older) = self.pool.get(node);
                let b = bucket_of(entry.time);
                if (b & SLOT_MASK) as usize != slot || b < self.cursor || b - self.cursor >= BUCKETS
                {
                    return Err(format!(
                        "node {node} of slot {slot} holds bucket {b}, cursor {}",
                        self.cursor
                    ));
                }
                count += 1;
                node = *older;
            }
        }
        if count != self.pool.len() {
            return Err(format!(
                "the pool holds {} entries, its lists link {count}",
                self.pool.len()
            ));
        }
        Ok(count)
    }
}

enum Inner<E> {
    Wheel(Box<Wheel<E>>),
    Heap(BinaryHeap<Entry<E>>),
}

/// A time-ordered, insertion-stable event queue with a keyed wire class.
pub struct EventQueue<E> {
    inner: Inner<E>,
    next_seq: u64,
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue of the process-default kind: the wheel, or the
    /// reference heap if [`set_kind_override`] picked it.
    pub fn new() -> Self {
        if HEAP_OVERRIDE.load(AtomicOrdering::Relaxed) {
            Self::heap()
        } else {
            Self::wheel()
        }
    }

    /// An empty queue of an explicit kind (for differential tests).
    pub fn with_kind(kind: QueueKind) -> Self {
        let inner = match kind {
            QueueKind::Wheel => Inner::Wheel(Box::new(Wheel::new())),
            QueueKind::Heap => Inner::Heap(BinaryHeap::new()),
        };
        EventQueue {
            inner,
            next_seq: 0,
            len: 0,
        }
    }

    /// An empty sliding-wheel queue.
    pub fn wheel() -> Self {
        Self::with_kind(QueueKind::Wheel)
    }

    /// An empty reference binary-heap queue.
    pub fn heap() -> Self {
        Self::with_kind(QueueKind::Heap)
    }

    /// Which implementation this queue uses.
    pub fn kind(&self) -> QueueKind {
        match self.inner {
            Inner::Wheel(_) => QueueKind::Wheel,
            Inner::Heap(_) => QueueKind::Heap,
        }
    }

    /// Schedule `event` to fire at `time`, after every ordinary event
    /// already scheduled for that instant (and after all of its wire
    /// events).
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E) {
        let tie = NORMAL | self.next_seq;
        self.next_seq += 1;
        self.push_entry(Entry { time, tie, event });
    }

    /// Schedule a wire-class event at `time` keyed by its hand-off's
    /// canonical `(src, seq)`: it pops before every ordinary event at the
    /// same instant, and wire events of one instant pop in key order,
    /// whenever they were pushed. `(time, src, seq)` must be unique among
    /// wire events; `src` must fit 24 bits and `seq` 39 (asserted).
    #[inline]
    pub fn push_wire(&mut self, time: SimTime, src: u64, seq: u64, event: E) {
        let tie = wire_tie(src, seq);
        self.push_entry(Entry { time, tie, event });
    }

    #[inline]
    fn push_entry(&mut self, entry: Entry<E>) {
        match &mut self.inner {
            Inner::Wheel(w) => w.push(entry),
            Inner::Heap(h) => h.push(entry),
        }
        self.len += 1;
    }

    /// Remove and return the earliest event if it fires at or before
    /// `limit`; `None` when the queue is empty or its earliest event is
    /// later. One call does what a peek and a pop would.
    #[inline]
    pub fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let entry = match &mut self.inner {
            Inner::Wheel(w) => {
                if w.front(self.len)?.time > limit {
                    return None;
                }
                w.active.pop_front()
            }
            Inner::Heap(h) => {
                if h.peek()?.time > limit {
                    return None;
                }
                h.pop()
            }
        }?;
        self.len -= 1;
        Some((entry.time, entry.event))
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_due(SimTime::MAX)
    }

    /// The timestamp of the earliest pending event. Takes `&mut self`
    /// because the wheel refills its active tier lazily.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match &mut self.inner {
            Inner::Wheel(w) => w.front(self.len).map(|e| e.time),
            Inner::Heap(h) => h.peek().map(|e| e.time),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        match &mut self.inner {
            Inner::Wheel(w) => w.clear(),
            Inner::Heap(h) => h.clear(),
        }
        self.len = 0;
    }

    /// Check the wheel's bucket pool, for differential tests: every live
    /// pool node is linked into exactly one bucket list, the one its time
    /// maps to inside the window; a slot's occupancy bit is set exactly
    /// when its list is non-empty; and the active tier, the lists and the
    /// far heap together hold every pending event. Returns the number of
    /// bucketed events (0 on the reference heap); the error names the first
    /// broken invariant.
    pub fn check_pool(&self) -> Result<usize, String> {
        let (bucketed, others) = match &self.inner {
            Inner::Wheel(w) => (w.check_pool()?, w.active.len() + w.far.len()),
            Inner::Heap(h) => (0, h.len()),
        };
        if bucketed + others != self.len {
            return Err(format!(
                "{bucketed} bucketed and {others} other entries for {} pending events",
                self.len
            ));
        }
        Ok(bucketed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn both() -> [EventQueue<i64>; 2] {
        [EventQueue::wheel(), EventQueue::heap()]
    }

    #[test]
    fn pops_in_time_order() {
        for mut q in [EventQueue::wheel(), EventQueue::heap()] {
            q.push(t(30), "c");
            q.push(t(10), "a");
            q.push(t(20), "b");
            assert_eq!(q.pop(), Some((t(10), "a")));
            assert_eq!(q.pop(), Some((t(20), "b")));
            assert_eq!(q.pop(), Some((t(30), "c")));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn ties_are_fifo() {
        for mut q in both() {
            for i in 0..100 {
                q.push(t(5), i);
            }
            for i in 0..100 {
                assert_eq!(q.pop(), Some((t(5), i)));
            }
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        for mut q in both() {
            q.push(t(10), 1);
            q.push(t(10), 2);
            assert_eq!(q.pop().unwrap().1, 1);
            q.push(t(10), 3);
            assert_eq!(q.pop().unwrap().1, 2);
            assert_eq!(q.pop().unwrap().1, 3);
        }
    }

    #[test]
    fn peek_and_len() {
        for mut q in both() {
            assert!(q.is_empty());
            assert_eq!(q.peek_time(), None);
            q.push(t(7), 0);
            q.push(t(3), 0);
            assert_eq!(q.len(), 2);
            assert_eq!(q.peek_time(), Some(t(3)));
            q.clear();
            assert!(q.is_empty());
            // The queue is reusable after clear.
            q.push(t(9), 1);
            assert_eq!(q.pop(), Some((t(9), 1)));
        }
    }

    #[test]
    fn clear_empties_the_pool() {
        let mut q = EventQueue::wheel();
        for (i, dt) in [0, 100, BUCKET_WIDTH * 9, WINDOW / 2, WINDOW * 2]
            .into_iter()
            .enumerate()
        {
            q.push(t(dt), i);
        }
        assert_eq!(q.pop(), Some((t(0), 0)));
        assert_eq!(q.check_pool(), Ok(2));
        q.clear();
        assert_eq!(q.check_pool(), Ok(0));
        let Inner::Wheel(w) = &q.inner else {
            unreachable!("built as a wheel")
        };
        assert_eq!(w.pool.capacity(), 0);
    }

    #[test]
    fn pop_due_stops_at_the_limit() {
        for mut q in both() {
            q.push(t(10), 1);
            q.push(t(WINDOW * 3), 2);
            assert_eq!(q.pop_due(t(9)), None);
            assert_eq!(q.pop_due(t(10)), Some((t(10), 1)));
            assert_eq!(q.pop_due(t(WINDOW * 3 - 1)), None);
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop_due(t(WINDOW * 3)), Some((t(WINDOW * 3), 2)));
            assert_eq!(q.pop_due(SimTime::MAX), None);
        }
    }

    #[test]
    fn wire_class_pops_before_normal_at_same_instant() {
        for mut q in both() {
            q.push(t(500), 1);
            q.push(t(500), 2);
            // Pushed last, but the wire class drains first at its instant.
            q.push_wire(t(500), 0, 0, 0);
            q.push(t(400), -1);
            assert_eq!(q.pop(), Some((t(400), -1)));
            assert_eq!(q.pop(), Some((t(500), 0)));
            assert_eq!(q.pop(), Some((t(500), 1)));
            assert_eq!(q.pop(), Some((t(500), 2)));
        }
    }

    #[test]
    fn wire_class_pops_in_key_order_ahead_of_normals() {
        // Wire events pushed at one instant in descending key order come
        // back in key order — source major, sequence minor — ahead of that
        // instant's normal events, in every tier of the wheel.
        for base in [0, BUCKET_WIDTH * 5, WINDOW * 3] {
            for mut q in both() {
                q.push(t(base + 9), 100);
                let keys = [(3u64, 7u64), (3, 2), (2, 9), (1, 1 << 38), (1, 0), (0, 5)];
                for (i, &(src, seq)) in keys.iter().enumerate() {
                    q.push_wire(t(base + 9), src, seq, i as i64);
                }
                q.push(t(base + 9), 101);
                let order: Vec<i64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
                assert_eq!(order, vec![5, 4, 3, 2, 1, 0, 100, 101], "base {base}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the queue's")]
    fn wire_key_packing_is_checked() {
        let mut q = EventQueue::wheel();
        q.push_wire(t(1), 1 << WIRE_SRC_BITS, 0, 0u8);
    }

    #[test]
    fn wire_push_at_the_current_instant_preempts_pending_normals() {
        for mut q in both() {
            q.push(t(500), 1);
            q.push(t(500), 2);
            q.push(t(500), 3);
            assert_eq!(q.pop(), Some((t(500), 1)));
            q.push_wire(t(500), 4, 4, 0);
            q.push(t(500), 4);
            assert_eq!(q.pop(), Some((t(500), 0)));
            assert_eq!(q.pop(), Some((t(500), 2)));
            assert_eq!(q.pop(), Some((t(500), 3)));
            assert_eq!(q.pop(), Some((t(500), 4)));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn wheel_spans_bucket_and_far_boundaries() {
        let mut q = EventQueue::wheel();
        // One imminent event anchors the wheel, then events land in every
        // tier: active, several buckets, and far overflow.
        q.push(t(100), 0);
        q.push(t(100 + WINDOW * 3), 5); // far future
        q.push(t(50), 1); // same bucket as the anchor
        q.push(t(100 + BUCKET_WIDTH * 7), 3); // mid wheel
        q.push(t(100 + BUCKET_WIDTH * 2), 2); // near wheel
        q.push(t(100 + WINDOW * 3), 6); // same far instant: FIFO
        q.push(t(WINDOW - 1), 4); // last bucket
        let order: Vec<i64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 0, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn far_event_one_window_ahead_migrates_into_the_drained_slot() {
        // An event exactly one window after the bucket being drained shares
        // its slot; it must wait in that slot for the next lap, not join
        // the drain.
        for mut q in both() {
            q.push(t(BUCKET_WIDTH * 3), 1);
            q.push(t(BUCKET_WIDTH * 3 + WINDOW), 3);
            q.push(t(BUCKET_WIDTH * 3 + WINDOW - BUCKET_WIDTH), 2);
            q.push(t(BUCKET_WIDTH * 3 + WINDOW + BUCKET_WIDTH), 4);
            assert_eq!(q.pop(), Some((t(BUCKET_WIDTH * 3), 1)));
            q.push(t(BUCKET_WIDTH * 3 + 1), 0);
            let order: Vec<i64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec![0, 2, 3, 4]);
        }
    }

    #[test]
    fn wheel_rebase_after_idle_gap() {
        let mut q = EventQueue::wheel();
        q.push(t(1_000), 1);
        assert_eq!(q.pop(), Some((t(1_000), 1)));
        // Queue is empty; the next push is far beyond the previous window
        // and must re-anchor cleanly.
        q.push(t(WINDOW * 10), 2);
        q.push(t(WINDOW * 10 + BUCKET_WIDTH), 3);
        assert_eq!(q.pop(), Some((t(WINDOW * 10), 2)));
        assert_eq!(q.pop(), Some((t(WINDOW * 10 + BUCKET_WIDTH), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn wheel_matches_heap_on_dense_random_schedule() {
        // Deterministic xorshift; mixes same-instant ties, short and long
        // horizons, delays of exactly one window and one window ± one
        // bucket (a far event migrating into the slot being drained), keyed
        // wire events, and interleaved pops.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut wheel = EventQueue::wheel();
        let mut heap = EventQueue::heap();
        let mut now = 0u64;
        for i in 0..50_000i64 {
            let op = rnd() % 10;
            if op < 6 {
                let dt = match rnd() % 8 {
                    0 => 0,                             // same instant
                    1 => rnd() % BUCKET_WIDTH,          // sub-bucket
                    2 => rnd() % 4_000,                 // the common case
                    3 => rnd() % (WINDOW / 2),          // mid wheel
                    4 => WINDOW,                        // exactly one window
                    5 => WINDOW - BUCKET_WIDTH,         // one bucket short
                    6 => WINDOW + BUCKET_WIDTH,         // one bucket past
                    _ => WINDOW + rnd() % (WINDOW * 4), // far heap
                };
                if rnd() % 8 == 0 {
                    // Unique per instant: the push index is the sequence.
                    let src = rnd() % 64;
                    wheel.push_wire(t(now + dt), src, i as u64, i);
                    heap.push_wire(t(now + dt), src, i as u64, i);
                } else {
                    wheel.push(t(now + dt), i);
                    heap.push(t(now + dt), i);
                }
            } else {
                assert_eq!(wheel.peek_time(), heap.peek_time());
                let (a, b) = (wheel.pop(), heap.pop());
                assert_eq!(a, b);
                if let Some((time, _)) = a {
                    now = time.as_nanos();
                }
            }
            assert_eq!(wheel.len(), heap.len());
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pool_never_has_more_slots_than_the_peak_pending_count() {
        // A steady causal schedule over 100 laps of the ring: each pop
        // pushes one event 0–4 µs ahead, and a second while fewer than 64
        // are pending; one pop in 128 arms a timer one to two windows
        // ahead instead of its first near event. However many laps each
        // slot serves, the pool has no more slots than events were ever
        // pending at once.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut q = EventQueue::wheel();
        for i in 0..64 {
            q.push(t(i * 60), i);
        }
        let mut peak = q.len();
        let mut pops = 0u64;
        while let Some((now, _)) = q.pop() {
            let now = now.as_nanos();
            if now >= WINDOW * 100 {
                break;
            }
            if rnd() % 128 == 0 {
                q.push(t(now + WINDOW + rnd() % WINDOW), pops);
            } else {
                q.push(t(now + rnd() % 4_000), pops);
            }
            if q.len() < 64 {
                q.push(t(now + rnd() % 4_000), pops);
            }
            pops += 1;
            peak = peak.max(q.len());
            let Inner::Wheel(w) = &q.inner else {
                unreachable!("built as a wheel")
            };
            assert!(
                w.pool.capacity() <= peak,
                "pop {pops}: {} pool slots for at most {peak} pending events",
                w.pool.capacity()
            );
        }
        assert!(pops > 100_000, "the schedule ran only {pops} pops");
        assert!(q.check_pool().is_ok(), "{:?}", q.check_pool());
    }

    #[test]
    fn kind_override_selects_the_default() {
        set_kind_override(Some(QueueKind::Heap));
        assert_eq!(EventQueue::<u8>::new().kind(), QueueKind::Heap);
        set_kind_override(Some(QueueKind::Wheel));
        assert_eq!(EventQueue::<u8>::new().kind(), QueueKind::Wheel);
        set_kind_override(None);
    }
}
