//! Lookahead-windowed parallel execution: shard a world across cores with a
//! bit-for-bit deterministic merge.
//!
//! A [`ShardWorld`] is one partition of a simulation: it owns a disjoint
//! slice of the world's state and an [`EventQueue`](crate::EventQueue) of its
//! own, and interacts with other shards **only** by emitting hand-off
//! messages into an [`Outbox`]. The [`ShardedEngine`] runs the classic
//! conservative (Chandy–Misra / YAWNS-style) barrier-synchronized loop:
//!
//! 1. every shard publishes the timestamp of its earliest pending event;
//! 2. the global window start `W` is the minimum; shards then dispatch their
//!    local events concurrently while `t < horizon`, where each shard's
//!    horizon is at least `W + lookahead` (`lookahead` = the minimum latency
//!    of any cross-shard interaction, so nothing a peer does inside the
//!    window can affect events this side of the horizon);
//! 3. at the barrier, emitted hand-offs are routed to their destination
//!    shards and absorbed in the canonical `(time, src, seq)` order.
//!
//! Two refinements on the textbook loop:
//!
//! * **Lockstep horizons.** Shard `i` runs to `max(W + lookahead, m)`,
//!   where `m` is the earliest event of any *other* shard, tightened to
//!   `e + lookahead` once it emits a hand-off arriving at `e`. Nothing a
//!   peer sends this window arrives before `m + lookahead`, which the
//!   bound never exceeds (`W ≤ m`), so it is conservative. It stops a
//!   shard at its peers' next event rather than a lookahead past it: the
//!   looser `m + lookahead` lets the shard holding `W` finish a whole
//!   lookahead ahead of its peer, which then holds the next `W` while the
//!   leader idles, and the two leapfrog forever, taking turns instead of
//!   overlapping. When every peer is drained (`m` = never) a shard keeps
//!   running alone until it actually talks to a peer, amortizing barrier
//!   costs away in the serial phases of a ping-pong workload.
//! * **Determinism is schedule-independent.** Window sizing and thread
//!   interleaving only decide *when* events are dispatched, never their
//!   relative order within a shard (each queue is insertion-stable) or the
//!   order of hand-offs (sorted by the unique `(time, src, seq)` key before
//!   absorption, and delivered ahead of same-instant local events via
//!   [`EventClass::Wire`](crate::queue::EventClass)). Results are therefore
//!   bit-for-bit identical to the sequential engine — proven by the
//!   differential suites in `crates/core`.
//!
//! On a single-core host (or with one shard) the engine runs the identical
//! window protocol on the calling thread — same results, no thread overhead;
//! `MYRI_SIM_FORCE_THREADS=1` forces the threaded path for parity testing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::engine::{dispatch_stats, RunOutcome, Scheduler};
use crate::time::{SimDuration, SimTime};

/// One partition of a simulated world, driven by the [`ShardedEngine`].
///
/// Implementations must route every cross-shard effect through the
/// [`Outbox`] (with a hand-off time at least `lookahead` after the emitting
/// event) and keep all other state strictly shard-local.
pub trait ShardWorld: Send {
    /// The event alphabet of this world.
    type Event: Send;
    /// A cross-shard hand-off message (e.g. a packet crossing the fabric).
    type Handoff: Send;

    /// Handle one event at `sched.now()`, emitting any cross-shard effects
    /// into `outbox`.
    fn handle(
        &mut self,
        event: Self::Event,
        sched: &mut Scheduler<Self::Event>,
        outbox: &mut Outbox<Self::Handoff>,
    );

    /// Deliver one hand-off emitted by a peer shard. Called at the window
    /// barrier, in canonical `(time, src, seq)` order; implementations
    /// typically buffer the payload and schedule a wire-class drain event
    /// at `msg.time` via [`Scheduler::at_wire`].
    fn absorb(&mut self, msg: OutMsg<Self::Handoff>, sched: &mut Scheduler<Self::Event>);
}

/// One cross-shard hand-off in flight.
pub struct OutMsg<H> {
    /// Destination shard index.
    pub dst_shard: u32,
    /// Simulated arrival time at the destination shard (must be at least
    /// `lookahead` after the emitting event).
    pub time: SimTime,
    /// Canonical tie-break key, major: the emitting entity (e.g. source
    /// node id). Together with `seq` this must be unique per message.
    pub src: u64,
    /// Canonical tie-break key, minor: per-`src` emission sequence.
    pub seq: u64,
    /// The message payload.
    pub payload: H,
}

/// Collector for the hand-offs one shard emits during a window.
pub struct Outbox<H> {
    msgs: Vec<OutMsg<H>>,
    /// Earliest hand-off time emitted this window (`SimTime::MAX` if none);
    /// dynamically tightens the emitting shard's horizon.
    earliest: SimTime,
}

impl<H> Outbox<H> {
    /// An empty outbox.
    pub fn new() -> Self {
        Outbox {
            msgs: Vec::new(),
            earliest: SimTime::MAX,
        }
    }

    /// Empty the outbox for the next window, keeping its buffer.
    fn drain(&mut self) -> std::vec::Drain<'_, OutMsg<H>> {
        self.earliest = SimTime::MAX;
        self.msgs.drain(..)
    }

    /// Emit a hand-off to `dst_shard`, arriving at `time`. `(time, src,
    /// seq)` must be unique per message — it is the canonical merge key.
    pub fn send(&mut self, dst_shard: u32, time: SimTime, src: u64, seq: u64, payload: H) {
        self.earliest = self.earliest.min(time);
        self.msgs.push(OutMsg {
            dst_shard,
            time,
            src,
            seq,
            payload,
        });
    }

    /// Number of hand-offs collected.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether no hand-off has been emitted.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}

impl<H> Default for Outbox<H> {
    fn default() -> Self {
        Self::new()
    }
}

/// Execution diagnostics for one shard, exposed through
/// [`ShardedEngine::shard_stats`] (and surfaced as `parallel.*` metrics by
/// the scenario layer). These describe *how* the run was executed — they
/// legitimately differ between sequential, caller-mode, and threaded runs,
/// unlike simulation results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Windows this shard participated in (run_window invocations).
    pub windows: u64,
    /// Windows whose horizon was dynamically tightened below the static
    /// bound by the shard's own hand-off emissions.
    pub horizon_tightenings: u64,
    /// Barrier waits performed (0 in caller mode, 2 per window threaded).
    pub barrier_waits: u64,
    /// Windows in which this shard dispatched nothing.
    pub idle_windows: u64,
    /// Events this shard dispatched.
    pub events: u64,
}

/// One shard: its world partition, event queue, and dispatch counters.
struct Lane<W: ShardWorld> {
    world: W,
    sched: Scheduler<W::Event>,
    events_handled: u64,
    stats: ShardStats,
}

/// Sense-reversing spin barrier for the worker threads. Spins briefly (the
/// windows are sub-microsecond apart when shards are busy), then yields so
/// an oversubscribed host is not starved.
struct SpinBarrier {
    n: u32,
    count: AtomicU64,
    sense: AtomicU64,
}

impl SpinBarrier {
    fn new(n: u32) -> Self {
        SpinBarrier {
            n,
            count: AtomicU64::new(0),
            sense: AtomicU64::new(0),
        }
    }

    fn wait(&self, local_sense: &mut u64) {
        *local_sense ^= 1;
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == u64::from(self.n) {
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(*local_sense, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) != *local_sense {
                spins = spins.wrapping_add(1);
                if spins < 4096 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Whether the threaded window loop should be used for `n_shards`.
fn threads_enabled(n_shards: usize) -> bool {
    static FORCE: OnceLock<bool> = OnceLock::new();
    let force =
        *FORCE.get_or_init(|| std::env::var("MYRI_SIM_FORCE_THREADS").as_deref() == Ok("1"));
    n_shards > 1
        && (force || std::thread::available_parallelism().map_or(1, std::num::NonZero::get) > 1)
}

/// `floor + lookahead`, saturating at `SimTime::MAX` (idle shards publish
/// `MAX`; adding to it must not wrap).
fn horizon(floor_ns: u64, lookahead: SimDuration) -> u64 {
    floor_ns.saturating_add(lookahead.as_nanos())
}

/// A shard's static horizon for the window starting at `w` (the earliest
/// pending event of any shard) when the earliest pending event of every
/// other shard is `other_min`: the lockstep bound `max(w + lookahead,
/// other_min)` (see the module docs), never past `deadline`.
fn window_bound(w: u64, other_min: u64, lookahead: SimDuration, deadline: SimTime) -> u64 {
    horizon(w, lookahead)
        .max(other_min)
        .min(deadline.as_nanos().saturating_add(1))
}

/// Absorb a shard's routed hand-offs in canonical `(time, src, seq)` order,
/// leaving `inbox` empty with its buffer kept.
fn absorb_all<W: ShardWorld>(lane: &mut Lane<W>, inbox: &mut Vec<OutMsg<W::Handoff>>) {
    inbox.sort_unstable_by_key(|m| (m.time, m.src, m.seq));
    for m in inbox.drain(..) {
        lane.world.absorb(m, &mut lane.sched);
    }
}

/// The parallel counterpart of [`Engine`](crate::Engine): S shard worlds,
/// each with its own event queue, synchronized on lookahead windows.
pub struct ShardedEngine<W: ShardWorld> {
    lanes: Vec<Lane<W>>,
    lookahead: SimDuration,
}

impl<W: ShardWorld> ShardedEngine<W> {
    /// Wrap `worlds` (one per shard) with empty queues at t=0. `lookahead`
    /// must be the minimum simulated latency of any cross-shard hand-off,
    /// and must be strictly positive — a zero lookahead admits no
    /// conservative window.
    pub fn new(worlds: Vec<W>, lookahead: SimDuration) -> Self {
        assert!(!worlds.is_empty(), "at least one shard");
        assert!(
            lookahead > SimDuration::ZERO,
            "conservative windowing needs a positive lookahead"
        );
        ShardedEngine {
            lanes: worlds
                .into_iter()
                .map(|world| Lane {
                    world,
                    sched: Scheduler::new(),
                    events_handled: 0,
                    stats: ShardStats::default(),
                })
                .collect(),
            lookahead,
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.lanes.len()
    }

    /// The window width in use.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Schedule an event on shard `shard` from outside the worlds (workload
    /// kickoff).
    pub fn schedule(&mut self, shard: usize, time: SimTime, event: W::Event) {
        self.lanes[shard].sched.at(time, event);
    }

    /// The latest shard clock (equals the sequential engine's `now()` after
    /// a drained run: the time of the globally last event).
    pub fn now(&self) -> SimTime {
        self.lanes
            .iter()
            .map(|l| l.sched.now())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Total events dispatched across all shards.
    pub fn events_handled(&self) -> u64 {
        self.lanes.iter().map(|l| l.events_handled).sum()
    }

    /// Per-shard execution diagnostics (windows, horizon tightenings,
    /// barrier waits, idle windows, events), in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.lanes
            .iter()
            .map(|l| ShardStats {
                events: l.events_handled,
                ..l.stats
            })
            .collect()
    }

    /// Shared access to shard `i`'s world.
    pub fn world(&self, i: usize) -> &W {
        &self.lanes[i].world
    }

    /// Exclusive access to shard `i`'s world.
    pub fn world_mut(&mut self, i: usize) -> &mut W {
        &mut self.lanes[i].world
    }

    /// Consume the engine, returning the shard worlds in shard order.
    pub fn into_worlds(self) -> Vec<W> {
        self.lanes.into_iter().map(|l| l.world).collect()
    }

    /// Run until every shard drains.
    pub fn run_to_idle(&mut self) -> RunOutcome {
        self.run(SimTime::MAX, u64::MAX)
    }

    /// Run until idle, the clock passes `deadline` (no event after it is
    /// dispatched, exactly like the sequential engine), or at least
    /// `max_events` have been dispatched (checked at window boundaries, so
    /// the sharded engine may overshoot by up to one window).
    pub fn run(&mut self, deadline: SimTime, max_events: u64) -> RunOutcome {
        if threads_enabled(self.lanes.len()) {
            self.run_threaded(deadline, max_events)
        } else {
            self.run_on_caller(deadline, max_events)
        }
    }

    /// The window protocol on the calling thread (single core, one shard, or
    /// threads disabled): identical decisions, identical results.
    fn run_on_caller(&mut self, deadline: SimTime, max_events: u64) -> RunOutcome {
        // simlint::allow(det-walltime, "dispatch-rate measurement of the simulator itself; never feeds simulated time")
        let started = std::time::Instant::now();
        let lookahead = self.lookahead;
        let n = self.lanes.len();
        // Buffers reused by every window: routed hand-offs per destination,
        // the one being absorbed, a shard's emissions, and the published
        // earliest events.
        let mut mailboxes: Vec<Vec<OutMsg<W::Handoff>>> = (0..n).map(|_| Vec::new()).collect();
        let mut inbox = Vec::new();
        let mut outbox = Outbox::new();
        let mut nexts = Vec::with_capacity(n);
        let mut handled_total = 0u64;
        let outcome = loop {
            // Barrier phase: absorb routed hand-offs in canonical order.
            for (lane, mailbox) in self.lanes.iter_mut().zip(&mut mailboxes) {
                std::mem::swap(&mut inbox, mailbox);
                absorb_all(lane, &mut inbox);
            }
            nexts.clear();
            nexts.extend(
                self.lanes
                    .iter_mut()
                    .map(|l| l.sched.peek_time().map_or(u64::MAX, SimTime::as_nanos)),
            );
            let w = nexts.iter().copied().min().expect("nonempty lanes");
            if w == u64::MAX {
                break RunOutcome::Idle;
            }
            if w > deadline.as_nanos() {
                break RunOutcome::TimeLimit;
            }
            if handled_total >= max_events {
                break RunOutcome::EventLimit;
            }
            // Window phase: each shard runs to its own horizon.
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                let other_min = nexts
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &v)| v)
                    .min()
                    .unwrap_or(u64::MAX);
                let bound = window_bound(w, other_min, lookahead, deadline);
                handled_total += run_window(lane, bound, lookahead, &mut outbox);
                for m in outbox.drain() {
                    debug_assert_ne!(m.dst_shard as usize, i, "self hand-off must stay local");
                    mailboxes[m.dst_shard as usize].push(m);
                }
            }
        };
        dispatch_stats::add(handled_total, started.elapsed());
        outcome
    }

    /// The window protocol on scoped worker threads, one per shard, meeting
    /// at a spin barrier twice per window.
    fn run_threaded(&mut self, deadline: SimTime, max_events: u64) -> RunOutcome {
        let n = self.lanes.len() as u32;
        let shared = Shared {
            barrier: SpinBarrier::new(n),
            next: (0..n).map(|_| AtomicU64::new(0)).collect(),
            mailboxes: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            total: AtomicU64::new(0),
            lookahead: self.lookahead,
            deadline,
            max_events,
        };
        let (lane0, rest) = self.lanes.split_at_mut(1);
        // simlint::allow(det-thread, "barrier-synchronized shard workers: hand-offs merge in canonical (time, src, seq) order, so results are schedule-independent (proven by the seq/par differential suites)")
        std::thread::scope(|scope| {
            for (k, lane) in rest.iter_mut().enumerate() {
                let shared = &shared;
                scope.spawn(move || worker_loop(k + 1, lane, shared));
            }
            worker_loop(0, &mut lane0[0], &shared)
        })
    }
}

/// Cross-thread coordination state for one `run_threaded` call.
struct Shared<H> {
    barrier: SpinBarrier,
    /// Per-shard earliest pending event (ns; `u64::MAX` when idle),
    /// published before the window-start barrier.
    next: Vec<AtomicU64>,
    /// Per-destination-shard hand-off mailboxes.
    mailboxes: Vec<Mutex<Vec<OutMsg<H>>>>,
    /// Global dispatched-event count (event-limit checks).
    total: AtomicU64,
    lookahead: SimDuration,
    deadline: SimTime,
    max_events: u64,
}

/// One worker's window loop. Every worker evaluates the same exit conditions
/// on the same published data, so all of them leave in the same round with
/// the same outcome.
fn worker_loop<W: ShardWorld>(
    me: usize,
    lane: &mut Lane<W>,
    sh: &Shared<W::Handoff>,
) -> RunOutcome {
    // simlint::allow(det-walltime, "dispatch-rate measurement of the simulator itself; never feeds simulated time")
    let started = std::time::Instant::now();
    let mut sense = 0u64;
    let mut local_handled = 0u64;
    // Reused by every window: swapping the drained inbox into the mailbox
    // hands its buffer back to the senders.
    let mut inbox = Vec::new();
    let mut outbox = Outbox::new();
    let outcome = loop {
        // Barrier phase: drain my mailbox in canonical order, publish my
        // earliest pending event, meet the others at the window start.
        std::mem::swap(
            &mut inbox,
            &mut *sh.mailboxes[me]
                .lock()
                .expect("a shard worker panicked while flushing hand-offs"),
        );
        absorb_all(lane, &mut inbox);
        let next_t = lane.sched.peek_time().map_or(u64::MAX, SimTime::as_nanos);
        sh.next[me].store(next_t, Ordering::Release);
        lane.stats.barrier_waits += 1;
        sh.barrier.wait(&mut sense);

        // Global decision point (identical inputs on every worker).
        let mut w = u64::MAX;
        let mut other_min = u64::MAX;
        for (j, a) in sh.next.iter().enumerate() {
            let v = a.load(Ordering::Acquire);
            w = w.min(v);
            if j != me {
                other_min = other_min.min(v);
            }
        }
        if w == u64::MAX {
            break RunOutcome::Idle;
        }
        if w > sh.deadline.as_nanos() {
            break RunOutcome::TimeLimit;
        }
        if sh.total.load(Ordering::Acquire) >= sh.max_events {
            break RunOutcome::EventLimit;
        }

        // Window phase: run to my horizon, then flush hand-offs and meet at
        // the window end so every mailbox is complete before the next drain.
        let bound = window_bound(w, other_min, sh.lookahead, sh.deadline);
        let handled = run_window(lane, bound, sh.lookahead, &mut outbox);
        if handled > 0 {
            local_handled += handled;
            sh.total.fetch_add(handled, Ordering::AcqRel);
        }
        if !outbox.is_empty() {
            flush_outbox(me, &mut outbox, &sh.mailboxes);
        }
        lane.stats.barrier_waits += 1;
        sh.barrier.wait(&mut sense);
    };
    dispatch_stats::add(local_handled, started.elapsed());
    outcome
}

/// Dispatch one shard's events while they fall inside its horizon. The
/// horizon tightens as the shard emits hand-offs: after emitting at time
/// `h`, a peer's reaction can reach back no earlier than `h + lookahead`.
fn run_window<W: ShardWorld>(
    lane: &mut Lane<W>,
    static_bound_ns: u64,
    lookahead: SimDuration,
    outbox: &mut Outbox<W::Handoff>,
) -> u64 {
    let mut handled = 0u64;
    loop {
        let bound = if outbox.earliest == SimTime::MAX {
            static_bound_ns
        } else {
            static_bound_ns.min(horizon(outbox.earliest.as_nanos(), lookahead))
        };
        match lane.sched.peek_time() {
            Some(t) if t.as_nanos() < bound => {}
            _ => break,
        }
        let (_, event) = lane.sched.pop_advance().expect("peeked nonempty");
        lane.world.handle(event, &mut lane.sched, outbox);
        handled += 1;
    }
    lane.stats.windows += 1;
    if handled == 0 {
        lane.stats.idle_windows += 1;
    }
    if outbox.earliest != SimTime::MAX
        && horizon(outbox.earliest.as_nanos(), lookahead) < static_bound_ns
    {
        lane.stats.horizon_tightenings += 1;
    }
    lane.events_handled += handled;
    handled
}

/// Route a window's emissions into the shared mailboxes, one lock per
/// destination shard. Mailbox arrival order is irrelevant: the receiver
/// re-sorts by the unique `(time, src, seq)` key before absorbing.
fn flush_outbox<H>(me: usize, outbox: &mut Outbox<H>, mailboxes: &[Mutex<Vec<OutMsg<H>>>]) {
    outbox.msgs.sort_unstable_by_key(|m| m.dst_shard);
    let mut iter = outbox.drain().peekable();
    while let Some(first) = iter.next() {
        let dst = first.dst_shard as usize;
        debug_assert_ne!(dst, me, "self hand-off must stay local");
        let mut guard = mailboxes[dst]
            .lock()
            .expect("a shard worker panicked while absorbing hand-offs");
        guard.push(first);
        while iter.peek().is_some_and(|m| m.dst_shard as usize == dst) {
            guard.push(iter.next().expect("peeked"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy shard world: each shard owns one node; a node, upon receiving a
    /// token at time t, bounces it to the other node arriving at t + 500ns,
    /// `remaining` times. Cross-shard latency is exactly the lookahead.
    struct OneNode {
        me: u32,
        peer_shard: u32,
        remaining: u32,
        log: Vec<(u64, u64)>,
        sent: u64,
    }

    enum Ev {
        Token(u64),
    }

    impl ShardWorld for OneNode {
        type Event = Ev;
        type Handoff = u64;

        fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>, outbox: &mut Outbox<u64>) {
            let Ev::Token(p) = event;
            self.log.push((sched.now().as_nanos(), p));
            if self.remaining > 0 {
                self.remaining -= 1;
                let at = sched.now() + SimDuration::from_nanos(500);
                if self.peer_shard == u32::MAX {
                    // Single-shard mode: bounce locally.
                    sched.at(at, Ev::Token(p + 1));
                } else {
                    outbox.send(self.peer_shard, at, u64::from(self.me), self.sent, p + 1);
                    self.sent += 1;
                }
            }
        }

        fn absorb(&mut self, m: OutMsg<u64>, sched: &mut Scheduler<Ev>) {
            sched.at_wire(m.time, Ev::Token(m.payload));
        }
    }

    #[test]
    fn ping_pong_across_two_shards_matches_one_shard() {
        // Two shards bouncing a token; compare the merged log against the
        // single-shard run of the same protocol.
        fn run(shards: bool) -> Vec<(u64, u64)> {
            let worlds = if shards {
                vec![
                    OneNode {
                        me: 0,
                        peer_shard: 1,
                        remaining: 10,
                        log: vec![],
                        sent: 0,
                    },
                    OneNode {
                        me: 1,
                        peer_shard: 0,
                        remaining: 10,
                        log: vec![],
                        sent: 0,
                    },
                ]
            } else {
                vec![OneNode {
                    me: 0,
                    peer_shard: u32::MAX,
                    remaining: 20,
                    log: vec![],
                    sent: 0,
                }]
            };
            let mut eng = ShardedEngine::new(worlds, SimDuration::from_nanos(500));
            eng.schedule(0, SimTime::ZERO, Ev::Token(0));
            assert_eq!(eng.run_to_idle(), RunOutcome::Idle);
            let mut log: Vec<(u64, u64)> = eng
                .into_worlds()
                .into_iter()
                .flat_map(|w| w.log)
                .collect();
            log.sort_unstable();
            log
        }
        assert_eq!(run(true), run(false));
    }

    const LOOKAHEAD_NS: u64 = 500;
    const PERIOD_NS: u64 = LOOKAHEAD_NS / 5;
    const END_NS: u64 = 200 * LOOKAHEAD_NS;

    /// A toy shard world of two clocks, nodes 0 and 1, where shard `k`
    /// owns node `k` (one shard may own both). Each node ticks every
    /// `PERIOD_NS` until `END_NS`, logging how many of its peer's ticks it
    /// has received, and sends each tick to the peer, arriving one
    /// lookahead later. A shard that ran past a hand-off it had not yet
    /// absorbed would log a smaller count.
    struct Clocks {
        nodes: Vec<u32>,
        received: [u64; 2],
        log: Vec<(u64, u32, u64)>,
        sent: u64,
    }

    enum ClockEv {
        Tick(u32),
        Recv(u32),
    }

    impl ShardWorld for Clocks {
        type Event = ClockEv;
        /// The receiving node.
        type Handoff = u32;

        fn handle(
            &mut self,
            event: ClockEv,
            sched: &mut Scheduler<ClockEv>,
            outbox: &mut Outbox<u32>,
        ) {
            let now = sched.now();
            match event {
                ClockEv::Recv(node) => self.received[node as usize] += 1,
                ClockEv::Tick(node) => {
                    self.log.push((now.as_nanos(), node, self.received[node as usize]));
                    let peer = 1 - node;
                    let at = now + SimDuration::from_nanos(LOOKAHEAD_NS);
                    if self.nodes.contains(&peer) {
                        sched.at_wire(at, ClockEv::Recv(peer));
                    } else {
                        outbox.send(peer, at, u64::from(node), self.sent, peer);
                        self.sent += 1;
                    }
                    let next = now + SimDuration::from_nanos(PERIOD_NS);
                    if next.as_nanos() < END_NS {
                        sched.at(next, ClockEv::Tick(node));
                    }
                }
            }
        }

        fn absorb(&mut self, m: OutMsg<u32>, sched: &mut Scheduler<ClockEv>) {
            sched.at_wire(m.time, ClockEv::Recv(m.payload));
        }
    }

    #[test]
    fn lockstep_windows_keep_both_shards_busy() {
        // Node 1 starts two lookaheads after node 0. Horizons of `other_min
        // + lookahead` would let the leading shard run a lookahead ahead
        // every window and leave each shard idle in about half of them.
        let clocks = |nodes: Vec<u32>| Clocks {
            nodes,
            received: [0; 2],
            log: vec![],
            sent: 0,
        };
        let start = |node: u32| SimTime::from_nanos(u64::from(node) * 2 * LOOKAHEAD_NS);
        let lookahead = SimDuration::from_nanos(LOOKAHEAD_NS);
        let sorted_log = |worlds: Vec<Clocks>| {
            let mut log: Vec<_> = worlds.into_iter().flat_map(|w| w.log).collect();
            log.sort_unstable();
            log
        };

        let mut one = ShardedEngine::new(vec![clocks(vec![0, 1])], lookahead);
        for node in 0..2 {
            one.schedule(0, start(node), ClockEv::Tick(node));
        }
        assert_eq!(one.run_to_idle(), RunOutcome::Idle);
        let reference = sorted_log(one.into_worlds());

        for threaded in [false, true] {
            let mut two = ShardedEngine::new(vec![clocks(vec![0]), clocks(vec![1])], lookahead);
            for node in 0..2 {
                two.schedule(node as usize, start(node), ClockEv::Tick(node));
            }
            let outcome = if threaded {
                two.run_threaded(SimTime::MAX, u64::MAX)
            } else {
                two.run_on_caller(SimTime::MAX, u64::MAX)
            };
            assert_eq!(outcome, RunOutcome::Idle);
            for (i, s) in two.shard_stats().iter().enumerate() {
                assert!(
                    s.idle_windows <= 1,
                    "threaded {threaded}: shard {i} idle in {} of {} windows",
                    s.idle_windows,
                    s.windows
                );
            }
            assert_eq!(sorted_log(two.into_worlds()), reference, "threaded {threaded}");
        }
    }
}
