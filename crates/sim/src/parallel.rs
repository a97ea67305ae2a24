//! The engine: lookahead-windowed execution of a world split into shards,
//! with a bit-for-bit deterministic merge. A sequential run is the
//! one-shard case.
//!
//! Each shard is a [`World`] that owns a disjoint slice of the simulated
//! state and an event queue of its own, and reaches other shards **only**
//! by sending hand-offs through [`Scheduler::send`]. The [`Engine`] runs the
//! classic conservative (Chandy–Misra / YAWNS-style) barrier-synchronized
//! loop:
//!
//! 1. every shard publishes the timestamp of its earliest pending event;
//! 2. the global window start `W` is the minimum; shards then dispatch their
//!    local events concurrently while `t < horizon`, where each shard's
//!    horizon is at least `W + lookahead` (`lookahead` = the minimum latency
//!    of any cross-shard interaction, so nothing a peer does inside the
//!    window can affect events this side of the horizon);
//! 3. at the barrier, sent hand-offs are routed to their destination
//!    shards and absorbed in the canonical `(time, src, seq)` order.
//!
//! Two refinements on the textbook loop:
//!
//! * **Lockstep horizons.** Shard `i` runs to `max(W + lookahead, m)`,
//!   where `m` is the earliest event of any *other* shard, tightened to
//!   `e + lookahead` once it sends a hand-off arriving at `e`. Nothing a
//!   peer sends this window arrives before `m + lookahead`, which the
//!   bound never exceeds (`W ≤ m`), so it is conservative. It stops a
//!   shard at its peers' next event rather than a lookahead past it: the
//!   looser `m + lookahead` lets the shard holding `W` finish a whole
//!   lookahead ahead of its peer, which then holds the next `W` while the
//!   leader idles, and the two leapfrog forever, taking turns instead of
//!   overlapping. When every peer is drained (`m` = never) a shard keeps
//!   running alone until it actually talks to a peer, amortizing barrier
//!   costs away in the serial phases of a ping-pong workload. A single
//!   shard has no peer, so its one window runs to the deadline.
//! * **Determinism is schedule-independent.** Window sizing and thread
//!   interleaving only decide *when* events are dispatched, never their
//!   relative order within a shard (each queue is insertion-stable) or the
//!   order of hand-offs (sorted by the unique `(time, src, seq)` key before
//!   absorption, and delivered ahead of same-instant local events in that
//!   key order by [`Scheduler::at_wire`]). Results are therefore
//!   bit-for-bit identical at any shard count — proven by the differential
//!   suites in `crates/core`.
//!
//! With several shards, each shard runs on a worker thread of its own when
//! every worker gets a core that neither another engine's shard workers
//! nor a [`CoreHold`] holds. Otherwise the identical window protocol runs
//! on the calling thread: same results, no thread overhead, and no
//! spinning worker left without a core.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::engine::{dispatch_stats, OutMsg, RunOutcome, Scheduler, World};
use crate::time::{SimDuration, SimTime};

/// Execution diagnostics for one shard, exposed through
/// [`Engine::shard_stats`] (and surfaced as `parallel.*` metrics by the
/// run pipeline when there are several shards). These describe *how* the
/// run was executed — they legitimately differ between shard counts and
/// between calling-thread and threaded runs, unlike simulation results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Windows this shard participated in (run_window invocations).
    pub windows: u64,
    /// Windows whose horizon was dynamically tightened below the static
    /// bound by the shard's own hand-offs.
    pub horizon_tightenings: u64,
    /// Barrier waits performed (0 on the calling thread, 2 per window
    /// threaded).
    pub barrier_waits: u64,
    /// Windows in which this shard dispatched nothing.
    pub idle_windows: u64,
    /// Events this shard dispatched.
    pub events: u64,
}

/// One shard: its world, event queue, routed hand-offs and counters.
struct Lane<W: World> {
    world: W,
    sched: Scheduler<W::Event, W::Handoff>,
    /// Hand-offs routed here, absorbed at the next window start.
    inbox: Vec<OutMsg<W::Handoff>>,
    /// Earliest pending event (ns; `u64::MAX` when idle), published at
    /// each window start.
    next: u64,
    stats: ShardStats,
}

impl<W: World> Lane<W> {
    fn new(world: W) -> Self {
        Lane {
            world,
            sched: Scheduler::new(),
            inbox: Vec::new(),
            next: u64::MAX,
            stats: ShardStats::default(),
        }
    }

    /// Absorb the routed hand-offs in canonical `(time, src, seq)` order,
    /// leaving the inbox empty with its buffer kept, and publish the
    /// shard's earliest pending event.
    fn absorb_inbox(&mut self) -> u64 {
        self.inbox.sort_unstable_by_key(|m| (m.time, m.src, m.seq));
        for m in self.inbox.drain(..) {
            self.world.absorb(m, &mut self.sched);
        }
        self.next = self.sched.peek_time().map_or(u64::MAX, SimTime::as_nanos);
        self.next
    }

    /// Dispatch this shard's events while they fall inside its horizon,
    /// `budget` of them at most. The horizon tightens as the shard sends
    /// hand-offs: after sending one arriving at `h`, a peer's reaction can
    /// reach back no earlier than `h + lookahead`.
    fn run_window(&mut self, static_bound_ns: u64, lookahead: SimDuration, budget: u64) -> u64 {
        let mut handled = 0u64;
        while handled < budget {
            let tightened = horizon(self.sched.earliest_sent().as_nanos(), lookahead);
            // Horizons are exclusive and at least 1 ns: a positive lookahead
            // past the window start, or the deadline plus one.
            let bound = static_bound_ns.min(tightened) - 1;
            let Some(event) = self.sched.pop_due(SimTime::from_nanos(bound)) else {
                break;
            };
            self.world.handle(event, &mut self.sched);
            handled += 1;
        }
        self.stats.windows += 1;
        if handled == 0 {
            self.stats.idle_windows += 1;
        }
        if horizon(self.sched.earliest_sent().as_nanos(), lookahead) < static_bound_ns {
            self.stats.horizon_tightenings += 1;
        }
        self.stats.events += handled;
        handled
    }
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

/// Shard workers running in this process, over every threaded run (a
/// threaded run's calling thread is one of its workers), plus the threads
/// holding a [`CoreHold`].
static RUNNING_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Whether a run of `shards` shards takes worker threads on a host of
/// `cores` cores where `running` shard workers already run: only several
/// shards do, and only if every worker gets a core of its own. Workers
/// spin at the window barriers, so two of them sharing a core take turns
/// at a time slice each.
fn workers_fit(shards: usize, cores: usize, running: usize) -> bool {
    shards > 1 && running.saturating_add(shards) <= cores
}

/// Cores held in a running count, given back when dropped, on every exit
/// path.
struct Cores {
    running: &'static AtomicUsize,
    held: usize,
}

impl Cores {
    /// Hold a core in `running` for each of `shards` workers on a host of
    /// `cores` cores, if they fit (see [`workers_fit`]). One
    /// compare-and-swap decides, so two engines starting at once cannot
    /// both take the last free cores.
    fn reserve(running: &'static AtomicUsize, shards: usize, cores: usize) -> Option<Cores> {
        running
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |r| {
                workers_fit(shards, cores, r).then_some(r + shards)
            })
            .ok()
            .map(|_| Cores {
                running,
                held: shards,
            })
    }

    /// The cores a threaded run of `shards` shards takes from
    /// [`RUNNING_WORKERS`], or `None` to run on the calling thread.
    fn for_run(shards: usize) -> Option<Cores> {
        // Most runs have one shard: they need no threads, so skip asking
        // the OS for the core count.
        if shards < 2 {
            return None;
        }
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        Cores::reserve(&RUNNING_WORKERS, shards, cores)
    }
}

impl Drop for Cores {
    fn drop(&mut self) {
        self.running.fetch_sub(self.held, Ordering::AcqRel);
    }
}

/// One core held in the count that sharded engines reserve worker cores
/// from, given back when dropped. A thread that runs simulations beside
/// other such threads (a worker of a parallel sweep) holds one while it
/// runs, so an engine takes worker threads only for cores that no such
/// thread is busy on. An engine counts all its shards' workers apart from
/// any hold, its calling thread's too, so when holds cover every core no
/// engine takes threads.
pub struct CoreHold {
    _core: Cores,
}

impl CoreHold {
    /// Hold a core until the hold is dropped.
    pub fn take() -> CoreHold {
        CoreHold::take_in(&RUNNING_WORKERS)
    }

    fn take_in(running: &'static AtomicUsize) -> CoreHold {
        running.fetch_add(1, Ordering::AcqRel);
        CoreHold {
            _core: Cores { running, held: 1 },
        }
    }
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

/// How the run ends before the window starting at `w`, if it does, after
/// `handled` of `max_events` events. Every loop decides on the same inputs,
/// so all shards leave in the same round with the same outcome.
fn exit(w: u64, deadline: SimTime, handled: u64, max_events: u64) -> Option<RunOutcome> {
    if w == u64::MAX {
        Some(RunOutcome::Idle)
    } else if w > deadline.as_nanos() {
        Some(RunOutcome::TimeLimit)
    } else if handled >= max_events {
        Some(RunOutcome::EventLimit)
    } else {
        None
    }
}

/// The discrete-event engine: S shard worlds, each with its own clock and
/// event queue, synchronized on lookahead windows. With one shard it is a
/// sequential engine.
pub struct Engine<W: World> {
    lanes: Vec<Lane<W>>,
    lookahead: SimDuration,
}

impl<W: World> Engine<W> {
    /// A sequential engine: `world` as the one shard, with an empty event
    /// queue at t=0.
    pub fn new(world: W) -> Self {
        Engine {
            lanes: vec![Lane::new(world)],
            lookahead: SimDuration::MAX,
        }
    }

    /// Wrap `worlds` (one per shard) with empty queues at t=0. `lookahead`
    /// must be the minimum simulated latency of any cross-shard hand-off,
    /// and must be strictly positive — a zero lookahead admits no
    /// conservative window.
    pub fn sharded(worlds: Vec<W>, lookahead: SimDuration) -> Self {
        assert!(!worlds.is_empty(), "at least one shard");
        assert!(
            lookahead > SimDuration::ZERO,
            "conservative windowing needs a positive lookahead"
        );
        Engine {
            lanes: worlds.into_iter().map(Lane::new).collect(),
            lookahead,
        }
    }

    /// Schedule an event on shard `shard` from outside the worlds (workload
    /// kickoff).
    pub fn schedule(&mut self, shard: usize, time: SimTime, event: W::Event) {
        self.lanes[shard].sched.at(time, event);
    }

    /// The latest shard clock: after a drained run, the time of the last
    /// event.
    pub fn now(&self) -> SimTime {
        self.lanes
            .iter()
            .map(|l| l.sched.now())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Total events dispatched across all shards.
    pub fn events_handled(&self) -> u64 {
        self.lanes.iter().map(|l| l.stats.events).sum()
    }

    /// Per-shard execution diagnostics (windows, horizon tightenings,
    /// barrier waits, idle windows, events), in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.lanes.iter().map(|l| l.stats).collect()
    }

    /// Shared access to shard `i`'s world.
    pub fn world(&self, i: usize) -> &W {
        &self.lanes[i].world
    }

    /// Consume the engine, returning the shard worlds in shard order.
    pub fn into_worlds(self) -> Vec<W> {
        self.lanes.into_iter().map(|l| l.world).collect()
    }

    /// Run until every shard drains.
    pub fn run_to_idle(&mut self) -> RunOutcome {
        self.run(SimTime::MAX, u64::MAX)
    }

    /// Run until every shard drains or the clock passes `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.run(deadline, u64::MAX)
    }

    /// Run until every shard drains, the clock passes `deadline` (no event
    /// after it is dispatched), or `max_events` further events have been
    /// dispatched. On the calling thread the budget is exact; threaded
    /// shards each may spend what was left of it at the window start.
    pub fn run(&mut self, deadline: SimTime, max_events: u64) -> RunOutcome {
        match Cores::for_run(self.lanes.len()) {
            Some(_held) => self.run_threaded(deadline, max_events),
            None => self.run_on_caller(deadline, max_events),
        }
    }

    /// The window protocol on the calling thread (one shard, or no free
    /// core for each shard): identical decisions, identical results.
    fn run_on_caller(&mut self, deadline: SimTime, max_events: u64) -> RunOutcome {
        #[expect(
            clippy::disallowed_methods,
            reason = "dispatch-rate measurement of the simulator itself; never feeds simulated time"
        )]
        let started = std::time::Instant::now();
        let lookahead = self.lookahead;
        // One shard's hand-offs on their way to the others' inboxes.
        let mut sent = Vec::new();
        let mut handled = 0u64;
        let outcome = loop {
            // Barrier phase: absorb routed hand-offs in canonical order.
            let w = self
                .lanes
                .iter_mut()
                .map(Lane::absorb_inbox)
                .min()
                .expect("nonempty lanes");
            if let Some(outcome) = exit(w, deadline, handled, max_events) {
                break outcome;
            }
            // Window phase: each shard runs to its own horizon.
            for i in 0..self.lanes.len() {
                let other_min = self
                    .lanes
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, l)| l.next)
                    .min()
                    .unwrap_or(u64::MAX);
                let bound = window_bound(w, other_min, lookahead, deadline);
                let lane = &mut self.lanes[i];
                handled += lane.run_window(bound, lookahead, max_events - handled);
                lane.sched.take_sent(&mut sent);
                for m in sent.drain(..) {
                    debug_assert_ne!(m.dst_shard as usize, i, "self hand-off must stay local");
                    self.lanes[m.dst_shard as usize].inbox.push(m);
                }
            }
        };
        dispatch_stats::add(handled, started.elapsed());
        outcome
    }

    /// The window protocol on scoped worker threads, one per shard, meeting
    /// at a spin barrier twice per window.
    #[expect(
        clippy::disallowed_methods,
        reason = "barrier-synchronized shard workers: hand-offs merge in canonical (time, src, seq) \
                  order, so results are schedule-independent (proven by the seq/par differential suites)"
    )]
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
fn worker_loop<W: World>(me: usize, lane: &mut Lane<W>, sh: &Shared<W::Handoff>) -> RunOutcome {
    #[expect(
        clippy::disallowed_methods,
        reason = "dispatch-rate measurement of the simulator itself; never feeds simulated time"
    )]
    let started = std::time::Instant::now();
    let mut sense = 0u64;
    let mut local_handled = 0u64;
    // This shard's hand-offs on their way to the mailboxes.
    let mut sent = Vec::new();
    let outcome = loop {
        // Barrier phase: drain my mailbox in canonical order (swapping my
        // empty inbox in hands its buffer back to the senders), publish my
        // earliest pending event, meet the others at the window start.
        std::mem::swap(
            &mut lane.inbox,
            &mut *sh.mailboxes[me]
                .lock()
                .expect("a shard worker panicked while flushing hand-offs"),
        );
        sh.next[me].store(lane.absorb_inbox(), Ordering::Release);
        // Every count of the last window landed before its closing barrier,
        // and none of this window's can land before this worker reaches the
        // opening one, so all workers read the same total.
        let total = sh.total.load(Ordering::Acquire);
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
        if let Some(outcome) = exit(w, sh.deadline, total, sh.max_events) {
            break outcome;
        }

        // Window phase: run to my horizon, then flush hand-offs and meet at
        // the window end so every mailbox is complete before the next drain.
        let bound = window_bound(w, other_min, sh.lookahead, sh.deadline);
        let handled = lane.run_window(bound, sh.lookahead, sh.max_events - total);
        if handled > 0 {
            local_handled += handled;
            sh.total.fetch_add(handled, Ordering::AcqRel);
        }
        lane.sched.take_sent(&mut sent);
        if !sent.is_empty() {
            flush(me, &mut sent, &sh.mailboxes);
        }
        lane.stats.barrier_waits += 1;
        sh.barrier.wait(&mut sense);
    };
    dispatch_stats::add(local_handled, started.elapsed());
    outcome
}

/// Route a window's hand-offs into the shared mailboxes, one lock per
/// destination shard, leaving `sent` empty. Mailbox arrival order is
/// irrelevant: the receiver re-sorts by the unique `(time, src, seq)` key
/// before absorbing.
fn flush<H>(me: usize, sent: &mut Vec<OutMsg<H>>, mailboxes: &[Mutex<Vec<OutMsg<H>>>]) {
    sent.sort_unstable_by_key(|m| m.dst_shard);
    let mut iter = sent.drain(..).peekable();
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

    impl World for OneNode {
        type Event = Ev;
        type Handoff = u64;

        fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev, u64>) {
            let Ev::Token(p) = event;
            self.log.push((sched.now().as_nanos(), p));
            if self.remaining > 0 {
                self.remaining -= 1;
                let at = sched.now() + SimDuration::from_nanos(500);
                if self.peer_shard == u32::MAX {
                    // Single-shard mode: bounce locally.
                    sched.at(at, Ev::Token(p + 1));
                } else {
                    sched.send(self.peer_shard, at, u64::from(self.me), self.sent, p + 1);
                    self.sent += 1;
                }
            }
        }

        fn absorb(&mut self, m: OutMsg<u64>, sched: &mut Scheduler<Ev, u64>) {
            sched.at_wire(m.time, m.src, m.seq, Ev::Token(m.payload));
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
            let mut eng = Engine::sharded(worlds, SimDuration::from_nanos(500));
            eng.schedule(0, SimTime::ZERO, Ev::Token(0));
            assert_eq!(eng.run_to_idle(), RunOutcome::Idle);
            let mut log: Vec<(u64, u64)> =
                eng.into_worlds().into_iter().flat_map(|w| w.log).collect();
            log.sort_unstable();
            log
        }
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn one_shard_budget_stops_a_world_that_never_idles() {
        // A world that always reschedules itself never drains; one shard
        // runs one window up to the deadline, so only the event budget
        // inside the window can stop it.
        struct Forever;
        impl World for Forever {
            type Event = ();
            type Handoff = ();
            fn handle(&mut self, _: (), sched: &mut Scheduler<()>) {
                sched.after(SimDuration::from_nanos(1), ());
            }
            fn absorb(&mut self, _: OutMsg<()>, _: &mut Scheduler<()>) {}
        }
        let mut eng = Engine::new(Forever);
        eng.schedule(0, SimTime::ZERO, ());
        assert_eq!(eng.run(SimTime::MAX, 1_000), RunOutcome::EventLimit);
        assert_eq!(eng.events_handled(), 1_000);
    }

    #[test]
    fn shards_take_threads_only_when_every_worker_gets_a_free_core() {
        assert!(
            !workers_fit(1, 8, 0),
            "one shard runs on the calling thread"
        );
        assert!(!workers_fit(2, 1, 0), "two shards on one core");
        assert!(workers_fit(2, 2, 0));
        assert!(workers_fit(4, 4, 0));
        assert!(!workers_fit(4, 2, 0), "more shards than cores");
        // Two sharded runs at once on two cores: the first takes both.
        assert!(!workers_fit(2, 2, 2));
        assert!(!workers_fit(2, 3, 2), "one core free for two workers");
        assert!(workers_fit(2, 4, 2));
        assert!(
            !workers_fit(2, 64, usize::MAX),
            "a full count never wraps round"
        );
    }

    #[test]
    fn held_cores_count_against_every_engine() {
        static RUNNING: AtomicUsize = AtomicUsize::new(0);
        let count = || RUNNING.load(Ordering::Acquire);
        let (a, b) = (CoreHold::take_in(&RUNNING), CoreHold::take_in(&RUNNING));
        assert_eq!(count(), 2);
        // Two sweep workers hold both cores of a 2-core host: no engine
        // takes threads, whichever thread runs it.
        assert!(Cores::reserve(&RUNNING, 2, 2).is_none());
        // On four cores an engine takes the two free ones and gives them
        // back.
        assert!(Cores::reserve(&RUNNING, 2, 4).is_some_and(|c| c.held == 2));
        assert_eq!(count(), 2);
        drop(a);
        assert_eq!(count(), 1);
        assert!(
            Cores::reserve(&RUNNING, 2, 2).is_none(),
            "one core is still held"
        );
        drop(b);
        assert_eq!(count(), 0);
        assert!(Cores::reserve(&RUNNING, 2, 2).is_some_and(|c| c.held == 2));
        assert_eq!(count(), 0);
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
        /// Ticks each node has sent: the hand-off key's sequence.
        sent: [u64; 2],
    }

    enum ClockEv {
        Tick(u32),
        Recv(u32),
    }

    impl World for Clocks {
        type Event = ClockEv;
        /// The receiving node.
        type Handoff = u32;

        fn handle(&mut self, event: ClockEv, sched: &mut Scheduler<ClockEv, u32>) {
            let now = sched.now();
            match event {
                ClockEv::Recv(node) => self.received[node as usize] += 1,
                ClockEv::Tick(node) => {
                    self.log
                        .push((now.as_nanos(), node, self.received[node as usize]));
                    let peer = 1 - node;
                    let at = now + SimDuration::from_nanos(LOOKAHEAD_NS);
                    let seq = self.sent[node as usize];
                    self.sent[node as usize] += 1;
                    if self.nodes.contains(&peer) {
                        sched.at_wire(at, u64::from(node), seq, ClockEv::Recv(peer));
                    } else {
                        sched.send(peer, at, u64::from(node), seq, peer);
                    }
                    let next = now + SimDuration::from_nanos(PERIOD_NS);
                    if next.as_nanos() < END_NS {
                        sched.at(next, ClockEv::Tick(node));
                    }
                }
            }
        }

        fn absorb(&mut self, m: OutMsg<u32>, sched: &mut Scheduler<ClockEv, u32>) {
            sched.at_wire(m.time, m.src, m.seq, ClockEv::Recv(m.payload));
        }
    }

    /// The two clocks on one shard per entry of `shards`, each listing the
    /// nodes that shard owns. Node 1 starts two lookaheads after node 0.
    fn clocks(shards: &[&[u32]]) -> Engine<Clocks> {
        let worlds = shards
            .iter()
            .map(|nodes| Clocks {
                nodes: nodes.to_vec(),
                received: [0; 2],
                log: vec![],
                sent: [0; 2],
            })
            .collect();
        let mut eng = Engine::sharded(worlds, SimDuration::from_nanos(LOOKAHEAD_NS));
        for node in 0..2 {
            let shard = shards.iter().position(|n| n.contains(&node));
            let shard = shard.expect("every node has a shard");
            let start = SimTime::from_nanos(u64::from(node) * 2 * LOOKAHEAD_NS);
            eng.schedule(shard, start, ClockEv::Tick(node));
        }
        eng
    }

    fn sorted_log(eng: Engine<Clocks>) -> Vec<(u64, u32, u64)> {
        let mut log: Vec<_> = eng.into_worlds().into_iter().flat_map(|w| w.log).collect();
        log.sort_unstable();
        log
    }

    #[test]
    fn lockstep_windows_keep_both_shards_busy() {
        // Horizons of `other_min + lookahead` would let the leading shard
        // run a lookahead ahead every window and leave each shard idle in
        // about half of them.
        let mut one = clocks(&[&[0, 1]]);
        assert_eq!(one.run_to_idle(), RunOutcome::Idle);
        let reference = sorted_log(one);

        for threaded in [false, true] {
            let mut two = clocks(&[&[0], &[1]]);
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
            assert_eq!(sorted_log(two), reference, "threaded {threaded}");
        }
    }

    #[test]
    fn event_budget_stops_both_loops_and_the_run_resumes() {
        let mut one = clocks(&[&[0, 1]]);
        assert_eq!(one.run_to_idle(), RunOutcome::Idle);
        let total = one.events_handled();
        let reference = sorted_log(one);

        for threaded in [false, true] {
            let mut two = clocks(&[&[0], &[1]]);
            let outcome = if threaded {
                two.run_threaded(SimTime::MAX, 100)
            } else {
                two.run_on_caller(SimTime::MAX, 100)
            };
            assert_eq!(outcome, RunOutcome::EventLimit, "threaded {threaded}");
            // Exact on the calling thread; each threaded shard may spend
            // what was left of the budget when its last window opened.
            let spent = two.events_handled();
            if threaded {
                assert!((100..=200).contains(&spent), "threaded run spent {spent}");
            } else {
                assert_eq!(spent, 100);
            }
            assert_eq!(two.run_on_caller(SimTime::MAX, u64::MAX), RunOutcome::Idle);
            assert_eq!(two.events_handled(), total, "threaded {threaded}");
            assert_eq!(sorted_log(two), reference, "threaded {threaded}");
        }
    }
}
