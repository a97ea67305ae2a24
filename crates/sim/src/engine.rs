//! What a world sees of the run loop.
//!
//! A [`World`] owns simulated state: all of it, or one shard's slice of it.
//! The [`Engine`](crate::Engine) pops each shard's events in timestamp
//! order, advances that shard's clock, and hands each event to the world
//! along with a [`Scheduler`], through which the world emits follow-up
//! events and hand-offs to other shards. Because the queue is
//! insertion-stable and the clock is integer nanoseconds, runs are
//! bit-for-bit reproducible.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Process-wide dispatch totals across every [`Engine`](crate::Engine)
/// instance, fed by the run loops and read by benchmark harnesses to time
/// dispatch (mcbench's `sim.dispatch` span).
pub mod dispatch_stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    static EVENTS: AtomicU64 = AtomicU64::new(0);
    static WALL_NANOS: AtomicU64 = AtomicU64::new(0);

    pub(crate) fn add(events: u64, wall: std::time::Duration) {
        if events > 0 {
            EVENTS.fetch_add(events, Ordering::Relaxed);
            let nanos = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
            WALL_NANOS.fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// Total `(events_dispatched, wall_in_run_loops)` since process start.
    pub fn snapshot() -> (u64, std::time::Duration) {
        (
            EVENTS.load(Ordering::Relaxed),
            std::time::Duration::from_nanos(WALL_NANOS.load(Ordering::Relaxed)),
        )
    }
}

/// One hand-off from one shard to another.
pub struct OutMsg<H> {
    /// Destination shard index.
    pub dst_shard: u32,
    /// Simulated arrival time at the destination shard (at least one
    /// lookahead after the sending event).
    pub time: SimTime,
    /// Canonical tie-break key, major: the sending entity (e.g. source
    /// node id). Together with `seq` this must be unique per message.
    pub src: u64,
    /// Canonical tie-break key, minor: per-`src` sequence number.
    pub seq: u64,
    /// The message payload.
    pub payload: H,
}

/// Handle through which event handlers schedule future events on their own
/// shard and send hand-offs of type `H` to other shards.
pub struct Scheduler<E, H = ()> {
    now: SimTime,
    queue: EventQueue<E>,
    /// Hand-offs sent this window; the engine routes them at its end.
    sent: Vec<OutMsg<H>>,
    /// Earliest arrival among `sent` (`SimTime::MAX` if none): a peer's
    /// reaction can reach back no earlier than one lookahead after it.
    earliest_sent: SimTime,
}

impl<E, H> Scheduler<E, H> {
    pub(crate) fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            sent: Vec::new(),
            earliest_sent: SimTime::MAX,
        }
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire `delay` from now.
    #[inline]
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedule `event` at an absolute time (must not be in the past).
    #[inline]
    pub fn at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "scheduling into the past: {time} < {}",
            self.now
        );
        self.queue.push(time, event);
    }

    /// Schedule `event` to fire at the current instant (after events already
    /// queued for this instant).
    #[inline]
    pub fn immediately(&mut self, event: E) {
        self.queue.push(self.now, event);
    }

    /// Schedule a wire-boundary event keyed by its hand-off's canonical
    /// `(src, seq)`: at its instant it is delivered before every
    /// normally-scheduled event, and the wire events of one instant are
    /// delivered in key order, regardless of scheduling order. This gives
    /// packet hand-offs a canonical position within the instant that is
    /// identical at any shard count (see `sim::parallel`).
    /// `(time, src, seq)` must be unique among wire events.
    #[inline]
    pub fn at_wire(&mut self, time: SimTime, src: u64, seq: u64, event: E) {
        assert!(
            time >= self.now,
            "scheduling into the past: {time} < {}",
            self.now
        );
        self.queue.push_wire(time, src, seq, event);
    }

    /// Send a hand-off to shard `dst_shard`, arriving at `time`, which must
    /// be at least one lookahead from now. The engine delivers it to that
    /// shard's [`World::absorb`] at the end of the window. `(time, src, seq)`
    /// must be unique per message: it is the canonical merge key.
    #[inline]
    pub fn send(&mut self, dst_shard: u32, time: SimTime, src: u64, seq: u64, payload: H) {
        self.earliest_sent = self.earliest_sent.min(time);
        self.sent.push(OutMsg {
            dst_shard,
            time,
            src,
            seq,
            payload,
        });
    }

    /// Earliest pending event time (`None` when idle). `&mut` because the
    /// wheel refills its active tier lazily.
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Pop the earliest event if it fires at or before `limit`, advancing
    /// the clock to it.
    #[inline]
    pub(crate) fn pop_due(&mut self, limit: SimTime) -> Option<E> {
        let (time, event) = self.queue.pop_due(limit)?;
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        Some(event)
    }

    /// Earliest arrival among the hand-offs sent this window
    /// (`SimTime::MAX` if none).
    #[inline]
    pub(crate) fn earliest_sent(&self) -> SimTime {
        self.earliest_sent
    }

    /// Swap this window's hand-offs into the empty `buf` and start the next
    /// window with no hand-off sent. Both buffers keep their capacity.
    pub(crate) fn take_sent(&mut self, buf: &mut Vec<OutMsg<H>>) {
        debug_assert!(buf.is_empty(), "routed hand-offs left behind");
        std::mem::swap(&mut self.sent, buf);
        self.earliest_sent = SimTime::MAX;
    }
}

/// Simulated state plus its event-dispatch logic: the whole world, or one
/// shard of it.
///
/// A shard keeps all of its state to itself and reaches other shards only
/// through [`Scheduler::send`], at least one lookahead ahead. A world run
/// on one shard sends nothing, so its `absorb` is never called.
pub trait World: Send {
    /// The event alphabet of this world.
    type Event: Send;
    /// A hand-off between shards (e.g. a packet crossing the fabric).
    type Handoff: Send;

    /// Handle one event at time `sched.now()`.
    fn handle(&mut self, event: Self::Event, sched: &mut Scheduler<Self::Event, Self::Handoff>);

    /// Take one hand-off a peer shard sent. Called at the window barrier,
    /// in canonical `(time, src, seq)` order; implementations typically
    /// park the payload and schedule a wire-class event at `msg.time`,
    /// keyed by `(msg.src, msg.seq)`, via [`Scheduler::at_wire`].
    fn absorb(
        &mut self,
        msg: OutMsg<Self::Handoff>,
        sched: &mut Scheduler<Self::Event, Self::Handoff>,
    );
}

/// Why a run loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained.
    Idle,
    /// The time limit was reached with events still pending.
    TimeLimit,
    /// The event-count limit was reached with events still pending.
    EventLimit,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;

    /// A world that plays ping-pong `remaining` times, 10ns per hop.
    struct PingPong {
        remaining: u32,
        log: Vec<(u64, &'static str)>,
    }

    enum Ev {
        Ping,
        Pong,
    }

    impl World for PingPong {
        type Event = Ev;
        type Handoff = ();
        fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
            match event {
                Ev::Ping => {
                    self.log.push((sched.now().as_nanos(), "ping"));
                    if self.remaining > 0 {
                        sched.after(SimDuration::from_nanos(10), Ev::Pong);
                    }
                }
                Ev::Pong => {
                    self.log.push((sched.now().as_nanos(), "pong"));
                    self.remaining -= 1;
                    if self.remaining > 0 {
                        sched.after(SimDuration::from_nanos(10), Ev::Ping);
                    }
                }
            }
        }
        fn absorb(&mut self, _: OutMsg<()>, _: &mut Scheduler<Ev>) {}
    }

    fn ping_pong(remaining: u32) -> Engine<PingPong> {
        let mut eng = Engine::new(PingPong {
            remaining,
            log: vec![],
        });
        eng.schedule(0, SimTime::ZERO, Ev::Ping);
        eng
    }

    #[test]
    fn ping_pong_runs_to_idle() {
        let mut eng = ping_pong(3);
        assert_eq!(eng.run_to_idle(), RunOutcome::Idle);
        assert_eq!(
            eng.world(0).log,
            vec![
                (0, "ping"),
                (10, "pong"),
                (20, "ping"),
                (30, "pong"),
                (40, "ping"),
                (50, "pong"),
            ]
        );
        assert_eq!(eng.now().as_nanos(), 50);
        assert_eq!(eng.events_handled(), 6);
    }

    #[test]
    fn deadline_stops_without_consuming_later_events() {
        let mut eng = ping_pong(100);
        assert_eq!(
            eng.run_until(SimTime::from_nanos(25)),
            RunOutcome::TimeLimit
        );
        assert_eq!(eng.now().as_nanos(), 20);
        // Resume: remaining events still fire.
        assert_eq!(eng.run_to_idle(), RunOutcome::Idle);
        assert_eq!(eng.world(0).log.len(), 200);
    }

    #[test]
    fn event_limit() {
        let mut eng = ping_pong(100);
        assert_eq!(eng.run(SimTime::MAX, 5), RunOutcome::EventLimit);
        assert_eq!(eng.world(0).log.len(), 5);
    }

    #[test]
    fn throughput_counter_accumulates() {
        let mut eng = ping_pong(1000);
        eng.run_to_idle();
        assert_eq!(eng.events_handled(), 2000);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn past_scheduling_panics() {
        struct Bad;
        impl World for Bad {
            type Event = ();
            type Handoff = ();
            fn handle(&mut self, _: (), sched: &mut Scheduler<()>) {
                sched.at(SimTime::ZERO, ());
            }
            fn absorb(&mut self, _: OutMsg<()>, _: &mut Scheduler<()>) {}
        }
        let mut eng = Engine::new(Bad);
        eng.schedule(0, SimTime::from_nanos(5), ());
        eng.run_to_idle();
    }
}
