//! The simulation run loop.
//!
//! A [`World`] owns all simulated state. The [`Engine`] pops events from the
//! queue in timestamp order, advances the clock, and hands each event to the
//! world along with a [`Scheduler`] through which the world emits follow-up
//! events. Because the queue is insertion-stable and the clock is integer
//! nanoseconds, runs are bit-for-bit reproducible.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Process-wide dispatch totals across every [`Engine`] instance, fed by the
/// run loops and read by benchmark harnesses to time dispatch (mcbench's
/// `sim.dispatch` span).
pub mod dispatch_stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    static EVENTS: AtomicU64 = AtomicU64::new(0);
    static WALL_NANOS: AtomicU64 = AtomicU64::new(0);

    pub(crate) fn add(events: u64, wall: std::time::Duration) {
        if events > 0 {
            EVENTS.fetch_add(events, Ordering::Relaxed);
            // simlint::allow(units, "std::time::Duration wall-clock stat, not SimTime")
            WALL_NANOS.fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
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

/// Handle through which event handlers schedule future events.
pub struct Scheduler<E> {
    now: SimTime,
    queue: EventQueue<E>,
}

impl<E> Scheduler<E> {
    pub(crate) fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
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
        assert!(time >= self.now, "scheduling into the past: {time} < {}", self.now);
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
    /// identical in sequential and sharded runs (see `sim::parallel`).
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

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Earliest pending event time (`None` when idle). `&mut` because the
    /// wheel refills its active tier lazily.
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Pop the earliest event if it fires at or before `limit`, advancing
    /// the clock to it.
    // simlint::hot
    #[inline]
    pub(crate) fn pop_due(&mut self, limit: SimTime) -> Option<E> {
        let (time, event) = self.queue.pop_due(limit)?;
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        Some(event)
    }
}

/// All simulated state plus its event-dispatch logic.
pub trait World {
    /// The event alphabet of this world.
    type Event;

    /// Handle one event at time `sched.now()`.
    fn handle(&mut self, event: Self::Event, sched: &mut Scheduler<Self::Event>);
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

/// The discrete-event engine: a clock, an event queue, and a world.
pub struct Engine<W: World> {
    world: W,
    sched: Scheduler<W::Event>,
    events_handled: u64,
}

impl<W: World> Engine<W> {
    /// Wrap `world` with an empty event queue at t=0.
    pub fn new(world: W) -> Self {
        Engine {
            world,
            sched: Scheduler::new(),
            events_handled: 0,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Total events dispatched so far.
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world (for seeding state between phases).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consume the engine, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedule an event from outside the world (e.g. workload kickoff).
    pub fn schedule(&mut self, time: SimTime, event: W::Event) {
        assert!(time >= self.sched.now, "scheduling into the past");
        self.sched.queue.push(time, event);
    }

    /// Schedule an event `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: W::Event) {
        let at = self.sched.now + delay;
        self.sched.queue.push(at, event);
    }

    /// Run until the queue drains.
    pub fn run_to_idle(&mut self) -> RunOutcome {
        self.run(SimTime::MAX, u64::MAX)
    }

    /// Run until the queue drains or the clock passes `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.run(deadline, u64::MAX)
    }

    /// Run until the queue drains, the clock passes `deadline`, or
    /// `max_events` further events have been dispatched.
    pub fn run(&mut self, deadline: SimTime, max_events: u64) -> RunOutcome {
        // simlint::allow(det-walltime, "dispatch-rate measurement of the simulator itself; never feeds simulated time")
        let started = std::time::Instant::now();
        let mut handled = 0u64;
        let outcome = loop {
            if handled >= max_events {
                break match self.sched.peek_time() {
                    None => RunOutcome::Idle,
                    Some(t) if t > deadline => RunOutcome::TimeLimit,
                    Some(_) => RunOutcome::EventLimit,
                };
            }
            let Some(event) = self.sched.pop_due(deadline) else {
                break if self.sched.queue.is_empty() {
                    RunOutcome::Idle
                } else {
                    RunOutcome::TimeLimit
                };
            };
            self.world.handle(event, &mut self.sched);
            self.events_handled += 1;
            handled += 1;
        };
        dispatch_stats::add(handled, started.elapsed());
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn ping_pong_runs_to_idle() {
        let mut eng = Engine::new(PingPong {
            remaining: 3,
            log: vec![],
        });
        eng.schedule(SimTime::ZERO, Ev::Ping);
        assert_eq!(eng.run_to_idle(), RunOutcome::Idle);
        assert_eq!(
            eng.world().log,
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
        let mut eng = Engine::new(PingPong {
            remaining: 100,
            log: vec![],
        });
        eng.schedule(SimTime::ZERO, Ev::Ping);
        assert_eq!(
            eng.run_until(SimTime::from_nanos(25)),
            RunOutcome::TimeLimit
        );
        assert_eq!(eng.now().as_nanos(), 20);
        // Resume: remaining events still fire.
        assert_eq!(eng.run_to_idle(), RunOutcome::Idle);
        assert_eq!(eng.world().log.len(), 200);
    }

    #[test]
    fn event_limit() {
        let mut eng = Engine::new(PingPong {
            remaining: 100,
            log: vec![],
        });
        eng.schedule(SimTime::ZERO, Ev::Ping);
        assert_eq!(eng.run(SimTime::MAX, 5), RunOutcome::EventLimit);
        assert_eq!(eng.world().log.len(), 5);
    }

    #[test]
    fn throughput_counter_accumulates() {
        let mut eng = Engine::new(PingPong {
            remaining: 1000,
            log: vec![],
        });
        eng.schedule(SimTime::ZERO, Ev::Ping);
        eng.run_to_idle();
        assert_eq!(eng.events_handled(), 2000);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn past_scheduling_panics() {
        struct Bad;
        impl World for Bad {
            type Event = ();
            fn handle(&mut self, _: (), sched: &mut Scheduler<()>) {
                sched.at(SimTime::ZERO, ());
            }
        }
        let mut eng = Engine::new(Bad);
        eng.schedule(SimTime::from_nanos(5), ());
        eng.run_to_idle();
    }
}
