//! A sharded engine holds its cores only while it runs.
//!
//! An engine runs its shards on worker threads only when every worker
//! gets a core that no other engine's workers hold, and gives the cores
//! back when its run returns. This binary holds one test, so no other
//! engine in the process competes for the cores: each run below must be
//! threaded, which it can only be if every earlier run, whichever way it
//! ended, gave its cores back.

use gm_sim::{Engine, OutMsg, RunOutcome, Scheduler, SimDuration, SimTime, World};

const LOOKAHEAD: SimDuration = SimDuration::from_nanos(500);
const TOKENS: u64 = 10_000;

/// One shard's node: on each token it sends the next one to the other
/// shard, one lookahead later, until the count reaches [`TOKENS`].
struct Bounce {
    peer: u32,
    sent: u64,
}

impl World for Bounce {
    type Event = u64;
    type Handoff = u64;

    fn handle(&mut self, token: u64, sched: &mut Scheduler<u64, u64>) {
        if token < TOKENS {
            let at = sched.now() + LOOKAHEAD;
            sched.send(
                self.peer,
                at,
                u64::from(1 - self.peer),
                self.sent,
                token + 1,
            );
            self.sent += 1;
        }
    }

    fn absorb(&mut self, m: OutMsg<u64>, sched: &mut Scheduler<u64, u64>) {
        sched.at_wire(m.time, m.src, m.seq, m.payload);
    }
}

/// Run `eng` with `run`, and check that the run ended as `want` and took
/// worker threads.
fn threaded(
    eng: &mut Engine<Bounce>,
    want: RunOutcome,
    run: impl FnOnce(&mut Engine<Bounce>) -> RunOutcome,
) {
    let waits =
        |eng: &Engine<Bounce>| -> u64 { eng.shard_stats().iter().map(|s| s.barrier_waits).sum() };
    let before = waits(eng);
    assert_eq!(run(eng), want);
    assert!(
        waits(eng) > before,
        "a run ending {want:?} found no free cores: an earlier run kept them"
    );
}

#[test]
fn a_threaded_run_gives_its_cores_back_on_every_exit() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    if cores < 2 {
        // One core holds no worker thread: every run is on the caller.
        return;
    }
    let worlds = (0..2)
        .map(|k| Bounce {
            peer: 1 - k,
            sent: 0,
        })
        .collect();
    let mut eng = Engine::sharded(worlds, LOOKAHEAD);
    eng.schedule(0, SimTime::ZERO, 0);
    threaded(&mut eng, RunOutcome::EventLimit, |e| {
        e.run(SimTime::MAX, 100)
    });
    threaded(&mut eng, RunOutcome::TimeLimit, |e| {
        e.run_until(SimTime::from_nanos(1_000_000))
    });
    threaded(&mut eng, RunOutcome::Idle, Engine::run_to_idle);
    threaded(&mut eng, RunOutcome::Idle, Engine::run_to_idle);
    assert_eq!(eng.events_handled(), TOKENS + 1);
}
