//! Property-based tests of the event engine: causal ordering, determinism,
//! and statistics algebra.

use gm_sim::{
    DetRng, Engine, EventQueue, OnlineStats, OutMsg, Scheduler, SimDuration, SimTime, World,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn queue_pops_sorted_and_stable(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut out = Vec::new();
        while let Some((t, i)) = q.pop() {
            out.push((t.as_nanos(), i));
        }
        // Sorted by time...
        for w in out.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            // ...and FIFO among equal timestamps.
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1);
            }
        }
        prop_assert_eq!(out.len(), times.len());
    }

    #[test]
    fn engine_clock_is_monotone(delays in proptest::collection::vec(0u64..10_000, 1..100)) {
        struct Recorder {
            delays: Vec<u64>,
            next: usize,
            seen: Vec<u64>,
        }
        impl World for Recorder {
            type Event = ();
            type Handoff = ();
            fn handle(&mut self, _: (), sched: &mut Scheduler<()>) {
                self.seen.push(sched.now().as_nanos());
                if self.next < self.delays.len() {
                    let d = self.delays[self.next];
                    self.next += 1;
                    sched.after(SimDuration::from_nanos(d), ());
                }
            }
            fn absorb(&mut self, _: OutMsg<()>, _: &mut Scheduler<()>) {}
        }
        let n = delays.len();
        let mut eng = Engine::new(Recorder { delays, next: 0, seen: vec![] });
        eng.schedule(0, SimTime::ZERO, ());
        eng.run_to_idle();
        let seen = &eng.world(0).seen;
        prop_assert_eq!(seen.len(), n + 1);
        for w in seen.windows(2) {
            prop_assert!(w[0] <= w[1], "clock went backwards");
        }
        prop_assert_eq!(eng.events_handled(), (n + 1) as u64);
    }

    #[test]
    fn online_stats_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.record(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert_eq!(s.min(), min);
        prop_assert_eq!(s.max(), max);
        if xs.len() >= 2 {
            let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
                / (xs.len() - 1) as f64;
            prop_assert!((s.stddev() - var.sqrt()).abs() <= 1e-5 * (1.0 + var.sqrt()));
        }
    }

    #[test]
    fn stats_merge_is_order_insensitive(
        a in proptest::collection::vec(-1e3f64..1e3, 1..100),
        b in proptest::collection::vec(-1e3f64..1e3, 1..100),
    ) {
        let fill = |xs: &[f64]| {
            let mut s = OnlineStats::new();
            xs.iter().for_each(|&x| s.record(x));
            s
        };
        let mut ab = fill(&a);
        ab.merge(&fill(&b));
        let mut ba = fill(&b);
        ba.merge(&fill(&a));
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        prop_assert!((ab.stddev() - ba.stddev()).abs() < 1e-9);
    }

    #[test]
    fn rng_streams_are_stable_and_bounded(seed in any::<u64>(), n in 1u64..1_000) {
        let mut a = DetRng::new(seed, "prop");
        let mut b = DetRng::new(seed, "prop");
        for _ in 0..50 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = DetRng::new(seed, "bound");
        for _ in 0..200 {
            prop_assert!(r.below(n) < n);
            let u = r.unit();
            prop_assert!((0.0..1.0).contains(&u));
        }
    }
}
