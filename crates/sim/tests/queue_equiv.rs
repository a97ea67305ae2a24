//! Differential property tests: the sliding wheel queue must produce the
//! exact same (time, tiebreak) pop sequence as the reference binary-heap
//! queue for any schedule — including same-instant ties, keyed wire-class
//! pushes, pushes interleaved with pops, and events scheduled during
//! dispatch (`immediately`-style zero-delay pushes at the last popped
//! time). After every operation the wheel's bucket pool must hold exactly
//! its bucketed events, each linked into one bucket list
//! (`EventQueue::check_pool`).

use gm_sim::{EventQueue, SimTime};
use proptest::prelude::*;

/// One step of a queue workout.
#[derive(Clone, Debug)]
enum Op {
    /// Push at `last_popped_time + delta` (clamped to be non-decreasing,
    /// like a real scheduler).
    Push { delta: u64 },
    /// Push at exactly the last popped time (an `immediately` during
    /// dispatch: same instant, later FIFO order).
    PushNow,
    /// Push a wire-class event at `last_popped_time + delta`, keyed by
    /// `(src, push id)` (unique, as hand-off keys are).
    PushWire { delta: u64, src: u64 },
    /// Pop one event.
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Dense short-horizon traffic (sub-bucket and same-bucket).
        (0u64..2_000).prop_map(|delta| Op::Push { delta }),
        // Mid-wheel horizons around the paper's packet timescales.
        (0u64..3_000_000).prop_map(|delta| Op::Push { delta }),
        // Far-future overflow beyond the wheel window.
        (0u64..200_000_000).prop_map(|delta| Op::Push { delta }),
        Just(Op::PushNow),
        (0u64..2_000, 0u64..4).prop_map(|(delta, src)| Op::PushWire { delta, src }),
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn wheel_and_heap_pop_identically(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut wheel = EventQueue::wheel();
        let mut heap = EventQueue::heap();
        let mut now = 0u64;
        let mut next_id = 0u64;
        for op in &ops {
            match op {
                Op::Push { delta } => {
                    let t = SimTime::from_nanos(now + delta);
                    wheel.push(t, next_id);
                    heap.push(t, next_id);
                    next_id += 1;
                }
                Op::PushNow => {
                    let t = SimTime::from_nanos(now);
                    wheel.push(t, next_id);
                    heap.push(t, next_id);
                    next_id += 1;
                }
                Op::PushWire { delta, src } => {
                    let t = SimTime::from_nanos(now + delta);
                    wheel.push_wire(t, *src, next_id, next_id);
                    heap.push_wire(t, *src, next_id, next_id);
                    next_id += 1;
                }
                Op::Pop => {
                    prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                    let (a, b) = (wheel.pop(), heap.pop());
                    prop_assert_eq!(a, b);
                    if let Some((t, _)) = a {
                        // The simulation clock only moves forward.
                        prop_assert!(t.as_nanos() >= now);
                        now = t.as_nanos();
                    }
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.is_empty(), heap.is_empty());
            let pool = wheel.check_pool();
            prop_assert!(pool.is_ok(), "after {:?}: {:?}", op, pool);
        }
        // Drain both and compare the full tail.
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn wheel_drains_in_nondecreasing_stable_order(
        times in proptest::collection::vec(0u64..50_000_000, 1..300),
    ) {
        // All-push-then-drain: pops must come out sorted by (time, push seq).
        let mut wheel = EventQueue::wheel();
        let mut expect: Vec<(u64, usize)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i))
            .collect();
        for (i, &t) in times.iter().enumerate() {
            wheel.push(SimTime::from_nanos(t), i);
        }
        expect.sort(); // (time, seq) — stable tie order by construction
        let mut got = Vec::new();
        while let Some((t, id)) = wheel.pop() {
            got.push((t.as_nanos(), id));
            let pool = wheel.check_pool();
            prop_assert!(pool.is_ok(), "after {} pops: {:?}", got.len(), pool);
        }
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn clear_resets_wheel_for_reuse(
        first in proptest::collection::vec(0u64..100_000_000, 1..50),
        second in proptest::collection::vec(0u64..100_000_000, 1..50),
    ) {
        let mut wheel = EventQueue::wheel();
        let mut heap = EventQueue::heap();
        for (i, &t) in first.iter().enumerate() {
            wheel.push(SimTime::from_nanos(t), i);
            heap.push(SimTime::from_nanos(t), i);
        }
        wheel.clear();
        heap.clear();
        prop_assert!(wheel.is_empty());
        for (i, &t) in second.iter().enumerate() {
            wheel.push(SimTime::from_nanos(t), i);
            heap.push(SimTime::from_nanos(t), i);
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
