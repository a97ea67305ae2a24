//! The host-speed reference: a fixed kernel timed before every timed pass.
//!
//! The speed of a shared host drifts: on the 2-core host the baseline was
//! recorded on, 12-second medians of the same `group_churn` pass ranged
//! from 0.22 s to 0.38 s over four minutes, while their ratio to this
//! kernel's median time moved by under 8%. A run sees one stretch of that
//! drift, so raw times from runs minutes apart differ by more than any
//! change worth detecting. `setup_s` and `run_s` are
//! therefore reported scaled by [`REF_S`] over the run's median kernel time:
//! seconds on a host that runs the kernel in [`REF_S`]. The kernel is the
//! benchmark's own code, so no change to the simulator moves it; the raw
//! kernel times are kept in the results next to the scaled metrics.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's median time on the host the baseline was recorded on, when
/// that host was quiet.
pub const REF_S: f64 = 0.008;

/// 1 MB, so the kernel adds little to `peak_rss_mb`.
const WORDS: usize = 1 << 17;
const UPDATES: usize = 1 << 20;
const HEAP_OPS: u64 = 1 << 16;
const HEAP_CAP: usize = 4096;

/// Buffers for the kernel, allocated once so that timing it never includes
/// page faults.
pub struct Reference {
    words: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    state: u64,
}

impl Reference {
    /// Allocate and touch the buffers.
    pub fn new() -> Reference {
        Reference {
            words: vec![0; WORDS],
            heap: BinaryHeap::with_capacity(HEAP_CAP + 1),
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Run the kernel once and return its wall time in seconds: random
    /// read-modify-writes over 1 MB, then pushes and pops on a bounded
    /// binary heap, the two access patterns of the simulator's event loop.
    pub fn time(&mut self) -> f64 {
        let started = Instant::now();
        let mut x = self.state;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..UPDATES {
            let r = next();
            let w = &mut self.words[r as usize % WORDS];
            *w = w.wrapping_add(r);
        }
        self.heap.clear();
        for k in 0..HEAP_OPS {
            self.heap.push(Reverse((next() >> 40, k)));
            if self.heap.len() > HEAP_CAP {
                self.heap.pop();
            }
        }
        self.state = next();
        black_box((&self.words, &self.heap));
        started.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_takes_time_and_changes_its_buffers() {
        let mut r = Reference::new();
        assert!(r.time() > 0.0);
        assert!(r.words.iter().any(|&w| w != 0));
        assert_eq!(r.heap.len(), HEAP_CAP);
    }
}
