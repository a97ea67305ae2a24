//! Spans around calls into the simulator's layers, and the allocation
//! counter the traced pass reads.
//!
//! Every timed call goes through [`Tracer::span`], traced or not, so the
//! untraced passes that give the end-to-end metrics run the same code as the
//! traced one; only the traced pass keeps the spans. Spans live in memory
//! and are written out when the workload ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

static COUNT_ALLOCS: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations while [`count_allocs`] is on.
/// Off, each allocation pays one relaxed load, so untraced passes are not
/// perturbed the way an always-on counter would perturb them.
struct CountingAlloc;

// SAFETY: every method forwards its exact arguments to `System`, whose
// `GlobalAlloc` contract is inherited unchanged; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with `layout`; the caller upholds
        // `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Turn allocation counting on or off (process-wide, every thread).
pub fn count_allocs(on: bool) {
    COUNT_ALLOCS.store(on, Ordering::Relaxed);
}

/// Allocations and reallocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Host seconds the simulator's run loops have spent dispatching events,
/// summed over every engine and shard thread since the process started.
pub fn dispatch_wall() -> f64 {
    gm_sim::dispatch_stats::snapshot().1.as_secs_f64()
}

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.call`, e.g. `core.run`; the layer is the part before the dot.
    pub name: &'static str,
    /// Start, since the tracer was created.
    pub start: Duration,
    /// End, since the tracer was created.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// A call the run already makes, repeated on its output to time it.
    /// Replays are never part of a pass's end-to-end time.
    pub replay: bool,
    /// Duration taken from a counter, not from the clock (`sim.dispatch`):
    /// it is placed at the start of its parent.
    pub synthetic: bool,
}

impl Span {
    /// The layer: the span name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end.saturating_sub(self.start).as_secs_f64()
    }
}

/// Times calls and, when on, records them as nested spans.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that only times.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A tracer that records spans.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f`, returning its result and duration; when on, record it as a
    /// span inside the innermost open one. `f` gets the tracer back so it
    /// can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        self.timed(name, false, f)
    }

    /// [`span`](Tracer::span) for a replayed call.
    pub fn replay<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        self.timed(name, true, f)
    }

    fn timed<T>(
        &mut self,
        name: &'static str,
        replay: bool,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let started = Instant::now();
        // A panic caught inside `f` can leave its own spans open; the
        // depth restores this span's place in the stack regardless.
        let depth = self.stack.len();
        let id = self.on.then(|| {
            self.spans.push(Span {
                name,
                start: started - self.epoch,
                end: started - self.epoch,
                parent: self.stack.last().copied(),
                replay,
                synthetic: false,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let ended = Instant::now();
        if let Some(id) = id {
            self.stack.truncate(depth);
            self.spans[id].end = ended - self.epoch;
        }
        (out, (ended - started).as_secs_f64())
    }

    /// Record a child of the innermost open span whose duration comes from
    /// a counter (`secs`), placed at the parent's start.
    pub fn synthetic(&mut self, name: &'static str, secs: f64) {
        let Some(&parent) = self.stack.last() else {
            return;
        };
        let start = self.spans[parent].start;
        self.spans.push(Span {
            name,
            start,
            end: start + Duration::from_secs_f64(secs.max(0.0)),
            parent: Some(parent),
            replay: self.spans[parent].replay,
            synthetic: true,
        });
    }

    /// The recorded spans, in the order they opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover (children are clipped to the parent and merged, so
/// overlapping children are not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start, spans[p].end);
            let (a, b) = (s.start.clamp(lo, hi), s.end.clamp(lo, hi));
            children[p].push((a, b));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.secs() - covered.as_secs_f64()).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ms: u64, end_ms: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start: Duration::from_millis(start_ms),
            end: Duration::from_millis(end_ms),
            parent,
            replay: false,
            synthetic: false,
        }
    }

    #[test]
    fn self_time_subtracts_merged_children() {
        let spans = vec![
            span("bench.pass", 0, 100, None),
            span("core.run", 10, 90, Some(0)),
            span("sim.dispatch", 10, 50, Some(1)),
            span("sim.other", 40, 60, Some(1)),
            span("sim.outside", 80, 120, Some(1)),
        ];
        let st = self_times(&spans);
        let ms = |s: f64| (s * 1e3).round() as u64;
        assert_eq!(ms(st[0]), 20); // 100 - 80 covered by core.run
        assert_eq!(ms(st[1]), 20); // 80 - [10,60) - [80,90)
        assert_eq!(spans[2].layer(), "sim");
    }

    #[test]
    fn tracer_nests_and_off_records_nothing() {
        let mut tr = Tracer::on();
        let ((), _) = tr.span("bench.pass", |tr| {
            tr.span("core.build", |_| ());
            tr.span("core.run", |tr| tr.synthetic("sim.dispatch", 0.0));
        });
        let names: Vec<_> = tr.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("bench.pass", None),
                ("core.build", Some(0)),
                ("core.run", Some(0)),
                ("sim.dispatch", Some(2)),
            ]
        );
        let mut off = Tracer::off();
        let (v, secs) = off.span("core.run", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());
    }
}
