//! Shared benchmark-harness utilities: parallel parameter sweeps, table
//! rendering, JSON result emission, and the command-line parser ([`cli`]).
//!
//! Every figure binary follows the same pattern: build a list of parameter
//! points, evaluate each point in its own simulator instance (fanned out
//! across OS threads — simulations are independent and deterministic), then
//! print the same series the paper plots and optionally write a
//! machine-readable JSON file under `results/`.

use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::Duration;

use serde::Serialize;

pub use cli::CliOpts;
pub use nic_mcast::Sweep;

pub mod cli;

/// Allocation accounting (`--features alloc-count`): a global allocator
/// wrapping [`std::alloc::System`] that counts every `alloc`/`realloc`
/// call, so figure binaries can report *allocations per event* — the
/// steady-state churn metric the slab/arena work drives toward zero — into
/// `results/perf_baseline.json`. Compiled out by default (the count costs
/// an atomic increment per malloc and perturbs timing runs).
#[cfg(feature = "alloc-count")]
#[allow(unsafe_code)] // one GlobalAlloc impl, delegating entirely to System
pub mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static REALLOCS: AtomicU64 = AtomicU64::new(0);

    /// The counting wrapper. All placement decisions are System's; this
    /// only bumps process-wide counters.
    pub struct CountingAlloc;

    // SAFETY: every method forwards its exact arguments to `System`, whose
    // GlobalAlloc contract we inherit unchanged; the added atomic counter
    // touches no allocator state.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            REALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
        // alloc_zeroed's default routes through alloc, so it is counted.
    }

    #[global_allocator]
    static COUNTING: CountingAlloc = CountingAlloc;

    /// Heap acquisitions (allocations + reallocations) so far, process-wide.
    pub fn allocs() -> u64 {
        ALLOCS.load(Ordering::Relaxed) + REALLOCS.load(Ordering::Relaxed)
    }

    /// Whether counting is compiled in (always true under this cfg).
    pub fn enabled() -> bool {
        true
    }
}

/// Stub when the `alloc-count` feature is off: no allocator override, no
/// per-malloc cost, and [`perf::record`] omits the allocation fields.
#[cfg(not(feature = "alloc-count"))]
pub mod alloc_count {
    /// Always 0 without the feature.
    pub fn allocs() -> u64 {
        0
    }

    /// Whether counting is compiled in (false: the fields are omitted).
    pub fn enabled() -> bool {
        false
    }
}

/// Evaluate `f` over `items` in parallel, preserving input order.
///
/// `items` is any `IntoIterator` — a `Vec`, a [`Sweep`], a range. Work is
/// distributed over channels: each worker pulls `(index, item)` pairs
/// from a shared receiver and sends `(index, result)` back, so there is no
/// lock-held section around the evaluation itself. Simulator instances are
/// fully independent, so this is a pure speedup with identical results to a
/// serial run.
pub fn par_map<I, T, R, F>(items: I, f: F) -> Vec<R>
where
    I: IntoIterator<Item = T>,
    T: Send,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_timed(items, f)
        .into_iter()
        .map(|(r, _)| r)
        .collect()
}

/// [`par_map`] that also captures each point's wall-clock evaluation time.
pub fn par_map_timed<I, T, R, F>(items: I, f: F) -> Vec<(R, Duration)>
where
    I: IntoIterator<Item = T>,
    T: Send,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let items: Vec<T> = items.into_iter().collect();
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(4)
        .min(n);
    let (work_tx, work_rx) = crossbeam::channel::unbounded::<(usize, T)>();
    let (res_tx, res_rx) = crossbeam::channel::unbounded::<(usize, R, Duration)>();
    for pair in items.into_iter().enumerate() {
        work_tx
            .send(pair)
            .map_err(|_| ()) // SendError<T> is not Debug without T: Debug
            .expect("work receiver is held open until the scope below drains it");
    }
    drop(work_tx); // workers drain to disconnect
    thread::scope(|s| {
        for _ in 0..threads {
            let rx = work_rx.clone();
            let tx = res_tx.clone();
            let f = &f;
            s.spawn(move || {
                while let Ok((i, item)) = rx.recv() {
                    let started = std::time::Instant::now();
                    let r = f(&item);
                    tx.send((i, r, started.elapsed()))
                        .map_err(|_| ())
                        .expect("result collector outlives every worker in this scope");
                }
            });
        }
        drop(res_tx);
        let mut results: Vec<Option<(R, Duration)>> = (0..n).map(|_| None).collect();
        for (i, r, wall) in res_rx.iter() {
            results[i] = Some((r, wall));
        }
        results
            .into_iter()
            .map(|r| r.expect("every item evaluated"))
            .collect()
    })
}

/// A printable results table.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column names.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(
            widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1),
        ));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// ASCII sparkline over a gauge's fixed-width value histogram.
pub fn sparkline(hist: &[u64; gm_sim::HIST_BINS]) -> String {
    const LEVELS: &[u8] = b" .:-=+*#%";
    let top = hist.iter().copied().max().unwrap_or(0);
    hist.iter()
        .map(|&v| {
            let lvl = if top == 0 {
                0
            } else {
                ((v * (LEVELS.len() as u64 - 1)).div_ceil(top)) as usize
            };
            LEVELS[lvl] as char
        })
        .collect()
}

/// Print a sharded run's window statistics (`parallel.*`); nothing for a
/// sequential run.
pub fn print_sharded(m: &gm_sim::Metrics) {
    if m.get("parallel.shards") > 0 {
        println!(
            "\nsharded execution: {} shards, {} windows ({} idle shard-windows), \
             {} horizon tightenings, {} barrier waits",
            m.get("parallel.shards"),
            m.get("parallel.windows"),
            m.get("parallel.idle_windows"),
            m.get("parallel.horizon_tightenings"),
            m.get("parallel.barrier_waits"),
        );
    }
}

/// Print each shard's event count (nothing for a sequential run).
pub fn print_shard_events(m: &gm_sim::Metrics) {
    for i in 0..m.get("parallel.shards") {
        println!("  shard {i}: {} events", m.get(&format!("parallel.shard{i}.events")));
    }
}

/// Format a microsecond value for a table cell.
pub fn us(v: f64) -> String {
    format!("{v:.2}")
}

/// Format an improvement factor.
pub fn factor(hb: f64, nb: f64) -> String {
    format!("{:.2}", hb / nb)
}

/// The workspace-root `results/` directory, anchored to this crate's
/// manifest so binaries land their output in the same place regardless of
/// the invoking working directory.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Write `contents` to `path` atomically: serialize into a same-directory
/// temporary file, then rename over the target. A crashed or interrupted
/// writer can never leave a truncated JSON file behind, and concurrent
/// figure binaries never observe each other's partial writes.
pub fn atomic_write(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Write `rows` as pretty JSON under `results/<name>.json` (best effort; a
/// failure only prints a warning so the table output still stands alone).
/// Creates `results/` if missing and writes atomically (tmp + rename).
pub fn write_json<T: Serialize>(name: &str, rows: &T) {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create results/: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(rows) {
        Ok(s) => {
            if let Err(e) = atomic_write(&path, &s) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                eprintln!("(results written to {})", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize results: {e}"),
    }
}

/// Write `rows` under `results/<name>.json` together with the [`Sweep`]
/// that produced them, as `{"sweep": {"label": ..., "points": [...]},
/// "rows": [...]}` — so a results file records its own x-axis.
pub fn write_json_sweep<T: Serialize>(name: &str, sweep: &Sweep, rows: &T) {
    let mut sw = serde_json::Value::Map(vec![]);
    sw.insert("label", serde_json::Value::Str(sweep.label().to_string()));
    sw.insert(
        "points",
        serde_json::Value::Seq(
            sweep
                .iter()
                .map(|p| serde_json::Value::UInt(p as u64))
                .collect(),
        ),
    );
    let mut doc = serde_json::Value::Map(vec![]);
    doc.insert("sweep", sw);
    doc.insert("rows", rows.to_json_value());
    write_json(name, &doc);
}

/// Dispatch-performance recording: each figure binary can report its
/// process-wide engine throughput into `results/perf_baseline.json`, keyed
/// by binary name, merging with records from other binaries. The file is the
/// perf-regression baseline DESIGN.md §6 describes.
pub mod perf {
    use super::{atomic_write, results_dir};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Worst sharding imbalance any run in this process observed, stored
    /// as `pct + 1` so 0 means "no sharded run reported one".
    static WORST_IMBALANCE: AtomicU64 = AtomicU64::new(0);

    /// Report one run's `parallel.event_imbalance_pct`, when it ran on
    /// more than one shard, so [`record`] can persist the process-wide worst
    /// case into the baseline. Call it per run (sweeps call it many times;
    /// the maximum sticks) — sharding-balance regressions then gate exactly
    /// like throughput regressions.
    pub fn note_imbalance(metrics: &gm_sim::Metrics) {
        if metrics.get("parallel.shards") > 1 {
            let pct = metrics.get("parallel.event_imbalance_pct");
            WORST_IMBALANCE.fetch_max(pct.saturating_add(1), Ordering::Relaxed);
        }
    }

    /// Record this process's aggregate dispatch stats under `binary` in
    /// `results/perf_baseline.json`. `process_wall` should span the whole
    /// sweep (capture an `Instant` at the top of `main`). Best effort: a
    /// failure only prints a warning.
    ///
    /// Under `--features alloc-count` the record lands under
    /// `<binary>_alloc` instead: the counting allocator perturbs the
    /// dispatch rate, so allocation-churn measurements never overwrite (or
    /// get compared against) a clean timing baseline.
    pub fn record(binary: &str, process_wall: std::time::Duration) {
        let keyed;
        let binary = if crate::alloc_count::enabled() {
            keyed = format!("{binary}_alloc");
            keyed.as_str()
        } else {
            binary
        };
        let (events, dispatch_wall) = gm_sim::dispatch_stats::snapshot();
        let queue = match gm_sim::default_queue_kind() {
            gm_sim::QueueKind::Wheel => "wheel",
            gm_sim::QueueKind::Heap => "heap",
        };
        let mut entry = serde_json::Value::Map(vec![]);
        entry.insert("events", serde_json::Value::UInt(events));
        entry.insert(
            "dispatch_wall_secs",
            serde_json::Value::Float(dispatch_wall.as_secs_f64()),
        );
        entry.insert(
            "events_per_sec",
            serde_json::Value::Float(gm_sim::dispatch_stats::events_per_sec()),
        );
        entry.insert(
            "process_wall_secs",
            serde_json::Value::Float(process_wall.as_secs_f64()),
        );
        entry.insert("queue", serde_json::Value::Str(queue.to_string()));
        // Record the execution environment so baseline comparisons are
        // honest: a 4-shard run on a single-core host shows window-protocol
        // overhead, not parallel speedup.
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        entry.insert("cores", serde_json::Value::UInt(cores as u64));
        entry.insert("shards", serde_json::Value::UInt(nic_mcast::env_shards().into()));
        // Allocation churn (only under `--features alloc-count`, so the
        // fields' presence records how the number was measured). Process-
        // wide, so it overcounts per-event churn by setup/teardown — a
        // stable overapproximation that still catches hot-path regressions.
        if crate::alloc_count::enabled() {
            let allocs = crate::alloc_count::allocs();
            entry.insert("allocs", serde_json::Value::UInt(allocs));
            entry.insert(
                "allocs_per_event",
                serde_json::Value::Float(allocs as f64 / events.max(1) as f64),
            );
        }
        // Sharding balance (present only when a sharded run reported it via
        // `note_imbalance`): the process-wide worst per-run imbalance, so a
        // partition-quality regression gates like a throughput regression.
        match WORST_IMBALANCE.load(Ordering::Relaxed) {
            0 => {}
            v => entry.insert("event_imbalance_pct", serde_json::Value::UInt(v - 1)),
        }

        let dir = results_dir();
        let path = dir.join("perf_baseline.json");
        let mut doc = std::fs::read_to_string(&path)
            .ok()
            .and_then(|s| serde_json::from_str(&s).ok())
            .unwrap_or(serde_json::Value::Map(vec![]));
        if !matches!(doc, serde_json::Value::Map(_)) {
            doc = serde_json::Value::Map(vec![]);
        }
        doc.insert(binary, entry);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create results/: {e}");
            return;
        }
        match serde_json::to_string_pretty(&doc) {
            Ok(s) => {
                if let Err(e) = atomic_write(&path, &s) {
                    eprintln!("warning: cannot write {}: {e}", path.display());
                } else {
                    eprintln!(
                        "(perf: {events} events at {:.0} ev/s on {queue} queue -> {})",
                        gm_sim::dispatch_stats::events_per_sec(),
                        path.display()
                    );
                }
            }
            Err(e) => eprintln!("warning: cannot serialize perf record: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let out = par_map((0..100).collect::<Vec<i32>>(), |&x: &i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_empty() {
        let out: Vec<i32> = par_map(Vec::<i32>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn par_map_timed_captures_wall_times() {
        let out = par_map_timed((0..20).collect::<Vec<u64>>(), |&x: &u64| {
            std::thread::sleep(std::time::Duration::from_micros(100));
            x + 1
        });
        assert_eq!(out.len(), 20);
        for (i, (r, wall)) in out.iter().enumerate() {
            assert_eq!(*r, i as u64 + 1);
            assert!(*wall >= std::time::Duration::from_micros(100));
        }
    }

    #[test]
    fn par_map_runs_every_item_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let calls = AtomicU64::new(0);
        let out = par_map((0..500).collect::<Vec<u64>>(), |&x: &u64| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 500);
        assert_eq!(out, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "bbbb"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("a  bbbb"));
    }

    #[test]
    fn zero_column_table_renders_without_panicking() {
        let t = Table::new("empty", &[]);
        let s = t.render();
        assert!(s.contains("== empty =="));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn factor_formats() {
        assert_eq!(factor(10.0, 5.0), "2.00");
        assert_eq!(us(1.234), "1.23");
    }
}
