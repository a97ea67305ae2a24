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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use serde::Serialize;

pub use cli::CliOpts;
pub use nic_mcast::Sweep;

pub mod cli;

/// Evaluate `f` over `items` in parallel, preserving input order.
///
/// `items` is any `IntoIterator` — a `Vec`, a [`Sweep`], a range. Each
/// worker claims the next unclaimed index from a shared atomic cursor and
/// evaluates it, so no lock is held around the evaluation itself.
/// Simulator instances are fully independent, so this is a pure speedup
/// with identical results to a serial run.
///
/// Each worker holds a core in the count sharded engines reserve from
/// ([`gm_sim::CoreHold`]) while it runs, so an engine in the sweep takes
/// shard worker threads only for cores no sweep worker holds: with a
/// worker on every core, every engine runs its shards on its calling
/// thread instead of spinning them on cores the other workers need.
pub fn par_map<I, T, R, F>(items: I, f: F) -> Vec<R>
where
    I: IntoIterator<Item = T>,
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let items: Vec<T> = items.into_iter().collect();
    let threads = thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(4)
        .min(items.len());
    let next = AtomicUsize::new(0);
    #[expect(
        clippy::disallowed_methods,
        reason = "independent simulator instances, results reordered by input index below"
    )]
    let mut done: Vec<(usize, R)> = thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let _core = gm_sim::CoreHold::take();
                    std::iter::from_fn(|| {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        items.get(i).map(|item| (i, f(item)))
                    })
                    .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
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

/// The workspace root: the nearest directory at or above the current one
/// whose `Cargo.toml` declares `[workspace]`, else the current directory.
/// It is found at run time, so a copy of the repository that reuses another
/// copy's `target/` still reads and writes its own tree.
pub fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let declares_workspace = |dir: &Path| {
        std::fs::read_to_string(dir.join("Cargo.toml"))
            .is_ok_and(|toml| toml.lines().any(|line| line.trim() == "[workspace]"))
    };
    let root = cwd.ancestors().find(|dir| declares_workspace(dir));
    root.map_or_else(|| cwd.clone(), Path::to_path_buf)
}

/// The workspace-root `results/` directory ([`workspace_root`]), so a
/// binary run from anywhere inside a copy of the repository writes that
/// copy's `results/`.
pub fn results_dir() -> PathBuf {
    workspace_root().join("results")
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
