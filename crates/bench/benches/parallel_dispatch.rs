//! Criterion bench of the sharded engine against the sequential reference
//! on the same multicast workload: identical event streams (the parity
//! suites prove bit-for-bit equality), so any median delta is pure engine
//! overhead — window bookkeeping on a single core, parallel speedup when
//! cores are available.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gm_sim::probe::ProbeConfig;
use gm_sim::{SeriesConfig, WatchConfig};
use nic_mcast::{execute, McastMode, McastRun, Report, TreeShape};

/// One fixed workload: a 32-node Clos cluster, 2 KB NIC-based multicast,
/// modest iteration count (the shard partition splits it four leaf-aligned
/// ways).
fn workload(shards: u32) -> McastRun {
    let mut run = McastRun::new(32, 2048, McastMode::NicBased, TreeShape::KAry(4));
    run.warmup = 2;
    run.iters = 8;
    run.shards = shards;
    run
}

fn run(run: &McastRun) -> Report {
    execute(run, ProbeConfig::off(), SeriesConfig::off(), WatchConfig::off())
}

fn bench_parallel_dispatch(c: &mut Criterion) {
    // Pin the event count once so the throughput label is honest.
    let events = run(&workload(1)).events;
    let mut g = c.benchmark_group("parallel");
    g.throughput(Throughput::Elements(events));
    for shards in [1u32, 2, 4] {
        let spec = workload(shards);
        g.bench_function(format!("dispatch_32n_{shards}_shards"), |b| {
            b.iter(|| {
                let out = run(&spec);
                assert_eq!(out.events, events, "sharding changed the event stream");
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_parallel_dispatch);
criterion_main!(benches);
