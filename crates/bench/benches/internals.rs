//! Criterion microbenches of the engine-internals fast paths added for the
//! events/sec push: the slab + SoA id-queue discipline the NIC work queues
//! use, and the weighted topology-partition DP that balances shard event
//! load.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gm_sim::{Engine, Scheduler, SimDuration, SimTime, Slab, World};
use myrinet::Topology;

/// A NIC-work-queue-sized payload: what `gm::nic` used to move through its
/// `VecDeque`s before the slab/SoA split parked it behind a `u32` id.
#[derive(Clone)]
struct FatWork {
    _dst: u64,
    _len: u32,
    _offset: u32,
    _seq: u32,
    _port: u32,
    _deadline: u64,
    _payload: [u64; 6],
}

impl FatWork {
    fn new(i: u64) -> Self {
        FatWork {
            _dst: i,
            _len: 4096,
            _offset: 0,
            _seq: i as u32,
            _port: 1,
            _deadline: i * 13,
            _payload: [i; 6],
        }
    }
}

/// The fat-event world: the completion event carries the whole work record
/// through the event queue, the shape `gm::nic` had before the slab split.
struct FatEvents {
    remaining: u64,
}

impl World for FatEvents {
    type Event = FatWork;
    fn handle(&mut self, ev: FatWork, sched: &mut Scheduler<FatWork>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            let jitter = ev._deadline % 13;
            sched.after(
                SimDuration::from_nanos(700 + jitter),
                FatWork::new(self.remaining),
            );
        }
    }
}

/// The slab world: the payload parks in a slab, and only a `u32` id rides
/// the event queue — the discipline `Ev::LanaiDone(node, WorkId)` uses.
struct SlabEvents {
    remaining: u64,
    slab: Slab<FatWork>,
}

impl World for SlabEvents {
    type Event = u32;
    fn handle(&mut self, id: u32, sched: &mut Scheduler<u32>) {
        let ev = self.slab.take(id);
        if self.remaining > 0 {
            self.remaining -= 1;
            let jitter = ev._deadline % 13;
            let next = self.slab.insert(FatWork::new(self.remaining));
            sched.after(SimDuration::from_nanos(700 + jitter), next);
        }
    }
}

/// Fat payloads riding the event queue vs slab-parked payloads with `u32`
/// ids: the wheel copies every event through its bucket vectors, so event
/// size is dispatch cost. 64 interleaved streams approximate a busy NIC's
/// in-flight work population.
fn bench_nic_soa_queues(c: &mut Criterion) {
    let mut g = c.benchmark_group("nic_soa_queues");
    let total = 100_064u64;
    g.throughput(Throughput::Elements(total));
    g.bench_function("fat_events_in_queue", |b| {
        b.iter(|| {
            let mut eng = Engine::new(FatEvents { remaining: 100_000 });
            for i in 0..64u64 {
                eng.schedule(SimTime::from_nanos(i), FatWork::new(i));
            }
            eng.run_to_idle();
            assert_eq!(eng.events_handled(), total);
        });
    });
    g.bench_function("slab_parked_u32_ids", |b| {
        b.iter(|| {
            let mut slab = Slab::with_capacity(128);
            let ids: Vec<u32> = (0..64u64).map(|i| slab.insert(FatWork::new(i))).collect();
            let mut eng = Engine::new(SlabEvents { remaining: 100_000, slab });
            for (i, id) in ids.into_iter().enumerate() {
                eng.schedule(SimTime::from_nanos(i as u64), id);
            }
            eng.run_to_idle();
            assert_eq!(eng.events_handled(), total);
        });
    });
    g.finish();
}

/// The weighted linear-partitioning DP against the unweighted split it
/// replaces on the shard-setup path. Weights are Zipf-skewed the way a
/// many-group workload's per-node event load is.
fn bench_partition_balance(c: &mut Criterion) {
    let mut g = c.benchmark_group("partition_balance");
    for &nodes in &[64u32, 128] {
        let topo = Topology::for_nodes(nodes);
        let weights: Vec<u64> = (0..nodes)
            .map(|i| 1 + 10_000 / (u64::from(i) + 1))
            .collect();
        g.bench_with_input(BenchmarkId::new("unweighted", nodes), &nodes, |b, _| {
            b.iter(|| topo.partition(4));
        });
        g.bench_with_input(BenchmarkId::new("weighted_dp", nodes), &nodes, |b, _| {
            b.iter(|| topo.partition_weighted(4, &weights));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_nic_soa_queues, bench_partition_balance);
criterion_main!(benches);
