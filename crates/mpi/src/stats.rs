//! What each rank measures, and the one fold that turns every rank's
//! records into the run's aggregates.
//!
//! Ranks share no state: each keeps its own records, in its own order, and
//! after the run [`fold`] combines them in an order no schedule can change,
//! so a run folds to the same bits on any number of shards.

use gm_sim::{OnlineStats, SimDuration, SimTime};

/// One `MPI_Bcast` a rank completed.
#[derive(Clone, Copy, Debug)]
pub struct BcastRecord {
    /// Event time of the callback the call returned in.
    pub at: SimTime,
    /// CPU time the rank entered the call.
    pub enter: SimTime,
    /// CPU time the call returned.
    pub exit: SimTime,
    /// Whether this rank was the root.
    pub root: bool,
}

/// Everything one rank measured.
#[derive(Debug, Default)]
pub struct Records {
    /// Every broadcast the rank completed; the index is the broadcast
    /// ordinal.
    pub bcasts: Vec<BcastRecord>,
    /// Event time and length of every positive skew applied after warmup.
    pub skews: Vec<(SimTime, SimDuration)>,
    /// CPU exit time of every barrier the rank completed; the index is the
    /// barrier ordinal.
    pub barrier_exits: Vec<SimTime>,
}

/// The run's aggregates, all in microseconds.
pub struct Folded {
    /// Per-ordinal broadcast latency (latest exit − root entry).
    pub latency: OnlineStats,
    /// Time inside `MPI_Bcast`, every rank.
    pub bcast_cpu: OnlineStats,
    /// Same, non-root ranks only.
    pub bcast_cpu_nonroot: OnlineStats,
    /// Positive skew applied.
    pub skew_applied: OnlineStats,
    /// Gaps between consecutive barrier completions.
    pub barrier_round: OnlineStats,
}

/// Fold every rank's records, given in rank order, into the aggregates of
/// broadcast ordinals `warmup..total` and barrier ordinals `..barriers`.
///
/// Latency and barrier rounds come from per-ordinal maxima. The sample
/// streams take their samples sorted by `(event time, rank)`, each rank's
/// own samples in its own order: the ranks arrive in rank order, so a
/// stable sort by event time alone is that order.
pub fn fold(ranks: &[&Records], warmup: u32, total: u32, barriers: u32) -> Folded {
    let mut enter_root = vec![SimTime::ZERO; total as usize];
    let mut exit_max = vec![SimTime::ZERO; total as usize];
    let mut barrier_exit_max = vec![SimTime::ZERO; barriers as usize];
    for r in ranks {
        for (i, b) in r.bcasts.iter().enumerate() {
            exit_max[i] = exit_max[i].max(b.exit);
            if b.root {
                enter_root[i] = b.enter;
            }
        }
        for (slot, &exit) in barrier_exit_max.iter_mut().zip(&r.barrier_exits) {
            *slot = (*slot).max(exit);
        }
    }
    let mut latency = OnlineStats::new();
    for i in warmup as usize..total as usize {
        latency.record_duration(exit_max[i].saturating_since(enter_root[i]));
    }
    let mut barrier_round = OnlineStats::new();
    let xs = &barrier_exit_max;
    for i in (warmup.max(1) as usize)..xs.len() {
        if xs[i] > SimTime::ZERO && xs[i - 1] > SimTime::ZERO {
            barrier_round.record_duration(xs[i].saturating_since(xs[i - 1]));
        }
    }
    let mut bcasts: Vec<&BcastRecord> = ranks
        .iter()
        .flat_map(|r| r.bcasts.iter().skip(warmup as usize))
        .collect();
    bcasts.sort_by_key(|b| b.at);
    let (mut bcast_cpu, mut bcast_cpu_nonroot) = (OnlineStats::new(), OnlineStats::new());
    for b in bcasts {
        let cpu = b.exit.saturating_since(b.enter);
        bcast_cpu.record_duration(cpu);
        if !b.root {
            bcast_cpu_nonroot.record_duration(cpu);
        }
    }
    let mut skews: Vec<_> = ranks.iter().flat_map(|r| &r.skews).collect();
    skews.sort_by_key(|s| s.0);
    let mut skew_applied = OnlineStats::new();
    for &(_, d) in skews {
        skew_applied.record_duration(d);
    }
    Folded {
        latency,
        bcast_cpu,
        bcast_cpu_nonroot,
        skew_applied,
        barrier_round,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_max_exit_minus_root_enter() {
        let mut ranks = [Records::default(), Records::default(), Records::default()];
        for ord in 0..3u64 {
            let base = SimTime::from_nanos(1_000 * ord);
            let took = [(true, 10), (false, 100 + ord), (false, 50)];
            for (rank, (root, ns)) in ranks.iter_mut().zip(took) {
                let exit = base + SimDuration::from_nanos(ns);
                rank.bcasts.push(BcastRecord {
                    at: exit,
                    enter: base,
                    exit,
                    root,
                });
            }
        }
        let ranks: Vec<&Records> = ranks.iter().collect();
        let s = fold(&ranks, 1, 3, 0);
        // warmup=1 excludes ordinal 0.
        assert_eq!(s.latency.count(), 2);
        assert!(
            (s.latency.mean() - 0.1015).abs() < 1e-9,
            "mean {}",
            s.latency.mean()
        );
        // CPU stats exclude warmup: 3 ranks x 2 ordinals.
        assert_eq!(s.bcast_cpu.count(), 6);
        assert_eq!(s.bcast_cpu_nonroot.count(), 4);
    }

    #[test]
    fn samples_fold_in_event_time_then_rank_order() {
        // Samples at the same event time go in rank order, and each rank's
        // own same-instant samples keep their order (rank 0 is `a`).
        let at = |ns| SimTime::from_nanos(ns);
        let us = |n| SimDuration::from_nanos(n);
        let a = Records {
            skews: vec![(at(5), us(333)), (at(5), us(7)), (at(9), us(1_001))],
            ..Records::default()
        };
        let b = Records {
            skews: vec![(at(1), us(17)), (at(5), us(123_457))],
            ..Records::default()
        };
        let folded = fold(&[&a, &b], 0, 0, 0).skew_applied;
        let mut expected = OnlineStats::new();
        for n in [17, 333, 7, 123_457, 1_001] {
            expected.record_duration(us(n));
        }
        assert_eq!(folded.count(), 5);
        assert_eq!(folded.mean().to_bits(), expected.mean().to_bits());
        assert_eq!(folded.stddev().to_bits(), expected.stddev().to_bits());
    }
}
