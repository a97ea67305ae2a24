//! Model ↔ implementation conformance.
//!
//! The checker and the simulator share their protocol core (`gm_proto`),
//! but the checker's transition system is hand-written on top of it. These
//! tests pin the two together: the clean CI configuration verifies
//! exhaustively, the seeded mutation is caught with a counterexample the
//! *simulator* also fails on with the identical delivery verdict, the
//! committed trace artifact stays byte-stable, and a property test drives
//! random valid action sequences against the invariants.

use std::collections::BTreeSet;

use gm_proto::ProtoMutation;
use proptest::prelude::*;
use simcheck::{
    apply, check, enabled, explore, extract_replay, is_goal, model_delivered, run, trace_json,
    Config, Limits, State, Topo,
};

fn never() -> impl FnMut() -> bool {
    || false
}

/// The configuration the committed mutation trace was generated with:
/// CI-sized protocol limits, loss-only environment, full concreteness
/// (no symmetry) and the simulator's scheduling regime (eager NIC).
fn mutation_trace_config() -> Config {
    let mut cfg = Config::ci()
        .with_mutation(ProtoMutation::SenderWindowOffByOne)
        .with_symmetry(false);
    cfg.dup = 0;
    cfg.reorder = 0;
    cfg.crash = 0;
    cfg.eager_nic = true;
    cfg
}

/// The roadmap's acceptance configuration — 3 nodes, window 2, loss budget
/// 2 (plus dup/reorder/crash) — explores exhaustively with zero violations.
#[test]
fn ci_configuration_is_exhaustively_clean() {
    let out = run(&Config::ci(), &Limits::default(), &mut never());
    assert!(out.complete, "CI exploration must drain its frontier");
    assert!(
        out.violation.is_none(),
        "violation: {:?}",
        out.violation.map(|v| (v.kind, v.detail))
    );
    assert!(
        out.states > 10_000,
        "the CI space is tens of thousands of states, got {}",
        out.states
    );
}

/// The seeded sender-window off-by-one is caught under full interleaving,
/// even with every environment budget zeroed: the adversary delays local
/// DMA until an ack outruns it and the widened horizon frees an unsent
/// record.
#[test]
fn mutation_is_caught_without_any_faults() {
    let mut cfg = Config::ci()
        .with_mutation(ProtoMutation::SenderWindowOffByOne)
        .with_symmetry(true);
    cfg.loss = 0;
    cfg.dup = 0;
    cfg.reorder = 0;
    cfg.crash = 0;
    let out = run(&cfg, &Limits::default(), &mut never());
    let cex = out.violation.expect("mutation must be caught");
    assert_eq!(cex.kind, "deadlock");
    // `run` re-extracts the trace with symmetry off, so it is concrete.
    assert!(!cex.steps.is_empty());
}

/// Regenerating the committed counterexample trace reproduces it
/// byte-for-byte (BFS order, canonical hashing and the JSON writer are all
/// deterministic).
#[test]
fn committed_mutation_trace_is_reproducible() {
    let cfg = mutation_trace_config();
    let out = explore(&cfg, &Limits::default(), &mut never());
    let cex = out.violation.expect("mutation must be caught");
    let regenerated = trace_json(&cfg, &Topo::binomial(cfg.nodes), &cex);
    assert_eq!(
        regenerated,
        include_str!("../traces/mutation_sender_window.json"),
        "committed trace artifact is stale — regenerate with \
         `cargo run -p simcheck -- --mutate sender-window-off-by-one \
         --no-symmetry --eager-nic --dup 0 --reorder 0 --crash 0 \
         --trace crates/simcheck/traces/mutation_sender_window.json`"
    );
}

/// The committed counterexample fails in the real simulator with the
/// *identical* delivery verdict: same delivered-member set, no send
/// completion, and no retransmissions (the bug frees the very record the
/// retransmit path needs).
#[test]
fn committed_mutation_trace_fails_in_the_simulator_identically() {
    let cfg = mutation_trace_config();
    let out = explore(&cfg, &Limits::default(), &mut never());
    let cex = out.violation.expect("mutation must be caught");
    let spec = extract_replay(&cfg, &cex)
        .expect("the committed trace uses only targeted first-transmission drops");
    assert!(
        !spec.drops.is_empty(),
        "this counterexample needs real loss"
    );
    let sim = nic_mcast::replay(&spec);
    assert!(!sim.send_done, "the simulator must also fail to complete");
    assert_eq!(sim.retransmissions, 0, "the mutation kills retransmission");
    let model: BTreeSet<u32> = model_delivered(&cex);
    assert_eq!(sim.delivered, model, "delivery verdicts must agree");
}

/// The same drops without the mutation are recovered by Go-Back-N
/// retransmission — pinning the failure on the seeded bug, not the drops.
#[test]
fn same_drops_without_mutation_are_recovered() {
    let cfg = mutation_trace_config();
    let out = explore(&cfg, &Limits::default(), &mut never());
    let cex = out.violation.expect("mutation must be caught");
    let mut spec = extract_replay(&cfg, &cex).expect("replayable trace");
    spec.mutation = ProtoMutation::None;
    let sim = nic_mcast::replay(&spec);
    assert_eq!(
        sim.delivered,
        (1..cfg.nodes).map(u32::from).collect::<BTreeSet<u32>>()
    );
    assert!(sim.send_done);
    assert!(
        sim.retransmissions > 0,
        "recovery must cost retransmissions"
    );
}

/// The checker agrees the faithful protocol survives those same drops: the
/// clean model explores the loss-only configuration without violations.
#[test]
fn model_survives_the_trace_drops_without_mutation() {
    let cfg = mutation_trace_config().with_mutation(ProtoMutation::None);
    let out = explore(&cfg, &Limits::default(), &mut never());
    assert!(out.complete);
    assert!(out.violation.is_none(), "{:?}", out.violation);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random valid action sequences on the clean CI configuration never
    /// violate an invariant, and every run that quiesces reached the goal
    /// (no deadlock is reachable by any schedule).
    #[test]
    fn random_walks_preserve_invariants(choices in proptest::collection::vec(any::<u16>(), 0..200)) {
        let cfg = Config::ci().with_symmetry(false);
        let topo = Topo::binomial(cfg.nodes);
        let mut st = State::initial(&cfg, &topo);
        for &c in &choices {
            let acts = enabled(&cfg, &topo, &st);
            if acts.is_empty() {
                break;
            }
            st = apply(&cfg, &topo, &st, acts[c as usize % acts.len()]);
            prop_assert_eq!(check(&cfg, &topo, &st), None);
        }
        if enabled(&cfg, &topo, &st).is_empty() {
            prop_assert!(is_goal(&cfg, &topo, &st), "quiesced short of the goal: {:?}", st);
        }
    }
}
