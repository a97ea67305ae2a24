//! Breadth-first exhaustive exploration with canonical state hashing,
//! optional sibling-leaf symmetry reduction and minimal counterexample
//! extraction.

use std::collections::BTreeMap;

use crate::model::{
    apply, check, describe, enabled, is_goal, Action, Chain, Config, NodeSt, Pkt, State, Topo,
};

/// Exploration bounds (the CI run needs a hard ceiling so a state-space
/// regression fails fast instead of hanging the pipeline).
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Stop (incomplete) after visiting this many distinct states.
    pub max_states: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_states: 2_000_000,
        }
    }
}

/// One step of a counterexample trace.
#[derive(Clone, Debug)]
pub struct TraceStep {
    /// The action taken.
    pub action: Action,
    /// Human-readable annotation (packet details for wire actions).
    pub note: String,
}

/// A violation with the shortest action sequence reaching it (BFS order
/// guarantees minimality in steps).
#[derive(Clone, Debug)]
pub struct CounterExample {
    /// Which property failed: `"invariant"` or `"deadlock"`.
    pub kind: String,
    /// What exactly went wrong in the violating state.
    pub detail: String,
    /// The actions from the initial state to the violation.
    pub steps: Vec<TraceStep>,
    /// The violating state (for delivery-outcome comparison on replay).
    pub state: State,
}

/// Exploration result.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Distinct states visited (after canonicalization).
    pub states: usize,
    /// Transitions taken.
    pub transitions: usize,
    /// Depth of the deepest visited state.
    pub max_depth: usize,
    /// Whether the frontier drained (`false` when `max_states` or the
    /// caller's interrupt stopped the search early).
    pub complete: bool,
    /// The first violation found, if any.
    pub violation: Option<CounterExample>,
}

/// Exhaustively explore `cfg` breadth-first. `interrupt` is polled between
/// expansions; returning `true` stops the search (reported as incomplete).
pub fn explore(cfg: &Config, limits: &Limits, interrupt: &mut dyn FnMut() -> bool) -> Outcome {
    let topo = Topo::binomial(cfg.nodes);
    let initial = canon(cfg, &topo, State::initial(cfg, &topo));

    // Parallel arrays: the state table plus BFS parent pointers for trace
    // extraction.
    let mut states: Vec<State> = vec![initial.clone()];
    let mut parent: Vec<usize> = vec![usize::MAX];
    let mut via: Vec<Option<Action>> = vec![None];
    let mut depth: Vec<usize> = vec![0];
    let mut index: BTreeMap<State, usize> = BTreeMap::new();
    index.insert(initial, 0);

    let mut transitions = 0usize;
    let mut max_depth = 0usize;
    let mut complete = true;
    let mut violation: Option<(usize, String, String)> = None;

    if let Some(msg) = check(cfg, &topo, &states[0]) {
        violation = Some((0, "invariant".to_string(), msg));
    }

    let mut head = 0usize;
    'bfs: while head < states.len() {
        if interrupt() {
            complete = false;
            break;
        }
        let cur = head;
        head += 1;
        let acts = enabled(cfg, &topo, &states[cur]);
        if acts.is_empty() {
            if !is_goal(cfg, &topo, &states[cur]) {
                violation = Some((
                    cur,
                    "deadlock".to_string(),
                    deadlock_detail(cfg, &states[cur]),
                ));
                break;
            }
            continue;
        }
        for a in acts {
            let next = canon(cfg, &topo, apply(cfg, &topo, &states[cur], a));
            transitions += 1;
            if index.contains_key(&next) {
                continue;
            }
            let id = states.len();
            index.insert(next.clone(), id);
            states.push(next);
            parent.push(cur);
            via.push(Some(a));
            depth.push(depth[cur] + 1);
            max_depth = max_depth.max(depth[id]);
            if let Some(msg) = check(cfg, &topo, &states[id]) {
                violation = Some((id, "invariant".to_string(), msg));
                break 'bfs;
            }
            if states.len() >= limits.max_states {
                complete = false;
                break 'bfs;
            }
        }
    }

    let violation = violation.map(|(id, kind, detail)| {
        extract_trace(cfg, &topo, &states, &parent, &via, id, kind, detail)
    });
    Outcome {
        states: states.len(),
        transitions,
        max_depth,
        complete,
        violation,
    }
}

/// Why this non-goal state is stuck, in protocol vocabulary.
fn deadlock_detail(cfg: &Config, st: &State) -> String {
    let root = &st.nodes[0];
    let undelivered: Vec<usize> = st
        .nodes
        .iter()
        .enumerate()
        .skip(1)
        .filter(|(_, n)| !n.crashed && n.delivered == 0)
        .map(|(id, _)| id)
        .collect();
    format!(
        "no action enabled but goal unmet: root min_acked={} of {} packets, \
         {} outstanding records, undelivered members {undelivered:?}",
        root.acks.min_acked().min(u64::from(cfg.packets)),
        cfg.packets,
        root.records.len()
    )
}

/// Rebuild the action path to `id` from the BFS parent pointers, then
/// re-walk it from the initial state to annotate every step with the
/// packet it touches (the annotation needs the *pre*-state of each step).
#[expect(
    clippy::too_many_arguments,
    reason = "the explorer's state tables, borrowed apart for one extraction"
)]
fn extract_trace(
    cfg: &Config,
    topo: &Topo,
    states: &[State],
    parent: &[usize],
    via: &[Option<Action>],
    id: usize,
    kind: String,
    detail: String,
) -> CounterExample {
    let mut actions = Vec::new();
    let mut cur = id;
    while parent[cur] != usize::MAX {
        actions.push(via[cur].expect("non-root BFS node has an inbound action"));
        cur = parent[cur];
    }
    actions.reverse();

    // Re-walk the path to annotate each step from its *pre*-state. With
    // symmetry on the stored chain canonicalizes after every step, so the
    // re-walk must too — the result is then a canonical-form trace, sound
    // only up to sibling-leaf relabelling; the caller (see `lib.rs::run`)
    // re-explores with symmetry off before trusting a trace as concrete.
    let mut steps = Vec::new();
    let mut st = State::initial(cfg, topo);
    for a in &actions {
        steps.push(TraceStep {
            action: *a,
            note: describe(topo, &st, *a),
        });
        st = canon(cfg, topo, apply(cfg, topo, &st, *a));
    }
    CounterExample {
        kind,
        detail,
        steps,
        state: if cfg.symmetry {
            states[id].clone()
        } else {
            st
        },
    }
}

// ---------------------------------------------------------------------------
// Symmetry reduction
// ---------------------------------------------------------------------------

/// Canonicalize `st` under sibling-leaf symmetry when the configuration
/// asks for it; identity otherwise.
fn canon(cfg: &Config, topo: &Topo, st: State) -> State {
    if !cfg.symmetry {
        return st;
    }
    canonicalize(topo, st)
}

/// Sibling leaves with the same *fed signature* at their parent (which
/// records have already sent them their replica) are interchangeable: the
/// protocol never branches on a leaf's identity, only on its position in
/// the parent's child list. Sorting each such group by the leaf's local
/// state (plus its two link queues and its acked count) picks one
/// representative per orbit. The fed-signature grouping keeps the
/// permutation from rewriting replica-chain positions, so the parent's
/// records are untouched and the canonical form is reachable.
fn canonicalize(topo: &Topo, mut st: State) -> State {
    for (p, group) in &topo.leaf_groups {
        let p = *p as usize;
        // fed[ci]: per-record "already fed child ci" bits, the part of the
        // parent's state that names child positions.
        let fed_sig = |ci: u8| -> Vec<bool> {
            st.nodes[p]
                .records
                .iter()
                .map(|r| match r.chain {
                    Chain::Done => true,
                    Chain::Active(cj) => cj > ci,
                    Chain::Waiting => false,
                })
                .collect()
        };
        // Group sibling-leaf positions by identical fed signature; only
        // positions inside one group may trade places.
        let mut by_sig: BTreeMap<Vec<bool>, Vec<u8>> = BTreeMap::new();
        for &ci in group {
            by_sig.entry(fed_sig(ci)).or_default().push(ci);
        }
        for positions in by_sig.values() {
            if positions.len() < 2 {
                continue;
            }
            // Sort the group's positions by the leaf-local state key.
            let key = |ci: u8| -> (NodeSt, Vec<Pkt>, Vec<Pkt>, u64) {
                let child = topo.children[p][ci as usize];
                (
                    st.nodes[child as usize].clone(),
                    st.queues[topo.link(p as u8, child)].clone(),
                    st.queues[topo.link(child, p as u8)].clone(),
                    st.nodes[p].acks.count(ci as usize),
                )
            };
            let mut order: Vec<u8> = positions.clone();
            order.sort_by_key(|&ci| key(ci));
            if order == *positions {
                continue;
            }
            // Apply the permutation: position positions[k] takes the state
            // currently at position order[k].
            let keys: Vec<(NodeSt, Vec<Pkt>, Vec<Pkt>, u64)> =
                order.iter().map(|&ci| key(ci)).collect();
            for (k, &ci) in positions.iter().enumerate() {
                let child = topo.children[p][ci as usize];
                let (ns, down, up, _) = keys[k].clone();
                st.nodes[child as usize] = ns;
                st.queues[topo.link(p as u8, child)] = down;
                st.queues[topo.link(child, p as u8)] = up;
            }
            // Rebuild the parent's per-child acked counts in the new order
            // (ChildAcks has no setter — monotonic on purpose).
            let counts: Vec<u64> = keys.iter().map(|k| k.3).collect();
            let nchildren = topo.children[p].len();
            let mut fresh = gm_proto::ChildAcks::new(nchildren);
            for ci in 0..nchildren {
                let count = if let Some(k) = positions.iter().position(|&q| q as usize == ci) {
                    counts[k]
                } else {
                    st.nodes[p].acks.count(ci)
                };
                if count > 0 {
                    fresh.on_ack(ci, count - 1);
                }
            }
            st.nodes[p].acks = fresh;
        }
    }
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_proto::ProtoMutation;

    fn never() -> impl FnMut() -> bool {
        || false
    }

    #[test]
    fn tiny_config_explores_clean() {
        // 2 nodes, 1 packet, 1 loss: small enough to eyeball.
        let cfg = Config {
            nodes: 2,
            packets: 1,
            window: 1,
            send_bufs: 1,
            recv_bufs: 1,
            loss: 1,
            dup: 0,
            reorder: 0,
            crash: 0,
            mutation: ProtoMutation::None,
            symmetry: false,
            eager_nic: false,
        };
        let out = explore(&cfg, &Limits::default(), &mut never());
        assert!(out.complete);
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.states > 5, "a loss branch must exist: {}", out.states);
    }

    #[test]
    fn symmetry_preserves_verdict_and_shrinks() {
        let mut cfg = Config::ci();
        cfg.dup = 0;
        cfg.reorder = 0;
        cfg.crash = 0;
        cfg.loss = 1;
        let full = explore(
            &cfg.clone().with_symmetry(false),
            &Limits::default(),
            &mut never(),
        );
        let reduced = explore(
            &cfg.clone().with_symmetry(true),
            &Limits::default(),
            &mut never(),
        );
        assert!(full.complete && reduced.complete);
        assert_eq!(full.violation.is_none(), reduced.violation.is_none());
        assert!(
            reduced.states <= full.states,
            "reduction must not grow the space: {} > {}",
            reduced.states,
            full.states
        );
        assert!(
            reduced.states < full.states,
            "the two leaves of a 3-node tree are symmetric: {} vs {}",
            reduced.states,
            full.states
        );
    }

    #[test]
    fn mutation_produces_deadlock_counterexample() {
        // The off-by-one release horizon frees one record beyond the
        // acknowledged prefix; a single targeted loss then deadlocks the
        // protocol short of the goal.
        let mut cfg = Config {
            mutation: ProtoMutation::SenderWindowOffByOne,
            symmetry: false,
            ..Config::ci()
        };
        cfg.dup = 0;
        cfg.reorder = 0;
        cfg.crash = 0;
        let out = explore(&cfg, &Limits::default(), &mut never());
        let cex = out.violation.expect("mutation must be caught");
        assert_eq!(cex.kind, "deadlock");
        assert!(!cex.steps.is_empty());
    }

    #[test]
    fn max_states_limit_reports_incomplete() {
        let cfg = Config::ci();
        let out = explore(&cfg, &Limits { max_states: 10 }, &mut never());
        assert!(!out.complete);
        assert!(out.states <= 11);
    }
}
