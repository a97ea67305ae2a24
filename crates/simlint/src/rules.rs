//! The rule set: what `simlint` enforces and why.
//!
//! Four rule families guard the properties the simulator's reliability
//! argument rests on (see DESIGN.md "Static invariants"):
//!
//! * **D — determinism**: [`DET_HASH`], [`DET_WALLTIME`], [`DET_THREAD`].
//!   Every run must be bit-for-bit reproducible; randomized hash iteration,
//!   wall-clock reads, and ad-hoc threads all break that silently.
//! * **U — unit safety**: [`UNITS`]. `SimTime`/`SimDuration` arithmetic must
//!   stay typed; raw `as u64`/`as f64` casts on nanosecond values reintroduce
//!   the unit bugs the newtypes exist to prevent.
//! * **H — hot-path hygiene**: [`HOT_ALLOC`]. Functions annotated
//!   `// simlint::hot` must stay allocation-free (locks in PR 1's perf work).
//! * **E — error discipline**: [`ERROR_UNWRAP`]. Simulator code panics only
//!   through `expect("<named invariant>")`, never bare `unwrap()`.
//! * **O — observability**: [`PROBE_UNIQUE`]. `ProbeId` names key Perfetto
//!   categories, golden traces, and latency attribution; a duplicate name
//!   silently merges two probe points into one timeline. [`FLOW_ID`]: flow
//!   identity is the packed `gm_sim::FlowId` newtype; a raw `u64` copy of
//!   it bypasses the validity bit and field packing that causal lineage
//!   reconstruction depends on.
//!
//! Plus [`ALLOW_HYGIENE`], which polices the suppression mechanism itself.

/// Name, one-line summary, and help text for one rule.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable rule key, used in diagnostics and `simlint::allow(...)`.
    pub name: &'static str,
    /// One-line summary of what the rule forbids.
    pub summary: &'static str,
    /// Remediation hint appended to each diagnostic.
    pub help: &'static str,
}

/// D: no default-hasher `HashMap`/`HashSet` in sim/protocol crates.
pub const DET_HASH: &str = "det-hash";
/// D: no `Instant`/`SystemTime` wall-clock reads in simulator code.
pub const DET_WALLTIME: &str = "det-walltime";
/// D: no `thread::spawn` in simulator code.
pub const DET_THREAD: &str = "det-thread";
/// U: no raw `as` casts on `SimTime`/`SimDuration` nanosecond values.
pub const UNITS: &str = "units";
/// H: no allocation in `// simlint::hot` functions.
pub const HOT_ALLOC: &str = "hot-alloc";
/// E: no `unwrap()`; `expect` must name its invariant in a string literal.
pub const ERROR_UNWRAP: &str = "error-unwrap";
/// O: `ProbeId::new("<name>", ...)` names must be unique workspace-wide.
pub const PROBE_UNIQUE: &str = "probe-unique";
/// O: no raw `u64` flow identifiers outside `sim::flow`.
pub const FLOW_ID: &str = "flow-id";
/// P: no clock/RNG/probe/global-state access inside `gm::proto`.
pub const STATE_PURE: &str = "state-pure";
/// Suppressions must name a known rule, carry a reason, and actually fire.
pub const ALLOW_HYGIENE: &str = "allow-hygiene";

/// The full rule table, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: DET_HASH,
        summary: "default-hasher HashMap/HashSet keeps protocol state in randomized iteration order",
        help: "use BTreeMap/BTreeSet (or a seeded hasher built on gm_sim::splitmix64) so identical runs iterate identically",
    },
    RuleInfo {
        name: DET_WALLTIME,
        summary: "wall-clock read in simulator code breaks run-to-run reproducibility",
        help: "use SimTime from the engine; for genuine wall-clock *measurement* of the simulator itself, suppress with a reason",
    },
    RuleInfo {
        name: DET_THREAD,
        summary: "thread::spawn in simulator code makes event interleaving scheduler-dependent",
        help: "simulation state must be single-threaded; only the bench harness fans out (independent sims per thread)",
    },
    RuleInfo {
        name: UNITS,
        summary: "raw `as` cast mixes SimTime/SimDuration nanoseconds with untyped numbers",
        help: "stay in typed time (as_micros_f64/as_nanos_f64, SimDuration ops); conversions belong in sim::time only",
    },
    RuleInfo {
        name: HOT_ALLOC,
        summary: "allocation in a `// simlint::hot` function",
        help: "hot paths are allocation-free by design (DESIGN.md \u{a7}6); hoist the allocation out or drop the annotation deliberately",
    },
    RuleInfo {
        name: ERROR_UNWRAP,
        summary: "unwrap()/anonymous expect in non-test simulator code",
        help: "return a typed error, or use expect(\"<invariant>\") with a message naming the invariant that makes the panic unreachable",
    },
    RuleInfo {
        name: PROBE_UNIQUE,
        summary: "duplicate ProbeId name — probe identities must be unique workspace-wide",
        help: "probe events are keyed by their static name (Perfetto categories, golden traces, attribution); pick a name no other ProbeId::new(...) uses",
    },
    RuleInfo {
        name: FLOW_ID,
        summary: "raw u64 flow identifier outside sim::flow loses the packed-FlowId type safety",
        help: "pass and store gm_sim::FlowId; only crates/sim/src/flow.rs may touch the raw representation, reading .raw() for serialization is fine",
    },
    RuleInfo {
        name: STATE_PURE,
        summary: "impure construct (clock/RNG/probe/global state) inside the pure protocol core",
        help: "gm::proto holds side-effect-free transition functions shared with the simcheck model checker; keep time, randomness, probes and statics in the layers that call it",
    },
    RuleInfo {
        name: ALLOW_HYGIENE,
        summary: "malformed, unjustified, or unused simlint suppression",
        help: "write `// simlint::allow(<rule>, <reason>)` with a real reason, and delete suppressions that no longer fire",
    },
];

/// Look up a rule by key.
pub fn rule_info(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// True if `name` is a known rule key.
pub fn is_known_rule(name: &str) -> bool {
    rule_info(name).is_some()
}
