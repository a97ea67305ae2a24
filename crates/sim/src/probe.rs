//! `sim::probe` — the unified observability layer.
//!
//! Every layer of the stack (engine, fabric, NIC firmware, multicast
//! extension, MPI ranks) reports through this one surface:
//!
//! * a **typed event bus**: probe points are [`ProbeId`] descriptors (name +
//!   [`Track`]) declared as `static`s; records carry a [`Phase`] and a small
//!   `Copy` payload, land in a bounded ring-buffer [`ProbeSink`], and are
//!   totally ordered by `(SimTime, seq)` — deterministic because recording
//!   happens inside the deterministic event loop;
//! * a **counter registry**: [`Metrics`] is the per-run snapshot of every
//!   protocol counter (NIC, fabric, engine), replacing scattered bench-local
//!   tallies;
//! * **span timelines**: `Begin`/`End`/`Complete` phases model resource
//!   occupancy (host CPU, LANai, PCI, wire) and export as Chrome
//!   trace-event / Perfetto JSON ([`perfetto`]) with one track per
//!   node×resource;
//! * **latency attribution** ([`attribution`]): a sweep over the recorded
//!   spans splits measured iteration windows into host / NIC / PCI /
//!   serialization / contention / retransmission buckets that sum exactly
//!   to the measured latency.
//!
//! A [`ProbeEvent`] is 48 bytes and describes itself: it points at its
//! probe point's `&'static` descriptor, names its label by a process-wide
//! handle ([`ProbeEvent::label`] resolves it), and keeps its span length or
//! payload words in one shared word ([`ProbeEvent::dur`], [`ProbeEvent::a`],
//! [`ProbeEvent::b`]).
//!
//! Disabled probes are free beyond one branch: every recording method
//! returns before touching the (never-allocated) buffer, so the hot paths
//! that record stay allocation-free (the exact allocation pins in
//! `crates/bench/tests/counts.rs` hold them to it).

use std::collections::BTreeMap;
use std::fmt;

use crate::flow::FlowId;
use crate::merge;
use crate::names::NameTable;
use crate::time::{SimDuration, SimTime};

/// The resource a probe point belongs to; becomes the Perfetto thread
/// (track) within the node's process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Track {
    /// The host CPU.
    Host,
    /// The LANai NIC processor.
    Lanai,
    /// The PCI DMA engine.
    Pci,
    /// The injection link / wire.
    Wire,
    /// Application/protocol-level markers.
    App,
}

impl Track {
    /// Stable display name (Perfetto thread name).
    pub fn name(self) -> &'static str {
        match self {
            Track::Host => "host",
            Track::Lanai => "lanai",
            Track::Pci => "pci",
            Track::Wire => "wire",
            Track::App => "app",
        }
    }

    /// Stable small integer (Perfetto `tid`).
    pub fn tid(self) -> u32 {
        match self {
            Track::Host => 0,
            Track::Lanai => 1,
            Track::Pci => 2,
            Track::Wire => 3,
            Track::App => 4,
        }
    }
}

/// Static identity of one probe point: a workspace-unique name (the
/// source scan in `tests/source_rules.rs` enforces it) and the track its
/// records land on.
/// Declare each as a `static`, so every record of the point holds the same
/// 8-byte `&'static ProbeId`; it is not `Copy`, since a copy would be a
/// second address for the same point.
#[derive(Debug)]
pub struct ProbeId {
    /// Unique event-kind name.
    pub name: &'static str,
    /// The resource track records land on.
    pub track: Track,
}

impl ProbeId {
    /// Define a probe point.
    pub const fn new(name: &'static str, track: Track) -> Self {
        ProbeId { name, track }
    }
}

impl PartialEq for ProbeId {
    /// The same probe point: the same descriptor, which for `static`s is
    /// one address compare, or else the same name and track (copies of a
    /// `const` may sit at different addresses).
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other) || (self.name == other.name && self.track == other.track)
    }
}

impl Eq for ProbeId {}

/// Contention stall reported by the fabric: time a packet spent waiting for
/// busy links along its route. Attributed to the *contention* bucket.
pub static LINK_STALL: ProbeId = ProbeId::new("link_stall", Track::Wire);

/// A packet dropped by the fabric (loss / corruption). Gap time after a drop
/// is attributed to the *retransmission* bucket.
pub static PKT_DROP: ProbeId = ProbeId::new("pkt_drop", Track::Wire);

/// How a record relates to a span on its track.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// A span opens (matched by the next `End` on the same node+track).
    Begin,
    /// The open span on this node+track closes.
    End,
    /// A point ("instant") event.
    Mark,
    /// A self-contained span of length [`ProbeEvent::dur`].
    Complete,
}

/// Every distinct label recorded in this process, indexed by [`Label`]
/// (see `sim::names`).
static LABELS: NameTable = NameTable::new("probe labels");

/// A record's label, as its index in [`LABELS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Label(u16);

impl Label {
    /// The handle of `label`, appending it to [`LABELS`] on first sight.
    fn intern(label: &'static str) -> Label {
        Label(LABELS.intern(label))
    }

    /// The string this handle names.
    fn resolve(self) -> &'static str {
        LABELS.resolve(self.0)
    }
}

/// One record on the bus: 48 bytes, all `Copy`.
///
/// No record carries a span length and payload words at once, so they
/// share one word: the length on [`Phase::Complete`], `a` on
/// [`Phase::Mark`], `a` and `b` as two 32-bit halves on [`Phase::Begin`],
/// nothing on [`Phase::End`]. Read them through [`ProbeEvent::dur`],
/// [`ProbeEvent::a`] and [`ProbeEvent::b`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ProbeEvent {
    /// Simulated time of the record.
    pub time: SimTime,
    /// Global sequence number (total order among equal timestamps).
    pub seq: u64,
    /// Node the event happened on.
    pub node: u32,
    /// Which probe point fired.
    pub id: &'static ProbeId,
    /// Span phase.
    pub phase: Phase,
    /// Causal flow this record belongs to ([`FlowId::NONE`] when the record
    /// is not message-scoped). `End` records may leave this `NONE`: span
    /// pairing per `(node, track)` inherits the opening `Begin`'s flow.
    pub flow: FlowId,
    /// Sub-label (e.g. the LANai work-item kind).
    label: Label,
    /// The span length or the payload words, by `phase`.
    word: u64,
}

impl ProbeEvent {
    /// Sub-label (e.g. the LANai work-item kind).
    pub fn label(&self) -> &'static str {
        self.label.resolve()
    }

    /// Span length: non-zero only on [`Phase::Complete`].
    pub fn dur(&self) -> SimDuration {
        match self.phase {
            Phase::Complete => SimDuration::from_nanos(self.word),
            _ => SimDuration::ZERO,
        }
    }

    /// First payload word (destination node, DMA ns, ...): set on
    /// [`Phase::Begin`] and [`Phase::Mark`].
    pub fn a(&self) -> u64 {
        match self.phase {
            Phase::Begin => self.word & u64::from(u32::MAX),
            Phase::Mark => self.word,
            Phase::End | Phase::Complete => 0,
        }
    }

    /// Second payload word (wire bytes, ...): set on [`Phase::Begin`].
    pub fn b(&self) -> u64 {
        match self.phase {
            Phase::Begin => self.word >> 32,
            _ => 0,
        }
    }
}

/// Shows the label and the payload words as the accessors read them: a
/// handle's number depends on which thread interned the label first.
impl fmt::Debug for ProbeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProbeEvent")
            .field("time", &self.time)
            .field("seq", &self.seq)
            .field("node", &self.node)
            .field("id", self.id)
            .field("phase", &self.phase)
            .field("dur", &self.dur())
            .field("label", &self.label())
            .field("a", &self.a())
            .field("b", &self.b())
            .field("flow", &self.flow)
            .finish()
    }
}

/// The two payload words of a [`Phase::Begin`] record as one word. Each
/// must fit in 32 bits.
fn begin_word(a: u64, b: u64) -> u64 {
    let a = u32::try_from(a).expect("a Begin record's payload word `a` fits in 32 bits");
    let b = u32::try_from(b).expect("a Begin record's payload word `b` fits in 32 bits");
    u64::from(b) << 32 | u64::from(a)
}

/// What a run records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeConfig {
    enabled: bool,
    capacity: usize,
}

impl ProbeConfig {
    /// Default ring capacity of [`ProbeConfig::spans`].
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// Record nothing; every probe site reduces to one branch.
    pub const fn off() -> Self {
        ProbeConfig {
            enabled: false,
            capacity: 0,
        }
    }

    /// Record full span timelines into a ring of the default capacity.
    pub const fn spans() -> Self {
        ProbeConfig {
            enabled: true,
            capacity: Self::DEFAULT_CAPACITY,
        }
    }

    /// Record spans into a ring of `capacity` events (oldest evicted first).
    pub const fn spans_with_capacity(capacity: usize) -> Self {
        ProbeConfig {
            enabled: capacity > 0,
            capacity,
        }
    }

    /// Whether anything is recorded.
    pub const fn is_enabled(&self) -> bool {
        self.enabled
    }
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig::off()
    }
}

/// The ring-buffer sink probe records land in.
///
/// The buffer is allocated once at construction (only if enabled); recording
/// is a branch, a label lookup and a slot write, so instrumented hot paths
/// allocate only the first time a sink sees a label.
#[derive(Clone, Debug, Default)]
pub struct ProbeSink {
    config: ProbeConfig,
    /// Ring storage; once `len == capacity`, `head` wraps and overwrites.
    events: Vec<ProbeEvent>,
    head: usize,
    seq: u64,
    evicted: u64,
    /// The labels this sink has recorded and their handles, matched by
    /// address, so [`LABELS`] is locked once per label address per sink.
    labels: Vec<(&'static str, Label)>,
}

impl ProbeSink {
    /// A sink for `config` (pre-allocates the ring iff enabled).
    pub fn new(config: ProbeConfig) -> Self {
        let events = if config.is_enabled() {
            Vec::with_capacity(config.capacity)
        } else {
            Vec::new()
        };
        ProbeSink {
            config,
            events,
            head: 0,
            seq: 0,
            evicted: 0,
            labels: Vec::new(),
        }
    }

    /// A disabled sink (the default for clusters).
    pub fn disabled() -> Self {
        ProbeSink::new(ProbeConfig::off())
    }

    /// Whether records are kept.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// The configuration in use.
    pub fn config(&self) -> ProbeConfig {
        self.config
    }

    /// Append one record. `word` is already packed for `phase` (see
    /// [`ProbeEvent`]). Free (one branch) when disabled; never allocates
    /// beyond the ring reserved at construction and the label cache.
    #[inline]
    #[expect(
        clippy::too_many_arguments,
        reason = "one record's fields, passed flat so the disabled path stays one branch"
    )]
    fn push(
        &mut self,
        time: SimTime,
        node: u32,
        id: &'static ProbeId,
        phase: Phase,
        label: &'static str,
        word: u64,
        flow: FlowId,
    ) {
        if !self.config.enabled {
            return;
        }
        let ev = ProbeEvent {
            time,
            seq: self.seq,
            node,
            id,
            phase,
            flow,
            label: self.label(label),
            word,
        };
        self.seq += 1;
        if self.events.len() < self.config.capacity {
            self.events.push(ev);
        } else {
            // Ring is full: overwrite the oldest slot.
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.config.capacity;
            self.evicted += 1;
        }
    }

    /// The handle of `label`: one address compare per label this sink has
    /// recorded, [`Label::intern`] on a new address.
    #[inline]
    fn label(&mut self, label: &'static str) -> Label {
        match self.labels.iter().find(|(l, _)| std::ptr::eq(*l, label)) {
            Some(&(_, handle)) => handle,
            None => self.learn_label(label),
        }
    }

    /// First sighting of a label address in this sink. Kept out of line so
    /// the record path stays small.
    #[cold]
    fn learn_label(&mut self, label: &'static str) -> Label {
        let handle = Label::intern(label);
        self.labels.push((label, handle));
        handle
    }

    /// Open a span on `(node, id.track)`. `a` and `b` must each fit in
    /// 32 bits (checked).
    #[inline]
    pub fn begin(&mut self, time: SimTime, node: u32, id: &'static ProbeId, label: &'static str, a: u64, b: u64) {
        self.begin_flow(time, node, id, label, a, b, FlowId::NONE);
    }

    /// Open a span on `(node, id.track)` belonging to `flow`. `a` and `b`
    /// must each fit in 32 bits (checked).
    #[inline]
    #[expect(
        clippy::too_many_arguments,
        reason = "a span's fields plus its flow, mirroring `begin`"
    )]
    pub fn begin_flow(
        &mut self,
        time: SimTime,
        node: u32,
        id: &'static ProbeId,
        label: &'static str,
        a: u64,
        b: u64,
        flow: FlowId,
    ) {
        if self.config.enabled {
            self.push(time, node, id, Phase::Begin, label, begin_word(a, b), flow);
        }
    }

    /// Close the open span on `(node, id.track)`.
    #[inline]
    pub fn end(&mut self, time: SimTime, node: u32, id: &'static ProbeId, label: &'static str) {
        self.push(time, node, id, Phase::End, label, 0, FlowId::NONE);
    }

    /// Record a point event.
    #[inline]
    pub fn instant(&mut self, time: SimTime, node: u32, id: &'static ProbeId, label: &'static str, a: u64) {
        self.push(time, node, id, Phase::Mark, label, a, FlowId::NONE);
    }

    /// Record a point event belonging to `flow`.
    #[inline]
    pub fn instant_flow(
        &mut self,
        time: SimTime,
        node: u32,
        id: &'static ProbeId,
        label: &'static str,
        a: u64,
        flow: FlowId,
    ) {
        self.push(time, node, id, Phase::Mark, label, a, flow);
    }

    /// Record a self-contained `[time, time + dur]` span.
    #[inline]
    pub fn complete(&mut self, time: SimTime, node: u32, id: &'static ProbeId, dur: SimDuration, label: &'static str) {
        self.push(time, node, id, Phase::Complete, label, dur.as_nanos(), FlowId::NONE);
    }

    /// Record a self-contained `[time, time + dur]` span belonging to `flow`.
    #[inline]
    pub fn complete_flow(
        &mut self,
        time: SimTime,
        node: u32,
        id: &'static ProbeId,
        dur: SimDuration,
        label: &'static str,
        flow: FlowId,
    ) {
        self.push(time, node, id, Phase::Complete, label, dur.as_nanos(), flow);
    }

    /// Recorded events, oldest first (ring rotation already applied).
    pub fn iter(&self) -> impl Iterator<Item = &ProbeEvent> + Clone + '_ {
        let (tail, front) = self.events.split_at(self.head.min(self.events.len()));
        front.iter().chain(tail.iter())
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded (or the sink is disabled).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Ring slots actually allocated (0 for a disabled sink: the
    /// zero-allocation guarantee the tests pin).
    pub fn allocated_capacity(&self) -> usize {
        self.events.capacity()
    }

    /// Events overwritten because the ring filled.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The retained events as one borrowed slice, oldest first, without a
    /// copy. That needs the oldest record in slot 0, which holds for every
    /// sink [`ProbeSink::merge_canonical`] returns. Panics on a ring whose
    /// oldest record sits elsewhere (use [`ProbeSink::iter`] or
    /// [`ProbeSink::to_vec`] there).
    pub fn as_slice(&self) -> &[ProbeEvent] {
        assert_eq!(
            self.head, 0,
            "a wrapped probe ring is not one contiguous slice"
        );
        &self.events
    }

    /// Copy the retained events out, oldest first.
    pub fn to_vec(&self) -> Vec<ProbeEvent> {
        self.iter().copied().collect()
    }

    /// Merge per-shard sinks into one canonical stream, ordered by
    /// `(time, node)` with each sink's internal order kept among ties, and
    /// renumber `seq`.
    ///
    /// Both the sequential and the sharded scenario paths run their streams
    /// through this, so the two modes produce byte-identical probe output:
    /// a node's records are emitted by exactly one shard in an order that
    /// does not depend on the sharding, and records of different nodes at
    /// the same instant come from commuting handlers, so `(time, node)` plus
    /// per-sink order is a total, mode-independent key. (If any ring
    /// evicted, per-shard rings evict different records than one global ring
    /// would — size the capacity to the run when exact parity matters.)
    ///
    /// The merge works in place and allocates nothing per record: the
    /// first sink's ring becomes the merged stream, and the records
    /// themselves are sorted on `(time, node, position)`, their position in
    /// the concatenated rings written into `seq` first (see `sim::merge`).
    /// Label handles are process-wide, so records change sinks as they are.
    pub fn merge_canonical(sinks: Vec<ProbeSink>) -> ProbeSink {
        let enabled = sinks.iter().any(ProbeSink::is_enabled);
        let capacity: usize = sinks.iter().map(|s| s.config.capacity).sum();
        let evicted: u64 = sinks.iter().map(|s| s.evicted).sum();
        let mut events = merge::concat_rings(sinks.into_iter().map(|s| (s.events, s.head)));
        merge::sort_in_place(&mut events, |e| &mut e.seq, |e| (e.time, e.node, e.seq));
        let seq = events.len() as u64;
        ProbeSink {
            config: ProbeConfig {
                enabled,
                capacity: capacity.max(events.len()),
            },
            events,
            head: 0,
            seq,
            evicted,
            labels: Vec::new(),
        }
    }
}

/// A per-run snapshot of every counter/gauge, keyed `"<layer>.<counter>"`.
///
/// Built once per run from the NIC, fabric, and engine counters; replaces
/// the ad-hoc per-bench tallies.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    entries: BTreeMap<String, u64>,
}

impl Metrics {
    /// An empty snapshot.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Add `value` to `"<layer>.<name>"` (creates at zero).
    pub fn add(&mut self, layer: &str, name: &str, value: u64) {
        *self.entries.entry(format!("{layer}.{name}")).or_insert(0) += value;
    }

    /// Set `"<layer>.<name>"` to `value`.
    pub fn set(&mut self, layer: &str, name: &str, value: u64) {
        self.entries.insert(format!("{layer}.{name}"), value);
    }

    /// Value of a fully-qualified key (0 if absent).
    pub fn get(&self, key: &str) -> u64 {
        self.entries.get(key).copied().unwrap_or(0)
    }

    /// Iterate `(key, value)` in sorted key order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.entries.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// A copy with every `"<layer>.*"` key removed. Parity checks use this
    /// to drop execution-diagnostic layers (e.g. `parallel`) whose values
    /// legitimately depend on how a run was executed, not what it computed.
    pub fn without_layer(&self, layer: &str) -> Metrics {
        let prefix = format!("{layer}.");
        Metrics {
            entries: self
                .entries
                .iter()
                .filter(|(k, _)| !k.starts_with(&prefix))
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
        }
    }

    /// Number of counters held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merge another snapshot into this one (summing shared keys).
    pub fn merge(&mut self, other: &Metrics) {
        for (k, &v) in &other.entries {
            *self.entries.entry(k.clone()).or_insert(0) += v;
        }
    }
}

/// Chrome trace-event ("Perfetto") JSON export.
///
/// The output loads directly in <https://ui.perfetto.dev> (or
/// `chrome://tracing`): one process per node, one thread per resource track,
/// `B`/`E`/`X`/`i` phases, timestamps in microseconds. Records carrying a
/// [`FlowId`] additionally emit Chrome *flow events*
/// (`ph:"s"`/`"t"`/`"f"`, keyed by the packed flow id), which Perfetto
/// renders as arrows linking the spans of one delivery across tracks and
/// nodes.
pub mod perfetto {
    use super::{Phase, ProbeEvent, Track};

    /// Microseconds with nanosecond resolution, rendered as a fixed-point
    /// decimal (no float-formatting ambiguity).
    fn write_ts(out: &mut String, ns: u64) {
        use std::fmt::Write;
        let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
    }

    /// Render `events` (must be in record order) as a complete Chrome
    /// trace-event JSON document.
    pub fn chrome_trace_json<'a>(events: impl Iterator<Item = &'a ProbeEvent> + Clone) -> String {
        use std::fmt::Write;
        // Flow arrows need to know each flow's first and last anchorable
        // record (`s` opens the arrow chain, `t` continues it, `f` ends it).
        let mut flow_span: std::collections::BTreeMap<u64, (u64, u64)> =
            std::collections::BTreeMap::new();
        for e in events.clone() {
            if e.flow.is_some() && e.phase != Phase::End {
                let entry = flow_span.entry(e.flow.raw()).or_insert((e.seq, e.seq));
                entry.0 = entry.0.min(e.seq);
                entry.1 = entry.1.max(e.seq);
            }
        }
        let mut out = String::with_capacity(1 << 16);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let sep = |out: &mut String, first: &mut bool| {
            if *first {
                *first = false;
            } else {
                out.push(',');
            }
        };

        // Metadata: name each node's process and each track's thread.
        let mut seen: Vec<(u32, Track)> = Vec::new();
        let mut seen_node: Vec<u32> = Vec::new();
        for e in events.clone() {
            if !seen_node.contains(&e.node) {
                seen_node.push(e.node);
                sep(&mut out, &mut first);
                let _ = write!(
                    out,
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                     \"args\":{{\"name\":\"node{}\"}}}}",
                    e.node, e.node
                );
            }
            if !seen.contains(&(e.node, e.id.track)) {
                seen.push((e.node, e.id.track));
                sep(&mut out, &mut first);
                let _ = write!(
                    out,
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    e.node,
                    e.id.track.tid(),
                    e.id.track.name()
                );
            }
        }

        for e in events {
            let ph = match e.phase {
                Phase::Begin => "B",
                Phase::End => "E",
                Phase::Mark => "i",
                Phase::Complete => "X",
            };
            let label = e.label();
            let name = if label.is_empty() { e.id.name } else { label };
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":",
                name, e.id.name, ph
            );
            write_ts(&mut out, e.time.as_nanos());
            if e.phase == Phase::Complete {
                out.push_str(",\"dur\":");
                write_ts(&mut out, e.dur().as_nanos());
            }
            let _ = write!(out, ",\"pid\":{},\"tid\":{}", e.node, e.id.track.tid());
            if e.phase == Phase::Mark {
                out.push_str(",\"s\":\"t\"");
            }
            if e.flow.is_some() {
                let _ = write!(out, ",\"args\":{{\"a\":{},\"b\":{},\"flow\":{}}}}}", e.a(), e.b(), e.flow.raw());
            } else {
                let _ = write!(out, ",\"args\":{{\"a\":{},\"b\":{}}}}}", e.a(), e.b());
            }
            // Flow arrow anchored to this record (same ts/pid/tid binds it
            // to the slice just emitted).
            if e.flow.is_some() && e.phase != Phase::End {
                let (first, last) = flow_span[&e.flow.raw()];
                let fph = if first == last {
                    None // single-record flow: no arrow to draw
                } else if e.seq == first {
                    Some("s")
                } else if e.seq == last {
                    Some("f")
                } else {
                    Some("t")
                };
                if let Some(fph) = fph {
                    // A slice event for this record was just emitted, so a
                    // separator is always needed.
                    out.push(',');
                    let _ = write!(
                        out,
                        "{{\"name\":\"flow\",\"cat\":\"flow\",\"ph\":\"{}\",\"id\":{},\"ts\":",
                        fph,
                        e.flow.raw()
                    );
                    write_ts(&mut out, e.time.as_nanos());
                    let _ = write!(out, ",\"pid\":{},\"tid\":{}", e.node, e.id.track.tid());
                    if fph == "f" {
                        out.push_str(",\"bp\":\"e\"");
                    }
                    out.push('}');
                }
            }
        }
        out.push_str("]}");
        out
    }
}

/// Latency attribution: split measured iteration windows into exclusive
/// time buckets using the recorded span timeline.
pub mod attribution {
    use super::{Phase, ProbeEvent, Track, LINK_STALL, PKT_DROP};
    use crate::time::{SimDuration, SimTime};

    /// Exclusive per-run time buckets. Within each measured window every
    /// nanosecond lands in exactly one bucket (priority: contention stall >
    /// wire > PCI > LANai > host; un-covered gaps go to *contention*, or to
    /// *retransmission* once a drop has occurred in the window), so the
    /// buckets sum to the total measured latency by construction.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct Attribution {
        /// Host CPU busy (API overhead, notice handling, forwarding copies).
        pub host: SimDuration,
        /// LANai work-item occupancy (NIC processing).
        pub nic: SimDuration,
        /// PCI DMA transfer time.
        pub pci: SimDuration,
        /// Wire time: serialization plus flight (propagation + switching).
        pub serialization: SimDuration,
        /// Waiting for busy links, plus gaps not covered by any resource.
        pub contention: SimDuration,
        /// Gap time after a packet drop (timeout + recovery).
        pub retransmission: SimDuration,
        /// Sum of all buckets == sum of window lengths.
        pub total: SimDuration,
        /// Number of windows attributed.
        pub windows: u32,
    }

    impl Attribution {
        /// Per-window (per-iteration) mean of one bucket, in microseconds.
        pub fn mean_us(&self, bucket: SimDuration) -> f64 {
            if self.windows == 0 {
                0.0
            } else {
                bucket.as_micros_f64() / self.windows as f64
            }
        }

        /// Mean attributed latency per window, in microseconds.
        pub fn mean_total_us(&self) -> f64 {
            self.mean_us(self.total)
        }

        /// `(label, mean µs)` rows for reporting, bucket order fixed.
        pub fn rows(&self) -> [(&'static str, f64); 6] {
            [
                ("host", self.mean_us(self.host)),
                ("nic", self.mean_us(self.nic)),
                ("pci", self.mean_us(self.pci)),
                ("serialization", self.mean_us(self.serialization)),
                ("contention", self.mean_us(self.contention)),
                ("retransmission", self.mean_us(self.retransmission)),
            ]
        }
    }

    // Bucket indices for the sweep's active counters.
    const HOST: usize = 0;
    const NIC: usize = 1;
    const PCI: usize = 2;
    const SER: usize = 3;
    const CONT: usize = 4;
    const N_BUCKETS: usize = 5;
    /// Priority, strongest first, for segments covered by multiple spans.
    const PRIORITY: [usize; N_BUCKETS] = [CONT, SER, PCI, NIC, HOST];

    fn bucket_of(ev: &ProbeEvent) -> usize {
        if *ev.id == LINK_STALL {
            return CONT;
        }
        match ev.id.track {
            Track::Host => HOST,
            Track::Lanai => NIC,
            Track::Pci => PCI,
            Track::Wire => SER,
            Track::App => HOST,
        }
    }

    /// Attribute `events` over the measured `windows` (disjoint, ascending
    /// `[start, end]` pairs — the timed iterations of a run).
    pub fn attribute(events: &[ProbeEvent], windows: &[(SimTime, SimTime)]) -> Attribution {
        let mut out = Attribution {
            windows: windows.len() as u32,
            ..Attribution::default()
        };
        if windows.is_empty() {
            return out;
        }

        // 1. Collect closed intervals (ns) per bucket, plus drop instants.
        //    Begin/End pairs are matched per (node, track): every track is a
        //    serially-busy resource, so spans cannot nest.
        let mut intervals: Vec<(u64, u64, usize)> = Vec::new();
        let mut drops: Vec<u64> = Vec::new();
        let mut open: std::collections::BTreeMap<(u32, u32), (u64, usize)> =
            std::collections::BTreeMap::new();
        for ev in events {
            let key = (ev.node, ev.id.track.tid());
            match ev.phase {
                Phase::Begin => {
                    // A dangling open span (shouldn't happen) closes here.
                    if let Some((s, b)) = open.insert(key, (ev.time.as_nanos(), bucket_of(ev))) {
                        intervals.push((s, ev.time.as_nanos(), b));
                    }
                }
                Phase::End => {
                    if let Some((s, b)) = open.remove(&key) {
                        intervals.push((s, ev.time.as_nanos(), b));
                    }
                }
                Phase::Complete => {
                    let s = ev.time.as_nanos();
                    intervals.push((s, s + ev.dur().as_nanos(), bucket_of(ev)));
                }
                Phase::Mark => {
                    if *ev.id == PKT_DROP {
                        drops.push(ev.time.as_nanos());
                    }
                }
            }
        }
        // Spans still open at the end of the run extend to the last window.
        let run_end = windows.last().map_or(0, |w| w.1.as_nanos());
        for (&_key, &(s, b)) in &open {
            if s < run_end {
                intervals.push((s, run_end, b));
            }
        }
        drops.sort_unstable();

        // 2. Boundary sweep: +1/-1 deltas per bucket at interval edges.
        let mut edges: Vec<(u64, i32, usize)> = Vec::with_capacity(intervals.len() * 2);
        for &(s, e, b) in &intervals {
            if e > s {
                edges.push((s, 1, b));
                edges.push((e, -1, b));
            }
        }
        edges.sort_unstable();

        let mut active = [0i32; N_BUCKETS];
        let mut ei = 0usize;
        let mut di = 0usize;
        let mut acc = [0u64; N_BUCKETS + 1]; // +1: retransmission gaps
        const RETX: usize = N_BUCKETS;

        for &(ws, we) in windows {
            let (ws, we) = (ws.as_nanos(), we.as_nanos());
            // Advance edges up to the window start.
            while ei < edges.len() && edges[ei].0 <= ws {
                active[edges[ei].2] += edges[ei].1;
                ei += 1;
            }
            while di < drops.len() && drops[di] < ws {
                di += 1;
            }
            let mut dropped_in_window = false;
            let mut cur = ws;
            while cur < we {
                // Next boundary: the next edge or drop inside the window.
                let mut next = we;
                if ei < edges.len() {
                    next = next.min(edges[ei].0);
                }
                if di < drops.len() {
                    next = next.min(drops[di]);
                }
                if next > cur {
                    // Attribute [cur, next) to the strongest active bucket.
                    let seg = next - cur;
                    let mut bucket = None;
                    for &b in &PRIORITY {
                        if active[b] > 0 {
                            bucket = Some(b);
                            break;
                        }
                    }
                    match bucket {
                        Some(b) => acc[b] += seg,
                        None if dropped_in_window => acc[RETX] += seg,
                        None => acc[CONT] += seg,
                    }
                    cur = next;
                }
                while ei < edges.len() && edges[ei].0 <= cur {
                    active[edges[ei].2] += edges[ei].1;
                    ei += 1;
                }
                while di < drops.len() && drops[di] <= cur {
                    dropped_in_window = true;
                    di += 1;
                }
            }
        }

        out.host = SimDuration::from_nanos(acc[HOST]);
        out.nic = SimDuration::from_nanos(acc[NIC]);
        out.pci = SimDuration::from_nanos(acc[PCI]);
        out.serialization = SimDuration::from_nanos(acc[SER]);
        out.contention = SimDuration::from_nanos(acc[CONT]);
        out.retransmission = SimDuration::from_nanos(acc[RETX]);
        out.total = SimDuration::from_nanos(acc.iter().sum());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static T_A: ProbeId = ProbeId::new("test_a", Track::Lanai);
    static T_B: ProbeId = ProbeId::new("test_b", Track::Wire);

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_sink_records_nothing_and_allocates_nothing() {
        let mut s = ProbeSink::disabled();
        for i in 0..10_000 {
            s.instant(at(i), 0, &T_A, "x", i);
            // Nothing is packed either, so nothing is checked.
            s.begin(at(i), 0, &T_A, "x", u64::MAX, u64::MAX);
        }
        assert!(s.is_empty());
        assert_eq!(s.allocated_capacity(), 0, "disabled sink must not allocate");
        assert!(!s.is_enabled());
    }

    #[test]
    fn ring_keeps_newest_in_order() {
        let mut s = ProbeSink::new(ProbeConfig::spans_with_capacity(4));
        for i in 0..10u64 {
            s.instant(at(i), 0, &T_A, "x", i);
        }
        let kept: Vec<u64> = s.iter().map(ProbeEvent::a).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
        assert_eq!(s.evicted(), 6);
        // Ordering key (time, seq) is strictly increasing.
        let seqs: Vec<u64> = s.iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        // Merging rotates the ring into one ordered slice.
        let merged = ProbeSink::merge_canonical(vec![s.clone()]);
        assert_eq!(merged.as_slice().iter().map(ProbeEvent::a).collect::<Vec<_>>(), kept);
        let wrapped = std::panic::catch_unwind(|| s.as_slice().len());
        assert!(wrapped.is_err(), "a wrapped ring has no in-order slice");
    }

    #[test]
    fn capacity_is_reserved_up_front() {
        let mut s = ProbeSink::new(ProbeConfig::spans_with_capacity(64));
        let cap = s.allocated_capacity();
        assert!(cap >= 64);
        for i in 0..200u64 {
            s.instant(at(i), 0, &T_A, "x", i);
        }
        assert_eq!(s.allocated_capacity(), cap, "recording must not reallocate");
    }

    #[test]
    fn metrics_snapshot_is_sorted_and_merges() {
        let mut m = Metrics::new();
        m.add("nic", "tx_data", 3);
        m.add("fabric", "delivered", 5);
        m.add("nic", "tx_data", 2);
        assert_eq!(m.get("nic.tx_data"), 5);
        let keys: Vec<&str> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["fabric.delivered", "nic.tx_data"]);
        let mut other = Metrics::new();
        other.add("nic", "tx_data", 1);
        m.merge(&other);
        assert_eq!(m.get("nic.tx_data"), 6);
    }

    #[test]
    fn perfetto_export_is_well_formed() {
        let mut s = ProbeSink::new(ProbeConfig::spans());
        s.begin(at(1_000), 0, &T_A, "work", 0, 0);
        s.end(at(2_500), 0, &T_A, "work");
        s.instant(at(3_000), 1, &T_B, "arrive", 7);
        s.complete(at(3_000), 1, &T_B, SimDuration::from_nanos(500), "busy");
        let json = perfetto::chrome_trace_json(s.iter());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":0.500"));
        assert!(json.contains("node0") && json.contains("node1"));
        assert!(json.contains("\"lanai\"") && json.contains("\"wire\""));
    }

    #[test]
    fn attribution_sums_to_window_total() {
        let mut s = ProbeSink::new(ProbeConfig::spans());
        // Window [0, 1000]: host 0-100 (Complete), lanai 100-400 (B/E),
        // wire 300-700 (B/E, overlap wins over lanai), gap 700-1000.
        static H: ProbeId = ProbeId::new("test_host", Track::Host);
        static W: ProbeId = ProbeId::new("test_wire", Track::Wire);
        s.complete(at(0), 0, &H, SimDuration::from_nanos(100), "api");
        s.begin(at(100), 0, &T_A, "work", 0, 0);
        s.begin(at(300), 0, &W, "tx", 0, 0);
        s.end(at(400), 0, &T_A, "work");
        s.end(at(700), 0, &W, "tx");
        let ev = s.to_vec();
        let win = [(at(0), at(1_000))];
        let a = attribution::attribute(&ev, &win);
        assert_eq!(a.host.as_nanos(), 100);
        assert_eq!(a.nic.as_nanos(), 200); // 100-300 (300-400 claimed by wire)
        assert_eq!(a.serialization.as_nanos(), 400);
        assert_eq!(a.contention.as_nanos(), 300); // the 700-1000 gap
        assert_eq!(a.retransmission.as_nanos(), 0);
        assert_eq!(a.total.as_nanos(), 1_000);
    }

    #[test]
    fn attribution_gap_after_drop_is_retransmission() {
        let mut s = ProbeSink::new(ProbeConfig::spans());
        s.begin(at(0), 0, &T_B, "tx", 0, 0);
        s.end(at(200), 0, &T_B, "tx");
        s.instant(at(200), 0, &PKT_DROP, "", 0);
        s.begin(at(900), 0, &T_B, "tx", 0, 0);
        s.end(at(1_000), 0, &T_B, "tx");
        let ev = s.to_vec();
        let a = attribution::attribute(&ev, &[(at(0), at(1_000))]);
        assert_eq!(a.serialization.as_nanos(), 300);
        assert_eq!(a.retransmission.as_nanos(), 700, "post-drop gap is recovery");
        assert_eq!(a.total.as_nanos(), 1_000);
    }

    #[test]
    fn link_stall_outranks_serialization() {
        let mut s = ProbeSink::new(ProbeConfig::spans());
        s.begin(at(0), 0, &T_B, "tx", 0, 0);
        s.complete(at(100), 1, &LINK_STALL, SimDuration::from_nanos(200), "");
        s.end(at(500), 0, &T_B, "tx");
        let ev = s.to_vec();
        let a = attribution::attribute(&ev, &[(at(0), at(500))]);
        assert_eq!(a.contention.as_nanos(), 200);
        assert_eq!(a.serialization.as_nanos(), 300);
        assert_eq!(a.total.as_nanos(), 500);
    }

    #[test]
    fn probe_records_are_thin() {
        // A record points at its descriptor and names its label by a u16
        // handle; the span length and the payload words share one word.
        let size = std::mem::size_of::<ProbeEvent>();
        assert!(size <= 48, "ProbeEvent is {size} bytes");
    }

    /// A record as its recording call saw it: time, node, probe name and
    /// track, label, phase, span length, `a`, `b` and flow.
    type Fields = (u64, u32, &'static str, Track, &'static str, Phase, u64, u64, u64, FlowId);

    fn fields(e: &ProbeEvent) -> Fields {
        let (time, dur) = (e.time.as_nanos(), e.dur().as_nanos());
        (time, e.node, e.id.name, e.id.track, e.label(), e.phase, dur, e.a(), e.b(), e.flow)
    }

    #[test]
    fn records_read_back_what_was_recorded_across_a_merge() {
        static P: ProbeId = ProbeId::new("test_pci", Track::Pci);
        let (f, g) = (FlowId::new(3, 9, 4), FlowId::new(4, 1, 0));
        let (max32, none) = (u64::from(u32::MAX), FlowId::NONE);
        // Sink one learns "zeta" before "alpha", sink two the other way
        // round, from strings at other addresses.
        let mut one = ProbeSink::new(ProbeConfig::spans());
        one.begin(at(10), 0, &T_A, "zeta", max32, 7);
        one.instant(at(30), 0, &T_B, "alpha", u64::MAX);
        one.end(at(50), 0, &T_A, "zeta");
        one.complete_flow(at(70), 0, &P, SimDuration::from_nanos(u64::MAX - 70), "", f);
        let mut two = ProbeSink::new(ProbeConfig::spans());
        let alpha: &'static str = String::from("alpha").leak();
        let zeta: &'static str = String::from("zeta").leak();
        two.instant_flow(at(20), 1, &T_B, alpha, 5, g);
        two.begin_flow(at(40), 1, &P, zeta, 1, max32, g);
        two.end(at(60), 1, &P, "dma");
        two.complete(at(80), 1, &T_A, SimDuration::from_nanos(9), alpha);
        let merged = ProbeSink::merge_canonical(vec![one, two]);
        let got: Vec<Fields> = merged.as_slice().iter().map(fields).collect();
        let (begin, end, mark, span) = (Phase::Begin, Phase::End, Phase::Mark, Phase::Complete);
        let (lanai, wire, pci) = (Track::Lanai, Track::Wire, Track::Pci);
        let want: Vec<Fields> = vec![
            (10, 0, "test_a", lanai, "zeta", begin, 0, max32, 7, none),
            (20, 1, "test_b", wire, "alpha", mark, 0, 5, 0, g),
            (30, 0, "test_b", wire, "alpha", mark, 0, u64::MAX, 0, none),
            (40, 1, "test_pci", pci, "zeta", begin, 0, 1, max32, g),
            (50, 0, "test_a", lanai, "zeta", end, 0, 0, 0, none),
            (60, 1, "test_pci", pci, "dma", end, 0, 0, 0, none),
            (70, 0, "test_pci", pci, "", span, u64::MAX - 70, 0, 0, f),
            (80, 1, "test_a", lanai, "alpha", span, 9, 0, 0, none),
        ];
        assert_eq!(got, want);
        // Equal labels share one handle, whichever sink or address they
        // came from.
        let ev = merged.as_slice();
        assert_eq!((ev[0].label, ev[1].label), (ev[3].label, ev[2].label));
        assert_ne!(ev[0].label, ev[1].label);
    }

    #[test]
    #[should_panic(expected = "payload word `a` fits in 32 bits")]
    fn begin_word_a_over_32_bits_panics() {
        let mut s = ProbeSink::new(ProbeConfig::spans_with_capacity(1));
        s.begin(at(0), 0, &T_A, "", u64::from(u32::MAX) + 1, 0);
    }

    #[test]
    #[should_panic(expected = "payload word `b` fits in 32 bits")]
    fn begin_word_b_over_32_bits_panics() {
        let mut s = ProbeSink::new(ProbeConfig::spans_with_capacity(1));
        s.begin_flow(at(0), 0, &T_A, "", 0, u64::from(u32::MAX) + 1, FlowId::new(0, 0, 1));
    }
}
