// Two probe points with the same static name: their events merge into one
// Perfetto category and the golden traces cannot tell them apart. Probe
// points are `static` descriptors, so records can point at them.

pub static WIRE_TX: ProbeId = ProbeId::new("fixture_tx", Track::Wire);
pub static WIRE_RETX: ProbeId = ProbeId::new("fixture_tx", Track::Wire);
