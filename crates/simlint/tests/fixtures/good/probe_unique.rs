// Every probe point carries its own name; mentioning a name in a string
// ("fixture_tx") or resolving one dynamically never counts as a definition.

pub static WIRE_TX: ProbeId = ProbeId::new("fixture_tx", Track::Wire);
pub static WIRE_RETX: ProbeId = ProbeId::new("fixture_retx", Track::Wire);
