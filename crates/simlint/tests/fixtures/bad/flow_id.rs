// Flow identity smuggled around as a raw integer: a struct field and a
// parameter typed `u64` outside `sim::flow`. Both bypass the packed
// newtype's validity bit.

struct PacketMeta {
    flow: u64,
    len: usize,
}

fn stash(f: FlowId) -> PacketMeta {
    PacketMeta {
        flow: f.raw(),
        len: 0,
    }
}

fn relabel(flow_id: u64) -> u64 {
    flow_id
}
