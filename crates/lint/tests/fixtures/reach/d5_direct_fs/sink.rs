//@ path: crates/schedule/src/snapshot.rs
//! D5 multi-hop sink: `schedule` is outside the legacy direct_fs scope,
//! so only reachability from the dispatcher reports the bypassed VFS seam.
pub fn persist() {
    dump();
}

fn dump() {
    std::fs::write("plan.json", b"{}").ok();
}
