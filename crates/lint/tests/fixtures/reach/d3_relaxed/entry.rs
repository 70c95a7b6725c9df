//@ path: crates/mapreduce/src/exec.rs
//! D3 multi-hop entry: the task dispatcher two calls above a relaxed
//! atomic. Legacy scoping flags the sink too, but only the call-graph
//! analysis names the entry point in the diagnostic.
pub fn dispatch(count: usize) {
    for _ in 0..count {
        drain();
    }
}
