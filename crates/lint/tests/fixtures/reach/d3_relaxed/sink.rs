//@ path: crates/mapreduce/src/queue.rs
//! D3 multi-hop sink: the relaxed ordering is two calls below the
//! dispatcher; the chain in the message is what changes under v2.
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

pub fn drain() {
    bump();
}

fn bump() {
    COUNTER.fetch_add(1, Ordering::Relaxed);
}
