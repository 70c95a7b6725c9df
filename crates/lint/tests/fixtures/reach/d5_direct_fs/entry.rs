//@ path: crates/mapreduce/src/exec.rs
//! D5 multi-hop entry: the task dispatcher two calls above a direct
//! `std::fs` write in a crate the legacy VFS scope never covered.
use pper_schedule::snapshot::persist;

pub fn dispatch(count: usize) {
    for _ in 0..count {
        persist();
    }
}
