//! Instruments attached from outside the program: a `TaskObserver` that
//! marks phase ends, and a `JournalStore` wrapper that counts and times
//! journal I/O. Neither changes what the pipeline computes.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use pper::journal::{JournalError, JournalStore};
use pper::mapreduce::{TaskEvent, TaskKind, TaskObserver};

/// Phase ends the observer marks, in pipeline order. Notices arrive after
/// each phase's barrier, so the first notice of a phase is its end.
pub const PHASE_ENDS: [(&str, TaskKind); 4] = [
    ("pper-job1-blocking", TaskKind::Map),
    ("pper-job1-blocking", TaskKind::Reduce),
    ("pper-job2-resolution", TaskKind::Map),
    ("pper-job2-resolution", TaskKind::Reduce),
];

/// Names of the five spans a traced run splits into. They tile the run:
/// start → job-1 map end → job-1 reduce end → job-2 map end → job-2
/// reduce end → `try_run` returns.
pub const SPANS: [&str; 5] = [
    "job1.map_s",
    "job1.reduce_s",
    "job2.route_s",
    "job2.resolve_s",
    "pipeline.assemble_s",
];

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("probe mutex poisoned by a panicking observer")
}

#[derive(Default)]
struct Marks {
    ends: [Option<Instant>; 4],
    job2_reduce_costs: Vec<f64>,
}

/// Records the first post-barrier notice of each phase and the virtual
/// cost of every resolution reduce task.
#[derive(Clone, Default)]
pub struct PhaseClock(Arc<Mutex<Marks>>);

impl PhaseClock {
    pub fn observer(&self) -> TaskObserver {
        let marks = Arc::clone(&self.0);
        TaskObserver::new(move |ev| {
            let TaskEvent::Finished { job, id, cost, .. } = ev else {
                return;
            };
            let now = Instant::now();
            let mut m = lock(&marks);
            if let Some(i) = PHASE_ENDS
                .iter()
                .position(|&(j, k)| j == *job && k == id.kind)
            {
                m.ends[i].get_or_insert(now);
                if i == 3 {
                    m.job2_reduce_costs.push(*cost);
                }
            }
        })
    }

    /// The five spans of a run that started at `start` and returned at
    /// `end`. They add up to `end - start` exactly.
    pub fn spans(&self, start: Instant, end: Instant) -> Result<[Duration; 5], String> {
        let m = lock(&self.0);
        let mut bounds = [start; 6];
        for (i, mark) in m.ends.iter().enumerate() {
            bounds[i + 1] = mark.ok_or_else(|| {
                format!(
                    "traced run saw no {:?} notice from {}",
                    PHASE_ENDS[i].1, PHASE_ENDS[i].0
                )
            })?;
        }
        bounds[5] = end;
        let mut spans = [Duration::ZERO; 5];
        for i in 0..5 {
            if bounds[i + 1] < bounds[i] {
                return Err(format!("phase ends out of order at {}", SPANS[i]));
            }
            spans[i] = bounds[i + 1] - bounds[i];
        }
        Ok(spans)
    }

    /// max/mean of the resolution job's reduce-task virtual costs.
    pub fn job2_task_vcost_max_mean(&self) -> f64 {
        let m = lock(&self.0);
        let costs = &m.job2_reduce_costs;
        let mean = costs.iter().sum::<f64>() / costs.len().max(1) as f64;
        let max = costs.iter().copied().fold(0.0, f64::max);
        if mean > 0.0 {
            max / mean
        } else {
            0.0
        }
    }
}

/// Journal I/O seen by a [`JournalProbe`].
#[derive(Clone, Debug, Default)]
pub struct JournalStats {
    pub appends: u64,
    pub append_bytes: u64,
    pub append_time: Duration,
    pub syncs: u64,
    pub sync_time: Duration,
    pub reads: u64,
    pub read_bytes: u64,
    pub read_time: Duration,
    /// Byte offset of every append, in order.
    pub offsets: Vec<u64>,
    /// For every append, in order: when the first sync after it returned.
    pub durable_at: Vec<Instant>,
}

impl JournalStats {
    /// Add another store's counts and times (not its offsets).
    pub fn add(&mut self, other: &JournalStats) {
        self.appends += other.appends;
        self.append_bytes += other.append_bytes;
        self.append_time += other.append_time;
        self.syncs += other.syncs;
        self.sync_time += other.sync_time;
        self.reads += other.reads;
        self.read_bytes += other.read_bytes;
        self.read_time += other.read_time;
    }

    /// Time spent inside the store: appends, syncs and reads.
    pub fn store_time(&self) -> Duration {
        self.append_time + self.sync_time + self.read_time
    }
}

/// A `JournalStore` that forwards to another store and counts and times
/// every call.
pub struct JournalProbe {
    inner: Arc<dyn JournalStore>,
    stats: Mutex<JournalStats>,
}

impl JournalProbe {
    pub fn new(inner: Arc<dyn JournalStore>) -> Self {
        Self {
            inner,
            stats: Mutex::new(JournalStats::default()),
        }
    }

    pub fn stats(&self) -> JournalStats {
        lock(&self.stats).clone()
    }
}

impl JournalStore for JournalProbe {
    fn append(&self, job: &str, bytes: &[u8]) -> Result<u64, JournalError> {
        let started = Instant::now();
        let offset = self.inner.append(job, bytes)?;
        let mut s = lock(&self.stats);
        s.append_time += started.elapsed();
        s.appends += 1;
        s.append_bytes += bytes.len() as u64;
        s.offsets.push(offset);
        Ok(offset)
    }

    fn read(&self, job: &str) -> Result<Vec<u8>, JournalError> {
        let started = Instant::now();
        let result = self.inner.read(job);
        let mut s = lock(&self.stats);
        s.read_time += started.elapsed();
        s.reads += 1;
        if let Ok(bytes) = &result {
            s.read_bytes += bytes.len() as u64;
        }
        result
    }

    fn sync(&self, job: &str) -> Result<(), JournalError> {
        let started = Instant::now();
        self.inner.sync(job)?;
        let now = Instant::now();
        let mut s = lock(&self.stats);
        s.sync_time += now - started;
        s.syncs += 1;
        let unsynced = s.offsets.len() - s.durable_at.len();
        s.durable_at.extend(std::iter::repeat_n(now, unsynced));
        Ok(())
    }

    fn truncate_log(&self, job: &str, len: u64) -> Result<(), JournalError> {
        self.inner.truncate_log(job, len)
    }

    fn list_jobs(&self) -> Result<Vec<String>, JournalError> {
        self.inner.list_jobs()
    }
}
