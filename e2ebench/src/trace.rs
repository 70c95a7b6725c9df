//! The traced pass: per-layer metrics measured from outside the program,
//! by timing calls into the layers' public functions, observing task
//! notices, and wrapping the journal store.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pper::datagen::Dataset;
use pper::er::prelude::*;
use pper::journal::{read_event_at, recover, FileStore, JobJournal, JournalEvent, JournalStore};
use pper::mapreduce::Counters;
use pper::simil::{MatchRule, PreparedCache, PreparedRule, SimScratch};

use crate::check::Tally;
use crate::probe::{JournalProbe, JournalStats, PhaseClock, SPANS};
use crate::workload::{Bench, RunOpts, JOB_ID};
use crate::{cores, median, Measured, Metric, Stop};

/// Traced rounds per pass; the one with the median `run_s` is reported.
const TRACE_REPS: usize = 3;
/// Timed repetitions of the single-call layers (schedule, decode).
const CALL_REPS: usize = 5;
/// Duplicate pairs (and as many non-matching neighbours) in the kernel
/// sample, and how long the kernel is timed over it.
const SIMIL_SAMPLE: usize = 1_000;
const SIMIL_SECONDS: f64 = 0.5;
/// Fixed seed of the kernel sample; the pairs still come from the
/// workload's own seeded dataset.
const SIMIL_SEED: u64 = 0x5EED;

pub struct TracedRun {
    pub wall: Duration,
    pub spans: [Duration; 5],
    pub task_vcost_max_mean: f64,
    pub result: ErRunResult,
}

/// One in-memory run over dataset `i` with the phase observer installed.
pub fn traced_run(bench: &mut Bench, i: usize) -> Result<TracedRun, String> {
    let clock = PhaseClock::default();
    let run = bench.full_run(
        i,
        &RunOpts {
            observer: Some(clock.observer()),
            plain: true,
            ..RunOpts::default()
        },
    )?;
    Ok(TracedRun {
        wall: run.wall,
        spans: clock.spans(run.started, run.started + run.wall)?,
        task_vcost_max_mean: clock.job2_task_vcost_max_mean(),
        result: run.result,
    })
}

/// A traced round: every dataset once. Walls, spans and counters are sums;
/// the task skew is the mean over datasets.
struct TracedRound {
    wall: Duration,
    spans: [Duration; 5],
    task_vcost_max_mean: f64,
    counters: Counters,
}

fn traced_round(bench: &mut Bench, tally: &mut Tally) -> Result<TracedRound, String> {
    let k = bench.datasets.len();
    let mut round = TracedRound {
        wall: Duration::ZERO,
        spans: [Duration::ZERO; 5],
        task_vcost_max_mean: 0.0,
        counters: Counters::new(),
    };
    for i in 0..k {
        let t = traced_run(bench, i)?;
        tally.record_fingerprint(i, ResultFingerprint::of(&t.result));
        round.wall += t.wall;
        for (sum, span) in round.spans.iter_mut().zip(t.spans) {
            *sum += span;
        }
        round.task_vcost_max_mean += t.task_vcost_max_mean / k as f64;
        round.counters.merge(&t.result.counters);
    }
    Ok(round)
}

/// Time one untraced round with `opts`, checking each result.
fn timed_round(bench: &mut Bench, tally: &mut Tally, opts: &RunOpts) -> Result<f64, String> {
    let mut wall = 0.0;
    for i in 0..bench.datasets.len() {
        let run = bench.full_run(i, opts)?;
        tally.record_fingerprint(i, ResultFingerprint::of(&run.result));
        wall += run.wall.as_secs_f64();
    }
    Ok(wall)
}

/// The checkpoint layer as seen in journals.
pub struct CheckpointLayer {
    pub count: usize,
    pub bytes_max: usize,
    /// Median time of `Checkpoint::from_json` on the largest checkpoint.
    pub decode_s: f64,
}

/// Checkpoints found in journals: how many, and the largest.
#[derive(Default)]
pub struct CheckpointScan {
    count: usize,
    largest: String,
}

impl CheckpointScan {
    /// Add every checkpoint a durable run journaled.
    pub fn add_journal(&mut self, store: &Arc<dyn JournalStore>) -> Result<(), String> {
        let journal = recover(store, JOB_ID).map_err(|e| format!("recovering the journal: {e}"))?;
        for (_, event) in journal.events {
            if let JournalEvent::CheckpointCut { checkpoint_json } = event {
                self.add(checkpoint_json);
            }
        }
        Ok(())
    }

    fn add(&mut self, json: String) {
        self.count += 1;
        if json.len() > self.largest.len() {
            self.largest = json;
        }
    }

    /// Time decoding the largest checkpoint; `None` if none was seen.
    pub fn layer(&self) -> Result<Option<CheckpointLayer>, String> {
        if self.count == 0 {
            return Ok(None);
        }
        let mut decode = Vec::with_capacity(CALL_REPS);
        for _ in 0..CALL_REPS {
            let started = Instant::now();
            let cp = Checkpoint::from_json(black_box(&self.largest)).map_err(|e| e.to_string())?;
            decode.push(started.elapsed().as_secs_f64());
            black_box(cp);
        }
        Ok(Some(CheckpointLayer {
            count: self.count,
            bytes_max: self.largest.len(),
            decode_s: median(&decode),
        }))
    }
}

/// In-memory workloads journal nothing; measure instead what durable mode
/// pays for one of their checkpoints: journal the half-recall checkpoint of
/// the first dataset to a fresh file journal and read it back.
fn journal_one_checkpoint(
    bench: &mut Bench,
    threshold: f64,
) -> Result<(JournalStats, CheckpointLayer), String> {
    let (_, cp) = bench.crash_run(0, threshold)?;
    let json = cp.to_json().map_err(|e| e.to_string())?;
    let dir = bench.fresh()?;
    let file = FileStore::shared(dir.path()).map_err(|e| e.to_string())?;
    let probe = Arc::new(JournalProbe::new(file));
    let store: Arc<dyn JournalStore> = probe.clone();
    let mut journal = JobJournal::create(Arc::clone(&store), JOB_ID).map_err(|e| e.to_string())?;
    let offset = journal
        .append(&JournalEvent::CheckpointCut {
            checkpoint_json: json,
        })
        .map_err(|e| e.to_string())?;
    let JournalEvent::CheckpointCut { checkpoint_json } =
        read_event_at(&store, JOB_ID, offset).map_err(|e| e.to_string())?
    else {
        return Err("the journaled checkpoint read back as another event".into());
    };
    let mut scan = CheckpointScan::default();
    scan.add(checkpoint_json);
    let layer = scan.layer()?.ok_or("no checkpoint was journaled")?;
    Ok((probe.stats(), layer))
}

/// SplitMix64, for the kernel's seeded pair sample.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `k` distinct elements of `from`, in sampled order.
    fn pick(&mut self, from: &[(u32, u32)], k: usize) -> Vec<(u32, u32)> {
        let mut v = from.to_vec();
        let k = k.min(v.len());
        for i in 0..k {
            let j = i + (self.next() % (v.len() - i) as u64) as usize;
            v.swap(i, j);
        }
        v.truncate(k);
        v
    }
}

/// Single-thread throughput of `PreparedCache::matches_pair` over a seeded
/// sample of the workload's pairs: duplicates the pipeline declared, plus
/// as many title-order neighbours that are not duplicates.
pub fn simil_pairs_per_s(
    ds: &Dataset,
    rule: &MatchRule,
    duplicates: &[(u32, u32)],
) -> Result<f64, String> {
    let mut rng = SplitMix(SIMIL_SEED);
    let mut sample = rng.pick(duplicates, SIMIL_SAMPLE);
    let declared = sample.len();
    let mut by_title: Vec<u32> = (0..ds.len() as u32).collect();
    by_title.sort_by(|&a, &b| {
        ds.entity(a)
            .attr(0)
            .cmp(ds.entity(b).attr(0))
            .then(a.cmp(&b))
    });
    let neighbours: Vec<(u32, u32)> = by_title
        .windows(2)
        .map(|w| (w[0].min(w[1]), w[0].max(w[1])))
        .filter(|&(a, b)| !ds.truth.is_duplicate(a, b))
        .collect();
    sample.extend(rng.pick(&neighbours, declared));

    let prepared = PreparedRule::new(rule.clone());
    let mut cache = PreparedCache::new();
    let mut scratch = SimScratch::new();
    let mut decide = |a: u32, b: u32| {
        cache.matches_pair(
            &prepared,
            &mut scratch,
            (a, ds.entity(a).attrs.as_slice()),
            (b, ds.entity(b).attrs.as_slice()),
        )
    };
    // The warm pass prepares every entity and checks that the kernel still
    // accepts every pair the pipeline declared a duplicate.
    for (i, &(a, b)) in sample.iter().enumerate() {
        if !decide(a, b) && i < declared {
            return Err(format!("the kernel rejects declared duplicate ({a}, {b})"));
        }
    }
    let started = Instant::now();
    let mut done = 0u64;
    while started.elapsed().as_secs_f64() < SIMIL_SECONDS {
        for &(a, b) in &sample {
            black_box(decide(black_box(a), black_box(b)));
        }
        done += sample.len() as u64;
    }
    Ok(done as f64 / started.elapsed().as_secs_f64())
}

/// Run the traced pass and return every per-layer metric. Runs it makes
/// are checked against the references through the tally like timed ones.
pub fn layers(bench: &mut Bench, m: &mut Measured) -> Result<Vec<Metric>, String> {
    let run_s = median(&m.run_s);
    let plain = RunOpts {
        plain: true,
        ..RunOpts::default()
    };

    // Untraced plain rounds alternate with the traced ones, so host noise
    // falls on both alike and their difference is the tracing overhead.
    let (mut plain_walls, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..TRACE_REPS {
        plain_walls.push(timed_round(bench, &mut m.tally, &plain)?);
        traced.push(traced_round(bench, &mut m.tally)?);
    }
    let plain_s = median(&plain_walls);
    traced.sort_by_key(|t| t.wall);
    let t = &traced[TRACE_REPS / 2];
    let spans = t.spans.map(|s| s.as_secs_f64());
    let traced_s = t.wall.as_secs_f64();
    let counters = &t.counters;
    let pairs = counters.get("pairs_compared") as f64;
    let resolve_s = spans[3];
    println!(
        "# traced run_s {traced_s:.6} s = spans {:.6} s; untraced plain run_s {plain_s:.6} s; \
         tracing overhead {:+.6} s",
        spans.iter().sum::<f64>(),
        traced_s - plain_s
    );

    let mut schedule_s = 0.0;
    for i in 0..bench.datasets.len() {
        schedule_s += median(&bench.schedule_generation(i, CALL_REPS)?);
    }
    let rule = bench.workload.config(None, None, None).rule;
    let pairs_per_s = simil_pairs_per_s(&bench.datasets[0], &rule, &m.last[0].duplicates)?;

    let single = RunOpts {
        threads: Some(1),
        ..RunOpts::default()
    };
    let speedup = timed_round(bench, &mut m.tally, &single)? / run_s;

    let (journal, checkpoints, compute_s, overhead_x, durable_pairs) = match &m.stops[0] {
        Stop::Journal(_) => {
            let mut journals = m.journals.clone();
            journals.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (wall, stats) = journals
                .get(journals.len() / 2)
                .cloned()
                .ok_or("no timed durable round")?;
            let checkpoints = m
                .checkpoints
                .take()
                .ok_or("the calibration runs' checkpoints were not read")?;
            let compute_s = wall - stats.store_time().as_secs_f64();
            let pairs: u64 = m
                .last
                .iter()
                .map(|r| r.counters.get("pairs_compared"))
                .sum();
            (stats, checkpoints, compute_s, run_s / plain_s, pairs as f64)
        }
        Stop::Crash(half) => {
            let (stats, checkpoints) = journal_one_checkpoint(bench, half.threshold)?;
            (stats, checkpoints, run_s, 1.0, pairs)
        }
    };

    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut metrics: Vec<Metric> = SPANS
        .iter()
        .zip(spans)
        .map(|(&name, s)| Metric::new(name, s, "s"))
        .collect();
    metrics.extend([
        Metric::new("trace.run_s", traced_s, "s"),
        Metric::new("trace.overhead_s", traced_s - plain_s, "s"),
        Metric::new("schedule.generate_s", schedule_s, "s"),
        Metric::new(
            "job1.spill_bytes",
            counters.get("shuffle_spill_bytes") as f64,
            "bytes",
        ),
        Metric::new(
            "job1.spill_runs",
            counters.get("shuffle_spill_runs") as f64,
            "count",
        ),
        Metric::new("job2.pairs_compared", pairs, "count"),
        Metric::new(
            "job2.pairs_skipped_redundant",
            counters.get("pairs_skipped_redundant") as f64,
            "count",
        ),
        Metric::new(
            "job2.pairs_skipped_resolved",
            counters.get("pairs_skipped_already_resolved") as f64,
            "count",
        ),
        Metric::new(
            "job2.blocks_stopped_early",
            counters.get("blocks_stopped_early") as f64,
            "count",
        ),
        Metric::new(
            "job2.dup_yield",
            ratio(counters.get("duplicates_found") as f64, pairs),
            "ratio",
        ),
        Metric::new(
            "job2.resolve_ns_per_pair",
            ratio(resolve_s * 1e9, pairs),
            "ns",
        ),
        Metric::new("job2.task_vcost_max_mean", t.task_vcost_max_mean, "ratio"),
        Metric::new("simil.pairs_per_s", pairs_per_s, "1/s"),
        Metric::new(
            "simil.est_share",
            ratio(pairs / pairs_per_s, resolve_s * cores() as f64),
            "ratio",
        ),
        Metric::new("exec.speedup", speedup, "x"),
        Metric::new("journal.appends", journal.appends as f64, "count"),
        Metric::new("journal.append_bytes", journal.append_bytes as f64, "bytes"),
        Metric::new("journal.append_s", journal.append_time.as_secs_f64(), "s"),
        Metric::new("journal.syncs", journal.syncs as f64, "count"),
        Metric::new("journal.sync_s", journal.sync_time.as_secs_f64(), "s"),
        Metric::new("journal.reads", journal.reads as f64, "count"),
        Metric::new("journal.read_bytes", journal.read_bytes as f64, "bytes"),
        Metric::new("journal.read_s", journal.read_time.as_secs_f64(), "s"),
        Metric::new("durable.checkpoints", checkpoints.count as f64, "count"),
        Metric::new(
            "durable.checkpoint_bytes_max",
            checkpoints.bytes_max as f64,
            "bytes",
        ),
        Metric::new("durable.checkpoint_decode_s", checkpoints.decode_s, "s"),
        Metric::new("durable.compute_s", compute_s, "s"),
        Metric::new("durable.overhead_x", overhead_x, "x"),
        Metric::new("durable.pairs_compared", durable_pairs, "count"),
    ]);
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Scratch, Workload};

    #[test]
    fn pubs_sn_spans_add_up_to_traced_run_s() {
        let scratch = std::env::temp_dir()
            .join(format!("e2ebench-test-{}", std::process::id()))
            .join("spans");
        let datasets = (0..2).map(|i| Workload::PubsSn.generate(1, i)).collect();
        let mut bench = Bench::new(
            Workload::PubsSn,
            datasets,
            Scratch::create(scratch).expect("scratch directory"),
        );
        let round = traced_round(&mut bench, &mut Tally::default()).expect("traced round");
        assert!(round.spans.iter().all(|s| !s.is_zero()));
        assert_eq!(round.spans.iter().sum::<Duration>(), round.wall);
        let secs: f64 = round.spans.iter().map(Duration::as_secs_f64).sum();
        assert!((secs - round.wall.as_secs_f64()).abs() < 1e-9);
    }
}
