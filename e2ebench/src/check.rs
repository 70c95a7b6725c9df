//! Correctness checks: every run's fingerprint against the workload's
//! reference, and the half-recall stop point computed from the virtual
//! timeline.

use std::collections::BTreeMap;

use pper::datagen::Dataset;
use pper::er::prelude::*;
use pper::journal::{recover, JournalEvent, JournalStore};

use crate::probe::JournalStats;
use crate::workload::{correct_in_checkpoint, Bench, JOB_ID};

/// Counts attempted and failed operations. Fingerprints are kept once per
/// dataset and distinct value, and compared with the dataset's reference at
/// the end, so the reference runs can come after every measured run.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    fingerprints: Vec<(usize, ResultFingerprint, u64)>,
}

impl Tally {
    /// A full run over dataset `i` that returned this fingerprint.
    pub fn record_fingerprint(&mut self, i: usize, fp: ResultFingerprint) {
        self.attempted += 1;
        let seen = self
            .fingerprints
            .iter_mut()
            .find(|(j, seen, _)| *j == i && *seen == fp);
        match seen {
            Some((_, _, n)) => *n += 1,
            None => self.fingerprints.push((i, fp, 1)),
        }
    }

    /// An operation checked some other way (or that errored: `ok = false`).
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// `(attempted, failed)`, where a fingerprint differing from its
    /// dataset's entry in `references` fails every run that returned it.
    pub fn finish(&self, references: &[ResultFingerprint]) -> (u64, u64) {
        let mismatched: u64 = self
            .fingerprints
            .iter()
            .filter(|(i, fp, _)| references.get(*i) != Some(fp))
            .map(|&(_, _, n)| n)
            .sum();
        (self.attempted, self.failed + mismatched)
    }
}

/// Share of attempted operations that failed.
pub fn failed_frac(attempted: u64, failed: u64) -> f64 {
    failed as f64 / attempted.max(1) as f64
}

/// Stop point of the in-memory workloads' `half_recall_s` runs.
///
/// The candidates are the task-local virtual times at which the full run
/// finds its correct duplicates (a deterministic function of workload and
/// seed). `threshold` is the first candidate at which `run_to_crash`
/// returns a checkpoint holding at least half of them; `below`, the
/// candidate before it, holds fewer than half.
#[derive(Clone, Debug)]
pub struct HalfPoint {
    pub threshold: f64,
    pub below: f64,
    /// Correct duplicates the checkpoint holds at `threshold`.
    pub held: usize,
    pub held_below: usize,
    /// Correct duplicates of the full run.
    pub correct_total: usize,
    /// `run_to_crash` calls the search made.
    pub probes: usize,
}

impl HalfPoint {
    /// The condition the stop point must meet.
    pub fn check(&self) -> Result<(), String> {
        let (total, held, below) = (self.correct_total, self.held, self.held_below);
        if 2 * held >= total && 2 * below < total {
            Ok(())
        } else {
            Err(format!(
                "half-recall stop point is wrong: {held} held at {}, {below} held at {}, \
                 of {total} correct duplicates",
                self.threshold, self.below
            ))
        }
    }
}

/// Find the [`HalfPoint`] of dataset `i`: bracket it starting from the candidate where
/// half the duplicates have been found, then bisect on the candidate
/// index. Every
/// probe is a deterministic `run_to_crash`; no wall-clock reading is used.
pub fn half_point(bench: &mut Bench, i: usize) -> Result<HalfPoint, String> {
    let (_, full) = bench.crash_run(i, f64::MAX)?;
    let truth = &bench.datasets[i].truth;
    let mut grid: Vec<f64> = full
        .tasks
        .iter()
        .flat_map(|t| &t.duplicates)
        .filter(|&&(_, a, b)| truth.is_duplicate(a, b))
        .map(|&(cost, _, _)| cost)
        .collect();
    let correct_total = grid.len();
    if correct_total == 0 {
        return Err("the full run found no correct duplicates".into());
    }
    grid.sort_by(f64::total_cmp);
    let kth = grid[correct_total.div_ceil(2) - 1];
    grid.dedup();
    let last = grid.len() - 1;

    let mut memo: BTreeMap<usize, usize> = BTreeMap::new();
    let mut held = |j: usize| -> Result<usize, String> {
        if let Some(&n) = memo.get(&j) {
            return Ok(n);
        }
        let (_, cp) = bench.crash_run(i, grid[j])?;
        let n = correct_in_checkpoint(&bench.datasets[i], &cp);
        memo.insert(j, n);
        Ok(n)
    };
    let enough = |n: usize| 2 * n >= correct_total;

    // Bracket: `lo` holds too few (None = before the first candidate),
    // `hi` holds enough. Upward, step by the shortfall: blocks cut mid-way
    // lag the checkpoint behind the timeline, and the lag changes slowly.
    let start = grid.partition_point(|&c| c < kth);
    let (mut lo, mut hi);
    let first = held(start)?;
    if enough(first) {
        hi = start;
        lo = None;
        let mut step = 1;
        while hi > 0 {
            let j = hi.saturating_sub(step);
            if enough(held(j)?) {
                hi = j;
                step *= 2;
            } else {
                lo = Some(j);
                break;
            }
        }
    } else {
        let (mut below, mut short) = (start, correct_total.div_ceil(2) - first);
        loop {
            if below == last {
                return Err("no stop point holds half the correct duplicates".into());
            }
            let j = (below + short).min(last);
            let n = held(j)?;
            if enough(n) {
                hi = j;
                break;
            }
            below = j;
            short = correct_total.div_ceil(2) - n;
        }
        lo = Some(below);
    }
    while let Some(l) = lo {
        if hi - l <= 1 {
            break;
        }
        let mid = l + (hi - l) / 2;
        if enough(held(mid)?) {
            hi = mid;
        } else {
            lo = Some(mid);
        }
    }

    let held_at = held(hi)?;
    let (below, held_below) = match lo {
        Some(l) => (grid[l], held(l)?),
        // Stopping at 0 cuts before any block: nothing is held.
        None => (0.0, 0),
    };
    let point = HalfPoint {
        threshold: grid[hi],
        below,
        held: held_at,
        held_below,
        correct_total,
        probes: memo.len() + 1,
    };
    point.check()?;
    Ok(point)
}

/// Stop point of the durable workload: the first journaled checkpoint that
/// holds at least half of the run's correct duplicates, as an index into
/// the run's appends (its time is when the sync after it returned).
#[derive(Clone, Debug)]
pub struct DurableHalf {
    pub append_index: usize,
    pub held: usize,
    pub held_before: usize,
    pub correct_total: usize,
    /// Appends a run makes; every run must make the same number.
    pub appends: usize,
}

/// Read the journal a durable run over `ds` left and find its
/// [`DurableHalf`].
pub fn durable_half(
    ds: &Dataset,
    store: &std::sync::Arc<dyn JournalStore>,
    stats: &JournalStats,
    correct_total: usize,
) -> Result<DurableHalf, String> {
    let journal = recover(store, JOB_ID).map_err(|e| format!("recovering the journal: {e}"))?;
    let mut held_before = 0;
    for (offset, event) in &journal.events {
        let JournalEvent::CheckpointCut { checkpoint_json } = event else {
            continue;
        };
        let cp = Checkpoint::from_json(checkpoint_json).map_err(|e| e.to_string())?;
        let held = correct_in_checkpoint(ds, &cp);
        if 2 * held < correct_total {
            held_before = held;
            continue;
        }
        let append_index = stats
            .offsets
            .iter()
            .position(|o| o == offset)
            .ok_or("checkpoint offset was never appended")?;
        return Ok(DurableHalf {
            append_index,
            held,
            held_before,
            correct_total,
            appends: stats.offsets.len(),
        });
    }
    Err("no journaled checkpoint holds half the correct duplicates".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Scratch, Workload};

    fn pubs_sn_bench(tag: &str) -> Bench {
        let scratch = std::env::temp_dir()
            .join(format!("e2ebench-test-{}", std::process::id()))
            .join(tag);
        let datasets = vec![Workload::PubsSn.generate(1, 0)];
        Bench::new(
            Workload::PubsSn,
            datasets,
            Scratch::create(scratch).expect("scratch directory"),
        )
    }

    #[test]
    fn altered_fingerprint_counts_toward_failed_frac() {
        let mut bench = pubs_sn_bench("tally");
        let run = bench
            .full_run(0, &Default::default())
            .expect("pipeline run");
        let reference = ResultFingerprint::of(&run.result);
        let mut altered = reference.clone();
        altered.duplicates.pop().expect("the run finds duplicates");

        let mut tally = Tally::default();
        tally.record_fingerprint(0, reference.clone());
        tally.record_fingerprint(0, reference.clone());
        assert_eq!(tally.finish(std::slice::from_ref(&reference)), (2, 0));
        tally.record_fingerprint(0, altered);
        let (attempted, failed) = tally.finish(&[reference]);
        assert_eq!((attempted, failed), (3, 1));
        assert_eq!(failed_frac(attempted, failed), 1.0 / 3.0);
    }

    #[test]
    fn half_point_separates_half_from_less() {
        let mut bench = pubs_sn_bench("half");
        let point = half_point(&mut bench, 0).expect("stop point");
        point
            .check()
            .expect("stop point holds half, the one below less");
        let (_, at) = bench.crash_run(0, point.threshold).expect("crash run");
        let (_, below) = bench.crash_run(0, point.below).expect("crash run");
        assert_eq!(correct_in_checkpoint(&bench.datasets[0], &at), point.held);
        assert_eq!(
            correct_in_checkpoint(&bench.datasets[0], &below),
            point.held_below
        );
    }
}
