//! End-to-end benchmark of the pper pipeline.
//!
//! ```sh
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload pubs-sn --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Generates the workload's datasets from `--seed`, runs the pipeline through
//! its public API for `--seconds`, checks every run against a reference, and
//! prints a report whose last line is one JSON object. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` adds a traced pass and reports the
//! per-layer metrics instead. See `README.md` for what each metric means
//! and which layer should move it.

mod check;
mod probe;
mod trace;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use pper::datagen::Dataset;
use pper::er::prelude::*;

use check::{DurableHalf, HalfPoint, Tally};
use probe::JournalStats;
use workload::{correct_in_checkpoint, correct_in_result, Bench, RunOpts, Scratch, Workload};

/// Scratch directories live here, relative to where the benchmark runs.
const SCRATCH_DIR: &str = ".e2ebench-scratch";
/// Fewest samples of each timing, however short `--seconds` is.
const MIN_SAMPLES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: Workload::PubsSn,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?;
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Run `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("panicked".into()))
}

/// How `half_recall_s` is measured on one dataset.
pub enum Stop {
    /// A `run_to_crash` at the virtual stop point.
    Crash(HalfPoint),
    /// The sync of a durable run's first half-holding checkpoint.
    Journal(DurableHalf),
}

/// What the untimed calibration and the timed rounds leave behind. A round
/// runs every dataset of the workload once; its time is the sum.
pub struct Measured {
    pub tally: Tally,
    /// One set-up before calibration and one before every timed round:
    /// spread over the run, they see the host as the rounds do.
    pub setup_s: Vec<f64>,
    pub run_s: Vec<f64>,
    pub half_s: Vec<f64>,
    /// Peak resident memory of each round of full runs, in MiB.
    pub peak_mib: Vec<f64>,
    /// Journal I/O of each timed durable round, with the round's `run_s`.
    pub journals: Vec<(f64, JournalStats)>,
    /// Per dataset.
    pub stops: Vec<Stop>,
    /// The last complete result per dataset (every result's fingerprint
    /// is checked).
    pub last: Vec<ErRunResult>,
    /// Checkpoints the durable workload's calibration runs journaled.
    pub checkpoints: Option<trace::CheckpointLayer>,
}

/// One timed set-up: generate the workload's datasets and prepare a fresh
/// scratch directory. With `keep` false each dataset is dropped as soon as
/// it is made, so a repeat leaves at most one dataset's worth of freed
/// memory with the allocator.
fn set_up(bench: &mut Bench, seed: u64, keep: bool) -> Result<(Vec<Dataset>, f64), String> {
    let started = Instant::now();
    let mut datasets = Vec::new();
    for i in 0..bench.workload.datasets() {
        let ds = bench.workload.generate(seed, i);
        if keep {
            datasets.push(ds);
        }
    }
    let _dir = bench.fresh()?;
    Ok((datasets, started.elapsed().as_secs_f64()))
}

/// Calibrate each dataset's half-recall stop point, then alternate timed
/// rounds of full runs and of half-recall runs until `seconds` have passed.
fn measure(
    bench: &mut Bench,
    seed: u64,
    mut setup_s: Vec<f64>,
    seconds: f64,
    trace: bool,
) -> Result<Measured, String> {
    let k = bench.datasets.len();
    let mut tally = Tally::default();
    let mut last: Vec<Option<ErRunResult>> = (0..k).map(|_| None).collect();
    let mut stops = Vec::with_capacity(k);
    let mut scan = trace::CheckpointScan::default();
    for (i, slot) in last.iter_mut().enumerate() {
        if bench.workload.is_durable() {
            // The first durable run doubles as warm-up and calibration.
            let run = bench.full_run(i, &RunOpts::default())?;
            tally.record_fingerprint(i, ResultFingerprint::of(&run.result));
            let (probe, store) = run.journal.as_ref().ok_or("durable run without journal")?;
            let ds = &bench.datasets[i];
            let correct = correct_in_result(ds, &run.result);
            stops.push(Stop::Journal(check::durable_half(
                ds,
                store,
                &probe.stats(),
                correct,
            )?));
            if trace {
                scan.add_journal(store)?;
            }
            *slot = Some(run.result);
        } else {
            stops.push(Stop::Crash(check::half_point(bench, i)?));
        }
    }

    let (mut run_s, mut half_s, mut journals) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_mib = Vec::new();
    let started = Instant::now();
    let mut rounds = 0;
    loop {
        let enough = run_s.len() >= MIN_SAMPLES && half_s.len() >= MIN_SAMPLES;
        if started.elapsed().as_secs_f64() >= seconds && (enough || rounds >= 2 * MIN_SAMPLES) {
            break;
        }
        rounds += 1;
        let (mut wall, mut half, mut complete, mut halved) = (0.0, 0.0, true, true);
        let mut stats = JournalStats::default();
        reset_peak_rss();
        for i in 0..k {
            match guarded(|| bench.full_run(i, &RunOpts::default())) {
                Ok(run) => {
                    tally.record_fingerprint(i, ResultFingerprint::of(&run.result));
                    wall += run.wall.as_secs_f64();
                    if let (Stop::Journal(stop), Some((probe, _))) = (&stops[i], &run.journal) {
                        let s = probe.stats();
                        let ok = s.durable_at.len() == stop.appends;
                        tally.record(ok);
                        halved &= ok;
                        if ok {
                            half += (s.durable_at[stop.append_index] - run.started).as_secs_f64();
                        }
                        stats.add(&s);
                    }
                    last[i] = Some(run.result);
                }
                Err(e) => {
                    eprintln!("e2ebench: full run failed: {e}");
                    tally.record(false);
                    complete = false;
                }
            }
        }
        let peak = peak_rss_mib()?;
        // After the peak reading, so the round's peak leaves out the
        // repeat's own allocations.
        setup_s.push(set_up(bench, seed, false)?.1);
        for (i, stop) in stops.iter().enumerate() {
            let Stop::Crash(point) = stop else { continue };
            match guarded(|| bench.crash_run(i, point.threshold)) {
                Ok((w, cp)) => {
                    let ok = correct_in_checkpoint(&bench.datasets[i], &cp) == point.held;
                    tally.record(ok);
                    halved &= ok;
                    half += w.as_secs_f64();
                }
                Err(e) => {
                    eprintln!("e2ebench: half-recall run failed: {e}");
                    tally.record(false);
                    halved = false;
                }
            }
        }
        if complete {
            run_s.push(wall);
            peak_mib.push(peak);
            if bench.workload.is_durable() {
                journals.push((wall, stats));
            }
            if halved {
                half_s.push(half);
            }
        }
    }
    Ok(Measured {
        tally,
        setup_s,
        run_s,
        half_s,
        peak_mib,
        journals,
        stops,
        last: last
            .into_iter()
            .collect::<Option<_>>()
            .ok_or("a dataset has no complete run")?,
        checkpoints: scan.layer()?,
    })
}

/// The fingerprints every run must match, per dataset: a single-threaded
/// run for `pubs-sn`, a non-spilling run for `books-psnm-spill`, a plain
/// in-memory run for `pubs-durable`.
fn references(bench: &mut Bench) -> Result<Vec<ResultFingerprint>, String> {
    let opts = match bench.workload {
        Workload::PubsSn => RunOpts {
            threads: Some(1),
            ..RunOpts::default()
        },
        Workload::BooksPsnmSpill => RunOpts {
            no_spill: true,
            ..RunOpts::default()
        },
        Workload::PubsDurable => RunOpts {
            plain: true,
            ..RunOpts::default()
        },
    };
    (0..bench.datasets.len())
        .map(|i| Ok(ResultFingerprint::of(&bench.full_run(i, &opts)?.result)))
        .collect()
}

/// Restart the process's peak-resident-memory mark (Linux `clear_refs`
/// code 5). Where that is refused, `VmHWM` stays the peak since start.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory of this process (VmHWM) since the last reset, in
/// MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Jiffies the whole machine spent `(stolen by the hypervisor, in total)`,
/// from `/proc/stat`; `None` where it is unreadable.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn print_samples(name: &str, samples: &[f64], unit: &str) {
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(0.0, f64::max);
    println!(
        "{name:<22} {:>14.6} {unit:<6} median of {} (min {min:.6}, max {max:.6})",
        median(samples),
        samples.len()
    );
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    println!(
        "# e2ebench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host cores={} cpu=\"{}\" rustc=\"{}\"",
        cores(),
        cpu_model(),
        env!("E2EBENCH_RUSTC")
    );

    let jiffies_at_start = cpu_jiffies();

    // ---- Set-up: generate the datasets and prepare the scratch area ---
    let root = PathBuf::from(SCRATCH_DIR).join(format!("{}-{}", w.name(), std::process::id()));
    let scratch =
        Scratch::create(root.clone()).map_err(|e| format!("creating {}: {e}", root.display()))?;
    let mut bench = Bench::new(w, Vec::new(), scratch);
    let (datasets, first_setup) = set_up(&mut bench, args.seed, true)?;
    bench.datasets = datasets;
    let datasets = &bench.datasets;
    println!(
        "# datasets={} entities_each={} duplicate_pairs={} machines={} reduce_tasks={} \
         worker_threads=all",
        datasets.len(),
        w.entities(),
        datasets
            .iter()
            .map(|ds| ds.truth.total_duplicate_pairs())
            .sum::<u64>(),
        workload::MACHINES,
        2 * workload::MACHINES
    );

    // ---- Timed rounds --------------------------------------------------
    let mut m = measure(
        &mut bench,
        args.seed,
        vec![first_setup],
        args.seconds,
        args.trace,
    )?;
    for (i, stop) in m.stops.iter().enumerate() {
        match stop {
            Stop::Crash(h) => println!(
                "# half-recall stop [{i}]: task-local vcost {} holds {} of {} correct \
                 duplicates; {} holds {} ({} probes)",
                h.threshold, h.held, h.correct_total, h.below, h.held_below, h.probes
            ),
            Stop::Journal(h) => println!(
                "# half-recall stop [{i}]: journal append #{} of {} is the first checkpoint \
                 holding half ({} of {} correct duplicates; the one before holds {})",
                h.append_index, h.appends, h.held, h.correct_total, h.held_before
            ),
        }
    }
    let layers = if args.trace {
        trace::layers(&mut bench, &mut m)?
    } else {
        Vec::new()
    };

    // ---- Check every run against the references ------------------------
    let references = references(&mut bench)?;
    let (attempted, failed) = m.tally.finish(&references);

    let mut vcost_half = Vec::with_capacity(m.last.len());
    for result in &m.last {
        let curve = &result.curve;
        vcost_half.push(
            curve
                .time_to_recall(curve.final_recall() / 2.0)
                .ok_or("a recall curve never reaches half its final recall")?,
        );
    }
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    let e2e = vec![
        Metric::new("setup_s", median(&m.setup_s), "s"),
        Metric::new("run_s", median(&m.run_s), "s"),
        Metric::new("half_recall_s", median(&m.half_s), "s"),
        Metric::new("vcost_to_half_recall", mean(vcost_half), "vcost"),
        Metric::new(
            "recall",
            mean(m.last.iter().map(|r| r.curve.final_recall()).collect()),
            "ratio",
        ),
        Metric::new(
            "precision",
            mean(m.last.iter().map(|r| r.precision).collect()),
            "ratio",
        ),
        Metric::new("peak_rss_mib", median(&m.peak_mib), "MiB"),
    ];
    print_samples("setup_s", &m.setup_s, "s");
    print_samples("run_s", &m.run_s, "s");
    print_samples("half_recall_s", &m.half_s, "s");
    print_samples("peak_rss_mib", &m.peak_mib, "MiB");
    for metric in &e2e[3..6] {
        println!("{:<22} {:>14.6} {}", metric.name, metric.value, metric.unit);
    }
    let failed_frac = check::failed_frac(attempted, failed);
    println!(
        "{:<22} {failed_frac:>14.6} ratio  ({failed} of {attempted})",
        "failed_frac"
    );
    for metric in &layers {
        println!("{:<34} {:>18.6} {}", metric.name, metric.value, metric.unit);
    }

    if let (Some((steal0, total0)), Some((steal1, total1))) = (jiffies_at_start, cpu_jiffies()) {
        // Time the hypervisor gave other guests: a noisy host shows here.
        let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        println!(
            "# host steal {:.1}% of CPU time during the run",
            100.0 * share
        );
    }

    let metrics = if args.trace { &layers } else { &e2e };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a finite number", bad.name));
    }
    println!("{}", json_line(failed == 0, attempted, failed, metrics));
    Ok(())
}

fn main() {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| run(&args));
    if let Err(e) = outcome {
        eprintln!("e2ebench: {e}");
        std::process::exit(1);
    }
}
