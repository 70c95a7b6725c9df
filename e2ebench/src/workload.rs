//! The three workloads and the calls that run the pipeline on them.
//!
//! Every run goes through the product's public entry points
//! (`ProgressiveEr::try_run`, `ProgressiveEr::run_to_crash`, `run_durable`)
//! on datasets generated from the workload seed. Spilling and journaling
//! runs each get a fresh directory that is removed when the run is dropped,
//! so neither disk state nor page cache carries over between runs.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pper::datagen::{BookGen, Dataset, PubGen};
use pper::er::prelude::*;
use pper::journal::{FileStore, JournalStore};
use pper::mapreduce::{ShuffleSpillConfig, TaskObserver};

use crate::probe::JournalProbe;

/// Simulated machines per run: 2 reduce slots each, so 8 reduce tasks.
pub const MACHINES: usize = 4;

/// Job id every durable run journals under (one job per fresh directory).
pub const JOB_ID: &str = "e2ebench";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Publications, SN mechanism, in memory: long abstracts make the
    /// resolution job's similarity kernel and dominance checks the bulk.
    PubsSn,
    /// Books, PSNM, in memory, with the statistics job's shuffle forced
    /// through the external sorter: blocking and spilling weigh most.
    BooksPsnmSpill,
    /// Publications through `run_durable` over a file journal: the staged
    /// checkpoint chain makes journal and checkpoint I/O the bulk.
    PubsDurable,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PubsSn,
        Workload::BooksPsnmSpill,
        Workload::PubsDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PubsSn => "pubs-sn",
            Workload::BooksPsnmSpill => "books-psnm-spill",
            Workload::PubsDurable => "pubs-durable",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Independent datasets one run of the workload resolves. How early
    /// half the duplicates come out depends on which blocks the schedule
    /// puts first, and that varies by ~10-25% between seeds whatever the
    /// dataset size; summing over several datasets evens it out.
    pub fn datasets(self) -> usize {
        match self {
            Workload::PubsSn => 8,
            Workload::BooksPsnmSpill => 4,
            Workload::PubsDurable => 6,
        }
    }

    /// Entities per dataset.
    pub fn entities(self) -> usize {
        match self {
            Workload::PubsSn => 2_500,
            Workload::BooksPsnmSpill => 8_000,
            Workload::PubsDurable => 2_000,
        }
    }

    pub fn is_durable(self) -> bool {
        self == Workload::PubsDurable
    }

    /// Dataset `i` of the workload, from its own seed derived from `seed`.
    pub fn generate(self, seed: u64, i: usize) -> Dataset {
        let seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i as u64);
        match self {
            Workload::BooksPsnmSpill => BookGen::new(self.entities(), seed).generate(),
            Workload::PubsSn | Workload::PubsDurable => {
                PubGen::new(self.entities(), seed).generate()
            }
        }
    }

    /// Spill budget of the statistics job's shuffle, in records per
    /// partition. At 4k books each of the 8 partitions holds ~1.3k records,
    /// so every partition spills.
    fn spill_records(self) -> Option<usize> {
        match self {
            Workload::BooksPsnmSpill => Some(2_000),
            Workload::PubsSn | Workload::PubsDurable => None,
        }
    }

    /// The pipeline configuration of one run. A spilling workload writes
    /// its spill runs under `spill_dir`; `None` gives its non-spilling
    /// reference.
    pub fn config(
        self,
        spill_dir: Option<&Path>,
        threads: Option<usize>,
        observer: Option<TaskObserver>,
    ) -> ErConfig {
        let mut config = match self {
            Workload::BooksPsnmSpill => ErConfig::books(MACHINES),
            Workload::PubsSn | Workload::PubsDurable => ErConfig::citeseer(MACHINES),
        };
        if let (Some(records), Some(dir)) = (self.spill_records(), spill_dir) {
            config = config.with_shuffle_spill(ShuffleSpillConfig::new(records).with_dir(dir));
        }
        config.worker_threads = threads;
        config.observer = observer;
        config
    }
}

/// A fresh directory for one run, removed on drop.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The benchmark's scratch area: one directory per process, holding one
/// fresh sub-directory per run. Removed on drop.
pub struct Scratch {
    root: PathBuf,
    next: u64,
}

impl Scratch {
    pub fn create(root: PathBuf) -> io::Result<Self> {
        fs::create_dir_all(&root)?;
        Ok(Self { root, next: 0 })
    }

    pub fn fresh(&mut self) -> io::Result<RunDir> {
        let dir = self.root.join(format!("run-{}", self.next));
        self.next += 1;
        fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
        // Remove the shared parent too once no other run is using it.
        if let Some(parent) = self.root.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

/// One complete run: its wall-clock time, its result, and — for durable
/// runs — the journal it wrote, still on disk until the run is dropped.
pub struct FullRun {
    pub started: Instant,
    pub wall: Duration,
    pub result: ErRunResult,
    pub journal: Option<(Arc<JournalProbe>, Arc<dyn JournalStore>)>,
    _dir: RunDir,
}

/// How a run is configured apart from its workload.
#[derive(Clone, Default)]
pub struct RunOpts {
    pub threads: Option<usize>,
    pub observer: Option<TaskObserver>,
    /// Run the in-memory pipeline even on the durable workload.
    pub plain: bool,
    /// Disable the workload's shuffle spill (the books reference).
    pub no_spill: bool,
}

pub struct Bench {
    pub workload: Workload,
    pub datasets: Vec<Dataset>,
    scratch: Scratch,
}

impl Bench {
    pub fn new(workload: Workload, datasets: Vec<Dataset>, scratch: Scratch) -> Self {
        Self {
            workload,
            datasets,
            scratch,
        }
    }

    pub fn fresh(&mut self) -> Result<RunDir, String> {
        self.scratch
            .fresh()
            .map_err(|e| format!("creating a run directory: {e}"))
    }

    /// Run the pipeline from in-memory dataset `i` to a complete result:
    /// `try_run`, or `run_durable` over a fresh file journal.
    pub fn full_run(&mut self, i: usize, opts: &RunOpts) -> Result<FullRun, String> {
        let dir = self.fresh()?;
        let spill_dir = (!opts.no_spill).then(|| dir.path());
        let config = self
            .workload
            .config(spill_dir, opts.threads, opts.observer.clone());
        let er = ProgressiveEr::new(config);
        if self.workload.is_durable() && !opts.plain {
            let file = FileStore::shared(dir.path().join("journal"))
                .map_err(|e| format!("opening the journal: {e}"))?;
            let probe = Arc::new(JournalProbe::new(file));
            let store: Arc<dyn JournalStore> = probe.clone();
            let started = Instant::now();
            let result = run_durable(
                &er,
                &self.datasets[i],
                &store,
                JOB_ID,
                &[],
                &DurableOptions::default(),
            );
            let wall = started.elapsed();
            let result = result.map_err(|e| format!("run_durable: {e}"))?;
            Ok(FullRun {
                started,
                wall,
                result,
                journal: Some((probe, store)),
                _dir: dir,
            })
        } else {
            let started = Instant::now();
            let result = er.try_run(&self.datasets[i]);
            let wall = started.elapsed();
            let result = result.map_err(|e| format!("try_run: {e}"))?;
            Ok(FullRun {
                started,
                wall,
                result,
                journal: None,
                _dir: dir,
            })
        }
    }

    /// Run the in-memory pipeline on dataset `i` with every resolution task
    /// stopped once its task-local virtual clock reaches `crash_at`,
    /// returning the wall-clock time and the checkpoint that holds what was
    /// delivered.
    pub fn crash_run(&mut self, i: usize, crash_at: f64) -> Result<(Duration, Checkpoint), String> {
        let dir = self.fresh()?;
        let er = ProgressiveEr::new(self.workload.config(Some(dir.path()), None, None));
        let started = Instant::now();
        let checkpoint = er.run_to_crash(&self.datasets[i], crash_at);
        let wall = started.elapsed();
        let checkpoint = checkpoint.map_err(|e| format!("run_to_crash({crash_at}): {e}"))?;
        Ok((wall, checkpoint))
    }

    /// Time `generate_schedule` alone on the statistics of one job-1 run
    /// over dataset `i`.
    pub fn schedule_generation(&mut self, i: usize, reps: usize) -> Result<Vec<f64>, String> {
        let dir = self.fresh()?;
        let er = ProgressiveEr::new(self.workload.config(Some(dir.path()), None, None));
        let ds = &self.datasets[i];
        let job1 = run_job1(ds, &er.config).map_err(|e| format!("run_job1: {e}"))?;
        Ok((0..reps)
            .map(|_| {
                let started = Instant::now();
                std::hint::black_box(er.generate_schedule(ds, &job1.stats));
                started.elapsed().as_secs_f64()
            })
            .collect())
    }
}

/// Correct duplicates held by a checkpoint, per the dataset's ground truth.
pub fn correct_in_checkpoint(ds: &Dataset, cp: &Checkpoint) -> usize {
    cp.tasks
        .iter()
        .flat_map(|t| &t.duplicates)
        .filter(|&&(_, a, b)| ds.truth.is_duplicate(a, b))
        .count()
}

/// Correct duplicates among a run's output pairs.
pub fn correct_in_result(ds: &Dataset, result: &ErRunResult) -> usize {
    result
        .duplicates
        .iter()
        .filter(|&&(a, b)| ds.truth.is_duplicate(a, b))
        .count()
}
