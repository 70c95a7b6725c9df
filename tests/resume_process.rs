//! Kill-point conformance suite: spawn real `pper` child processes, abort
//! them at *every* journal-event boundary (`--kill-after-events N` calls
//! `std::process::abort()` — a simulated `kill -9` — right after the N-th
//! event is durably appended), resume each aborted job with `pper resume`
//! in a fresh process, and require the resumed result fingerprint to match
//! the uninterrupted golden run byte for byte.
//!
//! Also covers the process-level dead-letter round trip: a run whose
//! reduce task exhausts its attempt budget dead-letters it, `pper dlq`
//! lists the capture, and `pper dlq --reprocess` drains it to the
//! fault-free golden result; and journals written when `pper run` still
//! took a backend-selecting flag, whose `JobStarted` parameters carry an
//! `executor` key that `pper resume` now ignores.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::Arc;

use pper::datagen::PubGen;
use pper::journal::{recover, FileStore, JobJournal, JournalEvent, JournalState, JournalStore};

const MACHINES: &str = "1";
const CHECKPOINT_EVERY: &str = "2000";

fn tmp_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_dataset(dir: &Path) -> PathBuf {
    let path = dir.join("data.jsonl");
    let ds = PubGen::new(500, 23).generate();
    let file = std::fs::File::create(&path).unwrap();
    ds.write_jsonl(std::io::BufWriter::new(file)).unwrap();
    path
}

fn pper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pper"))
        .args(args)
        .output()
        .unwrap()
}

fn run_ok(args: &[&str]) -> Output {
    let out = pper(args);
    assert!(
        out.status.success(),
        "pper {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// An uninterrupted durable run writing its fingerprint to `out`.
fn golden_run(data: &str, journal: &str, job: &str, out: &str) {
    run_ok(&[
        "run",
        "--data",
        data,
        "--machines",
        MACHINES,
        "--durable",
        "--journal",
        journal,
        "--job-id",
        job,
        "--checkpoint-every",
        CHECKPOINT_EVERY,
        "--result-out",
        out,
    ]);
}

/// Golden fingerprint + per-boundary kill/resume over every journal event.
#[test]
fn kill_at_every_event_boundary_resumes_bit_identically() {
    let dir = tmp_dir("resume-sweep");
    let data = write_dataset(&dir);
    let data = data.to_str().unwrap();
    let journal = dir.join("journal");
    let journal = journal.to_str().unwrap();
    let golden_path = dir.join("golden.json");
    let golden_out = golden_path.to_str().unwrap();

    // Uninterrupted golden run in a child process.
    golden_run(data, journal, "golden", golden_out);
    let golden = std::fs::read(&golden_path).unwrap();
    assert!(!golden.is_empty());

    // How many events does the uninterrupted run journal?
    let store: Arc<dyn JournalStore> = FileStore::shared(journal).unwrap();
    let rec = recover(&store, "golden").unwrap();
    assert!(rec.report.clean());
    let total_events = rec.events.len();
    assert!(
        total_events >= 10,
        "want a meaningful sweep, journaled only {total_events} events"
    );

    for n in 1..=total_events {
        let job = format!("kill-{n}");
        let kill = pper(&[
            "run",
            "--data",
            data,
            "--machines",
            MACHINES,
            "--durable",
            "--journal",
            journal,
            "--job-id",
            &job,
            "--checkpoint-every",
            CHECKPOINT_EVERY,
            "--kill-after-events",
            &n.to_string(),
        ]);
        assert!(
            !kill.status.success(),
            "kill point {n}: child should have aborted"
        );
        // Exactly n events survived the abort (appends are fsync'd).
        let rec = recover(&store, &job).unwrap();
        assert!(rec.report.clean(), "kill point {n}: journal not clean");
        assert_eq!(rec.events.len(), n, "kill point {n}: durable event count");

        let out_path = dir.join(format!("resumed-{n}.json"));
        let out = out_path.to_str().unwrap();
        run_ok(&[
            "resume",
            "--journal",
            journal,
            "--job-id",
            &job,
            "--data",
            data,
            "--result-out",
            out,
        ]);
        let resumed = std::fs::read(&out_path).unwrap();
        assert_eq!(
            resumed, golden,
            "kill point {n}: resumed fingerprint diverged from golden"
        );
    }
}

/// Process-level dead-letter round trip: exhaust a reduce task's attempt
/// budget, list the capture, reprocess it to the fault-free result.
#[test]
fn dlq_process_round_trip() {
    let dir = tmp_dir("dlq-process");
    let data = write_dataset(&dir);
    let data = data.to_str().unwrap();
    let journal = dir.join("journal");
    let journal = journal.to_str().unwrap();

    // Fault-free golden.
    let golden_path = dir.join("golden.json");
    let golden_out = golden_path.to_str().unwrap();
    golden_run(data, journal, "golden", golden_out);
    let golden = std::fs::read(&golden_path).unwrap();

    // Reduce task 0 fails 4 attempts — the whole default budget.
    let failed = pper(&[
        "run",
        "--data",
        data,
        "--machines",
        MACHINES,
        "--durable",
        "--journal",
        journal,
        "--job-id",
        "faulty",
        "--checkpoint-every",
        CHECKPOINT_EVERY,
        "--fail-reduce",
        "0:4",
    ]);
    assert!(!failed.status.success());
    let stderr = String::from_utf8_lossy(&failed.stderr);
    assert!(
        stderr.contains("dead-lettered"),
        "expected dead-letter notice, got: {stderr}"
    );

    // The queue lists the capture with its context.
    let list = run_ok(&["dlq", "--journal", journal, "--job-id", "faulty"]);
    let stdout = String::from_utf8_lossy(&list.stdout);
    assert!(stdout.contains("reduce-0"), "dlq listing: {stdout}");
    assert!(stdout.contains("attempt"), "dlq listing: {stdout}");
    assert!(stdout.contains("context"), "dlq listing: {stdout}");

    // Drain it (fault cleared) — bit-identical to the fault-free golden.
    let out_path = dir.join("reprocessed.json");
    let out = out_path.to_str().unwrap();
    run_ok(&[
        "dlq",
        "--journal",
        journal,
        "--job-id",
        "faulty",
        "--reprocess",
        "--data",
        data,
        "--result-out",
        out,
    ]);
    assert_eq!(std::fs::read(&out_path).unwrap(), golden);

    // Now empty.
    let list = run_ok(&["dlq", "--journal", journal, "--job-id", "faulty"]);
    assert!(String::from_utf8_lossy(&list.stdout).contains("empty"));
}

/// Journals from before the executor backends were removed carry an
/// `executor=…` parameter in `JobStarted`. `pper resume` must ignore it and
/// finish the job bit-identically to the uninterrupted run.
#[test]
fn old_journal_with_executor_param_resumes_bit_identically() {
    let dir = tmp_dir("resume-old-executor");
    let data = write_dataset(&dir);
    let data = data.to_str().unwrap();
    let journal = dir.join("journal");
    let journal = journal.to_str().unwrap();
    let golden_path = dir.join("golden.json");
    golden_run(data, journal, "golden", golden_path.to_str().unwrap());
    let golden = std::fs::read(&golden_path).unwrap();

    let store: Arc<dyn JournalStore> = FileStore::shared(journal).unwrap();
    let events = recover(&store, "golden").unwrap().events;
    let cut = events.len() / 2;
    assert!(
        cut >= 2,
        "want a mid-run prefix, journal has {} events",
        events.len()
    );

    for executor in ["stealing", "chunked:16"] {
        // Re-journal the first half of the golden run under a new job id,
        // with the legacy parameter added to `JobStarted` exactly as the
        // old `pper run --durable` recorded it.
        let job = format!("old-{}", executor.replace(':', "-"));
        let mut old = JobJournal::create(store.clone(), &job).unwrap();
        for (_, event) in &events[..cut] {
            let event = match event {
                JournalEvent::JobStarted { params, .. } => {
                    let mut params = params.clone();
                    params.push(("executor".into(), executor.into()));
                    JournalEvent::JobStarted {
                        job_id: job.clone(),
                        params,
                    }
                }
                other => other.clone(),
            };
            old.append(&event).unwrap();
        }
        let state = JournalState::replay(&recover(&store, &job).unwrap().events);
        assert_eq!(state.param("executor"), Some(executor));

        let out_path = dir.join(format!("{job}.json"));
        run_ok(&[
            "resume",
            "--journal",
            journal,
            "--job-id",
            &job,
            "--result-out",
            out_path.to_str().unwrap(),
        ]);
        assert_eq!(
            std::fs::read(&out_path).unwrap(),
            golden,
            "executor={executor}: resumed fingerprint diverged from golden"
        );
    }
}

/// The backend flag is gone: asking for one is a usage error, not a
/// silently ignored option.
#[test]
fn executor_flag_is_rejected() {
    for command in ["run", "basic"] {
        let out = pper(&[command, "--executor", "cursor"]);
        assert!(!out.status.success(), "pper {command} --executor must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown flag '--executor'"),
            "pper {command}: {stderr}"
        );
    }
}
