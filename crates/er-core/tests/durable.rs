//! Durable runner conformance: journaled runs fingerprint-identical to
//! plain runs, an in-process kill-point sweep over journal prefixes, and
//! the dead-letter round trip.
//!
//! The *process-level* kill sweep (child `pper` processes aborted at every
//! event boundary) lives in the root package's `tests/resume_process.rs`;
//! here the same boundary sweep is driven in-process by replaying every
//! durable byte prefix of a finished journal into a fresh store — exactly
//! the bytes a `kill -9` after the N-th synced append would have left.

use std::sync::Arc;

use pper_datagen::PubGen;
use pper_er::prelude::*;
use pper_journal::{recover, JournalState, JournalStore, MemStore};
use pper_mapreduce::FaultPlan;

fn small_pipeline() -> ProgressiveEr {
    ProgressiveEr::new(ErConfig::citeseer(2))
}

fn dataset() -> pper_datagen::Dataset {
    PubGen::new(1_200, 417).generate()
}

fn opts(every: f64) -> DurableOptions {
    DurableOptions {
        checkpoint_every: every,
        kill_after_events: None,
    }
}

#[test]
fn durable_run_matches_plain_run() {
    let er = small_pipeline();
    let ds = dataset();
    let golden = ResultFingerprint::of(&er.try_run(&ds).unwrap());

    let store = MemStore::shared();
    let result = run_durable(&er, &ds, &store, "job-plain", &[], &opts(1_500.0)).unwrap();
    assert_eq!(ResultFingerprint::of(&result), golden);

    // The journal tells the whole story: started, finished, every task.
    let rec = recover(&store, "job-plain").unwrap();
    assert!(rec.report.clean());
    let state = JournalState::replay(&rec.events);
    assert_eq!(state.job_id.as_deref(), Some("job-plain"));
    assert_eq!(state.param("checkpoint_every"), Some("1500"));
    assert!(state.job1_cost.is_some());
    assert!(state.schedule.is_some());
    assert!(state.last_checkpoint.is_some());
    assert!(state.tasks_finished > 0);
    assert!(state.dlq.is_empty());
    let (dups, total_cost) = state.finished.expect("job-finished event");
    assert_eq!(dups, golden.duplicates.len() as u64);
    assert_eq!(total_cost.to_bits(), golden.total_cost_bits);
    assert!(!state.counters.is_empty());
}

#[test]
fn staged_resume_to_crash_equals_direct_run_to_crash() {
    let er = small_pipeline();
    let ds = dataset();
    let staged = er
        .resume_to_crash(&ds, &er.run_to_crash(&ds, 1_000.0).unwrap(), 2_200.0)
        .unwrap();
    let direct = er.run_to_crash(&ds, 2_200.0).unwrap();
    assert_eq!(staged.to_json().unwrap(), direct.to_json().unwrap());
}

#[test]
fn fingerprint_json_round_trips() {
    let er = small_pipeline();
    let ds = dataset();
    let fp = ResultFingerprint::of(&er.try_run(&ds).unwrap());
    let back = ResultFingerprint::from_json(&fp.to_json().unwrap()).unwrap();
    assert_eq!(back, fp);
}

/// In-process kill-point sweep: every durable byte prefix of a finished
/// journal — exactly what a `kill -9` right after the N-th synced append
/// leaves on disk — resumes in a fresh store to the bit-identical result.
#[test]
fn every_journal_prefix_resumes_bit_identically() {
    let er = small_pipeline();
    let ds = dataset();
    let golden = ResultFingerprint::of(&er.try_run(&ds).unwrap());

    let store = MemStore::shared();
    run_durable(&er, &ds, &store, "job-sweep", &[], &opts(1_500.0)).unwrap();
    let rec = recover(&store, "job-sweep").unwrap();
    assert!(rec.report.clean());
    let bytes = store.read("job-sweep").unwrap();

    // Event boundaries: each event's start offset (skipping the first —
    // a prefix with zero events has nothing to resume) plus the full log.
    let mut boundaries: Vec<usize> = rec.events[1..]
        .iter()
        .map(|&(off, _)| off as usize)
        .collect();
    boundaries.push(bytes.len());
    assert!(
        boundaries.len() >= 6,
        "want a meaningful sweep, got {} boundaries",
        boundaries.len()
    );

    for (i, &cut) in boundaries.iter().enumerate() {
        let replay: Arc<dyn JournalStore> = MemStore::shared();
        replay.append("job-sweep", &bytes[..cut]).unwrap();
        let resumed = resume_durable(&er, &ds, &replay, "job-sweep", &opts(1_500.0))
            .unwrap_or_else(|e| panic!("resume at boundary {i} (byte {cut}) failed: {e}"));
        assert_eq!(
            ResultFingerprint::of(&resumed),
            golden,
            "boundary {i} (byte {cut}) diverged"
        );
    }
}

/// A kill mid-append leaves a torn tail behind the last boundary; resume
/// must drop it (and truncate, so new records stay reachable) and still
/// reach the identical result.
#[test]
fn resume_recovers_from_torn_tail() {
    let er = small_pipeline();
    let ds = dataset();
    let golden = ResultFingerprint::of(&er.try_run(&ds).unwrap());

    let store = MemStore::shared();
    run_durable(&er, &ds, &store, "job-torn", &[], &opts(1_500.0)).unwrap();
    let bytes = store.read("job-torn").unwrap();
    let rec = recover(&store, "job-torn").unwrap();
    // Cut mid-record: half-way into the final event's frame.
    let last_off = rec.events.last().unwrap().0 as usize;
    let cut = last_off + (bytes.len() - last_off) / 2;
    assert!(cut > last_off && cut < bytes.len());

    let replay: Arc<dyn JournalStore> = MemStore::shared();
    replay.append("job-torn", &bytes[..cut]).unwrap();
    let pre = recover(&replay, "job-torn").unwrap();
    assert!(pre.report.torn_tail);

    let resumed = resume_durable(&er, &ds, &replay, "job-torn", &opts(1_500.0)).unwrap();
    assert_eq!(ResultFingerprint::of(&resumed), golden);
    // The torn bytes were truncated away before new appends, so the whole
    // log is valid again.
    let post = recover(&replay, "job-torn").unwrap();
    assert!(post.report.clean());
}

#[test]
fn resume_of_empty_journal_is_an_error() {
    let er = small_pipeline();
    let ds = dataset();
    let store = MemStore::shared();
    let err = resume_durable(&er, &ds, &store, "job-none", &opts(1_500.0));
    assert!(err.is_err(), "no journal should not resume");
}

/// The dead-letter round trip: a task exhausting its attempt budget lands
/// in the DLQ with full failure history and context; reprocessing with the
/// fault removed equals the fault-free run bit for bit.
#[test]
fn dlq_captures_exhausted_task_and_reprocesses() {
    let ds = dataset();
    let golden_er = small_pipeline();
    let golden = ResultFingerprint::of(&golden_er.try_run(&ds).unwrap());

    let mut faulty = small_pipeline();
    // Default attempt budget is 4; 4 failing attempts exhaust it.
    faulty.config.faults = Some(FaultPlan::fail_reduce(0, 4));

    let store = MemStore::shared();
    let err = run_durable(&faulty, &ds, &store, "job-dlq", &[], &opts(1_500.0))
        .expect_err("exhausted task must fail the durable run");
    match &err {
        DurableError::DeadLettered { job_id, tasks } => {
            assert_eq!(job_id, "job-dlq");
            assert_eq!(tasks, &["reduce-0".to_string()]);
        }
        other => panic!("expected DeadLettered, got {other}"),
    }

    // The capture carries everything an operator needs.
    let rec = recover(&store, "job-dlq").unwrap();
    let state = JournalState::replay(&rec.events);
    assert_eq!(state.dlq.len(), 1);
    let entry = &state.dlq[0];
    assert_eq!(entry.index, 0);
    assert_eq!(entry.attempts, 4);
    assert_eq!(entry.failures.len(), 4);
    assert!(entry.failures.iter().all(|f| !f.error.is_empty()));
    assert!(entry.context_json.contains("\"task\":\"reduce-0\""));
    assert!(entry.context_json.contains("\"stage\":"));

    // Drain the queue with the fault gone: bit-identical to fault-free.
    let reprocessed = reprocess_dlq(&faulty, &ds, &store, "job-dlq", &opts(1_500.0)).unwrap();
    assert_eq!(ResultFingerprint::of(&reprocessed), golden);

    // The journal now records the drain; the DLQ folds back to empty.
    let state = JournalState::replay(&recover(&store, "job-dlq").unwrap().events);
    assert!(state.dlq.is_empty(), "drained entries must leave the DLQ");
    assert!(state.finished.is_some());

    // A second reprocess has nothing to drain.
    assert!(reprocess_dlq(&faulty, &ds, &store, "job-dlq", &opts(1_500.0)).is_err());
}

/// The dataset name comes from the input file's header, so the DLQ context
/// must escape it: a name holding `"` and `\` still yields valid JSON that
/// round-trips the name.
#[test]
fn dlq_context_escapes_dataset_name() {
    let mut ds = dataset();
    ds.name = r#"a"b\c"#.to_string();
    let mut faulty = small_pipeline();
    faulty.config.faults = Some(FaultPlan::fail_reduce(0, 4));

    let store = MemStore::shared();
    let err = run_durable(&faulty, &ds, &store, "job-dlq-name", &[], &opts(1_500.0))
        .expect_err("exhausted task must fail the durable run");
    assert!(matches!(err, DurableError::DeadLettered { .. }), "{err}");

    let state = JournalState::replay(&recover(&store, "job-dlq-name").unwrap().events);
    assert_eq!(state.dlq.len(), 1);
    let context: DlqContext = serde_json::from_str(&state.dlq[0].context_json)
        .unwrap_or_else(|e| panic!("invalid context JSON {}: {e}", state.dlq[0].context_json));
    assert_eq!(context.dataset, r#"a"b\c"#);
    assert_eq!(context.task, "reduce-0");
    assert!(!context.stage.is_empty());
}

/// The string fields of a dead-letter entry's `context_json`.
#[derive(serde::Deserialize)]
struct DlqContext {
    stage: String,
    dataset: String,
    task: String,
}
