//! Chaos tests: the deterministic fault-injection harness driving the campaign's
//! retry/quarantine machinery, and the determinism contract under faults — a campaign
//! that suffers panics, deadline misses and transient errors but retries to success
//! produces records byte-identical to an undisturbed run (modulo wall-clock fields).
//!
//! The fault harness is process-global, so every test that arms it holds
//! [`tsc3d_exec::fault::test_lock`] for its whole body.

use std::path::PathBuf;
use tsc3d_campaign::{
    read_results_file, resume_from_file, run_campaign, CampaignOptions, CampaignSpec, JobOutcome,
    JobRecord, JobRetryPolicy, ScaCampaignSpec, ScaJobOutcome, ScaJobRecord,
};
use tsc3d_exec::fault::{self, FaultAction, FaultPlan};
use tsc3d_netlist::suite::Benchmark;

/// A fast spec: 1 benchmark × 2 setups × 2 seeds = 4 jobs, each well under a second.
fn chaos_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new(vec![Benchmark::N100], vec![1, 2]);
    for template in [&mut spec.power_aware, &mut spec.tsc_aware] {
        template.schedule.stages = 3;
        template.schedule.moves_per_stage = 6;
        template.schedule.grid_bins = 8;
        template.verification_bins = 8;
    }
    if let Some(pp) = spec.tsc_aware.post_process.as_mut() {
        pp.activity_samples = 4;
        pp.max_insertions = 2;
    }
    spec
}

/// Clears the wall-clock field so deterministic records compare bit-identically.
fn normalized(records: &[JobRecord]) -> Vec<JobRecord> {
    records
        .iter()
        .cloned()
        .map(|mut record| {
            if let JobOutcome::Success(metrics) = &mut record.outcome {
                metrics.runtime_s = 0.0;
            }
            record
        })
        .collect()
}

/// [`normalized`] for sca records.
fn normalized_sca(records: &[ScaJobRecord]) -> Vec<ScaJobRecord> {
    records
        .iter()
        .cloned()
        .map(|mut record| {
            if let ScaJobOutcome::Success(metrics) = &mut record.outcome {
                metrics.runtime_s = 0.0;
            }
            record
        })
        .collect()
}

fn temp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tsc3d-campaign-chaos");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// The acceptance scenario: a campaign suffering one worker panic, one deadline miss
/// (via an injected delay longer than the attempt budget) and one transient error
/// completes — each fault retried to success — with aggregate records byte-identical
/// to the fault-free baseline.
#[test]
fn campaign_with_injected_faults_retries_to_a_byte_identical_outcome() {
    let _guard = fault::test_lock();
    let spec = chaos_spec();
    let baseline = run_campaign(&spec, &CampaignOptions::in_memory(2)).unwrap();
    assert!(
        baseline
            .records
            .iter()
            .all(|r| matches!(r.outcome, JobOutcome::Success(_))),
        "the baseline must be clean for the identity comparison to be meaningful"
    );

    // One panic (SA epoch), one delay that overshoots the 2.5 s attempt budget (flow
    // stage boundary: the checkpoint sleeps, then sees the expired deadline), one
    // transient typed error. Each fires exactly once; all three kinds are retryable.
    fault::arm(
        FaultPlan::parse("sa-epoch:2:panic,flow-stage:5:delay:4000,flow-stage:9:error").unwrap(),
    );
    let mut options = CampaignOptions::in_memory(2);
    options.retry = JobRetryPolicy {
        // Generous attempt budget: even if every fault lands on the same job it still
        // retries through to success.
        max_attempts: 5,
        base_backoff_ms: 1,
        max_backoff_ms: 2,
        attempt_deadline_ms: Some(2_500),
        ..JobRetryPolicy::default()
    };
    let chaotic = run_campaign(&spec, &options).unwrap();
    let fired = fault::disarm();

    assert_eq!(fired.len(), 3, "every armed fault fired: {fired:?}");
    assert!(fired.iter().any(|f| f.action == FaultAction::Panic));
    assert!(fired.iter().any(|f| f.action == FaultAction::Error));
    assert!(fired
        .iter()
        .any(|f| matches!(f.action, FaultAction::Delay(_))));
    assert_eq!(
        normalized(&baseline.records),
        normalized(&chaotic.records),
        "retried-to-success records are indistinguishable from first-try successes"
    );
}

/// A job that fails every attempt is quarantined: its typed failure is recorded, the
/// rest of the campaign completes, and a resume (the post-kill code path: re-read the
/// file, skip recorded jobs) does not re-run the quarantined job.
#[test]
fn exhausted_retries_quarantine_the_job_and_resume_skips_it() {
    let _guard = fault::test_lock();
    let spec = chaos_spec();
    let path = temp_file("quarantine");

    // Serial execution: the first job's two attempts visit the flow-stage boundary at
    // global hits 1-4 (panic at 1 aborts the attempt) and 2-5, so both panic; the
    // remaining jobs run fault-free.
    fault::arm(FaultPlan::parse("flow-stage:1:panic,flow-stage:5:panic").unwrap());
    let mut options = CampaignOptions::in_memory(1);
    options.results_path = Some(path.clone());
    options.retry = JobRetryPolicy {
        max_attempts: 2,
        base_backoff_ms: 1,
        max_backoff_ms: 2,
        ..JobRetryPolicy::default()
    };
    let outcome = run_campaign(&spec, &options).unwrap();
    let fired = fault::disarm();

    assert_eq!(fired.len(), 2, "both panics fired: {fired:?}");
    let quarantined: Vec<&JobRecord> = outcome
        .records
        .iter()
        .filter(|r| matches!(&r.outcome, JobOutcome::Failure { kind, .. } if kind == "panic"))
        .collect();
    assert_eq!(
        quarantined.len(),
        1,
        "exactly one job exhausted its attempts: {:?}",
        outcome.records
    );
    assert_eq!(
        outcome.records.len(),
        spec.job_count(),
        "the campaign ran to completion around the quarantined job"
    );

    // Resume from the file: every job — including the quarantined failure — already has
    // a record, so nothing re-runs.
    let (_, resumed) = resume_from_file(&path, 2, None).unwrap();
    assert_eq!(resumed.executed, 0);
    assert_eq!(resumed.resumed, spec.job_count());
    assert_eq!(normalized(&resumed.records), normalized(&outcome.records));
    let _ = std::fs::remove_file(&path);
}

/// A fired campaign-wide cancel token skips queued jobs *without* writing records, so a
/// later resume re-runs them — cancellation behaves exactly like a killed process.
#[test]
fn cancelled_campaigns_leave_no_records_and_resume_reruns_the_jobs() {
    // Arms no faults, but its flow-stage checkpoints would consume the hits a concurrent
    // test armed.
    let _guard = fault::test_lock();
    let spec = chaos_spec();
    let path = temp_file("cancelled");
    let baseline = run_campaign(&spec, &CampaignOptions::in_memory(2)).unwrap();

    let mut options = CampaignOptions::in_memory(2);
    options.results_path = Some(path.clone());
    options.cancel.cancel(tsc3d_exec::CancelReason::User);
    let cancelled = run_campaign(&spec, &options).unwrap();
    assert!(
        cancelled.records.is_empty(),
        "cancelled jobs must not persist records (a resume would skip them forever)"
    );
    let on_disk = read_results_file::<CampaignSpec>(&path).unwrap();
    assert!(on_disk.records.is_empty());

    let (_, resumed) = resume_from_file(&path, 2, None).unwrap();
    assert_eq!(resumed.executed, spec.job_count());
    assert_eq!(normalized(&resumed.records), normalized(&baseline.records));
    let _ = std::fs::remove_file(&path);
}

/// Every attack on one floorplan shares one memoized flow. A fault or a panic inside that
/// flow fails only the attempt that ran it: the retry, or the next job of the group, runs
/// the flow again, so the records equal a clean run's.
#[test]
fn a_faulted_shared_sca_flow_is_retried_not_memoized() {
    let _guard = fault::test_lock();
    // Both mitigation states of one key and sensor set: two jobs sharing one flow.
    let mut spec = ScaCampaignSpec::smoke();
    spec.key_seeds.truncate(1);
    spec.sensors.truncate(1);
    spec.attack.traces = 96;
    spec.attack.mtd_checkpoints = 96;
    let baseline = run_campaign(&spec, &CampaignOptions::in_memory(2)).unwrap();
    assert_eq!(baseline.records.len(), 2);
    assert!(baseline.records.iter().all(ScaJobRecord::is_success));

    // The first flow stage boundary fails typed; the second SA epoch panics.
    for plan in ["flow-stage:1:error", "sa-epoch:2:panic"] {
        fault::arm(FaultPlan::parse(plan).unwrap());
        let mut options = CampaignOptions::in_memory(2);
        options.retry = JobRetryPolicy {
            base_backoff_ms: 1,
            max_backoff_ms: 2,
            ..JobRetryPolicy::default()
        };
        let chaotic = run_campaign(&spec, &options).unwrap();
        let fired = fault::disarm();
        assert_eq!(fired.len(), 1, "{plan}: {fired:?}");
        assert_eq!(
            normalized_sca(&baseline.records),
            normalized_sca(&chaotic.records),
            "{plan}"
        );
    }
}
