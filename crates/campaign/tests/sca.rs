//! Integration tests of the sca campaign job kind: the end-to-end acceptance property
//! (the dummy-TSV-mitigated floorplan shows a strictly higher measurements-to-disclosure
//! than the unmitigated baseline), byte-identical across worker counts and resume
//! boundaries.
//!
//! Wall-clock runtimes are the only non-deterministic field; comparisons zero
//! `runtime_s` before asserting identical records and reports.

use std::path::PathBuf;
use tsc3d_campaign::{
    aggregate_sca, read_results_file, render_sca_report, resume_sca_from_file, run_campaign,
    CampaignOptions, ScaCampaignSpec, ScaJobOutcome, ScaJobRecord,
};
use tsc3d_netlist::suite::Benchmark;
use tsc3d_sca::Mitigation;

/// The smoke spec at test scale: one benchmark/seed/key/sensor, both mitigation states
/// (2 jobs), with a shorter trace budget. Calibrated like [`ScaCampaignSpec::smoke`] so
/// the mitigation verdict stays strict.
fn test_spec() -> ScaCampaignSpec {
    let mut spec = ScaCampaignSpec::smoke();
    spec.key_seeds = vec![11];
    spec.sensors.truncate(1);
    spec.attack.traces = 96;
    spec.attack.mtd_checkpoints = 96;
    spec
}

fn normalized(records: &[ScaJobRecord]) -> Vec<ScaJobRecord> {
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
    let dir = std::env::temp_dir().join("tsc3d-sca-campaign-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn sca_smoke_shows_strictly_higher_mtd_under_mitigation_for_any_worker_count() {
    let spec = test_spec();
    let single = run_campaign(&spec, &CampaignOptions::in_memory(1)).unwrap();
    assert_eq!(single.records.len(), spec.job_count());

    // The acceptance property: every job succeeded, both keys disclosed, and the
    // mitigated floorplan needs strictly more traces than the baseline.
    let summary = aggregate_sca(&single.records);
    assert_eq!(summary.succeeded(), spec.job_count());
    let baseline = summary
        .group(Benchmark::N100, &spec.sensors[0].name, Mitigation::Baseline)
        .unwrap();
    let mitigated = summary
        .group(
            Benchmark::N100,
            &spec.sensors[0].name,
            Mitigation::DummyTsvs,
        )
        .unwrap();
    assert!(baseline.disclosed > 0, "baseline must disclose the key");
    assert!(
        mitigated.disclosed < mitigated.succeeded || mitigated.mtd.mean > baseline.mtd.mean,
        "mitigated MTD {} must beat baseline {}",
        mitigated.mtd.mean,
        baseline.mtd.mean
    );
    assert_eq!(
        summary.mitigation_verdict(Benchmark::N100, &spec.sensors[0].name),
        Some(true)
    );
    // The dummy-TSV field actually existed (the mitigation had something to work with).
    assert!(mitigated.dummy_tsvs.mean > 0.0);

    // Bit-identical records and byte-identical report across worker counts.
    let pooled = run_campaign(&spec, &CampaignOptions::in_memory(3)).unwrap();
    assert_eq!(normalized(&single.records), normalized(&pooled.records));
    assert_eq!(
        render_sca_report(&aggregate_sca(&normalized(&single.records))),
        render_sca_report(&aggregate_sca(&normalized(&pooled.records)))
    );
}

#[test]
fn sca_campaigns_resume_across_a_kill_boundary_byte_identically() {
    let spec = test_spec();
    let path = temp_file("sca-resume");

    // The reference: one uninterrupted run.
    let mut options = CampaignOptions::in_memory(2);
    options.results_path = Some(path.clone());
    let full = run_campaign(&spec, &options).unwrap();
    assert_eq!(full.executed, spec.job_count());
    let file = read_results_file::<ScaCampaignSpec>(&path).unwrap();
    assert_eq!(file.records.len(), spec.job_count());
    assert_eq!(file.spec.as_ref(), Some(&spec));

    // Simulate a kill after the first record: header + first line + a torn fragment.
    let content = std::fs::read_to_string(&path).unwrap();
    let mut lines = content.lines();
    let header = lines.next().unwrap();
    let first_record = lines.next().unwrap();
    std::fs::write(
        &path,
        format!("{header}\n{first_record}\n{{\"job_id\":1,\"ben"),
    )
    .unwrap();

    let (resumed_spec, resumed) = resume_sca_from_file(&path, 2, None).unwrap();
    assert_eq!(resumed_spec, spec);
    assert_eq!(resumed.resumed, 1);
    assert_eq!(resumed.executed, spec.job_count() - 1);
    assert_eq!(normalized(&resumed.records), normalized(&full.records));
    assert_eq!(
        render_sca_report(&aggregate_sca(&normalized(&resumed.records))),
        render_sca_report(&aggregate_sca(&normalized(&full.records)))
    );

    // The re-read file holds every record exactly once.
    let file = read_results_file::<ScaCampaignSpec>(&path).unwrap();
    assert_eq!(file.records.len(), spec.job_count());
    assert!(!file.truncated_tail);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn sca_results_files_refuse_silent_overwrites_and_wrong_specs() {
    let spec = test_spec();
    let path = temp_file("sca-guard");
    std::fs::write(&path, "{}\n").unwrap();
    let mut options = CampaignOptions::in_memory(1);
    options.results_path = Some(path.clone());
    let err = run_campaign(&spec, &options).unwrap_err();
    assert!(err.to_string().contains("already exists"), "{err}");
    std::fs::remove_file(&path).unwrap();

    // A resumed file with a different spec is refused.
    let mut options = CampaignOptions::in_memory(1);
    options.results_path = Some(path.clone());
    run_campaign(&spec, &options).unwrap();
    let mut other = spec.clone();
    other.key_seeds = vec![99];
    let mut resume_options = CampaignOptions::in_memory(1);
    resume_options.results_path = Some(path.clone());
    resume_options.resume = true;
    let err = run_campaign(&other, &resume_options).unwrap_err();
    assert!(err.to_string().contains("spec"), "{err}");
    std::fs::remove_file(&path).unwrap();
}

/// `sca-run` validates every sensor set before any job runs: a NaN, infinite or negative
/// noise level fails through the CLI's error path, without a flow run or a results file.
#[test]
fn sca_run_refuses_a_bad_noise_level_before_any_flow_runs() {
    for noise in ["NaN", "inf", "-1"] {
        let path = temp_file(&format!("sca-noise-{noise}"));
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_campaign"))
            .args([
                "sca-run", "--smoke", "--traces", "16", "--noise", noise, "--out",
            ])
            .arg(&path)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "--noise {noise}: {stderr}");
        assert!(
            stderr.contains("invalid sca config: sigma_k must be non-negative and finite"),
            "--noise {noise}: {stderr}"
        );
        assert!(!stderr.contains("executed"), "--noise {noise}: {stderr}");
        assert!(!path.exists(), "--noise {noise} left {}", path.display());
    }
}
