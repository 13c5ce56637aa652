//! `campaign`: each op runs the flow smoke campaign and the sca smoke campaign through
//! the campaign engine with JSONL results files, resumes both completed files (0 jobs
//! may run), then aggregates and renders both reports — the engine, the JSONL sink,
//! torn-tail/resume reading, the record codec and aggregation.

use crate::bench::{out_dir, setup, timed, Bench, Rng};
use crate::expected::Work;
use crate::host::{Counters, Fnv};
use std::path::{Path, PathBuf};
use tsc3d_campaign::{
    aggregate, aggregate_sca, render_report, render_sca_report, resume_from_file,
    resume_sca_from_file, run_campaign_on, run_sca_campaign_on, CampaignOptions, CampaignSpec,
    JobOutcome, JobRecord, ScaCampaignSpec, ScaJobOutcome, ScaJobRecord,
};
use tsc3d_exec::Pool;
use tsc3d_floorplan::SaSchedule;
use tsc3d_netlist::suite::Benchmark;

/// Variants of the sca smoke spec: variant `v` attacks key seeds `11 + 2v` and `12 + 2v`.
const VARIANTS: u64 = 8;
const SETUPS: usize = 1;
const WORKERS: usize = 2;

/// The `campaign run --smoke` preset: two designs, both setups, two seeds each, tiny
/// schedules.
fn flow_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new(vec![Benchmark::N100, Benchmark::N200], vec![1, 2]);
    let schedule = SaSchedule {
        stages: 8,
        moves_per_stage: 16,
        cooling: 0.85,
        initial_acceptance: 0.8,
        grid_bins: 12,
    };
    for config in [&mut spec.power_aware, &mut spec.tsc_aware] {
        config.schedule = schedule;
        config.verification_bins = 12;
    }
    if let Some(pp) = spec.tsc_aware.post_process.as_mut() {
        pp.activity_samples = 8;
        pp.max_insertions = 4;
    }
    spec
}

fn sca_spec(variant: u64) -> ScaCampaignSpec {
    let mut spec = ScaCampaignSpec::smoke();
    spec.key_seeds = vec![11 + 2 * variant, 12 + 2 * variant];
    spec
}

struct OpTimes {
    run_s: f64,
    resume_s: f64,
    report_s: f64,
    records_bytes: u64,
    job_runtime_s: f64,
}

impl OpTimes {
    fn total(&self) -> f64 {
        self.run_s + self.resume_s + self.report_s
    }
}

fn digest(text: &str) -> String {
    Fnv::hex(text.as_bytes())
}

/// Records with their wall-clock field zeroed, as JSONL, plus the report rendered from
/// them: the deterministic part of a campaign's output.
fn normalized_flow(records: &[JobRecord]) -> (String, String) {
    let mut records = records.to_vec();
    for record in &mut records {
        if let JobOutcome::Success(metrics) = &mut record.outcome {
            metrics.runtime_s = 0.0;
        }
    }
    let lines: String = records.iter().map(|r| r.to_json_line() + "\n").collect();
    (lines, render_report(&aggregate(&records)))
}

fn normalized_sca(records: &[ScaJobRecord]) -> (String, String) {
    let mut records = records.to_vec();
    for record in &mut records {
        if let ScaJobOutcome::Success(metrics) = &mut record.outcome {
            metrics.runtime_s = 0.0;
        }
    }
    let lines: String = records.iter().map(|r| r.to_json_line() + "\n").collect();
    (lines, render_sca_report(&aggregate_sca(&records)))
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn campaign_op(
    bench: &mut Bench,
    pool: &Pool,
    variant: u64,
    dir: &Path,
) -> Result<OpTimes, String> {
    let flow_spec = flow_spec();
    let sca_spec = sca_spec(variant);
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let flow_path = dir.join("flow.jsonl");
    let sca_path = dir.join("sca.jsonl");
    let options = |path: &PathBuf| CampaignOptions {
        results_path: Some(path.clone()),
        ..CampaignOptions::in_memory(WORKERS)
    };
    let err = |what: &'static str| move |e: tsc3d_campaign::CampaignError| format!("{what}: {e}");

    let before = Counters::now();
    let (run_s, (flow_run, sca_run)) = timed(|| {
        let _span = tsc3d_obs::span!("perfbench.campaign_run");
        (
            run_campaign_on(pool, &flow_spec, &options(&flow_path)),
            run_sca_campaign_on(pool, &sca_spec, &options(&sca_path)),
        )
    });
    let work_done = Counters::now().since(before);
    let (flow_run, sca_run) = (
        flow_run.map_err(err("flow campaign"))?,
        sca_run.map_err(err("sca campaign"))?,
    );
    let records_bytes = file_len(&flow_path) + file_len(&sca_path);

    let (resume_s, (flow_resume, sca_resume)) = timed(|| {
        let _span = tsc3d_obs::span!("perfbench.campaign_resume");
        (
            resume_from_file(&flow_path, WORKERS, None),
            resume_sca_from_file(&sca_path, WORKERS, None),
        )
    });
    let (_, flow_resume) = flow_resume.map_err(err("flow resume"))?;
    let (_, sca_resume) = sca_resume.map_err(err("sca resume"))?;

    let (report_s, reports) = timed(|| {
        let _span = tsc3d_obs::span!("perfbench.campaign_report");
        (
            render_report(&aggregate(&flow_resume.records)),
            render_sca_report(&aggregate_sca(&sca_resume.records)),
        )
    });
    if reports.0.is_empty() || reports.1.is_empty() {
        return Err("empty campaign report".into());
    }

    let job_runtime_s = flow_run
        .records
        .iter()
        .filter_map(|r| r.metrics().map(|m| m.runtime_s))
        .chain(sca_run.records.iter().filter_map(|r| match &r.outcome {
            ScaJobOutcome::Success(m) => Some(m.runtime_s),
            ScaJobOutcome::Failure { .. } => None,
        }))
        .sum();
    let (flow_lines, flow_report) = normalized_flow(&flow_resume.records);
    let (sca_lines, sca_report) = normalized_sca(&sca_resume.records);
    let failed_jobs = flow_resume
        .records
        .iter()
        .filter(|r| !r.is_success())
        .count()
        + sca_resume
            .records
            .iter()
            .filter(|r| !r.is_success())
            .count();
    let output = format!(
        "executed={}+{} resumed_executed={}+{} failed_jobs={failed_jobs} flow_records={} sca_records={} flow_report={} sca_report={}",
        flow_run.executed,
        sca_run.executed,
        flow_resume.executed,
        sca_resume.executed,
        digest(&flow_lines),
        digest(&sca_lines),
        digest(&flow_report),
        digest(&sca_report),
    );
    let work = Work::from([
        ("evaluations".to_string(), work_done.evaluations()),
        ("solves".to_string(), work_done.solves()),
        ("sweeps".to_string(), work_done.sweeps()),
        ("traces".to_string(), work_done.traces()),
        ("transient_steps".to_string(), work_done.transient_steps()),
        ("cpa_checkpoints".to_string(), work_done.cpa_checkpoints()),
        (
            "jsonl_bytes".to_string(),
            (flow_lines.len() + sca_lines.len()) as u64,
        ),
        (
            "jobs_executed".to_string(),
            (flow_run.executed + sca_run.executed) as u64,
        ),
        (
            "resume_jobs_executed".to_string(),
            (flow_resume.executed + sca_resume.executed) as u64,
        ),
    ]);
    bench
        .checker
        .check(&format!("variant{variant}"), &output, Some(work))?;
    if flow_resume.executed + sca_resume.executed != 0 {
        return Err("resume of a completed results file executed jobs".into());
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(OpTimes {
        run_s,
        resume_s,
        report_s,
        records_bytes,
        job_runtime_s,
    })
}

pub fn run(bench: &mut Bench) -> Result<(), String> {
    bench.threads = vec![("client_threads", 1), ("pool_workers", WORKERS)];
    let dir = out_dir().join(format!("campaign-{}", std::process::id()));
    let result = run_in(bench, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(bench: &mut Bench, dir: &Path) -> Result<(), String> {
    if bench.args.record {
        let pool = Pool::with_batch_workers(WORKERS);
        for variant in 0..VARIANTS {
            campaign_op(bench, &pool, variant, dir)?;
        }
        pool.shutdown();
        return Ok(());
    }

    let variant = Rng::new(bench.args.seed).below(VARIANTS);
    bench.note("variant", crate::json::Json::Num(variant as f64));
    let (pool, setup_s) = setup(
        bench.started,
        SETUPS,
        |_| {
            let pool = Pool::with_batch_workers(WORKERS);
            campaign_op(bench, &pool, variant, dir)?;
            Ok(pool)
        },
        |pool| pool.shutdown(),
    )?;
    bench.setup_s = setup_s;

    bench.closed_loop(false, |bench, _| {
        campaign_op(bench, &pool, variant, dir).map(|t| t.total())
    });
    if bench.args.trace {
        let stats_before = pool.stats();
        let mut ops = Vec::new();
        bench.closed_loop(true, |bench, _| {
            let times = campaign_op(bench, &pool, variant, dir)?;
            let total = times.total();
            ops.push(times);
            Ok(total)
        });
        let stats_after = pool.stats();
        let sum = |f: &dyn Fn(&OpTimes) -> f64| ops.iter().map(f).sum::<f64>();
        let run_s = sum(&|t| t.run_s);
        bench.layer("campaign.run_s", run_s);
        bench.layer("campaign.resume_s", sum(&|t| t.resume_s));
        bench.layer("campaign.report_s", sum(&|t| t.report_s));
        bench.layer(
            "campaign.records_bytes",
            sum(&|t| t.records_bytes as f64) / ops.len().max(1) as f64,
        );
        bench.layer(
            "campaign.overhead_frac",
            1.0 - sum(&|t| t.job_runtime_s) / (WORKERS as f64 * run_s),
        );
        crate::counter_layers(bench);
        crate::exec_layers(bench, &stats_before, &stats_after, WORKERS);
    }
    pool.shutdown();
    Ok(())
}
