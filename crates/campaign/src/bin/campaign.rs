//! The `campaign` CLI: run, resume and report sharded batch experiments of either job
//! kind.
//!
//! ```text
//! campaign run     --benchmarks n100,ibm01 --seeds 1,2,3 --out results.jsonl [--workers 8]
//!                  [--shard 0/4] [--stages N] [--moves N] [--grid-bins N]
//!                  [--verification-bins N] [--paper] [--smoke] [--sweep-tsv-budget a,b]
//! campaign sca-run --benchmarks n200 --seeds 1 --key-seeds 11,12 --noise 0.5,0.7 --out sca.jsonl
//! campaign resume  --out results.jsonl [--workers 8] [--shard 0/4]
//! campaign report  --out results.jsonl [--csv table.csv] [--report-out report.txt]
//! ```
//!
//! `run` (flow jobs) and `sca-run` (side-channel jobs) write a self-describing results
//! file (first line: the spec under its kind's header key), stream one JSON line per
//! finished job, and print the aggregated report. `resume` and `report` read the kind
//! from that header: `resume` rebuilds the spec and executes only the jobs without a
//! record, `report` aggregates the file without running anything. `--smoke` is the CI
//! preset of either kind, on 4 workers.

use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tsc3d::{FlowConfig, Setup};
use tsc3d_campaign::{
    aggregate, aggregate_sca, read_results_file, render_csv, render_report, render_sca_report,
    resume_results_file, run_campaign, CampaignOptions, CampaignOutcome, CampaignSpec, JobKind,
    JobRetryPolicy, OverrideSet, ScaCampaignSpec, ScaSensorSet, Shard,
};
use tsc3d_floorplan::SaSchedule;
use tsc3d_netlist::suite::Benchmark;
use tsc3d_obs::json::Json;
use tsc3d_obs::{log_error, log_info, log_warn};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // `--trace-out PATH` turns on structured tracing for the whole run; the collected
    // spans are written as JSONL on the way out (success or failure — a failed run's
    // partial trace is exactly what one wants to look at).
    let trace_out = arg_value(&args, "--trace-out").map(PathBuf::from);
    if trace_out.is_some() {
        tsc3d_obs::set_tracing(true);
    }
    // `--progress` renders a live one-line status on stderr; `--events-out PATH` captures
    // the full event stream as JSONL. Both consume the event bus read-only, so stdout
    // (reports, records) stays byte-identical with or without them.
    let progress = arg_present(&args, "--progress");
    let events_out = arg_value(&args, "--events-out").map(PathBuf::from);
    let monitor = (progress || events_out.is_some()).then(|| {
        tsc3d_campaign::progress::EventMonitor::start_with(
            progress,
            events_out,
            arg_present(&args, "--fsync"),
        )
    });
    // `--fault-plan SPEC` arms the deterministic fault-injection harness for the whole
    // run (chaos testing: `site:hit:action` entries, e.g. `sa-epoch:3:panic`);
    // `--fault-log PATH` writes the fired faults as JSONL on the way out.
    let fault_log = arg_value(&args, "--fault-log").map(PathBuf::from);
    if let Some(plan) = arg_value(&args, "--fault-plan") {
        match tsc3d_exec::fault::FaultPlan::parse(&plan) {
            Ok(plan) => {
                log_info!("campaign", "fault plan armed: {plan}");
                tsc3d_exec::fault::arm(plan);
            }
            Err(message) => {
                eprintln!("error: --fault-plan: {message}");
                return ExitCode::FAILURE;
            }
        }
    }
    let args = &args[1..];
    let result = match command {
        "run" => parse_spec(args).and_then(|spec| cmd_run(args, &spec)),
        "sca-run" => parse_sca_spec(args).and_then(|spec| cmd_run(args, &spec)),
        "resume" => results_file(args).and_then(|(path, sca)| {
            if sca {
                cmd_resume::<ScaCampaignSpec>(args, &path)
            } else {
                cmd_resume::<CampaignSpec>(args, &path)
            }
        }),
        "report" => results_file(args).and_then(|(path, sca)| {
            if sca {
                cmd_report::<ScaCampaignSpec>(args, &path)
            } else {
                cmd_report::<CampaignSpec>(args, &path)
            }
        }),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand '{other}'\n{USAGE}")),
    };
    if let Some(monitor) = monitor {
        monitor.finish();
    }
    if tsc3d_exec::fault::is_armed() {
        let fired = tsc3d_exec::fault::disarm();
        log_info!("campaign", "fault harness: {} fault(s) fired", fired.len());
        if let Some(path) = &fault_log {
            write_fault_log(path, &fired);
        }
    }
    if let Some(path) = &trace_out {
        write_trace(path);
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Writes the fired-fault log as JSONL (one `{site, hit, action}` object per line) —
/// the CI chaos-smoke artifact. Always written when requested, even if empty: an empty
/// log proves the plan did not fire.
fn write_fault_log(path: &PathBuf, fired: &[tsc3d_exec::fault::FaultRecord]) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    let mut lines = String::new();
    for record in fired {
        lines.push_str(&format!(
            "{{\"site\":\"{}\",\"hit\":{},\"action\":\"{}\"}}\n",
            record.site, record.hit, record.action
        ));
    }
    match std::fs::write(path, lines) {
        Ok(()) => log_info!(
            "campaign",
            "wrote {} fired fault(s) to {}",
            fired.len(),
            path.display()
        ),
        Err(e) => log_error!(
            "campaign",
            "could not write fault log to {}: {e}",
            path.display()
        ),
    }
}

/// Drains the span collector to `path` as JSONL; render with `obs report PATH`.
fn write_trace(path: &PathBuf) {
    let spans = tsc3d_obs::drain_spans();
    let dropped = tsc3d_obs::dropped_spans();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match std::fs::write(path, tsc3d_obs::spans_to_jsonl(&spans)) {
        Ok(()) => log_info!(
            "campaign",
            "wrote {} spans to {} ({dropped} dropped); render with `obs report`",
            spans.len(),
            path.display()
        ),
        Err(e) => log_error!(
            "campaign",
            "could not write trace to {}: {e}",
            path.display()
        ),
    }
}

const USAGE: &str = "usage:
  campaign run     [--benchmarks a,b] [--setups pa,tsc] [--seeds 1,2,3 | --runs N [--seed-base S]]
                   [--stages N] [--moves N] [--grid-bins N] [--verification-bins N]
                   [--sweep-tsv-budget a,b] [--paper] [--smoke] [--csv PATH]
                   [--out FILE] [--workers N] [--shard K/N] [--report-out PATH]
                   [--retries N] [--retry-on kinds] [--job-deadline-ms MS] [--fsync]
                   [--fault-plan SPEC] [--fault-log PATH]
                   [--trace-out PATH] [--progress] [--events-out PATH]
  campaign sca-run [--benchmarks a,b] [--seeds 1,2] [--key-seeds 11,12] [--traces N]
                   [--noise a,b] [--stages N] [--moves N] [--grid-bins N]
                   [--verification-bins N] [--paper] [--smoke]
                   [--out FILE] [--workers N] [--shard K/N] [--report-out PATH]
                   [--retries N] [--retry-on kinds] [--job-deadline-ms MS] [--fsync]
                   [--fault-plan SPEC] [--fault-log PATH]
                   [--trace-out PATH] [--progress] [--events-out PATH]
  campaign resume  --out FILE [--workers N] [--shard K/N] [--csv PATH] [--report-out PATH]
                   [--trace-out PATH] [--progress] [--events-out PATH]
  campaign report  --out FILE [--csv PATH] [--report-out PATH]

  resume and report take the job kind (flow or sca) from the results file's header;
  --csv writes the aggregate table of a flow campaign, --report-out the printed report.

  --progress renders a live one-line status on stderr; --events-out PATH writes the
  full progress-event stream (job/stage/progress/checkpoint/eta) as JSONL.

  fault tolerance: --retries N bounds attempts per job (default 3); --retry-on lists
  the failure kinds worth re-running (default panic,fault-injected,deadline);
  --job-deadline-ms bounds each attempt's wall clock; --fsync syncs every record line
  to disk. chaos testing: --fault-plan takes comma-separated site:hit:action entries
  (action: panic | error | delay:<ms>; sites: flow-stage, sa-epoch, solver-sweep,
  sca-batch, exec-worker) and --fault-log PATH writes the fired faults as JSONL.";

/// Parses `--flag value` from an argument list.
fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn arg_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn parse_usize(args: &[String], flag: &str) -> Result<Option<usize>, String> {
    arg_value(args, flag)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("{flag} expects an integer, got '{v}'"))
        })
        .transpose()
}

fn parse_options(args: &[String]) -> Result<CampaignOptions, String> {
    let workers =
        parse_usize(args, "--workers")?.unwrap_or_else(tsc3d::experiment::default_workers);
    let shard = match arg_value(args, "--shard") {
        None => Shard::full(),
        Some(text) => Shard::parse(&text)
            .ok_or_else(|| format!("--shard expects K/N with K < N, got '{text}'"))?,
    };
    let mut retry = JobRetryPolicy::default();
    if let Some(attempts) = parse_usize(args, "--retries")? {
        if attempts == 0 {
            return Err("--retries expects at least 1 attempt".into());
        }
        retry.max_attempts = attempts as u32;
    }
    if let Some(kinds) = arg_value(args, "--retry-on") {
        retry.retry_on = kinds
            .split(',')
            .map(|k| k.trim().to_string())
            .filter(|k| !k.is_empty())
            .collect();
    }
    if let Some(ms) = parse_usize(args, "--job-deadline-ms")? {
        retry.attempt_deadline_ms = Some(ms as u64);
    }
    let mut options = CampaignOptions::in_memory(workers);
    options.shard = shard;
    options.results_path = arg_value(args, "--out").map(PathBuf::from);
    options.retry = retry;
    options.fsync = arg_present(args, "--fsync");
    Ok(options)
}

/// Builds the campaign spec from `run` flags.
fn parse_spec(args: &[String]) -> Result<CampaignSpec, String> {
    if arg_present(args, "--smoke") {
        return Ok(smoke_spec());
    }

    let benchmarks = match arg_value(args, "--benchmarks") {
        None => vec![Benchmark::N100],
        Some(spec) => spec
            .split(',')
            .map(|name| {
                Benchmark::from_name(name.trim())
                    .ok_or_else(|| format!("unknown benchmark '{}'", name.trim()))
            })
            .collect::<Result<_, _>>()?,
    };

    let setups = match arg_value(args, "--setups") {
        None => vec![Setup::PowerAware, Setup::TscAware],
        Some(spec) => spec
            .split(',')
            .map(|name| match name.trim().to_ascii_lowercase().as_str() {
                "pa" | "power-aware" => Ok(Setup::PowerAware),
                "tsc" | "tsc-aware" => Ok(Setup::TscAware),
                other => Err(format!("unknown setup '{other}' (use pa or tsc)")),
            })
            .collect::<Result<_, _>>()?,
    };

    let seeds: Vec<u64> = match arg_value(args, "--seeds") {
        Some(spec) => spec
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| format!("--seeds expects integers, got '{}'", s.trim()))
            })
            .collect::<Result<_, _>>()?,
        None => {
            let runs = parse_usize(args, "--runs")?.unwrap_or(3);
            let base = arg_value(args, "--seed-base")
                .map(|v| {
                    v.parse::<u64>()
                        .map_err(|_| format!("--seed-base expects an integer, got '{v}'"))
                })
                .transpose()?
                .unwrap_or(1);
            (0..runs as u64).map(|r| base + r).collect()
        }
    };

    let paper = arg_present(args, "--paper");
    let mut power_aware = if paper {
        FlowConfig::paper(Setup::PowerAware)
    } else {
        FlowConfig::quick(Setup::PowerAware)
    };
    let mut tsc_aware = if paper {
        FlowConfig::paper(Setup::TscAware)
    } else {
        FlowConfig::quick(Setup::TscAware)
    };
    for config in [&mut power_aware, &mut tsc_aware] {
        if let Some(stages) = parse_usize(args, "--stages")? {
            config.schedule.stages = stages;
        }
        if let Some(moves) = parse_usize(args, "--moves")? {
            config.schedule.moves_per_stage = moves;
        }
        if let Some(bins) = parse_usize(args, "--grid-bins")? {
            config.schedule.grid_bins = bins;
        }
        if let Some(bins) = parse_usize(args, "--verification-bins")? {
            config.verification_bins = bins;
        }
    }

    let mut overrides = vec![OverrideSet::base()];
    if let Some(budgets) = arg_value(args, "--sweep-tsv-budget") {
        for budget in budgets.split(',') {
            let budget: usize = budget
                .trim()
                .parse()
                .map_err(|_| format!("--sweep-tsv-budget expects integers, got '{budget}'"))?;
            let mut set = OverrideSet::base();
            set.name = format!("tsv-budget-{budget}");
            set.tsv_budget = Some(budget);
            overrides.push(set);
        }
    }

    Ok(CampaignSpec {
        benchmarks,
        setups,
        seeds,
        overrides,
        power_aware,
        tsc_aware,
    })
}

/// The CI smoke preset: two designs, both setups, two seeds each, tiny schedules.
fn smoke_spec() -> CampaignSpec {
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

/// What the CLI prints for one job kind.
trait CliKind: JobKind {
    /// The default results file of the `--smoke` preset.
    const SMOKE_OUT: &'static str;

    /// The spec's axes, for the log.
    fn describe(&self) -> String;

    /// The aggregated report of the records; writes `--csv` where the kind has a table.
    fn report(args: &[String], records: &[Self::Record]) -> Result<String, String>;
}

impl CliKind for CampaignSpec {
    const SMOKE_OUT: &'static str = "target/campaign/smoke.jsonl";

    fn describe(&self) -> String {
        format!(
            "{} jobs ({} benchmarks × {} setups × {} seeds × {} overrides)",
            self.job_count(),
            self.benchmarks.len(),
            self.setups.len(),
            self.seeds.len(),
            self.overrides.len(),
        )
    }

    fn report(args: &[String], records: &[Self::Record]) -> Result<String, String> {
        let summary = aggregate(records);
        write_if_requested(args, "--csv", &render_csv(&summary))?;
        Ok(render_report(&summary))
    }
}

impl CliKind for ScaCampaignSpec {
    const SMOKE_OUT: &'static str = "target/campaign/sca-smoke.jsonl";

    fn describe(&self) -> String {
        format!(
            "sca: {} jobs ({} benchmarks × {} seeds × {} keys × {} sensors × {} mitigations)",
            self.job_count(),
            self.benchmarks.len(),
            self.seeds.len(),
            self.key_seeds.len(),
            self.sensors.len(),
            self.mitigations.len(),
        )
    }

    fn report(args: &[String], records: &[Self::Record]) -> Result<String, String> {
        if arg_present(args, "--csv") {
            return Err("--csv applies to flow campaigns only".into());
        }
        Ok(render_sca_report(&aggregate_sca(records)))
    }
}

fn cmd_run<K: CliKind>(args: &[String], spec: &K) -> Result<(), String> {
    let mut options = parse_options(args)?;
    if arg_present(args, "--smoke") {
        if options.results_path.is_none() {
            // The smoke preset must be re-runnable in CI without manual cleanup, so its
            // *default* results file is disposable; a user-supplied --out is never
            // deleted (an existing file is refused like any other run).
            let _ = std::fs::remove_file(K::SMOKE_OUT);
            options.results_path = Some(PathBuf::from(K::SMOKE_OUT));
        }
        if parse_usize(args, "--workers")?.is_none() {
            options.workers = 4;
        }
    }
    log_spec(spec, &options);
    let outcome = run_campaign(spec, &options).map_err(|e| e.to_string())?;
    finish(args, &options, &outcome)
}

/// The `--out` file of `resume`/`report`, and whether its header is an sca campaign's
/// (anything else reads as a flow campaign, whose reader reports a missing header).
fn results_file(args: &[String]) -> Result<(PathBuf, bool), String> {
    let path = PathBuf::from(arg_value(args, "--out").ok_or("--out FILE is required")?);
    let file =
        std::fs::File::open(&path).map_err(|e| format!("results file {}: {e}", path.display()))?;
    let mut header = String::new();
    std::io::BufReader::new(file)
        .read_line(&mut header)
        .map_err(|e| format!("results file {}: {e}", path.display()))?;
    let sca = Json::parse(header.trim())
        .is_ok_and(|header| header.get(ScaCampaignSpec::HEADER_KEY).is_some());
    Ok((path, sca))
}

/// One read of the results file: spec from the header, completed jobs skipped, torn
/// tail repaired. Without an explicit --shard the file's own shard is restored, so a
/// sharded campaign never resumes into the other shards' jobs.
fn cmd_resume<K: CliKind>(args: &[String], path: &Path) -> Result<(), String> {
    let mut options = parse_options(args)?;
    let shard_override = arg_value(args, "--shard").map(|_| options.shard);
    let (spec, outcome) = resume_results_file::<K>(path, options.workers, shard_override)
        .map_err(|e| e.to_string())?;
    options.shard = outcome.shard;
    log_spec(&spec, &options);
    finish(args, &options, &outcome)
}

fn log_spec<K: CliKind>(spec: &K, options: &CampaignOptions) {
    log_info!(
        "campaign",
        "{}, shard {}, {} workers",
        spec.describe(),
        options.shard,
        options.workers,
    );
}

fn finish<K: CliKind>(
    args: &[String],
    options: &CampaignOptions,
    outcome: &CampaignOutcome<K>,
) -> Result<(), String> {
    log_info!(
        "campaign",
        "{}: executed {} job(s), resumed {} from file, {} outside this shard",
        K::LABEL,
        outcome.executed,
        outcome.resumed,
        outcome.out_of_shard
    );
    if let Some(path) = &options.results_path {
        log_info!("campaign", "results: {}", path.display());
    }
    let report = K::report(args, &outcome.records)?;
    write_if_requested(args, "--report-out", &report)?;
    print!("\n{report}");
    Ok(())
}

fn cmd_report<K: CliKind>(args: &[String], path: &Path) -> Result<(), String> {
    let file = read_results_file::<K>(path).map_err(|e| e.to_string())?;
    if file.truncated_tail {
        log_warn!(
            "campaign",
            "{} ends in a truncated line (killed campaign?); resume will rerun that job",
            path.display()
        );
    }
    let report = K::report(args, &file.records)?;
    write_if_requested(args, "--report-out", &report)?;
    print!("{report}");
    Ok(())
}

/// Builds an sca campaign spec from `sca-run` flags.
///
/// `--smoke` selects the calibrated CI preset as the *base*; explicit flags still apply
/// on top (so `--smoke --traces 96` runs the preset at 96 traces rather than silently
/// ignoring the flag). Without `--smoke`, the base is the full quick (or `--paper`)
/// TSC-aware flow with the calibrated noise-limited attack regime.
fn parse_sca_spec(args: &[String]) -> Result<ScaCampaignSpec, String> {
    let smoke = arg_present(args, "--smoke");
    let parse_u64_list = |flag: &str| -> Result<Option<Vec<u64>>, String> {
        match arg_value(args, flag) {
            None => Ok(None),
            Some(spec) => spec
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .map_err(|_| format!("{flag} expects integers, got '{}'", s.trim()))
                })
                .collect::<Result<_, _>>()
                .map(Some),
        }
    };

    let mut spec = if smoke {
        ScaCampaignSpec::smoke()
    } else {
        let mut spec = ScaCampaignSpec::new(vec![Benchmark::N200], vec![1]);
        spec.attack = tsc3d_sca::AttackConfig::smoke();
        if arg_present(args, "--paper") {
            spec.flow = FlowConfig::paper(Setup::TscAware);
        }
        spec
    };
    if let Some(names) = arg_value(args, "--benchmarks") {
        spec.benchmarks = names
            .split(',')
            .map(|name| {
                Benchmark::from_name(name.trim())
                    .ok_or_else(|| format!("unknown benchmark '{}'", name.trim()))
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(seeds) = parse_u64_list("--seeds")? {
        spec.seeds = seeds;
    }
    if let Some(key_seeds) = parse_u64_list("--key-seeds")? {
        spec.key_seeds = key_seeds;
    }
    if let Some(stages) = parse_usize(args, "--stages")? {
        spec.flow.schedule.stages = stages;
    }
    if let Some(moves) = parse_usize(args, "--moves")? {
        spec.flow.schedule.moves_per_stage = moves;
    }
    if let Some(bins) = parse_usize(args, "--grid-bins")? {
        spec.flow.schedule.grid_bins = bins;
    }
    if let Some(bins) = parse_usize(args, "--verification-bins")? {
        spec.flow.verification_bins = bins;
    }
    if let Some(traces) = parse_usize(args, "--traces")? {
        spec.attack.traces = traces;
        spec.attack.mtd_checkpoints = traces;
    }
    if let Some(noise) = arg_value(args, "--noise") {
        let mut sensors = Vec::new();
        for sigma in noise.split(',') {
            let sigma: f64 = sigma
                .trim()
                .parse()
                .map_err(|_| format!("--noise expects numbers, got '{}'", sigma.trim()))?;
            let mut config = spec.attack.sensors;
            config.sigma_k = sigma;
            sensors.push(ScaSensorSet {
                name: format!("sigma-{sigma}"),
                config,
            });
        }
        spec.sensors = sensors;
    } else if !smoke {
        spec.sensors = vec![ScaSensorSet {
            name: format!("sigma-{}", spec.attack.sensors.sigma_k),
            config: spec.attack.sensors,
        }];
    }
    // Refuse a bad value before any job runs (and before a results file exists): each job
    // would otherwise run the shared flow only to fail its attack.
    spec.flow.validate().map_err(|e| e.to_string())?;
    for set in &spec.sensors {
        let mut attack = spec.attack;
        attack.sensors = set.config;
        attack
            .validate()
            .map_err(|e| format!("sensor set '{}': {e}", set.name))?;
    }
    Ok(spec)
}

/// Writes `content` to the path given with `flag` (if any) alongside stdout — the
/// CI-artifact path of `--report-out` and `--csv`.
fn write_if_requested(args: &[String], flag: &str, content: &str) -> Result<(), String> {
    let Some(path) = arg_value(args, flag) else {
        return Ok(());
    };
    let path = PathBuf::from(path);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("could not create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(&path, content)
        .map_err(|e| format!("could not write {}: {e}", path.display()))?;
    log_info!("campaign", "{flag}: {}", path.display());
    Ok(())
}
