//! The campaign engine: expands a spec of any [`JobKind`] into jobs, filters them by
//! shard, skips jobs that already have a record (resume), executes the rest on the
//! shared FIFO pool ([`tsc3d::exec`]) and streams every finished job to the
//! results sink.

use crate::job::{CampaignSpec, Shard};
use crate::kind::JobKind;
use crate::retry::{is_cancellation_kind, Attempt, JobRetryPolicy};
use crate::sca::ScaCampaignSpec;
use crate::sink::{read_results_file, repair_torn_tail, CampaignFile, ResultSink, SinkError};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use tsc3d::exec::{CancelToken, Pool};
use tsc3d_obs::Metric;

/// Execution options of a campaign run.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Number of worker threads.
    pub workers: usize,
    /// The shard of the job space this process runs.
    pub shard: Shard,
    /// Path of the JSONL results file; `None` keeps results in memory only.
    pub results_path: Option<PathBuf>,
    /// Resume mode: load the results file and skip jobs that already completed. Without
    /// resume, an existing results file is an error (refusing to silently mix campaigns).
    pub resume: bool,
    /// Per-job retry/backoff/quarantine policy (see [`JobRetryPolicy`]).
    pub retry: JobRetryPolicy,
    /// Campaign-wide cancel token: once it fires, queued jobs are skipped (left
    /// record-less, so a resume re-runs them) and in-flight jobs stop at their next
    /// checkpoint.
    pub cancel: CancelToken,
    /// Sync every appended record line to disk (`fsync`) instead of just flushing to the
    /// OS — per-line crash durability at a per-job I/O cost.
    pub fsync: bool,
}

impl CampaignOptions {
    /// In-memory execution on `workers` threads (no results file, full shard, default
    /// retry policy, no cancellation, no fsync).
    pub fn in_memory(workers: usize) -> Self {
        Self {
            workers,
            shard: Shard::full(),
            results_path: None,
            resume: false,
            retry: JobRetryPolicy::default(),
            cancel: CancelToken::new(),
            fsync: false,
        }
    }
}

/// Outcome of a campaign run of kind `K`.
#[derive(Debug)]
pub struct CampaignOutcome<K: JobKind> {
    /// All records of this shard — prior (resumed) and newly executed — sorted by job id.
    pub records: Vec<K::Record>,
    /// Number of jobs executed by this run.
    pub executed: usize,
    /// Number of jobs skipped because the results file already had their record.
    pub resumed: usize,
    /// Number of jobs outside this shard.
    pub out_of_shard: usize,
    /// The shard the run actually executed (on a bare resume, restored from the file
    /// header rather than the caller's default).
    pub shard: Shard,
}

/// Errors of the campaign engine.
#[derive(Debug)]
pub enum CampaignError {
    /// The results file could not be read or written.
    Sink(SinkError),
    /// The results file exists but resume was not requested.
    WouldOverwrite {
        /// The existing file.
        path: PathBuf,
    },
    /// The results file does not belong to this campaign spec.
    SpecMismatch {
        /// Description of the first divergence.
        reason: String,
    },
    /// The spec expands to no jobs (empty benchmark/seed/setup/override axis).
    EmptySpec,
    /// The spec holds a value its jobs would refuse ([`JobKind::validate`]).
    InvalidSpec {
        /// The first problem found.
        reason: String,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Sink(e) => write!(f, "{e}"),
            CampaignError::WouldOverwrite { path } => write!(
                f,
                "results file {} already exists; use resume (or remove it) instead of overwriting",
                path.display()
            ),
            CampaignError::SpecMismatch { reason } => {
                write!(f, "results file does not match the campaign spec: {reason}")
            }
            CampaignError::EmptySpec => write!(f, "the campaign spec expands to zero jobs"),
            CampaignError::InvalidSpec { reason } => write!(f, "{reason}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Sink(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SinkError> for CampaignError {
    fn from(e: SinkError) -> Self {
        CampaignError::Sink(e)
    }
}

/// Jobs enqueued for execution (resumed records do not count).
static QUEUED: Metric = Metric::new(
    "tsc3d_campaign_jobs_queued_total",
    "Campaign jobs enqueued for execution",
);
static RESUMED: Metric = Metric::new(
    "tsc3d_campaign_jobs_resumed_total",
    "Campaign jobs skipped on resume (record already on disk)",
);
static DONE: Metric = Metric::new(
    "tsc3d_campaign_jobs_done_total",
    "Campaign jobs that ran to completion (success or typed failure)",
);

/// Bumps the per-kind failure family (`tsc3d_campaign_job_failures_total{kind=...}`).
fn record_failure(kind: &str) {
    tsc3d_obs::global()
        .counter_with(
            "tsc3d_campaign_job_failures_total",
            "Campaign job failures by FlowError/ScaError kind",
            &[("kind", kind)],
        )
        .inc();
}

/// Holds one job attempt in the `tsc3d_campaign_jobs_running` gauge until it drops, so
/// a panicking attempt cannot leak a permanently "running" job.
struct Running(tsc3d_obs::Gauge);

impl Running {
    fn enter() -> Running {
        let gauge = tsc3d_obs::global().gauge(
            "tsc3d_campaign_jobs_running",
            "Campaign jobs currently executing",
        );
        gauge.add(1.0);
        Running(gauge)
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.0.add(-1.0);
    }
}

/// Runs one attempt of a job and keeps the job lifecycle metrics.
fn execute_attempt<K: JobKind>(
    spec: &K,
    job: &K::Job,
    context: &K::Context,
    attempt: &Attempt,
) -> K::Record {
    let running = Running::enter();
    let record = spec.execute(job, context, attempt);
    drop(running);
    DONE.inc();
    if let Some(kind) = K::failure_kind(&record) {
        record_failure(kind);
    }
    record
}

/// Executes one job under a [`JobRetryPolicy`]: panics are contained as typed `panic`
/// failures, retryable kinds re-run with seeded backoff, and a job that exhausts its
/// attempts is quarantined — its typed failure returned while the campaign continues.
///
/// A retried-then-succeeded job re-runs the identical seeded computation, so its record
/// is indistinguishable from a first-try success.
fn execute_with_retry<K: JobKind>(
    spec: &K,
    job: &K::Job,
    context: &K::Context,
    policy: &JobRetryPolicy,
    cancel: &CancelToken,
) -> K::Record {
    let (record, _attempts) = crate::retry::run_attempts(
        policy,
        K::run_seed(job),
        cancel,
        |attempt| execute_attempt(spec, job, context, attempt),
        |record| K::failure_kind(record).map(str::to_string),
        |message| {
            record_failure("panic");
            K::panic_record(job, message)
        },
    );
    record
}

/// Runs (or resumes) a campaign of the spec's kind.
///
/// Completed jobs stream to the results file as they finish; the returned outcome holds
/// every record of this shard sorted by job id. Job failures are *data*, not errors —
/// the campaign always runs to completion and the aggregation layer counts failures per
/// kind.
///
/// # Errors
///
/// Returns a [`CampaignError`] when the spec is empty, the results file cannot be
/// read/written, it already exists without `resume`, or it belongs to a different spec.
pub fn run_campaign<K: JobKind>(
    spec: &K,
    options: &CampaignOptions,
) -> Result<CampaignOutcome<K>, CampaignError> {
    let pool = Pool::with_batch_workers(options.workers);
    let outcome = run_campaign_on(&pool, spec, options);
    pool.shutdown();
    outcome
}

/// [`run_campaign`] on a caller-provided (typically long-lived, shared) pool — the serve
/// daemon's entry point, where one persistent executor backs every submitted campaign.
/// `options.workers` is ignored in favour of the pool's own parallelism.
///
/// # Errors
///
/// Same contract as [`run_campaign`].
pub fn run_campaign_on<K: JobKind>(
    pool: &Pool,
    spec: &K,
    options: &CampaignOptions,
) -> Result<CampaignOutcome<K>, CampaignError> {
    // A killed campaign can leave a torn final line; cut it off *before* reading so the
    // prior-record set and the file agree (a torn fragment that happens to parse must not
    // count as completed and then be truncated), and so appended records start on a
    // fresh line.
    let prior_file = match options.results_path.as_deref() {
        Some(path) if options.resume && path.exists() => {
            repair_torn_tail(path)?;
            Some(read_results_file(path)?)
        }
        _ => None,
    };
    // Resuming a sharded file with the default (full) shard restores the file's own
    // shard: re-executing the other shards' jobs would duplicate work already owned by
    // other machines and double-count records when the per-shard files are concatenated.
    // An explicit non-full shard in `options` still wins.
    let mut options = options.clone();
    if options.shard == Shard::full() {
        if let Some(file_shard) = prior_file.as_ref().and_then(|f| f.shard) {
            options.shard = file_shard;
        }
    }
    run_with_prior(pool, spec, &options, prior_file)
}

/// Resumes a flow campaign from its results file ([`resume_results_file`] for
/// [`CampaignSpec`]).
///
/// # Errors
///
/// Same contract as [`resume_results_file`].
pub fn resume_from_file(
    path: &Path,
    workers: usize,
    shard_override: Option<Shard>,
) -> Result<(CampaignSpec, CampaignOutcome<CampaignSpec>), CampaignError> {
    resume_results_file(path, workers, shard_override)
}

/// Resumes an sca campaign from its results file ([`resume_results_file`] for
/// [`ScaCampaignSpec`]).
///
/// # Errors
///
/// Same contract as [`resume_results_file`].
pub fn resume_sca_from_file(
    path: &Path,
    workers: usize,
    shard_override: Option<Shard>,
) -> Result<(ScaCampaignSpec, CampaignOutcome<ScaCampaignSpec>), CampaignError> {
    resume_results_file(path, workers, shard_override)
}

/// Resumes a campaign of kind `K` from its self-describing results file: repairs a torn
/// tail, reads the file once, rebuilds the spec from the header, validates it and runs
/// the jobs without a record. Returns the spec alongside the outcome.
///
/// # Errors
///
/// Returns a [`CampaignError`] when the file cannot be read/repaired, has no `K` header
/// (a file of another kind is corrupt as a `K` file), its header's spec fails
/// [`JobKind::validate`] (then no job runs and nothing is appended), or its records do
/// not match the header's spec.
pub fn resume_results_file<K: JobKind>(
    path: &Path,
    workers: usize,
    shard_override: Option<Shard>,
) -> Result<(K, CampaignOutcome<K>), CampaignError> {
    repair_torn_tail(path)?;
    let file = read_results_file::<K>(path)?;
    let spec = file
        .spec
        .clone()
        .ok_or_else(|| CampaignError::SpecMismatch {
            reason: format!("{} has no `{}` header", path.display(), K::HEADER_KEY),
        })?;
    spec.validate()
        .map_err(|reason| CampaignError::InvalidSpec { reason })?;
    // Without an explicit override, a sharded file resumes its own shard — never the
    // other shards' jobs (those belong to the other machines' files).
    let shard = shard_override.or(file.shard).unwrap_or_else(Shard::full);
    let options = CampaignOptions {
        shard,
        results_path: Some(path.to_path_buf()),
        resume: true,
        ..CampaignOptions::in_memory(workers)
    };
    let pool = Pool::with_batch_workers(workers);
    let outcome = run_with_prior(&pool, &spec, &options, Some(file));
    pool.shutdown();
    Ok((spec, outcome?))
}

/// The execution core shared by [`run_campaign_on`] and [`resume_results_file`];
/// `prior_file` is the already-read (and tail-repaired) results file of a resume, `None`
/// for a fresh run.
fn run_with_prior<K: JobKind>(
    pool: &Pool,
    spec: &K,
    options: &CampaignOptions,
    prior_file: Option<CampaignFile<K>>,
) -> Result<CampaignOutcome<K>, CampaignError> {
    let jobs = spec.expand();
    if jobs.is_empty() {
        return Err(CampaignError::EmptySpec);
    }
    let total = jobs.len();
    let sharded: Vec<K::Job> = jobs
        .into_iter()
        .filter(|job| options.shard.contains(K::job_id(job)))
        .collect();
    let out_of_shard = total - sharded.len();

    // Resume: retain the prior records matching this spec's jobs.
    let prior: BTreeMap<u64, K::Record> = match &prior_file {
        Some(file) => load_prior_records(file, spec, &sharded)?,
        None => BTreeMap::new(),
    };

    let pending: Vec<K::Job> = sharded
        .into_iter()
        .filter(|job| !prior.contains_key(&K::job_id(job)))
        .collect();

    let sink: Arc<Option<ResultSink>> = Arc::new(match options.results_path.as_deref() {
        None => None,
        Some(path) => Some(if prior_file.is_some() {
            ResultSink::append_to(path, options.fsync)?
        } else if path.exists() {
            return Err(CampaignError::WouldOverwrite {
                path: path.to_path_buf(),
            });
        } else {
            ResultSink::create(path, spec, options.shard, options.fsync)?
        }),
    });

    // Execute on the shared pool, streaming each record to the sink as it lands. The
    // first sink failure (e.g. a full disk) aborts the remaining jobs — results that
    // cannot be persisted are not worth hours of compute — and is surfaced after the
    // batch drains.
    let sink_error: Arc<Mutex<Option<SinkError>>> = Arc::new(Mutex::new(None));
    let abort = Arc::new(AtomicBool::new(false));
    let executed = pending.len();
    QUEUED.add(executed as u64);
    RESUMED.add(prior.len() as u64);
    let eta = Arc::new(crate::progress::EtaTracker::new(executed, pool.threads()));
    let new_records = {
        let sink = Arc::clone(&sink);
        let sink_error = Arc::clone(&sink_error);
        let abort = Arc::clone(&abort);
        let eta = Arc::clone(&eta);
        let spec = spec.clone();
        let context = K::Context::default();
        let retry = options.retry.clone();
        let cancel = options.cancel.clone();
        pool.run_batch(pending, move |_, job| {
            // A fired campaign token drops queued jobs without a record, so a later
            // resume re-runs them — same contract as a killed process.
            if abort.load(Ordering::Relaxed) || cancel.is_cancelled().is_some() {
                return None;
            }
            let record = crate::progress::run_job_instrumented(
                K::job_id(&job),
                K::LABEL,
                &eta,
                || execute_with_retry(&spec, &job, &context, &retry, &cancel),
                |record| K::failure_kind(record).is_some(),
            );
            // An in-flight job interrupted by the campaign token is also left
            // record-less: persisting its `cancelled` failure would make the resume
            // skip it forever.
            if let Some(kind) = K::failure_kind(&record) {
                if cancel.is_cancelled().is_some() && is_cancellation_kind(kind) {
                    return None;
                }
            }
            if let Some(sink) = sink.as_ref() {
                if let Err(e) = sink.append_line(&K::record_to_line(&record)) {
                    sink_error.lock().expect("sink error slot").get_or_insert(e);
                    abort.store(true, Ordering::Relaxed);
                }
            }
            Some(record)
        })
    };
    if let Some(e) = sink_error.lock().expect("sink error slot").take() {
        return Err(e.into());
    }
    let new_records = new_records.into_iter().flatten();

    let resumed = prior.len();
    let mut records: Vec<K::Record> = prior.into_values().chain(new_records).collect();
    records.sort_by_key(K::record_id);
    Ok(CampaignOutcome {
        records,
        executed,
        resumed,
        out_of_shard,
        shard: options.shard,
    })
}

/// Validates the prior records of a resumed campaign against the spec's expansion.
fn load_prior_records<K: JobKind>(
    file: &CampaignFile<K>,
    spec: &K,
    sharded: &[K::Job],
) -> Result<BTreeMap<u64, K::Record>, CampaignError> {
    if file
        .spec
        .as_ref()
        .is_some_and(|file_spec| file_spec != spec)
    {
        return Err(CampaignError::SpecMismatch {
            reason: "the file header's spec differs from the requested spec".into(),
        });
    }
    let by_id: BTreeMap<u64, &K::Job> = sharded.iter().map(|j| (K::job_id(j), j)).collect();
    let mut prior = BTreeMap::new();
    for record in &file.records {
        let id = K::record_id(record);
        match by_id.get(&id) {
            Some(job) if K::record_matches(record, job) => {
                prior.insert(id, record.clone());
            }
            Some(_) => {
                return Err(CampaignError::SpecMismatch {
                    reason: format!(
                        "record of job {id} does not match the spec's expansion of that id"
                    ),
                });
            }
            // Records outside this shard (e.g. a file shared by several shards) are fine.
            None => {}
        }
    }
    Ok(prior)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc3d_netlist::suite::Benchmark;

    /// A spec small enough for unit tests: one tiny-schedule benchmark, one seed.
    fn tiny_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::new(vec![Benchmark::N100], vec![1]);
        for template in [&mut spec.power_aware, &mut spec.tsc_aware] {
            template.schedule.stages = 4;
            template.schedule.moves_per_stage = 8;
            template.schedule.grid_bins = 10;
            template.verification_bins = 10;
        }
        spec
    }

    #[test]
    fn in_memory_campaign_runs_all_jobs() {
        let spec = tiny_spec();
        let outcome = run_campaign(&spec, &CampaignOptions::in_memory(2)).unwrap();
        assert_eq!(outcome.executed, 2);
        assert_eq!(outcome.resumed, 0);
        assert_eq!(outcome.out_of_shard, 0);
        assert_eq!(outcome.records.len(), 2);
        // Records come back sorted by job id and carry the jobs' identities.
        assert_eq!(outcome.records[0].job_id, 0);
        assert_eq!(outcome.records[1].job_id, 1);
    }

    #[test]
    fn empty_spec_is_rejected() {
        let mut spec = tiny_spec();
        spec.seeds.clear();
        let err = run_campaign(&spec, &CampaignOptions::in_memory(1)).unwrap_err();
        assert!(matches!(err, CampaignError::EmptySpec));
    }

    #[test]
    fn resuming_a_file_of_the_other_kind_is_a_typed_error() {
        use crate::sink::tests::results_file;
        let flow_file = results_file::<CampaignSpec>("other-kind", &[0]);
        let sca_file = results_file::<ScaCampaignSpec>("other-kind", &[0]);
        let before = [&flow_file, &sca_file].map(|p| std::fs::read(p).unwrap());
        let errors = [
            resume_sca_from_file(&flow_file, 1, None).map(|_| ()),
            resume_from_file(&sca_file, 1, None).map(|_| ()),
        ];
        for err in errors {
            let err = err.unwrap_err();
            assert!(
                matches!(err, CampaignError::Sink(SinkError::Corrupt { line: 1, .. })),
                "{err}"
            );
            assert!(err.to_string().contains("another job kind"), "{err}");
        }
        // Nothing ran and nothing was appended.
        assert_eq!(
            [&flow_file, &sca_file].map(|p| std::fs::read(p).unwrap()),
            before
        );
        std::fs::remove_file(&flow_file).unwrap();
        std::fs::remove_file(&sca_file).unwrap();
    }

    #[test]
    fn existing_file_without_resume_is_refused() {
        let dir = std::env::temp_dir().join("tsc3d-campaign-engine-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("exists-{}.jsonl", std::process::id()));
        std::fs::write(&path, "{}\n").unwrap();
        let mut options = CampaignOptions::in_memory(1);
        options.results_path = Some(path.clone());
        let err = run_campaign(&tiny_spec(), &options).unwrap_err();
        assert!(matches!(err, CampaignError::WouldOverwrite { .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
