//! The job registry and executor: submission dedup, backpressure, execution on the
//! shared pool, persistence and cache fill.
//!
//! The registry is the serialization point of the API: one mutex over the job table and
//! the in-flight index makes the dedup decision atomic. The completion path publishes in
//! a fixed order — state file, disk index, result cache, *then* in-flight index removal —
//! so a concurrent submission always sees at least one of them (completed result or
//! dedup), never none.

use crate::cache::ResultCache;
use crate::metrics::Metrics;
use crate::payload::Payload;
use crate::state::StateFile;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tsc3d::exec::{CancelReason, CancelToken, Interrupt, Pool};
use tsc3d::{display_chain, FlowError, TscFlow};
use tsc3d_campaign::{
    aggregate, render_report, run_campaign_on, CampaignOptions, JobOutcome, JobRecord,
    ScaJobMetrics,
};
use tsc3d_netlist::suite::generate;
use tsc3d_obs::json::Json;
use tsc3d_sca::{run_verdict_with_cancel, ScaError};

/// Lifecycle of one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a pool worker.
    Queued,
    /// Executing.
    Running,
    /// Finished; the result body is available.
    Done,
    /// Failed internally (panic or engine error); `error` holds the reason.
    Failed,
    /// Interrupted before completion — `DELETE /v1/jobs/{id}`, a submission
    /// `deadline_ms`, or the drain watchdog; `error` holds which. Never cached or
    /// persisted: an interrupted evaluation is partial, and a later identical
    /// submission must re-run it.
    Cancelled,
}

impl JobState {
    /// The status label used in API responses.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// One entry of the job table.
#[derive(Debug, Clone)]
pub struct JobInfo {
    /// The job id (process-local, monotonically increasing).
    pub id: u64,
    /// The canonical cache key of the submission.
    pub key: Arc<str>,
    /// `"flow"`, `"campaign"` or `"sca"`.
    pub kind: &'static str,
    /// Lifecycle state.
    pub state: JobState,
    /// Whether the job completed without executing (cache hit at submission).
    pub cached: bool,
    /// The rendered result body (when `Done`).
    pub result: Option<Arc<String>>,
    /// The failure reason (when `Failed` or `Cancelled`).
    pub error: Option<String>,
    /// When the job was accepted (queue-wait metric anchor).
    pub submitted_at: Instant,
    /// The job's cancel flag. [`CancelToken`] clones share state, so a table snapshot
    /// can cancel the live job; the executing worker layers the submission deadline on
    /// top with [`CancelToken::with_deadline`] when the job actually starts.
    pub cancel: CancelToken,
    /// The execution deadline requested at submission (`deadline_ms`), measured from
    /// execution start — queue wait does not consume the budget.
    pub deadline: Option<Duration>,
}

/// The mutable core of the registry (one lock: dedup decisions are atomic).
///
/// The table is ordered by id ([`std::collections::BTreeMap`]) so settled jobs can be
/// pruned oldest-first: without pruning, a long-running daemon would accumulate one entry
/// (pinning its result body) per submission forever.
#[derive(Default)]
struct Table {
    jobs: std::collections::BTreeMap<u64, JobInfo>,
    /// Canonical key → job id, for queued/running jobs only.
    in_flight: HashMap<Arc<str>, u64>,
    next_id: u64,
    /// Queued + running jobs (the backpressure measure).
    pending: usize,
}

impl Table {
    fn allocate_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Evicts the oldest settled (done/failed/cancelled) jobs beyond `retained`.
    /// In-flight jobs are never pruned, and results stay reachable through the cache and
    /// the disk index — only the id-addressed status entry expires (a later
    /// `GET /v1/jobs/{id}` gets 404).
    fn prune_settled(&mut self, retained: usize) {
        while self.jobs.len() - self.pending > retained {
            let oldest_settled = self
                .jobs
                .iter()
                .find(|(_, job)| {
                    matches!(
                        job.state,
                        JobState::Done | JobState::Failed | JobState::Cancelled
                    )
                })
                .map(|(&id, _)| id);
            match oldest_settled {
                Some(id) => self.jobs.remove(&id),
                None => break,
            };
        }
    }
}

/// How a submission was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// A new job was enqueued.
    Enqueued,
    /// An identical job is already in flight; the caller joined it.
    Deduped,
    /// The result was already cached; the job is `Done` without executing.
    CacheHit,
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The queue is at capacity (`429`).
    Busy {
        /// The configured capacity.
        queue_cap: usize,
    },
    /// The server is draining (`503`).
    Draining,
}

/// How a `DELETE /v1/jobs/{id}` cancellation request was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was queued or running; its token fired and the job will settle
    /// `Cancelled` at its next cooperative checkpoint (`202`).
    Accepted,
    /// The job already settled in the given state — nothing to cancel (`409`).
    AlreadySettled(&'static str),
    /// No such job (`404`).
    NotFound,
}

/// Why a payload run produced no result body.
///
/// The split decides cacheability: an [`RunError::Interrupted`] run stopped at a
/// cooperative checkpoint with work left undone, so its (nonexistent) output must never
/// enter the result cache or the state file, while a [`RunError::Failed`] run is a
/// terminal error whose message is the result.
enum RunError {
    /// The job's token fired (cancellation, deadline or shutdown); the failure metric is
    /// recorded under the reason's kind.
    Interrupted {
        /// Why the token fired.
        reason: CancelReason,
        /// Human-readable description for the job's `error` field.
        message: String,
    },
    /// The payload failed for real (bad expansion, engine error).
    Failed(String),
}

impl From<String> for RunError {
    fn from(message: String) -> Self {
        RunError::Failed(message)
    }
}

impl From<&str> for RunError {
    fn from(message: &str) -> Self {
        RunError::Failed(message.to_string())
    }
}

/// The job subsystem: table + cache + persistence + pool.
pub struct JobService {
    pool: Pool,
    table: Mutex<Table>,
    cache: ResultCache,
    state: Option<StateFile>,
    /// Canonical key → state-file byte offset of *every* persisted result — results
    /// evicted from the bounded cache are re-read from disk instead of re-running.
    disk_index: Mutex<HashMap<Arc<str>, u64>>,
    metrics: Arc<Metrics>,
    queue_cap: usize,
    jobs_retained: usize,
}

impl JobService {
    /// Builds the service: `pool` executes jobs, `cache` serves repeats, `state` (if any)
    /// persists completions, and `seed_entries` (recovered from the state file) pre-fill
    /// the cache (newest win the LRU slots) and the disk index (which covers everything).
    pub fn new(
        pool: Pool,
        cache: ResultCache,
        state: Option<StateFile>,
        seed_entries: Vec<crate::state::StateEntry>,
        metrics: Arc<Metrics>,
        queue_cap: usize,
        jobs_retained: usize,
    ) -> Self {
        let mut disk_index = HashMap::with_capacity(seed_entries.len());
        for entry in seed_entries {
            disk_index.insert(Arc::clone(&entry.key), entry.offset);
            cache.insert(entry.key, entry.result, 1);
        }
        Self {
            pool,
            table: Mutex::new(Table::default()),
            cache,
            state,
            disk_index: Mutex::new(disk_index),
            metrics,
            queue_cap,
            jobs_retained,
        }
    }

    /// The worker pool (read-only observers: queue depth, active count).
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// The result cache (read-only observers).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Jobs queued or running.
    pub fn in_flight(&self) -> usize {
        self.table.lock().expect("job table").pending
    }

    /// A snapshot of one job.
    pub fn job(&self, id: u64) -> Option<JobInfo> {
        self.table.lock().expect("job table").jobs.get(&id).cloned()
    }

    /// Requests cancellation of one job (`DELETE /v1/jobs/{id}`). Firing the token is
    /// all this does — the job itself settles `Cancelled` when its worker observes the
    /// flag at the next cooperative checkpoint (stage boundary, SA epoch, solver sweep
    /// or sca trace batch), so the table stays consistent with what actually ran.
    pub fn cancel(&self, id: u64) -> CancelOutcome {
        let table = self.table.lock().expect("job table");
        match table.jobs.get(&id) {
            None => CancelOutcome::NotFound,
            Some(job) => match job.state {
                JobState::Queued | JobState::Running => {
                    job.cancel.cancel(CancelReason::User);
                    CancelOutcome::Accepted
                }
                settled => CancelOutcome::AlreadySettled(settled.label()),
            },
        }
    }

    /// Fires every queued or running job's token with `reason` (the drain watchdog's
    /// lever: a bounded shutdown cancels stragglers instead of waiting forever).
    /// Returns how many tokens fired.
    pub fn cancel_in_flight(&self, reason: CancelReason) -> usize {
        let table = self.table.lock().expect("job table");
        let mut fired = 0;
        for job in table.jobs.values() {
            if matches!(job.state, JobState::Queued | JobState::Running) {
                job.cancel.cancel(reason);
                fired += 1;
            }
        }
        fired
    }

    /// Submits a payload under its canonical key. Returns the job id and how the
    /// submission was admitted, or a typed refusal (backpressure). `deadline` bounds the
    /// job's *execution* wall clock (queue wait excluded); a job that overruns it settles
    /// [`JobState::Cancelled`] at its next cooperative checkpoint.
    ///
    /// # Errors
    ///
    /// [`Refusal::Busy`] when `queue_cap` jobs are already in flight, [`Refusal::Draining`]
    /// when the pool no longer accepts tasks.
    pub fn submit(
        self: &Arc<Self>,
        key: Arc<str>,
        payload: Payload,
        deadline: Option<Duration>,
    ) -> Result<(u64, Admission), Refusal> {
        let metrics = &self.metrics;
        let mut table = self.table.lock().expect("job table");

        if let Some(&id) = table.in_flight.get(&key) {
            metrics.jobs_submitted.inc();
            metrics.dedup_hits.inc();
            return Ok((id, Admission::Deduped));
        }
        // The cache/disk check must happen under the table lock *after* the in-flight
        // miss: completion publishes disk index and cache before clearing the in-flight
        // entry, so this order can never miss all of them. The disk fallback does read
        // one state-file line while holding the lock — accepted deliberately: the read is
        // a single seek of a line we wrote, and moving it outside the lock would reopen
        // the execute-once window the ordering exists to close.
        if let Some(result) = self.lookup_completed(&key) {
            let id = table.allocate_id();
            table.jobs.insert(
                id,
                JobInfo {
                    id,
                    key,
                    kind: payload.kind(),
                    state: JobState::Done,
                    cached: true,
                    result: Some(result),
                    error: None,
                    submitted_at: Instant::now(),
                    cancel: CancelToken::new(),
                    deadline: None,
                },
            );
            table.prune_settled(self.jobs_retained);
            metrics.jobs_submitted.inc();
            metrics.cache_hits.inc();
            return Ok((id, Admission::CacheHit));
        }
        if table.pending >= self.queue_cap {
            metrics.record_rejected("busy");
            return Err(Refusal::Busy {
                queue_cap: self.queue_cap,
            });
        }

        let id = table.allocate_id();
        table.jobs.insert(
            id,
            JobInfo {
                id,
                key: Arc::clone(&key),
                kind: payload.kind(),
                state: JobState::Queued,
                cached: false,
                result: None,
                error: None,
                submitted_at: Instant::now(),
                cancel: CancelToken::new(),
                deadline,
            },
        );
        table.in_flight.insert(Arc::clone(&key), id);
        table.pending += 1;
        drop(table);
        let kind = payload.kind();
        {
            let _scope = tsc3d_obs::JobScope::enter(id);
            tsc3d_obs::emit(|| tsc3d_obs::EventKind::Job {
                state: tsc3d_obs::JobState::Queued,
                label: kind.to_string(),
            });
        }

        let service = Arc::clone(self);
        let task_key = Arc::clone(&key);
        if let Err(closed) = self
            .pool
            .submit(move || service.execute(id, task_key, payload))
        {
            // The pool is draining and the job will never run. The entry is *settled as
            // failed*, not deleted: between the lock drop and here, a concurrent
            // identical submission may already have deduped onto this id — deleting it
            // would hand that client an id that 404s forever.
            let mut table = self.table.lock().expect("job table");
            if let Some(job) = table.jobs.get_mut(&id) {
                job.state = JobState::Failed;
                job.error = Some("the server is draining; the job was never started".into());
            }
            table.in_flight.remove(&key);
            table.pending -= 1;
            let _ = closed;
            metrics.record_rejected("draining");
            return Err(Refusal::Draining);
        }
        metrics.jobs_submitted.inc();
        Ok((id, Admission::Enqueued))
    }

    /// Finds the completed result of `key`: in-memory cache first, then the disk index (a
    /// result evicted from the bounded cache re-reads from the state file and re-enters
    /// the cache — never re-runs).
    fn lookup_completed(&self, key: &Arc<str>) -> Option<Arc<String>> {
        if let Some(result) = self.cache.get(key) {
            return Some(result);
        }
        let offset = *self.disk_index.lock().expect("disk index").get(key)?;
        let state = self.state.as_ref()?;
        match state.read_at(offset) {
            Ok(entry) if entry.key == *key => {
                self.cache
                    .insert(Arc::clone(key), Arc::clone(&entry.result), 1);
                Some(entry.result)
            }
            Ok(_) => {
                tsc3d_obs::log_warn!(
                    "serve",
                    "disk index entry at {offset} holds a different key; ignoring"
                );
                None
            }
            Err(e) => {
                tsc3d_obs::log_error!("serve", "could not re-read persisted result: {e}");
                None
            }
        }
    }

    /// Runs one job on a pool worker and publishes its result.
    fn execute(self: Arc<Self>, id: u64, key: Arc<str>, payload: Payload) {
        // Scope the worker thread to this job id: stage/progress events emitted
        // anywhere inside the flow run land on `GET /v1/jobs/{id}/events`.
        // (Work the payload fans out to other pool workers stays on job 0.)
        let _scope = tsc3d_obs::JobScope::enter(id);
        let kind = payload.kind();
        tsc3d_obs::emit(|| tsc3d_obs::EventKind::Job {
            state: tsc3d_obs::JobState::Started,
            label: kind.to_string(),
        });
        let (queued_for, cancel) = {
            let mut table = self.table.lock().expect("job table");
            let Some(job) = table.jobs.get_mut(&id) else {
                return;
            };
            job.state = JobState::Running;
            // The deadline budget starts here: queue wait is the server's fault, not
            // the client's, so it never consumes the submission's `deadline_ms`.
            let cancel = match job.deadline {
                Some(budget) => job.cancel.with_deadline(budget),
                None => job.cancel.clone(),
            };
            (job.submitted_at.elapsed(), cancel)
        };
        self.metrics
            .queue_wait
            .observe_secs(queued_for.as_secs_f64());

        let started = Instant::now();
        let outcome = {
            let _span = tsc3d_obs::span!("serve_job");
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.run_payload(&payload, &cancel)
            }))
        };
        self.metrics
            .job_latency
            .observe_secs(started.elapsed().as_secs_f64());
        // The terminal event must land *before* the table settles: an SSE job
        // stream disconnects `"complete"` once the table shows done/failed and
        // its poll comes back empty, which must imply this event was delivered.
        let succeeded = matches!(&outcome, Ok(Ok(_)));
        tsc3d_obs::emit(|| tsc3d_obs::EventKind::Job {
            state: if succeeded {
                tsc3d_obs::JobState::Finished
            } else {
                tsc3d_obs::JobState::Failed
            },
            label: kind.to_string(),
        });

        let mut table = self.table.lock().expect("job table");
        match outcome {
            Ok(Ok(result)) => {
                let result = Arc::new(result);
                // Persist first (flush-per-line: a kill after this point still serves the
                // result on restart), then disk index, then cache, then clear in-flight —
                // see the module doc for why this order makes dedup airtight.
                drop(table);
                if let Some(state) = &self.state {
                    match state.append(&key, &result) {
                        Ok(offset) => {
                            self.disk_index
                                .lock()
                                .expect("disk index")
                                .insert(Arc::clone(&key), offset);
                        }
                        Err(e) => tsc3d_obs::log_error!("serve", "could not persist job {id}: {e}"),
                    }
                }
                self.cache.insert(Arc::clone(&key), Arc::clone(&result), 1);
                table = self.table.lock().expect("job table");
                if let Some(job) = table.jobs.get_mut(&id) {
                    job.state = JobState::Done;
                    job.result = Some(result);
                }
                self.metrics.jobs_executed.inc();
            }
            Ok(Err(RunError::Interrupted { reason, message })) => {
                // Interrupted runs are partial: never persisted, never cached — a later
                // identical submission re-executes from scratch.
                if let Some(job) = table.jobs.get_mut(&id) {
                    job.state = JobState::Cancelled;
                    job.error = Some(message);
                }
                self.metrics.jobs_failed.inc();
                self.metrics.record_job_failure(reason.kind());
            }
            Ok(Err(RunError::Failed(message))) => {
                if let Some(job) = table.jobs.get_mut(&id) {
                    job.state = JobState::Failed;
                    job.error = Some(message);
                }
                self.metrics.jobs_failed.inc();
                self.metrics.record_job_failure("error");
            }
            Err(_panic) => {
                if let Some(job) = table.jobs.get_mut(&id) {
                    job.state = JobState::Failed;
                    job.error = Some("job panicked".to_string());
                }
                self.metrics.jobs_failed.inc();
                self.metrics.record_job_failure("panic");
            }
        }
        table.in_flight.remove(&key);
        table.pending -= 1;
        table.prune_settled(self.jobs_retained);
    }

    /// Executes the payload, returning the rendered result body.
    ///
    /// `cancel` is polled at every cooperative checkpoint of the underlying engines
    /// (flow stage boundaries, SA epochs, solver sweeps, sca trace batches); when it
    /// fires the run returns [`RunError::Interrupted`] instead of a body.
    fn run_payload(&self, payload: &Payload, cancel: &CancelToken) -> Result<String, RunError> {
        // A cancel that lands while the job is still queued settles it here without
        // running anything.
        if let Some(reason) = cancel.is_cancelled() {
            return Err(RunError::Interrupted {
                reason,
                message: format!("job cancelled before it started ({})", reason.kind()),
            });
        }
        match payload {
            Payload::Flow(job) => {
                let design = generate(job.benchmark, job.seed);
                let result =
                    TscFlow::new(job.config).run_with_cancel(&design, job.run_seed(), cancel);
                // Interrupts abort the job (no cacheable partial output); every other
                // flow failure is a *result* — the typed failure record is data a client
                // asked for, exactly as in campaign files.
                if let Err(e @ FlowError::Interrupted { interrupt, .. }) = &result {
                    return Err(match *interrupt {
                        Interrupt::Cancelled(reason) => RunError::Interrupted {
                            reason,
                            message: display_chain(e),
                        },
                        // Harness-made, non-deterministic: never cache it as a record.
                        Interrupt::Fault(_) => RunError::Failed(display_chain(e)),
                    });
                }
                if let Ok(flow) = &result {
                    self.metrics.observe_stages(&flow.stage_timings);
                    self.metrics
                        .evaluations_total
                        .add(flow.sa.evaluations as u64);
                }
                let record = JobRecord {
                    job_id: job.id,
                    benchmark: job.benchmark,
                    setup: job.setup,
                    override_name: job.override_name.clone(),
                    seed: job.seed,
                    outcome: JobOutcome::from_flow(&result),
                };
                Ok(record.to_json_line())
            }
            Payload::Sca(submission) => {
                // One flow run, then both mitigation states attacked out of the same
                // FlowResult (one trace stream, drawn once; only the dummy TSVs differ)
                // — the `run_verdict` contract — with kernel extraction fanned out over
                // the evaluation pool.
                let spec = &submission.spec;
                let job = submission
                    .jobs()
                    .into_iter()
                    .next()
                    .ok_or("sca submission expands to no jobs")?;
                let started = Instant::now();
                let design = generate(job.benchmark, job.seed);
                let flow = TscFlow::new(spec.flow)
                    .run_with_cancel(&design, job.run_seed(), cancel)
                    .map_err(|e| match e {
                        FlowError::Interrupted {
                            interrupt: Interrupt::Cancelled(reason),
                            ..
                        } => RunError::Interrupted {
                            reason,
                            message: format!("sca flow: {}", display_chain(&e)),
                        },
                        e => RunError::Failed(format!(
                            "sca flow-{}: {}",
                            e.kind(),
                            display_chain(&e)
                        )),
                    })?;
                self.metrics.observe_stages(&flow.stage_timings);
                self.metrics
                    .evaluations_total
                    .add(flow.sa.evaluations as u64);
                let mut attack = spec.attack;
                attack.sensors = job.sensor.config;
                let attack_started = Instant::now();
                let verdict = run_verdict_with_cancel(
                    &design,
                    &flow,
                    &attack,
                    job.trace_seed(),
                    job.key_seed,
                    Some(&self.pool),
                    cancel,
                )
                .map_err(|e| match e {
                    ScaError::Interrupted(Interrupt::Cancelled(reason)) => RunError::Interrupted {
                        reason,
                        message: format!("sca attack: {e}"),
                    },
                    e => RunError::Failed(format!("sca {}: {e}", e.kind())),
                })?;
                let attack_s = attack_started.elapsed().as_secs_f64();
                let runtime_s = started.elapsed().as_secs_f64();
                // Attack time (flow excluded) feeds the traces/sec gauge; both mitigation
                // sides ran inside it.
                self.metrics.observe_attack(
                    (verdict.baseline.cpa.traces + verdict.mitigated.cpa.traces) as u64,
                    attack_s,
                );
                let mut members = Vec::new();
                for (label, outcome) in [
                    ("baseline", &verdict.baseline),
                    ("mitigated", &verdict.mitigated),
                ] {
                    // runtime_s covers the whole evaluation (flow + both attacks); it is
                    // recorded identically on both sides.
                    members.push((
                        label.to_string(),
                        ScaJobMetrics::from_outcome(outcome, flow.dummy_tsvs(), runtime_s)
                            .to_json(),
                    ));
                }
                members.push((
                    "verdict".into(),
                    Json::Obj(vec![
                        (
                            "mitigation_effective".into(),
                            Json::Bool(verdict.mitigation_effective()),
                        ),
                        (
                            "mtd_gain".into(),
                            verdict.mtd_gain().map(Json::Num).unwrap_or(Json::Null),
                        ),
                    ]),
                ));
                Ok(Json::Obj(members).render())
            }
            Payload::Campaign(spec) => {
                let mut options = CampaignOptions::in_memory(0); // pool-provided parallelism
                                                                 // The campaign engine observes the job's token between member jobs (and
                                                                 // inside each flow via its own checkpoints): a fired token skips the
                                                                 // remaining jobs without recording them.
                options.cancel = cancel.clone();
                let outcome =
                    run_campaign_on(&self.pool, &**spec, &options).map_err(|e| e.to_string())?;
                // A fired token means the outcome is partial — refuse to cache it.
                if let Some(reason) = cancel.is_cancelled() {
                    return Err(RunError::Interrupted {
                        reason,
                        message: format!(
                            "campaign interrupted ({}) after {} of {} jobs",
                            reason.kind(),
                            outcome.records.len(),
                            spec.job_count()
                        ),
                    });
                }
                let evaluations: f64 = outcome
                    .records
                    .iter()
                    .filter_map(|record| match &record.outcome {
                        JobOutcome::Success(metrics) => Some(metrics.evaluations),
                        JobOutcome::Failure { .. } => None,
                    })
                    .sum();
                self.metrics.evaluations_total.add(evaluations as u64);
                let records: Result<Vec<Json>, String> = outcome
                    .records
                    .iter()
                    .map(|r| Json::parse(&r.to_json_line()).map_err(|e| e.to_string()))
                    .collect();
                let report = render_report(&aggregate(&outcome.records));
                Ok(Json::Obj(vec![
                    ("executed".into(), Json::UInt(outcome.executed as u64)),
                    ("records".into(), Json::Arr(records?)),
                    ("report".into(), Json::Str(report)),
                ])
                .render())
            }
        }
    }

    /// Drains the pool: every accepted job finishes (and persists), then workers join.
    pub fn shutdown(&self) {
        self.pool.shutdown();
    }
}
