//! The job-kind abstraction: everything the one campaign engine ([`crate::engine`]) and
//! results file ([`crate::sink`]) need to know about a kind of job.
//!
//! A kind is its spec type. [`CampaignSpec`] (flow jobs, header key `campaign`) and
//! [`crate::ScaCampaignSpec`] (side-channel jobs, header key `sca_campaign`) implement
//! [`JobKind`]; the engine expands, shards, resumes, retries, executes and streams both
//! through the same generic code, and a new kind costs one trait impl.

use crate::codec::{spec_from_json, spec_to_json, DecodeError};
use crate::job::{CampaignJob, CampaignSpec};
use crate::record::{JobOutcome, JobRecord};
use crate::retry::Attempt;
use std::fmt::Debug;
use tsc3d::TscFlow;
use tsc3d_netlist::suite::generate;
use tsc3d_obs::json::Json;

/// A kind of campaign job, implemented by its spec type.
pub trait JobKind: Clone + Debug + PartialEq + Send + Sync + 'static {
    /// The results-file header key carrying the spec.
    const HEADER_KEY: &'static str;
    /// The label of the kind's job lifecycle events.
    const LABEL: &'static str;
    /// One unit of work, with a stable id.
    type Job: Clone + Debug + Send + 'static;
    /// One line of the results file.
    type Record: Clone + Debug + PartialEq + Send + 'static;
    /// State shared by the jobs of one run.
    type Context: Default + Send + Sync + 'static;

    /// Encodes the spec (the header value).
    fn to_json(&self) -> Json;
    /// Decodes a spec header value.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] naming the first malformed field.
    fn from_json(value: &Json) -> Result<Self, DecodeError>;
    /// Expands the spec into jobs whose ids are their positions.
    fn expand(&self) -> Vec<Self::Job>;
    /// Checks what every job would check for itself, before any job runs; the message
    /// names the first problem. The default accepts every spec.
    ///
    /// # Errors
    ///
    /// Returns the first problem found.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }
    /// The stable id of a job.
    fn job_id(job: &Self::Job) -> u64;
    /// The job's run seed (also seeds its retry backoff jitter).
    fn run_seed(job: &Self::Job) -> u64;
    /// Runs one attempt of a job. The job arms the attempt's deadline
    /// ([`Attempt::arm`]) once it starts its own work and polls that token at its
    /// checkpoints; every failure is a typed record.
    fn execute(&self, job: &Self::Job, context: &Self::Context, attempt: &Attempt) -> Self::Record;
    /// The typed `panic` failure record of a job whose attempt panicked.
    fn panic_record(job: &Self::Job, message: String) -> Self::Record;
    /// The failure kind of a record, `None` for a success.
    fn failure_kind(record: &Self::Record) -> Option<&str>;
    /// The id of the job a record belongs to.
    fn record_id(record: &Self::Record) -> u64;
    /// Whether a record read back from disk carries the identity of `job` (the guard
    /// against resuming with another spec than the one that wrote the file).
    fn record_matches(record: &Self::Record, job: &Self::Job) -> bool;
    /// Encodes a record as one JSONL line (no trailing newline).
    fn record_to_line(record: &Self::Record) -> String;
    /// Decodes one parsed record line.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] naming the first malformed field.
    fn record_from_json(value: &Json) -> Result<Self::Record, DecodeError>;
}

impl JobKind for CampaignSpec {
    const HEADER_KEY: &'static str = "campaign";
    const LABEL: &'static str = "flow";
    type Job = CampaignJob;
    type Record = JobRecord;
    type Context = ();

    fn to_json(&self) -> Json {
        spec_to_json(self)
    }

    fn from_json(value: &Json) -> Result<Self, DecodeError> {
        spec_from_json(value)
    }

    fn expand(&self) -> Vec<CampaignJob> {
        CampaignSpec::expand(self)
    }

    fn job_id(job: &CampaignJob) -> u64 {
        job.id
    }

    fn run_seed(job: &CampaignJob) -> u64 {
        job.run_seed()
    }

    /// Generates the design instance and runs the flow, all under the attempt's
    /// deadline; an interrupt lands as a typed failure (kind `cancelled`, `shutdown`,
    /// `deadline` or `fault-injected`).
    fn execute(&self, job: &CampaignJob, _: &(), attempt: &Attempt) -> JobRecord {
        let _span = tsc3d_obs::span!("campaign_job");
        let cancel = attempt.arm();
        let design = generate(job.benchmark, job.seed);
        let result = TscFlow::new(job.config).run_with_cancel(&design, job.run_seed(), &cancel);
        Self::record(job, JobOutcome::from_flow(&result))
    }

    fn panic_record(job: &CampaignJob, message: String) -> JobRecord {
        let kind = "panic".to_string();
        Self::record(job, JobOutcome::Failure { kind, message })
    }

    fn failure_kind(record: &JobRecord) -> Option<&str> {
        match &record.outcome {
            JobOutcome::Failure { kind, .. } => Some(kind),
            JobOutcome::Success(_) => None,
        }
    }

    fn record_id(record: &JobRecord) -> u64 {
        record.job_id
    }

    fn record_matches(record: &JobRecord, job: &CampaignJob) -> bool {
        record.benchmark == job.benchmark
            && record.setup == job.setup
            && record.seed == job.seed
            && record.override_name == job.override_name
    }

    fn record_to_line(record: &JobRecord) -> String {
        record.to_json_line()
    }

    fn record_from_json(value: &Json) -> Result<JobRecord, DecodeError> {
        JobRecord::from_json(value)
    }
}

impl CampaignSpec {
    fn record(job: &CampaignJob, outcome: JobOutcome) -> JobRecord {
        JobRecord {
            job_id: job.id,
            benchmark: job.benchmark,
            setup: job.setup,
            override_name: job.override_name.clone(),
            seed: job.seed,
            outcome,
        }
    }
}
