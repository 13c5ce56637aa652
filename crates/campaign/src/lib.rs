//! # tsc3d-campaign: a sharded, resumable batch-experiment engine
//!
//! The paper's evaluation is inherently a batch workload — dozens of independent
//! floorplanning runs per setup and benchmark — and this crate turns the one-shot
//! experiment loop into a production-style batch engine:
//!
//! * **Job model** ([`job`]): a [`CampaignSpec`] is the cartesian product of
//!   benchmarks × setups × seeds × [`OverrideSet`]s (annealing schedule, TSV budget,
//!   solver settings, cost weights), expanded into deterministic, individually-seeded
//!   [`CampaignJob`]s with stable ids.
//! * **Scheduling** ([`engine`]): jobs execute on the shared FIFO pool
//!   ([`tsc3d::exec`], also backing the Figure-5/Table-2 experiment path), filtered by a
//!   [`Shard`] (`--shard k/n`) so one campaign can span several processes or machines.
//! * **Streaming sink + resume** ([`sink`]): every finished job appends one JSON line to
//!   the results file; on restart the engine re-reads the file (tolerating a truncated
//!   final line) and skips completed jobs, making long campaigns crash-tolerant.
//! * **Aggregation** ([`mod@aggregate`]): records fold into per-(benchmark, setup, override)
//!   summaries — mean/min/max/stddev per metric plus failure counts by
//!   [`tsc3d::FlowError::kind`] — rendered as a Table-2-style report that is
//!   byte-identical regardless of worker count, sharding or resume boundaries.
//! * **Job kinds** ([`kind`]): the engine and the results file are generic over a
//!   [`JobKind`] — the header key, spec codec, expansion, one-job execution under a
//!   cancel token (with a per-run context), record codec and resume identity check of a
//!   kind of job. [`CampaignSpec`] (flow runs, header `campaign`) and
//!   [`ScaCampaignSpec`] (header `sca_campaign`) are the two kinds.
//! * **Trace-level side-channel jobs** ([`mod@sca`]): an [`ScaCampaignSpec`] expands
//!   benchmarks × keys × sensor configurations × mitigation on/off into seeded CPA
//!   evaluations (`tsc3d-sca`) with measurements-to-disclosure aggregated per group and
//!   an explicit mitigation verdict in the report.
//! * **CLI**: the `campaign` binary wires it together with four verbs: `run` (flow) and
//!   `sca-run` start a campaign, `resume` and `report` take the kind from the results
//!   file's header, and `--smoke` selects either kind's CI preset.
//!
//! ```no_run
//! use tsc3d_campaign::{aggregate, render_report, run_campaign, CampaignOptions, CampaignSpec};
//! use tsc3d_netlist::suite::Benchmark;
//!
//! let spec = CampaignSpec::new(vec![Benchmark::N100, Benchmark::N200], vec![1, 2, 3]);
//! let outcome = run_campaign(&spec, &CampaignOptions::in_memory(4)).expect("campaign runs");
//! println!("{}", render_report(&aggregate(&outcome.records)));
//! ```

#![warn(missing_docs)]

pub mod aggregate;
pub mod codec;
pub mod engine;
pub mod job;
pub mod kind;
pub mod progress;
pub mod record;
pub mod retry;
pub mod sca;
pub mod sink;

/// Cached handles into the global registry for the `tsc3d_campaign_*` metric families
/// (job lifecycle: queued → running → done, plus per-kind failures).
pub(crate) mod obs_metrics {
    pub(crate) struct CampaignMetrics {
        /// Jobs enqueued for execution (resumed records do not count).
        pub queued: tsc3d_obs::Counter,
        /// Jobs currently executing a flow or attack.
        pub running: tsc3d_obs::Gauge,
        /// Jobs that ran to completion (success or typed failure).
        pub done: tsc3d_obs::Counter,
        /// Jobs skipped on resume because the results file already had their record.
        pub resumed: tsc3d_obs::Counter,
        /// Job attempts re-executed after a retryable failure.
        pub retries: tsc3d_obs::Counter,
        /// Jobs that exhausted their retry budget and were recorded as typed failures.
        pub quarantined: tsc3d_obs::Counter,
    }

    /// RAII guard of the `tsc3d_campaign_jobs_running` gauge: decrements on drop, so a
    /// panicking job attempt cannot leak a permanently "running" job.
    pub(crate) struct RunningGuard;

    impl RunningGuard {
        pub(crate) fn enter() -> RunningGuard {
            get().running.add(1.0);
            RunningGuard
        }
    }

    impl Drop for RunningGuard {
        fn drop(&mut self) {
            get().running.add(-1.0);
        }
    }

    pub(crate) fn get() -> &'static CampaignMetrics {
        static METRICS: std::sync::OnceLock<CampaignMetrics> = std::sync::OnceLock::new();
        METRICS.get_or_init(|| {
            let registry = tsc3d_obs::global();
            CampaignMetrics {
                queued: registry.counter(
                    "tsc3d_campaign_jobs_queued_total",
                    "Campaign jobs enqueued for execution",
                ),
                running: registry.gauge(
                    "tsc3d_campaign_jobs_running",
                    "Campaign jobs currently executing",
                ),
                done: registry.counter(
                    "tsc3d_campaign_jobs_done_total",
                    "Campaign jobs that ran to completion (success or typed failure)",
                ),
                resumed: registry.counter(
                    "tsc3d_campaign_jobs_resumed_total",
                    "Campaign jobs skipped on resume (record already on disk)",
                ),
                retries: registry.counter(
                    "tsc3d_campaign_job_retries_total",
                    "Campaign job attempts re-executed after a retryable failure",
                ),
                quarantined: registry.counter(
                    "tsc3d_campaign_jobs_quarantined_total",
                    "Campaign jobs recorded as typed failures after exhausting retries",
                ),
            }
        })
    }

    /// Bumps the per-kind failure family (`tsc3d_campaign_job_failures_total{kind=...}`).
    pub(crate) fn record_failure(kind: &str) {
        tsc3d_obs::global()
            .counter_with(
                "tsc3d_campaign_job_failures_total",
                "Campaign job failures by FlowError/ScaError kind",
                &[("kind", kind)],
            )
            .inc();
    }
}

pub use aggregate::{aggregate, render_csv, render_report, CampaignSummary, GroupSummary, Stat};
/// [`run_campaign_on`] under the sca name existing callers use; the spec argument pins
/// the kind either way.
pub use engine::run_campaign_on as run_sca_campaign_on;
pub use engine::{
    resume_from_file, resume_results_file, resume_sca_from_file, run_campaign, run_campaign_on,
    CampaignError, CampaignOptions, CampaignOutcome,
};
pub use job::{CampaignJob, CampaignSpec, OverrideSet, Shard};
pub use kind::JobKind;
pub use record::{JobMetrics, JobOutcome, JobRecord};
pub use retry::{Attempt, JobRetryPolicy};
pub use sca::{
    aggregate_sca, render_sca_report, FlowCache, ScaCampaignSpec, ScaCampaignSummary,
    ScaGroupSummary, ScaJob, ScaJobMetrics, ScaJobOutcome, ScaJobRecord, ScaSensorSet,
};
pub use sink::{read_results_file, repair_torn_tail, CampaignFile, ResultSink, SinkError};
