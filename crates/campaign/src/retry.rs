//! Per-job retry/backoff policy and the supervised attempt loop the campaign engine runs
//! every job of every kind under.
//!
//! A campaign job can fail *transiently* — a worker panic, an injected fault, an
//! attempt-deadline miss — without the inputs being bad. [`JobRetryPolicy`] describes
//! which failure kinds are worth re-running and how to back off between attempts; the
//! attempt loop (`run_attempts`) contains panics (a panicking job becomes a typed
//! `panic` failure instead of tearing down the whole batch), retries eligible failures
//! with a **seeded-jittered** exponential backoff, and *quarantines* a job that exhausts
//! its attempts: its typed failure is recorded and the campaign continues.
//!
//! Determinism contract: a retried-then-succeeded job re-runs the identical seeded
//! computation, so its record is byte-identical to a first-try success (modulo wall-time
//! fields). The backoff jitter is derived from the job's own run seed, never from a
//! global RNG, so arming retries cannot perturb any seeded result stream.

use crate::job::{fnv1a, splitmix64};
use std::time::Duration;
use tsc3d_exec::CancelToken;
use tsc3d_obs::Metric;

/// Retry/backoff policy applied per campaign job (flow and sca alike).
///
/// Named `JobRetryPolicy` to stay clear of the solver-level `tsc3d::RetryPolicy`, which
/// governs relaxed re-solves *inside* one flow rather than whole-job re-execution.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRetryPolicy {
    /// Maximum executions of one job, counting the first (`1` = never retry).
    pub max_attempts: u32,
    /// Base backoff before the first retry, in milliseconds.
    pub base_backoff_ms: u64,
    /// Upper bound of the exponential backoff, in milliseconds.
    pub max_backoff_ms: u64,
    /// Failure kinds eligible for a retry (matched against
    /// [`tsc3d::FlowError::kind`]/[`tsc3d_sca::ScaError::kind`] plus the synthetic
    /// `panic` kind). Anything else fails the job on the first attempt.
    pub retry_on: Vec<String>,
    /// Wall-clock budget of each attempt in milliseconds, counted from when the job starts
    /// its own work ([`Attempt::arm`]); the job fails with kind `deadline` when it
    /// expires.
    pub attempt_deadline_ms: Option<u64>,
}

impl Default for JobRetryPolicy {
    /// Three attempts with 50 ms → 2 s backoff, retrying only the transient kinds
    /// (`panic`, `fault-injected`, `deadline`) — deterministic failures such as `solve`
    /// or `invalid-config` still fail fast on the first attempt.
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff_ms: 50,
            max_backoff_ms: 2_000,
            retry_on: vec![
                "panic".to_string(),
                "fault-injected".to_string(),
                "deadline".to_string(),
            ],
            attempt_deadline_ms: None,
        }
    }
}

impl JobRetryPolicy {
    /// A policy that never retries (single attempt, no deadline).
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// Whether a failure of `kind` on the given 1-based `attempt` earns another try.
    pub fn should_retry(&self, kind: &str, attempt: u32) -> bool {
        attempt < self.max_attempts && self.retry_on.iter().any(|k| k == kind)
    }

    /// The backoff before retrying after the 1-based `attempt` failed: exponential in
    /// the attempt number, capped at [`JobRetryPolicy::max_backoff_ms`], scaled by a
    /// deterministic jitter in `[0.5, 1.0]` seeded from `run_seed ^ attempt` (so
    /// concurrent retries of different jobs decorrelate without any global RNG).
    pub fn backoff(&self, run_seed: u64, attempt: u32) -> Duration {
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << (attempt - 1).min(16))
            .min(self.max_backoff_ms);
        let unit =
            splitmix64(run_seed ^ fnv1a("backoff") ^ u64::from(attempt)) as f64 / u64::MAX as f64;
        Duration::from_millis((exp as f64 * (0.5 + 0.5 * unit)).round() as u64)
    }
}

/// The cancellation of one attempt: the campaign's token and the attempt's wall-clock
/// budget ([`JobRetryPolicy::attempt_deadline_ms`]), which the job arms once it starts
/// its own work. A shared input the job waits on, such as the sca kind's memoized flow,
/// cannot be cancelled, so its time does not count against the budget.
pub struct Attempt<'a> {
    cancel: &'a CancelToken,
    budget: Option<Duration>,
}

impl Attempt<'_> {
    /// The attempt's token: shares the campaign token's cancellation flag, with the
    /// budget (if any) counted from now.
    pub fn arm(&self) -> CancelToken {
        match self.budget {
            Some(budget) => self.cancel.with_deadline(budget),
            None => self.cancel.clone(),
        }
    }
}

/// Failure kinds caused by the *campaign-level* cancel token rather than the job itself;
/// their records are withheld from the results file so a resume re-runs those jobs.
pub(crate) fn is_cancellation_kind(kind: &str) -> bool {
    matches!(kind, "cancelled" | "shutdown")
}

static RETRIES: Metric = Metric::new(
    "tsc3d_campaign_job_retries_total",
    "Campaign job attempts re-executed after a retryable failure",
);
static QUARANTINED: Metric = Metric::new(
    "tsc3d_campaign_jobs_quarantined_total",
    "Campaign jobs recorded as typed failures after exhausting retries",
);

/// Runs one job under `policy`: contains panics as typed `panic` failures, retries
/// eligible failure kinds with seeded backoff, and returns the final record plus the
/// number of attempts actually executed.
///
/// `execute` performs one attempt, arming its deadline through the given [`Attempt`];
/// `failure_kind` extracts the failure kind of a produced record (`None` = success);
/// `panic_record` builds the typed record of a panicked attempt from the panic payload's
/// message.
pub(crate) fn run_attempts<R>(
    policy: &JobRetryPolicy,
    run_seed: u64,
    cancel: &CancelToken,
    execute: impl Fn(&Attempt) -> R,
    failure_kind: impl Fn(&R) -> Option<String>,
    panic_record: impl Fn(String) -> R,
) -> (R, u32) {
    let mut attempt = 1u32;
    loop {
        let run = Attempt {
            cancel,
            budget: policy.attempt_deadline_ms.map(Duration::from_millis),
        };
        let record = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(&run)))
        {
            Ok(record) => record,
            Err(payload) => panic_record(panic_message(payload.as_ref())),
        };
        let Some(kind) = failure_kind(&record) else {
            return (record, attempt);
        };
        // A campaign-wide cancellation is not a job fault: stop immediately, even if the
        // kind would otherwise be retryable (e.g. a deadline inherited from the parent).
        if cancel.is_cancelled().is_some() {
            return (record, attempt);
        }
        if !policy.should_retry(&kind, attempt) {
            if attempt > 1 || policy.retry_on.iter().any(|k| k == &kind) {
                QUARANTINED.inc();
            }
            return (record, attempt);
        }
        RETRIES.inc();
        std::thread::sleep(policy.backoff(run_seed, attempt));
        attempt += 1;
    }
}

/// Best-effort extraction of a panic payload's message (`&str` and `String` payloads;
/// anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "job panicked (non-string payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_retries_only_transient_kinds() {
        let policy = JobRetryPolicy::default();
        assert!(policy.should_retry("panic", 1));
        assert!(policy.should_retry("fault-injected", 2));
        assert!(policy.should_retry("deadline", 1));
        assert!(!policy.should_retry("panic", 3), "attempts are bounded");
        assert!(
            !policy.should_retry("solve", 1),
            "deterministic kinds fail fast"
        );
        assert!(!JobRetryPolicy::none().should_retry("panic", 1));
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let policy = JobRetryPolicy {
            base_backoff_ms: 100,
            max_backoff_ms: 400,
            ..JobRetryPolicy::default()
        };
        for attempt in 1..=8 {
            let a = policy.backoff(42, attempt);
            let b = policy.backoff(42, attempt);
            assert_eq!(a, b, "same seed and attempt gives the same backoff");
            let cap = policy.base_backoff_ms * (1 << (attempt - 1)).min(4);
            assert!(a.as_millis() as u64 <= cap.min(policy.max_backoff_ms));
            assert!(a.as_millis() as u64 >= cap.min(policy.max_backoff_ms) / 2);
        }
        assert_ne!(
            policy.backoff(1, 1),
            policy.backoff(2, 1),
            "different jobs jitter apart"
        );
    }

    #[test]
    fn attempt_loop_contains_panics_and_quarantines() {
        let policy = JobRetryPolicy {
            max_attempts: 2,
            base_backoff_ms: 1,
            max_backoff_ms: 1,
            ..JobRetryPolicy::default()
        };
        let cancel = CancelToken::new();
        let (record, attempts) = run_attempts(
            &policy,
            7,
            &cancel,
            |_| -> Result<(), String> { panic!("boom") },
            |r| r.as_ref().err().map(|_| "panic".to_string()),
            Err,
        );
        assert_eq!(attempts, 2, "one retry, then quarantine");
        assert_eq!(record.unwrap_err(), "boom");
    }

    #[test]
    fn attempt_loop_returns_first_success() {
        let policy = JobRetryPolicy::default();
        let cancel = CancelToken::new();
        let calls = std::sync::atomic::AtomicU32::new(0);
        let (record, attempts) = run_attempts(
            &policy,
            7,
            &cancel,
            |_| -> Result<u32, String> {
                Ok(calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed))
            },
            |r| r.as_ref().err().cloned(),
            Err,
        );
        assert_eq!(attempts, 1);
        assert_eq!(record.unwrap(), 0);
    }
}
