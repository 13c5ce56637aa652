//! Typed errors and per-stage bookkeeping of the flow pipeline.
//!
//! The flow used to swallow failed detailed solves with ad-hoc fallbacks — worst of all
//! silently reusing the *pre*-dummy-TSV verification when the final sign-off failed, which
//! misreports exactly the correlation numbers the paper's evaluation hinges on. Every
//! stage now threads a [`FlowError`] through `Result`, and solver relaxation is an
//! explicit, observable policy ([`RetryPolicy`]) instead of a buried `unwrap_or_else`.

use std::error::Error;
use std::fmt;
use tsc3d_thermal::SolveError;

/// The stages of the flow pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowStage {
    /// Multi-objective simulated-annealing floorplanning.
    Floorplan,
    /// Voltage assignment and power scaling of the final floorplan.
    Assign,
    /// Detailed thermal verification (HotSpot's role in the paper).
    Verify,
    /// Dummy-TSV post-processing and final sign-off verification.
    PostProcess,
}

impl FlowStage {
    /// All stages, in execution order.
    pub const ALL: [FlowStage; 4] = [
        FlowStage::Floorplan,
        FlowStage::Assign,
        FlowStage::Verify,
        FlowStage::PostProcess,
    ];

    /// Short lowercase stage name (`floorplan`, `assign`, `verify`, `post-process`).
    pub fn name(self) -> &'static str {
        match self {
            FlowStage::Floorplan => "floorplan",
            FlowStage::Assign => "assign",
            FlowStage::Verify => "verify",
            FlowStage::PostProcess => "post-process",
        }
    }
}

impl fmt::Display for FlowStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Wall-clock seconds spent in each stage of one flow run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTimings {
    /// Time in the floorplanning stage.
    pub floorplan_s: f64,
    /// Time in the voltage-assignment stage.
    pub assign_s: f64,
    /// Time in the detailed-verification stage.
    pub verify_s: f64,
    /// Time in the post-processing stage. Near zero (but not exactly 0 — the
    /// passthrough that forwards the verify-stage results is still timed) when
    /// post-processing is disabled; check `FlowResult::post_process.is_none()` to detect
    /// a disabled stage, not this value.
    pub post_process_s: f64,
}

impl StageTimings {
    /// Seconds spent in `stage`.
    pub fn of(&self, stage: FlowStage) -> f64 {
        match stage {
            FlowStage::Floorplan => self.floorplan_s,
            FlowStage::Assign => self.assign_s,
            FlowStage::Verify => self.verify_s,
            FlowStage::PostProcess => self.post_process_s,
        }
    }

    /// Sum over all stages.
    pub fn total_s(&self) -> f64 {
        FlowStage::ALL.iter().map(|&s| self.of(s)).sum()
    }
}

/// Numerical settings of a detailed steady-state solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverSettings {
    /// Convergence tolerance (largest per-node update, in K).
    pub tolerance: f64,
    /// Maximum number of SOR iterations.
    pub max_iterations: usize,
}

impl SolverSettings {
    /// The nominal sign-off settings: the detailed solver's own defaults.
    pub fn nominal() -> Self {
        Self {
            tolerance: tsc3d_thermal::SteadyStateSolver::DEFAULT_TOLERANCE,
            max_iterations: tsc3d_thermal::SteadyStateSolver::DEFAULT_MAX_ITERATIONS,
        }
    }

    /// Relaxed settings for the explicit retry after a failed nominal solve: looser
    /// tolerance, larger iteration budget.
    pub fn relaxed() -> Self {
        Self {
            tolerance: 1e-3,
            max_iterations: 20_000,
        }
    }
}

/// How the flow reacts when a detailed verification solve does not converge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetryPolicy {
    /// Fail the flow immediately with a [`FlowError`].
    Fail,
    /// Retry once with the given relaxed solver settings; the result records that the
    /// report came from a relaxed solve ([`SolveQuality::Relaxed`]). If the relaxed solve
    /// also fails, the flow fails.
    Relaxed(SolverSettings),
}

impl RetryPolicy {
    /// The default policy: one relaxed retry with [`SolverSettings::relaxed`].
    pub fn relaxed_default() -> Self {
        RetryPolicy::Relaxed(SolverSettings::relaxed())
    }
}

/// Which solver configuration produced an accepted verification report — the observable
/// record of the retry policy having kicked in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveQuality {
    /// The nominal solver converged.
    Nominal,
    /// The nominal solver failed and the report comes from the relaxed retry.
    Relaxed,
}

impl SolveQuality {
    /// `true` when the report required the relaxed retry.
    pub fn is_relaxed(self) -> bool {
        matches!(self, SolveQuality::Relaxed)
    }
}

/// Error of a flow run, tagged with the pipeline stage it occurred in.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// A detailed thermal solve failed in `stage` after `attempts` solver attempts
    /// (1 = nominal only, 2 = nominal plus relaxed retry).
    Solve {
        /// The pipeline stage the solve belonged to.
        stage: FlowStage,
        /// Number of solver attempts made before giving up.
        attempts: usize,
        /// The error of the last attempt.
        source: SolveError,
    },
    /// The flow configuration is invalid (e.g. a degenerate verification grid).
    InvalidConfig {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// The floorplanning stage produced a floorplan whose packing envelope exceeds the
    /// fixed die outline. Short ("quick") annealing schedules cannot guarantee a legal
    /// packing for every seed; carrying such a floorplan into verification would report
    /// correlations for a physically unrealizable design, so the flow fails typed instead.
    OutlineViolation {
        /// The packing-envelope stretch `max(bbox_w/outline_w, bbox_h/outline_h)` over all
        /// dies; values above 1 violate the fixed outline.
        packing: f64,
    },
    /// The run was cancelled cooperatively (user request or process shutdown) at a
    /// checkpoint inside `stage`. Timings of the stages that *did* complete are
    /// preserved.
    Cancelled {
        /// Why the cancel token fired ([`tsc3d_exec::CancelReason::User`] or
        /// [`tsc3d_exec::CancelReason::Shutdown`]; a deadline surfaces as
        /// [`FlowError::DeadlineExceeded`] instead).
        reason: tsc3d_exec::CancelReason,
        /// The stage that observed the cancellation.
        stage: FlowStage,
        /// Wall-clock of the stages completed before the cancellation.
        timings: StageTimings,
    },
    /// The run's deadline elapsed before it finished; detected at a checkpoint inside
    /// `stage`. Timings of the stages that completed are preserved.
    DeadlineExceeded {
        /// The stage that observed the expired deadline.
        stage: FlowStage,
        /// Wall-clock of the stages completed before the deadline fired.
        timings: StageTimings,
    },
    /// The fault-injection harness ([`tsc3d_exec::fault`]) injected an error at a
    /// checkpoint inside `stage` — only ever seen under an armed chaos plan.
    Fault {
        /// The fault site that fired (e.g. `flow-stage`, `sa-epoch`, `solver-sweep`).
        site: &'static str,
        /// The stage the site belongs to.
        stage: FlowStage,
    },
}

impl FlowError {
    /// The stage the error occurred in ([`FlowStage::Floorplan`] for configuration
    /// errors, which are detected before any stage runs).
    pub fn stage(&self) -> FlowStage {
        match self {
            FlowError::Solve { stage, .. } => *stage,
            FlowError::InvalidConfig { .. } => FlowStage::Floorplan,
            FlowError::OutlineViolation { .. } => FlowStage::Floorplan,
            FlowError::Cancelled { stage, .. } => *stage,
            FlowError::DeadlineExceeded { stage, .. } => *stage,
            FlowError::Fault { stage, .. } => *stage,
        }
    }

    /// Short stable kebab-case tag of the error variant (`solve`, `invalid-config`,
    /// `outline-violation`, `cancelled`, `shutdown`, `deadline`, `fault-injected`) —
    /// the key campaign aggregation and retry policies match failures under.
    pub fn kind(&self) -> &'static str {
        match self {
            FlowError::Solve { .. } => "solve",
            FlowError::InvalidConfig { .. } => "invalid-config",
            FlowError::OutlineViolation { .. } => "outline-violation",
            FlowError::Cancelled { reason, .. } => reason.kind(),
            FlowError::DeadlineExceeded { .. } => "deadline",
            FlowError::Fault { .. } => "fault-injected",
        }
    }

    /// Builds the typed error for an [`tsc3d_exec::Interrupt`] observed at a checkpoint
    /// in `stage`, carrying the `timings` of the stages completed so far.
    pub fn from_interrupt(
        interrupt: tsc3d_exec::Interrupt,
        stage: FlowStage,
        timings: StageTimings,
    ) -> FlowError {
        match interrupt {
            tsc3d_exec::Interrupt::Cancelled(tsc3d_exec::CancelReason::Deadline) => {
                FlowError::DeadlineExceeded { stage, timings }
            }
            tsc3d_exec::Interrupt::Cancelled(reason) => FlowError::Cancelled {
                reason,
                stage,
                timings,
            },
            tsc3d_exec::Interrupt::Fault(fault) => FlowError::Fault {
                site: fault.site,
                stage,
            },
        }
    }

    /// Replaces the carried partial timings on the cancellation variants (the flow
    /// driver patches in the stage wall-clocks it accumulated before the interrupt;
    /// stage helpers build the error before those are known). Other variants pass
    /// through unchanged.
    pub fn with_timings(self, timings: StageTimings) -> FlowError {
        match self {
            FlowError::Cancelled { reason, stage, .. } => FlowError::Cancelled {
                reason,
                stage,
                timings,
            },
            FlowError::DeadlineExceeded { stage, .. } => {
                FlowError::DeadlineExceeded { stage, timings }
            }
            other => other,
        }
    }
}

/// Renders an error and its full [`Error::source`] chain as `error: cause: root-cause`.
///
/// [`FlowError`]'s own `Display` already includes its direct [`SolveError`] source; this
/// helper is for log sinks (campaign failure records, CLI diagnostics) that receive an
/// arbitrary `dyn Error` and must show root causes without assuming a concrete type. The
/// chain is deduplicated against the head text, so sources a `Display` implementation
/// already inlined are not repeated.
pub fn display_chain(error: &(dyn Error + 'static)) -> String {
    let mut text = error.to_string();
    let mut current = error.source();
    while let Some(source) = current {
        let rendered = source.to_string();
        if !text.contains(&rendered) {
            text.push_str(": ");
            text.push_str(&rendered);
        }
        current = source.source();
    }
    text
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Solve {
                stage,
                attempts,
                source,
            } => write!(
                f,
                "detailed thermal solve failed in the {stage} stage after {attempts} attempt(s): {source}"
            ),
            FlowError::InvalidConfig { reason } => write!(f, "invalid flow configuration: {reason}"),
            FlowError::OutlineViolation { packing } => write!(
                f,
                "floorplan violates the fixed outline: packing envelope stretch {packing:.4} > 1"
            ),
            FlowError::Cancelled { reason, stage, .. } => {
                write!(f, "flow {reason} in the {stage} stage")
            }
            FlowError::DeadlineExceeded { stage, .. } => {
                write!(f, "flow deadline exceeded in the {stage} stage")
            }
            FlowError::Fault { site, stage } => {
                write!(f, "injected fault at site '{site}' in the {stage} stage")
            }
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::Solve { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_and_order() {
        assert_eq!(FlowStage::ALL.len(), 4);
        assert_eq!(FlowStage::Floorplan.name(), "floorplan");
        assert_eq!(FlowStage::PostProcess.to_string(), "post-process");
    }

    #[test]
    fn timings_sum_over_stages() {
        let timings = StageTimings {
            floorplan_s: 1.0,
            assign_s: 0.5,
            verify_s: 0.25,
            post_process_s: 0.25,
        };
        assert!((timings.total_s() - 2.0).abs() < 1e-12);
        assert_eq!(timings.of(FlowStage::Assign), 0.5);
    }

    #[test]
    fn flow_error_reports_stage_and_source() {
        let err = FlowError::Solve {
            stage: FlowStage::PostProcess,
            attempts: 2,
            source: SolveError::NotConverged {
                residual: 0.5,
                iterations: 100,
            },
        };
        assert_eq!(err.stage(), FlowStage::PostProcess);
        let text = err.to_string();
        assert!(text.contains("post-process"));
        assert!(text.contains("2 attempt(s)"));
        assert!(std::error::Error::source(&err).is_some());

        let config_err = FlowError::InvalidConfig {
            reason: "verification_bins must be >= 2".into(),
        };
        assert_eq!(config_err.stage(), FlowStage::Floorplan);
        assert!(std::error::Error::source(&config_err).is_none());
    }

    #[test]
    fn outline_violation_is_a_floorplan_stage_error() {
        let err = FlowError::OutlineViolation { packing: 1.25 };
        assert_eq!(err.stage(), FlowStage::Floorplan);
        assert_eq!(err.kind(), "outline-violation");
        assert!(err.to_string().contains("1.2500"));
        assert!(std::error::Error::source(&err).is_none());
    }

    #[test]
    fn error_kinds_are_stable_tags() {
        let solve = FlowError::Solve {
            stage: FlowStage::Verify,
            attempts: 1,
            source: SolveError::GridMismatch,
        };
        assert_eq!(solve.kind(), "solve");
        let config = FlowError::InvalidConfig { reason: "x".into() };
        assert_eq!(config.kind(), "invalid-config");
    }

    #[test]
    fn display_chain_walks_to_the_root_cause() {
        #[derive(Debug)]
        struct Wrapper(FlowError);
        impl fmt::Display for Wrapper {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "job 7 failed")
            }
        }
        impl Error for Wrapper {
            fn source(&self) -> Option<&(dyn Error + 'static)> {
                Some(&self.0)
            }
        }

        let err = Wrapper(FlowError::Solve {
            stage: FlowStage::Verify,
            attempts: 2,
            source: SolveError::NotConverged {
                residual: 1.0,
                iterations: 5,
            },
        });
        let chain = display_chain(&err);
        // Head, mid (FlowError) and root (SolveError) all appear exactly once.
        assert!(chain.starts_with("job 7 failed: "));
        assert!(chain.contains("verify stage"));
        assert_eq!(chain.matches("did not converge").count(), 1);
    }

    #[test]
    fn retry_policy_and_quality() {
        let policy = RetryPolicy::relaxed_default();
        assert!(
            matches!(policy, RetryPolicy::Relaxed(s) if s.tolerance > SolverSettings::nominal().tolerance)
        );
        assert!(SolveQuality::Relaxed.is_relaxed());
        assert!(!SolveQuality::Nominal.is_relaxed());
    }
}
