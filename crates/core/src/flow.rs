//! The end-to-end TSC-aware floorplanning flow (Figure 3 of the paper), as an explicit
//! staged pipeline: floorplan → assign → verify → post-process.
//!
//! Every stage is fallible and threads a [`FlowError`] through `Result`; per-stage
//! wall-clock timings are recorded in [`FlowResult::stage_timings`]. When a detailed solve
//! does not converge, the configured [`RetryPolicy`] decides between failing and one
//! explicit relaxed retry — whose use is recorded in the result ([`SolveQuality`]) rather
//! than hidden in a fallback.

use tsc3d_exec::{CancelToken, FlowThread, Helpers, Interrupt, Speculation};
use tsc3d_floorplan::{
    plan_signal_tsvs, Evaluator, Floorplan, ObjectiveWeights, SaResult, SaSchedule,
    SimulatedAnnealing, TsvPlan,
};
use tsc3d_geometry::{Grid, Stack};
use tsc3d_leakage::SpatialEntropy;
use tsc3d_netlist::Design;
use tsc3d_power::VoltageAssignment;
use tsc3d_thermal::{SolveError, SteadyStateSolver, ThermalConfig};

use tsc3d_obs as obs;

use crate::error::{FlowError, FlowStage, RetryPolicy, SolveQuality, SolverSettings, StageTimings};

/// Cached handles into the global registry for the `tsc3d_flow_*` families, so
/// the per-run cost is atomic bumps rather than registry lookups.
struct FlowMetrics {
    runs: obs::Counter,
    evaluations: obs::Counter,
    stage_floorplan: obs::LogHistogram,
    stage_assign: obs::LogHistogram,
    stage_verify: obs::LogHistogram,
    stage_post_process: obs::LogHistogram,
}

fn flow_metrics() -> &'static FlowMetrics {
    static METRICS: std::sync::OnceLock<FlowMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = obs::global();
        let stage = |name: &str| {
            registry.histogram_with(
                "tsc3d_flow_stage_seconds",
                "Flow-stage wall-clock latency",
                &[("stage", name)],
            )
        };
        FlowMetrics {
            runs: registry.counter("tsc3d_flow_runs_total", "Flow pipeline runs started"),
            evaluations: registry.counter(
                "tsc3d_flow_evaluations_total",
                "SA cost evaluations of the anneal each successful flow run kept (after an \
                 outline repair, the accepted round's anneal only)",
            ),
            stage_floorplan: stage("floorplan"),
            stage_assign: stage("assign"),
            stage_verify: stage("verify"),
            stage_post_process: stage("post_process"),
        }
    })
}
use crate::postprocess::{DummyTsvInserter, PostProcessConfig, PostProcessResult};
use crate::verification::{default_solver, verify_cancellable, VerificationReport};

/// The two floorplanning setups compared throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Setup {
    /// Power-aware floorplanning (the competitive baseline, setup (i)).
    PowerAware,
    /// Thermal side-channel-aware floorplanning (the proposed technique, setup (ii)).
    TscAware,
}

impl Setup {
    /// The objective weights of the setup.
    pub fn weights(self) -> ObjectiveWeights {
        match self {
            Setup::PowerAware => ObjectiveWeights::power_aware(),
            Setup::TscAware => ObjectiveWeights::tsc_aware(),
        }
    }

    /// Short label used in tables ("PA" / "TSC").
    pub fn label(self) -> &'static str {
        match self {
            Setup::PowerAware => "PA",
            Setup::TscAware => "TSC",
        }
    }
}

/// How the flow reacts when the floorplanning stage produces a packing envelope that
/// exceeds the fixed die outline (possible under short annealing schedules).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OutlinePolicy {
    /// Fail immediately with [`FlowError::OutlineViolation`].
    Fail,
    /// Re-anneal up to `max_rounds` times with escalating packing weight and effort (an
    /// explicit repair pass, recorded in [`FlowResult::outline_repair`]). Round `r`
    /// quadruples the packing weight and doubles both the stage count and the moves per
    /// stage relative to round `r-1`, i.e. it anneals `4^r` times the configured
    /// schedule — `max_rounds` is the cost bound, so cap it low for large designs under
    /// short schedules. If no round produces a legal packing, the flow fails with
    /// [`FlowError::OutlineViolation`] carrying the best (smallest) stretch seen.
    /// `max_rounds == 0` behaves like [`OutlinePolicy::Fail`].
    Repair {
        /// Maximum number of packing-weighted re-annealing rounds.
        max_rounds: usize,
    },
}

impl OutlinePolicy {
    /// The default policy: up to four packing-weighted repair rounds. Note the per-round
    /// effort grows as `4^r` (the last round anneals 256x the configured schedule), so
    /// an unrepairable design pays the full escalation before failing typed; tests and
    /// sweeps over large designs should cap `max_rounds` lower.
    pub fn repair_default() -> Self {
        OutlinePolicy::Repair { max_rounds: 4 }
    }
}

/// Record of an outline-repair pass having run: the observable trace of
/// [`OutlinePolicy::Repair`] kicking in, so repaired floorplans never flow silently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutlineRepair {
    /// Number of re-annealing rounds run (1-based; the round that produced the accepted
    /// floorplan).
    pub rounds: usize,
    /// Packing stretch of the original (rejected) floorplan.
    pub packing_before: f64,
    /// Packing stretch of the accepted floorplan (≤ 1 within tolerance).
    pub packing_after: f64,
}

/// Configuration of a full flow run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowConfig {
    /// Which setup to run.
    pub setup: Setup,
    /// Annealing schedule of the floorplanning stage.
    pub schedule: SaSchedule,
    /// Analysis-grid resolution (bins per axis) of the detailed verification.
    pub verification_bins: usize,
    /// Numerical settings of the nominal detailed solver used by the verify and sign-off
    /// stages.
    pub solver: SolverSettings,
    /// What to do when a detailed solve does not converge.
    pub retry: RetryPolicy,
    /// Optional override of the objective weights; `None` uses the setup's canonical
    /// weights ([`Setup::weights`]). Campaign sweeps use this to explore cost-weight
    /// scenarios beyond the paper's two setups.
    pub weights: Option<ObjectiveWeights>,
    /// What to do when the floorplan's packing envelope violates the fixed outline.
    pub outline: OutlinePolicy,
    /// Post-processing configuration; `None` disables dummy-TSV insertion (the power-aware
    /// baseline never inserts dummy TSVs).
    pub post_process: Option<PostProcessConfig>,
}

impl FlowConfig {
    /// A quick configuration for tests and examples.
    pub fn quick(setup: Setup) -> Self {
        Self {
            setup,
            schedule: SaSchedule::quick(),
            verification_bins: 16,
            solver: SolverSettings::nominal(),
            retry: RetryPolicy::relaxed_default(),
            weights: None,
            outline: OutlinePolicy::repair_default(),
            post_process: match setup {
                Setup::PowerAware => None,
                Setup::TscAware => Some(PostProcessConfig::quick()),
            },
        }
    }

    /// The paper-style configuration (standard annealing schedule, 64-bin verification
    /// grid, detailed-engine post-processing for the TSC setup).
    pub fn paper(setup: Setup) -> Self {
        Self {
            setup,
            schedule: SaSchedule::standard(),
            verification_bins: 64,
            solver: SolverSettings::nominal(),
            retry: RetryPolicy::relaxed_default(),
            weights: None,
            outline: OutlinePolicy::repair_default(),
            post_process: match setup {
                Setup::PowerAware => None,
                Setup::TscAware => Some(PostProcessConfig::paper()),
            },
        }
    }

    /// The objective weights in effect: the explicit override when set, otherwise the
    /// setup's canonical weights.
    pub fn effective_weights(&self) -> ObjectiveWeights {
        self.weights.unwrap_or_else(|| self.setup.weights())
    }

    /// The finest analysis grid (bins per axis) a flow accepts, for both the annealing
    /// loop's grid and the verification grid: maps hold `grid_bins²` bins each. The
    /// largest grid any shipped binary uses is 64.
    pub const MAX_GRID_BINS: usize = 128;

    /// Validates the configuration, including the grid-size bounds that keep one
    /// submission from allocating without limit. Every flow run calls it before any
    /// stage runs; the serve daemon calls it at submission.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidConfig`] describing the first problem.
    pub fn validate(&self) -> Result<(), FlowError> {
        if self.schedule.grid_bins > Self::MAX_GRID_BINS {
            return Err(FlowError::InvalidConfig {
                reason: format!(
                    "grid_bins must be <= {}, got {}",
                    Self::MAX_GRID_BINS,
                    self.schedule.grid_bins
                ),
            });
        }
        if !(2..=Self::MAX_GRID_BINS).contains(&self.verification_bins) {
            return Err(FlowError::InvalidConfig {
                reason: format!(
                    "verification_bins must be in 2..={}, got {}",
                    Self::MAX_GRID_BINS,
                    self.verification_bins
                ),
            });
        }
        validate_solver_settings("solver", &self.solver)?;
        if let RetryPolicy::Relaxed(settings) = &self.retry {
            validate_solver_settings("retry solver", settings)?;
        }
        Ok(())
    }
}

/// Numerical slack on the fixed-outline packing check, matching the tolerance the
/// annealer's own tests accept for a "legal" packing.
const OUTLINE_TOLERANCE: f64 = 1e-9;

/// Checks one set of solver settings; a NaN tolerance would make the solver's
/// convergence check (`residual > tolerance`) pass vacuously and report unconverged
/// temperatures as a success.
fn validate_solver_settings(label: &str, settings: &SolverSettings) -> Result<(), FlowError> {
    if !settings.tolerance.is_finite() || settings.tolerance <= 0.0 {
        return Err(FlowError::InvalidConfig {
            reason: format!(
                "{label} tolerance must be positive and finite, got {}",
                settings.tolerance
            ),
        });
    }
    if settings.max_iterations == 0 {
        return Err(FlowError::InvalidConfig {
            reason: format!("{label} max_iterations must be >= 1"),
        });
    }
    Ok(())
}

/// Result of a full flow run.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// The setup that was run.
    pub setup: Setup,
    /// The annealing result (best floorplan, in-loop cost breakdown, runtime).
    pub sa: SaResult,
    /// The voltage assignment of the final floorplan.
    pub assignment: VoltageAssignment,
    /// Voltage-scaled per-block powers in watts.
    pub scaled_powers: Vec<f64>,
    /// Spatial entropies of the final power maps, per die (bottom first) — `S1`, `S2`.
    pub spatial_entropies: Vec<f64>,
    /// Detailed verification before post-processing.
    pub verification: VerificationReport,
    /// Which solver configuration produced [`FlowResult::verification`].
    pub verification_solve: SolveQuality,
    /// Per-die correlations from the detailed verification (before dummy TSVs) — the values
    /// the paper reports as `r1`, `r2` for the power-aware setup.
    pub verified_correlations: Vec<f64>,
    /// Post-processing result (TSC-aware setup only).
    pub post_process: Option<PostProcessResult>,
    /// The final sign-off verification with the augmented TSV plan (power/thermal maps
    /// included); `None` when post-processing is disabled.
    pub signoff_verification: Option<VerificationReport>,
    /// Which solver configuration produced the final sign-off verification; `None` when
    /// post-processing (and thus the second verification) is disabled.
    pub signoff_solve: Option<SolveQuality>,
    /// Final per-die correlations after post-processing (equal to
    /// `verified_correlations` when post-processing is disabled).
    pub final_correlations: Vec<f64>,
    /// Final TSV plan including any dummy TSVs.
    pub final_tsv_plan: TsvPlan,
    /// Record of the outline-repair pass, when the original floorplan violated the fixed
    /// outline and [`OutlinePolicy::Repair`] re-annealed it; `None` when the first
    /// floorplan was already legal.
    pub outline_repair: Option<OutlineRepair>,
    /// Wall-clock seconds spent per pipeline stage.
    pub stage_timings: StageTimings,
    /// Total flow runtime in seconds.
    pub runtime_seconds: f64,
}

impl FlowResult {
    /// The floorplan produced by the flow.
    pub fn floorplan(&self) -> &Floorplan {
        &self.sa.floorplan
    }

    /// Number of signal TSVs of the final plan.
    pub fn signal_tsvs(&self) -> usize {
        self.final_tsv_plan.signal_count()
    }

    /// Number of dummy thermal TSVs of the final plan.
    pub fn dummy_tsvs(&self) -> usize {
        self.final_tsv_plan.dummy_count()
    }

    /// Average of the final per-die correlations.
    pub fn avg_final_correlation(&self) -> f64 {
        if self.final_correlations.is_empty() {
            0.0
        } else {
            self.final_correlations.iter().sum::<f64>() / self.final_correlations.len() as f64
        }
    }

    /// `true` when any verification in the run needed the relaxed retry.
    pub fn used_relaxed_solve(&self) -> bool {
        self.verification_solve.is_relaxed()
            || self
                .signoff_solve
                .map(SolveQuality::is_relaxed)
                .unwrap_or(false)
    }
}

/// Intermediate state handed from the floorplan stage to the assign stage.
struct FloorplanStage {
    sa: SaResult,
    stack: Stack,
    outline_repair: Option<OutlineRepair>,
}

/// Intermediate state handed from the assign stage to the verify stage.
struct AssignStage {
    assignment: VoltageAssignment,
    scaled_powers: Vec<f64>,
}

/// Intermediate state handed from the verify stage to the post-process stage.
struct VerifyStage {
    grid: Grid,
    tsv_plan: TsvPlan,
    verification: VerificationReport,
    verification_solve: SolveQuality,
    spatial_entropies: Vec<f64>,
}

/// Outcome of the post-process stage.
struct PostProcessStage {
    post_process: Option<PostProcessResult>,
    signoff_verification: Option<VerificationReport>,
    signoff_solve: Option<SolveQuality>,
    final_tsv_plan: TsvPlan,
    final_correlations: Vec<f64>,
}

/// Outline-repair round 1 annealed beside the initial anneal: used when that is illegal.
static REPAIR_ANNEALS: Speculation = Speculation::new("anneal");

/// The flow driver: floorplanning, verification, and (for the TSC setup) post-processing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TscFlow {
    config: FlowConfig,
    helpers: Helpers,
}

impl TscFlow {
    /// Creates a flow with the given configuration.
    pub fn new(config: FlowConfig) -> Self {
        Self {
            config,
            helpers: Helpers::Budget,
        }
    }

    /// The same flow with its helper lanes fixed, so tests can compare the serial
    /// schedule with the two-lane one.
    #[cfg(test)]
    pub(crate) fn with_helpers(self, helpers: Helpers) -> Self {
        Self { helpers, ..self }
    }

    /// The configuration in use.
    pub fn config(&self) -> FlowConfig {
        self.config
    }

    /// Runs the full pipeline on a design (two-die stack, as in the paper).
    ///
    /// # Errors
    ///
    /// Returns a [`FlowError`] when the configuration is invalid or a detailed thermal
    /// solve fails after exhausting the configured [`RetryPolicy`]. A failed final
    /// sign-off is never papered over with the pre-insertion verification.
    pub fn run(&self, design: &Design, seed: u64) -> Result<FlowResult, FlowError> {
        self.run_with_cancel(design, seed, &CancelToken::new())
    }

    /// [`TscFlow::run`] polling `cancel` cooperatively: between stages (checkpoint site
    /// `flow-stage`), at every SA epoch (`sa-epoch`), and at every detailed-solver sweep
    /// window (`solver-sweep`).
    ///
    /// A run that completes is byte-identical to an uncancelled [`TscFlow::run`] — the
    /// checkpoints never touch the seeded random streams. An interrupted run returns
    /// [`FlowError::Cancelled`] / [`FlowError::DeadlineExceeded`] carrying the wall-clock
    /// of the stages that did complete.
    ///
    /// While the process-wide flow budget has a free core ([`tsc3d_exec::lanes`]), the
    /// floorplan stage anneals the first outline-repair round on a helper thread while
    /// the initial anneal runs (unless recent initial anneals needed no repair), and
    /// detailed-engine post-processing solves two maps at a time. Results are
    /// bit-identical to the serial schedule.
    ///
    /// # Errors
    ///
    /// The [`TscFlow::run`] errors, plus the cancellation/deadline/fault variants.
    pub fn run_with_cancel(
        &self,
        design: &Design,
        seed: u64,
        cancel: &CancelToken,
    ) -> Result<FlowResult, FlowError> {
        let _span = obs::span!("flow");
        let _thread = FlowThread::enter();
        let metrics = flow_metrics();
        metrics.runs.inc();
        let result = self.run_stages(design, seed, cancel);
        match &result {
            Ok(flow) => {
                metrics.evaluations.add(flow.sa.evaluations as u64);
                obs::add_to_span("evaluations", flow.sa.evaluations as u64);
            }
            Err(error) => {
                obs::global()
                    .counter_with(
                        "tsc3d_flow_failures_total",
                        "Flow runs that returned a FlowError, by error kind",
                        &[("kind", error.kind())],
                    )
                    .inc();
            }
        }
        result
    }

    /// The stage pipeline behind [`TscFlow::run`] (which adds the span/metric shell).
    ///
    /// Each stage boundary is a `flow-stage` checkpoint, and every stage error (including
    /// cancellations surfacing from inside a stage) is patched with the timings of the
    /// stages that completed before it, so partial progress is never lost on an abort.
    fn run_stages(
        &self,
        design: &Design,
        seed: u64,
        cancel: &CancelToken,
    ) -> Result<FlowResult, FlowError> {
        self.config.validate()?;
        let metrics = flow_metrics();
        let start = std::time::Instant::now();
        let mut timings = StageTimings::default();
        let boundary = |stage: FlowStage, timings: &StageTimings| {
            tsc3d_exec::checkpoint("flow-stage", cancel)
                .map_err(|i| FlowError::from_interrupt(i, stage, *timings))
        };

        boundary(FlowStage::Floorplan, &timings)?;
        let stage_start = std::time::Instant::now();
        let floorplanned = {
            let _stage = obs::stage_scope("floorplan");
            self.stage_floorplan(design, seed, cancel)
        };
        timings.floorplan_s = stage_start.elapsed().as_secs_f64();
        let floorplanned = floorplanned.map_err(|e| e.with_timings(timings))?;
        metrics.stage_floorplan.observe_secs(timings.floorplan_s);

        boundary(FlowStage::Assign, &timings)?;
        let stage_start = std::time::Instant::now();
        let assigned = {
            let _stage = obs::stage_scope("assign");
            self.stage_assign(design, &floorplanned)
        };
        timings.assign_s = stage_start.elapsed().as_secs_f64();
        metrics.stage_assign.observe_secs(timings.assign_s);

        boundary(FlowStage::Verify, &timings)?;
        let stage_start = std::time::Instant::now();
        let verified = {
            let _stage = obs::stage_scope("verify");
            self.stage_verify(design, &floorplanned, &assigned, cancel)
        };
        timings.verify_s = stage_start.elapsed().as_secs_f64();
        let verified = verified.map_err(|e| e.with_timings(timings))?;
        metrics.stage_verify.observe_secs(timings.verify_s);

        boundary(FlowStage::PostProcess, &timings)?;
        let stage_start = std::time::Instant::now();
        let processed = {
            let _stage = obs::stage_scope("post_process");
            self.stage_post_process(design, &floorplanned, &assigned, &verified, seed, cancel)
        };
        timings.post_process_s = stage_start.elapsed().as_secs_f64();
        let processed = processed.map_err(|e| e.with_timings(timings))?;
        metrics
            .stage_post_process
            .observe_secs(timings.post_process_s);

        Ok(FlowResult {
            setup: self.config.setup,
            sa: floorplanned.sa,
            assignment: assigned.assignment,
            scaled_powers: assigned.scaled_powers,
            spatial_entropies: verified.spatial_entropies,
            verified_correlations: verified.verification.correlations.clone(),
            verification: verified.verification,
            verification_solve: verified.verification_solve,
            post_process: processed.post_process,
            signoff_verification: processed.signoff_verification,
            signoff_solve: processed.signoff_solve,
            final_correlations: processed.final_correlations,
            final_tsv_plan: processed.final_tsv_plan,
            outline_repair: floorplanned.outline_repair,
            stage_timings: timings,
            runtime_seconds: start.elapsed().as_secs_f64(),
        })
    }

    /// Stage 1: multi-objective simulated-annealing floorplanning, with fixed-outline
    /// sign-off.
    ///
    /// Short ("quick") schedules cannot guarantee a legal packing for every seed; a
    /// floorplan whose envelope exceeds the outline would flow into verification as a
    /// physically unrealizable design. The configured [`OutlinePolicy`] either fails
    /// typed or runs the explicit repair pass: fresh re-annealing rounds with the packing
    /// weight escalated fourfold per round (seeded deterministically from `seed` and the
    /// round index), recorded in the result so repairs are never silent.
    ///
    /// Round 1 depends on `seed` alone, so a helper lane anneals it while round 0 runs;
    /// it is kept only when round 0 is illegal, and otherwise cancelled at its next
    /// `sa-epoch` checkpoint. That guess is dropped while the process's last
    /// [`Speculation::PATIENCE`] initial anneals were all legal, since a cancelled round
    /// only slows round 0. Later rounds run one at a time: each is likelier legal than
    /// the last, and a round annealed beside the one that decides only slows it on a
    /// host whose two lanes share a core.
    fn stage_floorplan(
        &self,
        design: &Design,
        seed: u64,
        cancel: &CancelToken,
    ) -> Result<FloorplanStage, FlowError> {
        let stack = Stack::two_die(design.outline());
        let weights = self.config.effective_weights();
        let max_rounds = match self.config.outline {
            OutlinePolicy::Fail => 0,
            OutlinePolicy::Repair { max_rounds } => max_rounds,
        };
        // Round 0 is the configured anneal. Each repair round quadruples both the
        // packing weight and the annealing effort (stages and moves each double): a
        // violated packing under a short schedule usually needs more moves, not just a
        // steeper objective.
        let anneal = |round: usize, token: &CancelToken| {
            let mut round_weights = weights;
            round_weights.packing *= 4f64.powi(round as i32);
            let mut schedule = self.config.schedule;
            schedule.stages *= 1 << round;
            schedule.moves_per_stage *= 1 << round;
            let round_seed = match round {
                0 => seed,
                _ => seed ^ (0x0C7_1189 + round as u64),
            };
            SimulatedAnnealing::new(schedule).optimize_on_cancellable(
                design,
                stack,
                &round_weights,
                round_seed,
                token,
            )
        };
        let legal = |sa: &SaResult| sa.breakdown.packing <= 1.0 + OUTLINE_TOLERANCE;
        // A legal round, or an interrupted one, ends the stage.
        let settles = |outcome: &Result<SaResult, Interrupt>| outcome.as_ref().map_or(true, legal);
        let (opening, first_repair) = self.helpers.join(
            Some(&REPAIR_ANNEALS),
            cancel,
            || anneal(0, cancel),
            |first| !settles(first),
            (max_rounds >= 1).then_some(|token: &CancelToken| anneal(1, token)),
        );
        let mut rounds = vec![opening];
        rounds.extend(first_repair);
        while rounds.len() <= max_rounds && !rounds.last().is_some_and(settles) {
            rounds.push(anneal(rounds.len(), cancel));
        }

        let (mut packing_before, mut best_packing) = (f64::NAN, f64::NAN);
        for (round, outcome) in rounds.into_iter().enumerate() {
            let sa = outcome.map_err(|i| {
                FlowError::from_interrupt(i, FlowStage::Floorplan, StageTimings::default())
            })?;
            let packing = sa.breakdown.packing;
            if legal(&sa) {
                let outline_repair = (round > 0).then_some(OutlineRepair {
                    rounds: round,
                    packing_before,
                    packing_after: packing,
                });
                return Ok(FloorplanStage {
                    sa,
                    stack,
                    outline_repair,
                });
            }
            if round == 0 {
                (packing_before, best_packing) = (packing, packing);
            } else {
                best_packing = best_packing.min(packing);
            }
        }
        Err(FlowError::OutlineViolation {
            packing: best_packing,
        })
    }

    /// Stage 2: extract the final voltage assignment and scale block powers.
    fn stage_assign(&self, design: &Design, floorplanned: &FloorplanStage) -> AssignStage {
        let weights = self.config.effective_weights();
        let evaluator = Evaluator::new(design, floorplanned.stack, weights)
            .with_grid_bins(self.config.schedule.grid_bins);
        let (_, assignment, _loop_tsv_plan) = evaluator.evaluate_full(&floorplanned.sa.floorplan);
        let scaling = tsc3d_timing::VoltageScaling::paper_90nm();
        let scaled_powers = assignment.scaled_powers(design, &scaling);
        AssignStage {
            assignment,
            scaled_powers,
        }
    }

    /// Stage 3: detailed verification (HotSpot's role in the paper).
    ///
    /// The verification (and everything downstream) uses its own, typically finer grid, so
    /// the signal TSVs are re-planned on that grid.
    fn stage_verify(
        &self,
        design: &Design,
        floorplanned: &FloorplanStage,
        assigned: &AssignStage,
        cancel: &CancelToken,
    ) -> Result<VerifyStage, FlowError> {
        let floorplan = &floorplanned.sa.floorplan;
        let grid = floorplan.analysis_grid(self.config.verification_bins);
        let tsv_plan = plan_signal_tsvs(design, floorplan, grid);
        let (verification, verification_solve) = self.verify_with_retry(
            FlowStage::Verify,
            floorplan,
            &assigned.scaled_powers,
            &tsv_plan,
            grid,
            cancel,
        )?;

        // Spatial entropies of the verified power maps (S1, S2 in the paper's tables).
        let entropy_model = SpatialEntropy::default();
        let spatial_entropies: Vec<f64> = verification
            .power_maps
            .iter()
            .map(|m| entropy_model.of_map(m))
            .collect();

        Ok(VerifyStage {
            grid,
            tsv_plan,
            verification,
            verification_solve,
            spatial_entropies,
        })
    }

    /// Stage 4: activity sampling + dummy-TSV post-processing (TSC setup only), followed by
    /// the final sign-off verification with the augmented TSV plan.
    fn stage_post_process(
        &self,
        design: &Design,
        floorplanned: &FloorplanStage,
        assigned: &AssignStage,
        verified: &VerifyStage,
        seed: u64,
        cancel: &CancelToken,
    ) -> Result<PostProcessStage, FlowError> {
        let Some(pp_config) = self.config.post_process else {
            return Ok(PostProcessStage {
                post_process: None,
                signoff_verification: None,
                signoff_solve: None,
                final_tsv_plan: verified.tsv_plan.clone(),
                final_correlations: verified.verification.correlations.clone(),
            });
        };

        let floorplan = &floorplanned.sa.floorplan;
        let inserter =
            DummyTsvInserter::new(pp_config, ThermalConfig::default_for(floorplanned.stack))
                .with_helpers(self.helpers)
                .with_cancel(cancel);
        let result = inserter
            .run(
                design,
                floorplan,
                &assigned.scaled_powers,
                verified.tsv_plan.clone(),
                verified.grid,
                seed ^ 0xD1CE,
            )
            .map_err(|source| solve_failure(FlowStage::PostProcess, 1, source))?;

        // Final sign-off with the detailed solver and the augmented TSV plan. A failure
        // here surfaces as a FlowError (possibly after the explicit relaxed retry). With
        // no island accepted the plan is the verify stage's, whose solve of this exact
        // system (same solver, same retry policy) is the sign-off; the fast engine's
        // estimates poll no token, so the job's token is checked here instead (no fault
        // site, so fault-hit numbering is unchanged).
        let (final_verification, signoff_solve) = if result.accepted_steps == 0 {
            cancel.check().map_err(|reason| {
                FlowError::from_interrupt(
                    Interrupt::Cancelled(reason),
                    FlowStage::PostProcess,
                    StageTimings::default(),
                )
            })?;
            (verified.verification.clone(), verified.verification_solve)
        } else {
            self.verify_with_retry(
                FlowStage::PostProcess,
                floorplan,
                &assigned.scaled_powers,
                &result.tsv_plan,
                verified.grid,
                cancel,
            )?
        };

        Ok(PostProcessStage {
            final_correlations: final_verification.correlations.clone(),
            signoff_verification: Some(final_verification),
            signoff_solve: Some(signoff_solve),
            final_tsv_plan: result.tsv_plan.clone(),
            post_process: Some(result),
        })
    }

    /// Runs the detailed verification with the nominal solver, applying the configured
    /// [`RetryPolicy`] on a non-converged solve. The returned [`SolveQuality`] records
    /// whether the relaxed retry was needed.
    ///
    /// Only [`SolveError::NotConverged`] is retried: structural errors (wrong map counts,
    /// grid mismatches) cannot be fixed by relaxing the solver and surface immediately
    /// with the nominal attempt's error. An interrupted solve
    /// ([`SolveError::Interrupted`]) is never retried either — the caller asked out, so
    /// it maps straight to the typed cancellation/deadline/fault error.
    fn verify_with_retry(
        &self,
        stage: FlowStage,
        floorplan: &Floorplan,
        block_powers: &[f64],
        tsv_plan: &TsvPlan,
        grid: Grid,
        cancel: &CancelToken,
    ) -> Result<(VerificationReport, SolveQuality), FlowError> {
        let nominal = solver_for(floorplan, self.config.solver);
        let outcome = verify_cancellable(floorplan, block_powers, tsv_plan, grid, &nominal, cancel);
        match (outcome, self.config.retry) {
            (Ok(report), _) => Ok((report, SolveQuality::Nominal)),
            (Err(SolveError::NotConverged { .. }), RetryPolicy::Relaxed(settings)) => {
                let relaxed = solver_for(floorplan, settings);
                verify_cancellable(floorplan, block_powers, tsv_plan, grid, &relaxed, cancel)
                    .map(|report| (report, SolveQuality::Relaxed))
                    .map_err(|source| solve_failure(stage, 2, source))
            }
            (Err(source), _) => Err(solve_failure(stage, 1, source)),
        }
    }
}

/// The flow error of a detailed solve in `stage` that failed after `attempts` attempts:
/// an interrupt becomes the typed cancellation, deadline or fault error, anything else
/// [`FlowError::Solve`].
fn solve_failure(stage: FlowStage, attempts: usize, source: SolveError) -> FlowError {
    match source {
        SolveError::Interrupted { interrupt, .. } => {
            FlowError::from_interrupt(interrupt, stage, StageTimings::default())
        }
        source => FlowError::Solve {
            stage,
            attempts,
            source,
        },
    }
}

/// Builds a detailed solver for the floorplan's stack with the given settings.
fn solver_for(floorplan: &Floorplan, settings: SolverSettings) -> SteadyStateSolver {
    default_solver(floorplan)
        .with_tolerance(settings.tolerance)
        .with_max_iterations(settings.max_iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postprocess::ThermalEngine;
    use tsc3d_exec::CancelReason;
    use tsc3d_netlist::suite::{generate, Benchmark};

    fn small_quick_config(setup: Setup) -> FlowConfig {
        let mut config = FlowConfig::quick(setup);
        // Keep tests fast: tiny annealing schedule and coarse grids.
        config.schedule.stages = 6;
        config.schedule.moves_per_stage = 10;
        config.schedule.grid_bins = 12;
        config.verification_bins = 12;
        config
    }

    fn small_quick_flow(setup: Setup) -> FlowResult {
        let design = generate(Benchmark::N100, 1);
        TscFlow::new(small_quick_config(setup))
            .run(&design, 3)
            .expect("quick flow converges")
    }

    #[test]
    fn power_aware_flow_produces_no_dummy_tsvs() {
        let result = small_quick_flow(Setup::PowerAware);
        assert_eq!(result.setup, Setup::PowerAware);
        assert_eq!(result.dummy_tsvs(), 0);
        assert!(result.post_process.is_none());
        assert!(result.signoff_verification.is_none());
        assert!(result.signoff_solve.is_none());
        assert_eq!(result.final_correlations, result.verified_correlations);
        assert!(result.signal_tsvs() > 0);
        assert_eq!(result.spatial_entropies.len(), 2);
        assert!(result.runtime_seconds > 0.0);
    }

    #[test]
    fn tsc_aware_flow_runs_post_processing() {
        let result = small_quick_flow(Setup::TscAware);
        assert_eq!(result.setup, Setup::TscAware);
        assert!(result.post_process.is_some());
        assert!(result.signoff_solve.is_some());
        // The sign-off report is kept on the result and is the source of the final
        // correlations.
        let signoff = result
            .signoff_verification
            .as_ref()
            .expect("TSC flow keeps the sign-off verification");
        assert_eq!(signoff.correlations, result.final_correlations);
        // Dummy TSVs may be zero (if no insertion helped) but never negative; correlations
        // stay within [-1, 1].
        assert!(result.avg_final_correlation().abs() <= 1.0);
        let pp = result.post_process.as_ref().unwrap();
        assert!(pp.correlation_after <= pp.correlation_before + 1e-12);
    }

    #[test]
    fn stage_timings_cover_the_runtime() {
        let result = small_quick_flow(Setup::TscAware);
        let timings = result.stage_timings;
        assert!(timings.floorplan_s > 0.0);
        assert!(timings.assign_s >= 0.0);
        assert!(timings.verify_s > 0.0);
        assert!(timings.post_process_s > 0.0);
        // The stages account for (almost all of) the total runtime.
        assert!(timings.total_s() <= result.runtime_seconds + 1e-9);
        assert!(timings.total_s() > 0.5 * result.runtime_seconds);
    }

    #[test]
    fn retry_policy_fail_surfaces_a_typed_error() {
        let design = generate(Benchmark::N100, 1);
        let mut config = small_quick_config(Setup::PowerAware);
        // A one-iteration budget cannot converge; with retries disabled the flow must
        // surface a typed error rather than panicking or reporting stale data.
        config.solver = SolverSettings {
            tolerance: 1e-9,
            max_iterations: 1,
        };
        config.retry = RetryPolicy::Fail;
        let err = TscFlow::new(config)
            .run(&design, 3)
            .expect_err("non-converging solve must fail");
        match err {
            FlowError::Solve {
                stage, attempts, ..
            } => {
                assert_eq!(stage, FlowStage::Verify);
                assert_eq!(attempts, 1);
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn relaxed_retry_is_recorded_in_the_result() {
        let design = generate(Benchmark::N100, 1);
        let mut config = small_quick_config(Setup::PowerAware);
        // Nominal settings that cannot converge, with a workable relaxed fallback: the
        // flow must succeed and record that the relaxed solve was used.
        config.solver = SolverSettings {
            tolerance: 1e-9,
            max_iterations: 1,
        };
        config.retry = RetryPolicy::Relaxed(SolverSettings::relaxed());
        let result = TscFlow::new(config)
            .run(&design, 3)
            .expect("relaxed retry converges");
        assert_eq!(result.verification_solve, SolveQuality::Relaxed);
        assert!(result.used_relaxed_solve());
    }

    #[test]
    fn invalid_config_is_rejected_before_running() {
        let design = generate(Benchmark::N100, 1);
        let mut config = small_quick_config(Setup::PowerAware);
        config.verification_bins = 1;
        let err = TscFlow::new(config)
            .run(&design, 3)
            .expect_err("invalid config");
        assert!(matches!(err, FlowError::InvalidConfig { .. }));
        assert!(err.to_string().contains("verification_bins"));
    }

    #[test]
    fn invalid_retry_settings_are_rejected_too() {
        let design = generate(Benchmark::N100, 1);
        // A NaN relaxed tolerance would make the solver's convergence check pass
        // vacuously and report unconverged temperatures as a success.
        let mut config = small_quick_config(Setup::PowerAware);
        config.retry = RetryPolicy::Relaxed(SolverSettings {
            tolerance: f64::NAN,
            max_iterations: 10,
        });
        let err = TscFlow::new(config)
            .run(&design, 3)
            .expect_err("NaN retry tolerance must be rejected");
        assert!(matches!(err, FlowError::InvalidConfig { .. }));
        assert!(err.to_string().contains("retry solver"));

        config.retry = RetryPolicy::Relaxed(SolverSettings {
            tolerance: 1e-3,
            max_iterations: 0,
        });
        let err = TscFlow::new(config)
            .run(&design, 3)
            .expect_err("zero retry iterations must be rejected");
        assert!(matches!(err, FlowError::InvalidConfig { .. }));
    }

    #[test]
    fn outline_violations_surface_as_typed_errors() {
        let design = generate(Benchmark::N100, 1);
        let mut config = small_quick_config(Setup::PowerAware);
        // A one-move schedule leaves the initial (loose) packing essentially untouched,
        // which reliably exceeds the fixed outline on a ~55 %-utilized two-die stack.
        config.schedule.stages = 1;
        config.schedule.moves_per_stage = 1;
        config.outline = OutlinePolicy::Fail;
        let err = TscFlow::new(config)
            .run(&design, 3)
            .expect_err("a one-move schedule cannot legalize the packing");
        match err {
            FlowError::OutlineViolation { packing } => {
                assert!(packing > 1.0);
                assert_eq!(err.stage(), FlowStage::Floorplan);
            }
            other => panic!("expected OutlineViolation, got {other:?}"),
        }
    }

    #[test]
    fn outline_repair_is_recorded_and_legalizes() {
        // Seed 3 of N100 under the tiny schedule violates the outline (stretch ~1.22);
        // the default repair policy must legalize it and record the pass.
        let result = small_quick_flow(Setup::PowerAware);
        let repair = result
            .outline_repair
            .expect("tiny schedule triggers the repair pass for this seed");
        assert!(repair.rounds >= 1);
        assert!(repair.packing_before > 1.0);
        assert!(repair.packing_after <= 1.0 + 1e-9);
        assert!(result.sa.breakdown.packing <= 1.0 + 1e-9);
    }

    #[test]
    fn weight_override_changes_the_objective() {
        let design = generate(Benchmark::N100, 1);
        let mut config = small_quick_config(Setup::PowerAware);
        assert_eq!(config.effective_weights(), Setup::PowerAware.weights());
        // Overriding a PA config with the TSC weights must actually steer the annealer.
        config.weights = Some(Setup::TscAware.weights());
        assert!(config.effective_weights().is_leakage_aware());
        let overridden = TscFlow::new(config)
            .run(&design, 3)
            .expect("overridden flow converges");
        let baseline = small_quick_flow(Setup::PowerAware);
        assert_ne!(
            overridden.sa.breakdown.wirelength,
            baseline.sa.breakdown.wirelength
        );
    }

    /// A TSC flow on 10-bin grids with detailed-engine post-processing, annealing
    /// `stages × moves` with the packing weight scaled by `packing`.
    fn lanes_config(stages: usize, moves: usize, packing: f64) -> FlowConfig {
        let mut config = FlowConfig::quick(Setup::TscAware);
        config.schedule.stages = stages;
        config.schedule.moves_per_stage = moves;
        config.schedule.grid_bins = 10;
        config.verification_bins = 10;
        let mut weights = config.setup.weights();
        weights.packing *= packing;
        config.weights = Some(weights);
        if let Some(pp) = config.post_process.as_mut() {
            pp.activity_samples = 4;
            pp.max_insertions = 4;
            pp.engine = ThermalEngine::Detailed;
        }
        config
    }

    /// Runs `config` with zero helpers and with one, asserts the two results agree bit
    /// for bit, and returns the number of outline-repair rounds.
    fn rounds_with_either_lane_count(
        config: FlowConfig,
        benchmark: Benchmark,
        design_seed: u64,
        seed: u64,
    ) -> usize {
        let design = generate(benchmark, design_seed);
        let flow = TscFlow::new(config);
        let serial = flow.with_helpers(Helpers::Zero).run(&design, seed);
        let paired = flow.with_helpers(Helpers::One).run(&design, seed);
        let (serial, paired) = (serial.expect("serial flow"), paired.expect("paired flow"));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(serial.sa.cost.to_bits(), paired.sa.cost.to_bits());
        assert_eq!(serial.sa.breakdown, paired.sa.breakdown);
        assert_eq!(bits(&serial.sa.history), bits(&paired.sa.history));
        assert_eq!(serial.sa.evaluations, paired.sa.evaluations);
        assert_eq!(serial.sa.accepted, paired.sa.accepted);
        assert_eq!(serial.outline_repair, paired.outline_repair);
        assert_eq!(
            bits(&serial.verified_correlations),
            bits(&paired.verified_correlations)
        );
        assert_eq!(
            bits(&serial.final_correlations),
            bits(&paired.final_correlations)
        );
        assert_eq!(serial.dummy_tsvs(), paired.dummy_tsvs());
        assert_eq!(serial.final_tsv_plan, paired.final_tsv_plan);
        assert_eq!(serial.post_process, paired.post_process);
        assert_eq!(serial.signoff_verification, paired.signoff_verification);
        serial.outline_repair.map_or(0, |repair| repair.rounds)
    }

    #[test]
    fn a_legal_initial_anneal_is_kept_by_both_schedules() {
        // The helper's speculative repair round is cancelled.
        let config = lanes_config(30, 40, 16.0);
        assert_eq!(
            rounds_with_either_lane_count(config, Benchmark::N100, 3, 4),
            0
        );
    }

    #[test]
    fn one_repair_round_agrees_across_schedules() {
        let config = lanes_config(12, 40, 16.0);
        assert_eq!(
            rounds_with_either_lane_count(config, Benchmark::N100, 1, 2),
            1
        );
        assert_eq!(
            rounds_with_either_lane_count(config, Benchmark::N200, 3, 3),
            1
        );
    }

    #[test]
    fn two_repair_rounds_agree_across_schedules() {
        // The serve workload's 16 × 16-move flows.
        let config = lanes_config(16, 16, 1.0);
        assert_eq!(
            rounds_with_either_lane_count(config, Benchmark::N100, 1, 2),
            2
        );
    }

    #[test]
    fn a_sign_off_reusing_the_verify_solve_still_polls_the_job_token() {
        // Fast-engine post-processing polls no token, and with no island accepted the
        // sign-off reuses the verify solve, so only the stage's own check sees the job
        // cancelled or past its deadline while the inserter runs.
        let design = generate(Benchmark::N100, 1);
        let mut config = lanes_config(20, 30, 16.0);
        if let Some(pp) = config.post_process.as_mut() {
            pp.engine = ThermalEngine::Fast;
        }
        let flow = TscFlow::new(config);
        let live = CancelToken::new();
        let floorplanned = flow.stage_floorplan(&design, 1, &live).expect("floorplan");
        let assigned = flow.stage_assign(&design, &floorplanned);
        let verified = flow
            .stage_verify(&design, &floorplanned, &assigned, &live)
            .expect("verify");
        let post_process = |token: &CancelToken| {
            flow.stage_post_process(&design, &floorplanned, &assigned, &verified, 1, token)
        };
        let processed = post_process(&live).expect("a live job signs off");
        assert_eq!(processed.post_process.map(|r| r.accepted_steps), Some(0));
        assert_eq!(
            processed.signoff_verification.as_ref(),
            Some(&verified.verification)
        );

        let cancelled = CancelToken::new();
        cancelled.cancel(CancelReason::User);
        match post_process(&cancelled) {
            Err(FlowError::Cancelled { reason, stage, .. }) => {
                assert_eq!(
                    (reason, stage),
                    (CancelReason::User, FlowStage::PostProcess)
                );
            }
            other => panic!("expected a cancelled sign-off, got {:?}", other.map(|_| ())),
        }
        let expired = CancelToken::new();
        expired.cancel(CancelReason::Deadline);
        assert!(matches!(
            post_process(&expired),
            Err(FlowError::DeadlineExceeded {
                stage: FlowStage::PostProcess,
                ..
            })
        ));
    }

    #[test]
    fn setup_labels_and_weights() {
        assert_eq!(Setup::PowerAware.label(), "PA");
        assert_eq!(Setup::TscAware.label(), "TSC");
        assert!(Setup::TscAware.weights().is_leakage_aware());
        assert!(!Setup::PowerAware.weights().is_leakage_aware());
        let quick = FlowConfig::quick(Setup::PowerAware);
        assert!(quick.post_process.is_none());
        assert_eq!(quick.retry, RetryPolicy::relaxed_default());
        let paper = FlowConfig::paper(Setup::TscAware);
        assert!(paper.post_process.is_some());
        assert_eq!(paper.verification_bins, 64);
        assert_eq!(paper.solver, SolverSettings::nominal());
    }
}
