//! Activity sampling and correlation-stability-guided dummy-TSV insertion (Section 6.2).
//!
//! "Continuing the runtime sampling process, we iteratively insert dummy thermal TSVs where
//! the most stable correlations occur, as long as the resulting average correlation is
//! reduced. This stop criterion represents the final 'sweet spot' where further TSV
//! insertion would increase the overall correlation again."

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tsc3d_exec::{CancelToken, Helpers, Speculation};
use tsc3d_floorplan::{Floorplan, TsvPlan};
use tsc3d_geometry::{DieId, Grid, GridMap, GridPos};
use tsc3d_leakage::{map_correlation, CorrelationStability, StabilityMap};
use tsc3d_netlist::Design;
use tsc3d_power::ActivitySampler;
use tsc3d_thermal::{
    fast::PowerBlurring, SolveError, SteadyStateSolver, ThermalConfig, TsvField, TsvSite,
};

/// Which thermal engine drives the sampling and the insertion decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThermalEngine {
    /// The fast power-blurring estimator (cheap; used for in-loop experimentation and the
    /// ablation benches).
    Fast,
    /// The detailed finite-volume solver (the paper's HotSpot role; used for sign-off).
    Detailed,
}

/// Configuration of the post-processing stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PostProcessConfig {
    /// Number of sampled activity sets (the paper samples 100 steady-state evaluations).
    pub activity_samples: usize,
    /// Relative standard deviation of the Gaussian activity model (paper: 10 %).
    pub activity_sigma: f64,
    /// Minimum number of dummy TSVs per island (one island per accepted insertion step).
    /// Each island is additionally sized so that it fills its grid bin up to the
    /// technology's maximum packed TSV density — sparse dummy TSVs would not measurably
    /// change the local vertical heat path.
    pub tsvs_per_island: usize,
    /// Maximum number of insertion steps to attempt (safety bound; the paper's stop
    /// criterion usually triggers earlier).
    pub max_insertions: usize,
    /// Thermal engine used for the stability sampling and the accept/revert decisions.
    pub engine: ThermalEngine,
}

impl PostProcessConfig {
    /// The paper-style configuration: 100 samples, 10 % sigma, detailed engine.
    pub fn paper() -> Self {
        Self {
            activity_samples: 100,
            activity_sigma: 0.10,
            tsvs_per_island: 16,
            max_insertions: 50,
            engine: ThermalEngine::Detailed,
        }
    }

    /// A fast configuration for tests and quick experiments (few samples, fast engine).
    pub fn quick() -> Self {
        Self {
            activity_samples: 12,
            activity_sigma: 0.10,
            tsvs_per_island: 16,
            max_insertions: 10,
            engine: ThermalEngine::Fast,
        }
    }
}

/// Outcome of the post-processing stage.
#[derive(Debug, Clone, PartialEq)]
pub struct PostProcessResult {
    /// The TSV plan including the inserted dummy TSVs.
    pub tsv_plan: TsvPlan,
    /// Correlation-stability map of the bottom die before any insertion.
    pub stability: StabilityMap,
    /// Average (over dies) nominal correlation before insertion.
    pub correlation_before: f64,
    /// Average (over dies) nominal correlation after insertion.
    pub correlation_after: f64,
    /// Per-die nominal correlations after insertion.
    pub correlations_after: Vec<f64>,
    /// Number of dummy TSVs inserted.
    pub dummy_tsvs: usize,
    /// Number of insertion steps accepted.
    pub accepted_steps: usize,
}

impl PostProcessResult {
    /// Relative reduction of the average correlation achieved by the dummy TSVs (positive
    /// values mean the leakage was reduced).
    pub fn reduction(&self) -> f64 {
        if self.correlation_before.abs() < 1e-12 {
            0.0
        } else {
            (self.correlation_before - self.correlation_after) / self.correlation_before.abs()
        }
    }
}

/// Candidate `k + 1` solved beside candidate `k`: used when `k` is accepted.
static CHAINED_CANDIDATES: Speculation = Speculation::new("solve");

/// The dummy-TSV insertion engine.
#[derive(Debug, Clone)]
pub struct DummyTsvInserter {
    config: PostProcessConfig,
    thermal_config: ThermalConfig,
    helpers: Helpers,
    cancel: CancelToken,
}

impl DummyTsvInserter {
    /// Creates an inserter for the given stack configuration.
    pub fn new(config: PostProcessConfig, thermal_config: ThermalConfig) -> Self {
        Self {
            config,
            thermal_config,
            helpers: Helpers::Budget,
            cancel: CancelToken::new(),
        }
    }

    /// The same inserter with the helper lanes of its detailed solves fixed: the
    /// flow's own choice, or a test's.
    pub(crate) fn with_helpers(self, helpers: Helpers) -> Self {
        Self { helpers, ..self }
    }

    /// The same inserter polling `cancel` at every sweep window of its detailed solves:
    /// the flow passes its job's token.
    pub(crate) fn with_cancel(self, cancel: &CancelToken) -> Self {
        Self {
            cancel: cancel.clone(),
            ..self
        }
    }

    /// The post-processing configuration.
    pub fn config(&self) -> PostProcessConfig {
        self.config
    }

    /// Runs activity sampling, computes the correlation-stability map, and inserts dummy
    /// thermal TSVs at the most stable locations while the average nominal correlation keeps
    /// decreasing.
    ///
    /// `block_powers` are the nominal (voltage-scaled) block powers; `tsv_plan` is consumed
    /// and returned with the dummy TSVs added.
    ///
    /// With the detailed engine and a free core in the flow budget, the independent solves
    /// (every sample and the nominal map) run two at a time, and the insertion chain is
    /// walked two candidates at a time: candidate `k + 1` is built on candidate `k`'s plan,
    /// which is what the serial loop tries next if `k` is accepted, and is discarded if
    /// `k` is rejected (a guess dropped while the process's last
    /// [`Speculation::PATIENCE`] such pairs all went unneeded). The result is
    /// bit-identical to the serial schedule.
    ///
    /// # Errors
    ///
    /// A detailed solve that does not converge falls back to the fast estimate; any
    /// other [`SolveError`] ends the run: an interrupt at a `solver-sweep` checkpoint
    /// (the job's token, or an injected fault) or malformed solver input.
    pub fn run(
        &self,
        design: &Design,
        floorplan: &Floorplan,
        block_powers: &[f64],
        mut tsv_plan: TsvPlan,
        grid: Grid,
        seed: u64,
    ) -> Result<PostProcessResult, SolveError> {
        // A fast estimate costs less than starting a helper thread: paired, the fast
        // engine's post-processing ran 1.7-3.1x slower on 10- to 16-bin grids and 1.3x
        // slower on 48 bins (2-vCPU host).
        let helpers = match self.config.engine {
            ThermalEngine::Fast => Helpers::Zero,
            ThermalEngine::Detailed => self.helpers,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sampler = sampler_with_powers(design, block_powers, self.config.activity_sigma);

        // --- Stability sampling on the bottom die (the die the paper protects first). ---
        // Item `samples` is the nominal map before insertion. The items are solved two at
        // a time and each pair is folded in sample order before the next, so only two
        // solves' maps are live at once.
        let samples = self.config.activity_samples.max(2);
        let draws: Vec<Vec<f64>> = (0..samples).map(|_| sampler.sample(&mut rng)).collect();
        let bottom = floorplan.stack().bottom().index();
        let mut accumulator = CorrelationStability::new(grid);
        let mut nominal = None;
        let items: Vec<usize> = (0..=samples).collect();
        for pair in items.chunks(2) {
            let power_maps: Vec<Vec<GridMap>> = pair
                .iter()
                .map(|&i| {
                    floorplan.power_maps(grid, draws.get(i).map_or(block_powers, Vec::as_slice))
                })
                .collect();
            let solve = |i: usize| self.thermal(&power_maps[i], &tsv_plan);
            let (first, second) = helpers.join(
                None,
                &self.cancel,
                || solve(0),
                Result::is_ok,
                (pair.len() == 2).then_some(|_: &CancelToken| solve(1)),
            );
            let thermal_maps = std::iter::once(first).chain(second);
            for ((&i, power), thermal) in pair.iter().zip(power_maps).zip(thermal_maps) {
                let thermal = thermal?;
                if i < samples {
                    accumulator.add_sample(&power[bottom], &thermal[bottom]);
                } else {
                    nominal = Some((power, thermal));
                }
            }
        }
        let stability = accumulator.finish();
        let (nominal_maps, nominal_thermal) = nominal.expect("the last item is the nominal map");

        // --- Nominal correlation before insertion. ---
        let mut correlations_after = die_correlations(&nominal_maps, &nominal_thermal);
        let correlation_before = mean(&correlations_after);

        // --- Iterative insertion at the most stable bins, two candidates at a time. ---
        let candidates = stability.top_bins(self.config.max_insertions.max(1));
        let mut best_correlation = correlation_before;
        let mut accepted_steps = 0;
        'chain: for pair in candidates.chunks(2) {
            let first = with_island(&tsv_plan, pair[0].0, grid, self.config.tsvs_per_island);
            let second = pair
                .get(1)
                .map(|&(pos, _)| with_island(&first, pos, grid, self.config.tsvs_per_island));
            let evaluate = |plan: &TsvPlan| {
                let thermal = self.thermal(&nominal_maps, plan)?;
                Ok(die_correlations(&nominal_maps, &thermal))
            };
            // The second candidate's solve polls the job's token, not the join's child
            // token, so it runs to completion even when the first is rejected: the solve
            // counters depend only on whether a helper ran.
            let (first_correlations, second_correlations) = helpers.join(
                Some(&CHAINED_CANDIDATES),
                &self.cancel,
                || evaluate(&first),
                |correlations: &Result<Vec<f64>, SolveError>| {
                    correlations
                        .as_ref()
                        .is_ok_and(|c| improves(mean(c), best_correlation))
                },
                second.as_ref().map(|plan| |_: &CancelToken| evaluate(plan)),
            );
            let tried =
                std::iter::once((first, first_correlations)).chain(second.zip(second_correlations));
            for (plan, correlations) in tried {
                let correlations = correlations?;
                let correlation = mean(&correlations);
                if improves(correlation, best_correlation) {
                    best_correlation = correlation;
                    correlations_after = correlations;
                    tsv_plan = plan;
                    accepted_steps += 1;
                } else {
                    // Sweet spot reached: further insertion no longer reduces the
                    // correlation.
                    break 'chain;
                }
            }
        }

        // `correlations_after` already holds the per-die correlations of the final plan:
        // the last accepted step (or the pre-insertion evaluation) solved exactly it.
        Ok(PostProcessResult {
            dummy_tsvs: tsv_plan.dummy_count(),
            tsv_plan,
            stability,
            correlation_before,
            correlation_after: best_correlation,
            correlations_after,
            accepted_steps,
        })
    }

    fn thermal(
        &self,
        power_maps: &[GridMap],
        tsv_plan: &TsvPlan,
    ) -> Result<Vec<GridMap>, SolveError> {
        let tsv_fields = tsv_plan.combined();
        let estimate =
            || PowerBlurring::new(&self.thermal_config).estimate(power_maps, &tsv_fields);
        match self.config.engine {
            ThermalEngine::Fast => Ok(estimate()),
            ThermalEngine::Detailed => {
                let solver = SteadyStateSolver::new(self.thermal_config.clone())
                    .with_tolerance(1e-4)
                    .with_max_iterations(4_000);
                match solver.solve_cancellable(power_maps, &tsv_fields, &self.cancel) {
                    Ok(result) => Ok(result.die_temperatures().to_vec()),
                    // Fall back to the fast estimate rather than aborting the whole flow if
                    // the detailed solve fails to converge for a pathological candidate.
                    Err(SolveError::NotConverged { .. }) => Ok(estimate()),
                    Err(error) => Err(error),
                }
            }
        }
    }
}

/// Per-die power–temperature correlations.
fn die_correlations(power_maps: &[GridMap], thermal_maps: &[GridMap]) -> Vec<f64> {
    power_maps
        .iter()
        .zip(thermal_maps)
        .map(|(p, t)| map_correlation(p, t).unwrap_or(0.0))
        .collect()
}

/// `plan` plus one dummy island at `pos` on the bottom interface, sized so the bin
/// reaches the maximum packed TSV density: only a densely packed thermal-via island
/// changes the local vertical conductance enough to shift the thermal map.
fn with_island(plan: &TsvPlan, pos: GridPos, grid: Grid, min_count: usize) -> TsvPlan {
    let technology = TsvField::TECHNOLOGY;
    let headroom = (technology.max_density() - plan.dummy()[0].density_at(pos)).max(0.0);
    let fill_count = (headroom * grid.bin_area() / technology.metal_area()).floor() as usize;
    let site = TsvSite::island(grid.bin_center(pos), fill_count.max(min_count));
    let mut candidate = plan.clone();
    candidate.add_dummy(0, site);
    candidate
}

/// The insertion rule: a candidate is accepted only when it strictly lowers the best
/// average correlation so far (a NaN never does).
fn improves(correlation: f64, best: f64) -> bool {
    correlation < best
}

/// The average of per-die correlations, summed in die order from `+0`.
fn mean(correlations: &[f64]) -> f64 {
    correlations.iter().fold(0.0, |sum, c| sum + c) / correlations.len() as f64
}

/// Builds an [`ActivitySampler`] whose means are the provided (voltage-scaled) powers rather
/// than the design's nominal powers.
fn sampler_with_powers(design: &Design, powers: &[f64], sigma: f64) -> ActivitySampler {
    // ActivitySampler samples around the design's nominal block powers; to sample around the
    // voltage-scaled powers we construct a shadow design with those powers.
    let blocks: Vec<tsc3d_netlist::Block> = design
        .iter_blocks()
        .map(|(id, b)| b.with_power(powers[id.index()]))
        .collect();
    let shadow = Design::new(
        design.name(),
        blocks,
        design.nets().to_vec(),
        design.terminals().to_vec(),
        design.outline(),
    )
    .expect("shadow design mirrors a valid design");
    ActivitySampler::new(&shadow, sigma)
}

/// Convenience: the die the stability map is computed for (bottom die, `d = 1` in the
/// paper's numbering).
pub fn protected_die() -> DieId {
    DieId::BOTTOM
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc3d_floorplan::{plan_signal_tsvs, SequencePair3d};
    use tsc3d_geometry::Stack;
    use tsc3d_netlist::suite::{generate, Benchmark};

    fn setup() -> (Design, Floorplan, Grid, Vec<f64>, TsvPlan) {
        let design = generate(Benchmark::N100, 1);
        let stack = Stack::two_die(design.outline());
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let fp = SequencePair3d::initial(&design, stack, &mut rng).pack(&design);
        let grid = fp.analysis_grid(16);
        let powers: Vec<f64> = design.blocks().iter().map(|b| b.power()).collect();
        let plan = plan_signal_tsvs(&design, &fp, grid);
        (design, fp, grid, powers, plan)
    }

    #[test]
    fn post_processing_never_increases_the_average_correlation() {
        let (design, fp, grid, powers, plan) = setup();
        let config = PostProcessConfig::quick();
        let inserter = DummyTsvInserter::new(config, ThermalConfig::default_for(fp.stack()));
        let result = inserter
            .run(&design, &fp, &powers, plan, grid, 7)
            .expect("post-processing");
        assert!(result.correlation_after <= result.correlation_before + 1e-12);
        assert!(result.reduction() >= 0.0);
        assert_eq!(result.correlations_after.len(), 2);
        // Every accepted step inserts at least the configured minimum island size.
        assert!(result.dummy_tsvs >= result.accepted_steps * config.tsvs_per_island);
        if result.accepted_steps == 0 {
            assert_eq!(result.dummy_tsvs, 0);
        }
    }

    #[test]
    fn stability_map_covers_the_analysis_grid() {
        let (design, fp, grid, powers, plan) = setup();
        let inserter = DummyTsvInserter::new(
            PostProcessConfig::quick(),
            ThermalConfig::default_for(fp.stack()),
        );
        let result = inserter
            .run(&design, &fp, &powers, plan, grid, 3)
            .expect("post-processing");
        assert_eq!(result.stability.map().grid(), grid);
        assert!(result.stability.samples() >= 2);
        // Stability values are correlations.
        assert!(result.stability.map().max() <= 1.0 + 1e-9);
        assert!(result.stability.map().min() >= -1.0 - 1e-9);
    }

    #[test]
    fn post_processing_is_deterministic_per_seed() {
        let (design, fp, grid, powers, plan) = setup();
        let inserter = DummyTsvInserter::new(
            PostProcessConfig::quick(),
            ThermalConfig::default_for(fp.stack()),
        );
        let run = |plan| {
            inserter
                .run(&design, &fp, &powers, plan, grid, 11)
                .expect("post-processing")
        };
        let (a, b) = (run(plan.clone()), run(plan));
        assert_eq!(a.correlation_after, b.correlation_after);
        assert_eq!(a.dummy_tsvs, b.dummy_tsvs);
    }

    #[test]
    fn correlations_after_are_those_of_a_fresh_solve_of_the_final_plan() {
        let (design, fp, grid, powers, plan) = setup();
        let nominal = fp.power_maps(grid, &powers);
        let mut accepted = 0;
        for engine in [ThermalEngine::Fast, ThermalEngine::Detailed] {
            let config = PostProcessConfig {
                activity_samples: 4,
                engine,
                ..PostProcessConfig::quick()
            };
            let inserter = DummyTsvInserter::new(config, ThermalConfig::default_for(fp.stack()));
            for seed in [3, 7, 11] {
                let result = inserter
                    .run(&design, &fp, &powers, plan.clone(), grid, seed)
                    .expect("post-processing");
                let fresh: Vec<f64> = nominal
                    .iter()
                    .zip(&inserter.thermal(&nominal, &result.tsv_plan).expect("solve"))
                    .map(|(p, t)| map_correlation(p, t).unwrap_or(0.0))
                    .collect();
                let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&result.correlations_after), bits(&fresh), "{engine:?}");
                let mean = fresh.iter().fold(0.0, |sum, c| sum + c) / fresh.len() as f64;
                assert_eq!(result.correlation_after.to_bits(), mean.to_bits());
                accepted += result.accepted_steps;
            }
        }
        assert!(accepted > 0, "some run must accept an insertion step");
    }

    #[test]
    fn zero_and_one_helper_insert_the_same_islands() {
        let (design, fp, grid, powers, plan) = setup();
        let mut stops = Vec::new();
        for engine in [ThermalEngine::Fast, ThermalEngine::Detailed] {
            let config = PostProcessConfig {
                activity_samples: 5,
                max_insertions: 6,
                engine,
                ..PostProcessConfig::quick()
            };
            let inserter = DummyTsvInserter::new(config, ThermalConfig::default_for(fp.stack()));
            for seed in [3, 7, 11, 19] {
                let run = |helpers| {
                    inserter
                        .clone()
                        .with_helpers(helpers)
                        .run(&design, &fp, &powers, plan.clone(), grid, seed)
                        .expect("post-processing")
                };
                let (serial, paired) = (run(Helpers::Zero), run(Helpers::One));
                assert_eq!(serial, paired, "{engine:?} seed {seed}");
                let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&serial.correlations_after),
                    bits(&paired.correlations_after)
                );
                if engine == ThermalEngine::Detailed {
                    stops.push(serial.accepted_steps);
                }
            }
        }
        // Candidates are solved in pairs (0, 1), (2, 3), …: an even count of accepted
        // steps below the bound stops on the first of a pair (its partner discarded),
        // an odd count on the second.
        assert!(stops.iter().any(|&n| n % 2 == 0 && n < 6), "{stops:?}");
        assert!(stops.iter().any(|&n| n % 2 == 1), "{stops:?}");
    }

    #[test]
    fn two_lanes_match_the_one_step_at_a_time_recipe() {
        // The two-lane schedule against the plain serial loop: fold the seeded draws one
        // at a time, then try the candidates one at a time until one is rejected.
        let (design, fp, grid, powers, plan) = setup();
        let config = PostProcessConfig {
            activity_samples: 5,
            max_insertions: 6,
            engine: ThermalEngine::Detailed,
            ..PostProcessConfig::quick()
        };
        let inserter = DummyTsvInserter::new(config, ThermalConfig::default_for(fp.stack()))
            .with_helpers(Helpers::One);
        let mut accepted = Vec::new();
        for seed in [3, 5, 7, 11] {
            let result = inserter
                .run(&design, &fp, &powers, plan.clone(), grid, seed)
                .expect("post-processing");

            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let sampler = sampler_with_powers(&design, &powers, config.activity_sigma);
            let bottom = protected_die().index();
            let mut stability = CorrelationStability::new(grid);
            for _ in 0..config.activity_samples {
                let maps = fp.power_maps(grid, &sampler.sample(&mut rng));
                let thermal = inserter.thermal(&maps, &plan).expect("solve");
                stability.add_sample(&maps[bottom], &thermal[bottom]);
            }
            let stability = stability.finish();
            let nominal = fp.power_maps(grid, &powers);
            let solve = |plan: &TsvPlan| {
                die_correlations(&nominal, &inserter.thermal(&nominal, plan).expect("solve"))
            };
            let (mut expected_plan, mut expected) = (plan.clone(), solve(&plan));
            for (pos, _) in stability.top_bins(config.max_insertions) {
                let candidate = with_island(&expected_plan, pos, grid, config.tsvs_per_island);
                let correlations = solve(&candidate);
                if !improves(mean(&correlations), mean(&expected)) {
                    break;
                }
                (expected_plan, expected) = (candidate, correlations);
            }

            assert_eq!(result.stability, stability, "seed {seed}");
            assert_eq!(result.tsv_plan, expected_plan, "seed {seed}");
            let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&result.correlations_after),
                bits(&expected),
                "seed {seed}"
            );
            accepted.push(result.accepted_steps);
        }
        assert!(
            accepted.iter().any(|&n| n >= 2),
            "{accepted:?}: a chain spans a pair"
        );
    }

    #[test]
    fn paper_config_uses_detailed_engine() {
        let c = PostProcessConfig::paper();
        assert_eq!(c.engine, ThermalEngine::Detailed);
        assert_eq!(c.activity_samples, 100);
        assert!((c.activity_sigma - 0.10).abs() < 1e-12);
        assert_eq!(protected_die(), DieId::BOTTOM);
    }
}
