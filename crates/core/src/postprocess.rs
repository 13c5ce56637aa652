//! Activity sampling and correlation-stability-guided dummy-TSV insertion (Section 6.2).
//!
//! "Continuing the runtime sampling process, we iteratively insert dummy thermal TSVs where
//! the most stable correlations occur, as long as the resulting average correlation is
//! reduced. This stop criterion represents the final 'sweet spot' where further TSV
//! insertion would increase the overall correlation again."

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use tsc3d_floorplan::{Floorplan, TsvPlan};
use tsc3d_geometry::{DieId, Grid, GridMap};
use tsc3d_leakage::{map_correlation, CorrelationStability, StabilityMap};
use tsc3d_netlist::Design;
use tsc3d_power::ActivitySampler;
use tsc3d_thermal::{fast::PowerBlurring, SteadyStateSolver, ThermalConfig, TsvSite};

/// Which thermal engine drives the sampling and the insertion decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThermalEngine {
    /// The fast power-blurring estimator (cheap; used for in-loop experimentation and the
    /// ablation benches).
    Fast,
    /// The detailed finite-volume solver (the paper's HotSpot role; used for sign-off).
    Detailed,
}

/// Configuration of the post-processing stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// The dummy-TSV insertion engine.
#[derive(Debug, Clone)]
pub struct DummyTsvInserter {
    config: PostProcessConfig,
    thermal_config: ThermalConfig,
}

impl DummyTsvInserter {
    /// Creates an inserter for the given stack configuration.
    pub fn new(config: PostProcessConfig, thermal_config: ThermalConfig) -> Self {
        Self {
            config,
            thermal_config,
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
    pub fn run(
        &self,
        design: &Design,
        floorplan: &Floorplan,
        block_powers: &[f64],
        mut tsv_plan: TsvPlan,
        grid: Grid,
        seed: u64,
    ) -> PostProcessResult {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sampler = sampler_with_powers(design, block_powers, self.config.activity_sigma);

        // --- Stability sampling on the bottom die (the die the paper protects first). ---
        let bottom = floorplan.stack().bottom();
        let mut accumulator = CorrelationStability::new(grid);
        for _ in 0..self.config.activity_samples.max(2) {
            let sample = sampler.sample(&mut rng);
            let power_maps = floorplan.power_maps(grid, &sample);
            let thermal_maps = self.thermal(&power_maps, &tsv_plan);
            accumulator.add_sample(&power_maps[bottom.index()], &thermal_maps[bottom.index()]);
        }
        let stability = accumulator.finish();

        // --- Nominal correlation before insertion. ---
        let nominal_maps = floorplan.power_maps(grid, block_powers);
        let mut correlations_after = self.die_correlations(&nominal_maps, &tsv_plan);
        let correlation_before = mean(&correlations_after);

        // --- Iterative insertion at the most stable bins. ---
        let candidates = stability.top_bins(self.config.max_insertions.max(1));
        let technology = tsv_plan
            .signal()
            .first()
            .map(|f| f.technology())
            .unwrap_or_default();
        let mut best_correlation = correlation_before;
        let mut accepted_steps = 0;
        for (pos, _stability_value) in candidates {
            // Size the island so the bin reaches the maximum packed TSV density: only a
            // densely packed thermal-via island changes the local vertical conductance
            // enough to shift the thermal map.
            let headroom =
                (technology.max_density() - tsv_plan.dummy()[0].density_at(pos)).max(0.0);
            let fill_count =
                (headroom * grid.bin_area() / technology.metal_area()).floor() as usize;
            let count = fill_count.max(self.config.tsvs_per_island);
            let site = TsvSite::island(grid.bin_center(pos), count);
            let mut candidate_plan = tsv_plan.clone();
            candidate_plan.add_dummy(0, site);
            let correlations = self.die_correlations(&nominal_maps, &candidate_plan);
            let correlation = mean(&correlations);
            if correlation < best_correlation {
                best_correlation = correlation;
                correlations_after = correlations;
                tsv_plan = candidate_plan;
                accepted_steps += 1;
            } else {
                // Sweet spot reached: further insertion no longer reduces the correlation.
                break;
            }
        }

        // `correlations_after` already holds the per-die correlations of the final plan:
        // the last accepted step (or the pre-insertion evaluation) solved exactly it.
        PostProcessResult {
            dummy_tsvs: tsv_plan.dummy_count(),
            tsv_plan,
            stability,
            correlation_before,
            correlation_after: best_correlation,
            correlations_after,
            accepted_steps,
        }
    }

    fn thermal(&self, power_maps: &[GridMap], tsv_plan: &TsvPlan) -> Vec<GridMap> {
        match self.config.engine {
            ThermalEngine::Fast => {
                PowerBlurring::new(&self.thermal_config).estimate(power_maps, &tsv_plan.combined())
            }
            ThermalEngine::Detailed => {
                let solver = SteadyStateSolver::new(self.thermal_config.clone())
                    .with_tolerance(1e-4)
                    .with_max_iterations(4_000);
                match solver.solve(power_maps, &tsv_plan.combined()) {
                    Ok(result) => result.die_temperatures().to_vec(),
                    // Fall back to the fast estimate rather than aborting the whole flow if
                    // the detailed solve fails to converge for a pathological candidate.
                    Err(_) => PowerBlurring::new(&self.thermal_config)
                        .estimate(power_maps, &tsv_plan.combined()),
                }
            }
        }
    }

    /// Per-die nominal power–temperature correlations under `tsv_plan`.
    fn die_correlations(&self, power_maps: &[GridMap], tsv_plan: &TsvPlan) -> Vec<f64> {
        let thermal = self.thermal(power_maps, tsv_plan);
        power_maps
            .iter()
            .zip(&thermal)
            .map(|(p, t)| map_correlation(p, t).unwrap_or(0.0))
            .collect()
    }
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
        let result = inserter.run(&design, &fp, &powers, plan, grid, 7);
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
        let result = inserter.run(&design, &fp, &powers, plan, grid, 3);
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
        let a = inserter.run(&design, &fp, &powers, plan.clone(), grid, 11);
        let b = inserter.run(&design, &fp, &powers, plan, grid, 11);
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
                let result = inserter.run(&design, &fp, &powers, plan.clone(), grid, seed);
                let fresh: Vec<f64> = nominal
                    .iter()
                    .zip(&inserter.thermal(&nominal, &result.tsv_plan))
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
    fn paper_config_uses_detailed_engine() {
        let c = PostProcessConfig::paper();
        assert_eq!(c.engine, ThermalEngine::Detailed);
        assert_eq!(c.activity_samples, 100);
        assert!((c.activity_sigma - 0.10).abs() < 1e-12);
        assert_eq!(protected_die(), DieId::BOTTOM);
    }
}
