//! Detailed thermal verification of a floorplan's leakage (Figure 3, right-hand side).
//!
//! The paper notes that Corblivar's fast thermal analysis is "inferior to the detailed
//! analysis of HotSpot, especially for diverse arrangements of TSVs", and therefore verifies
//! the final correlation after floorplanning with the detailed engine. This module does the
//! same with our finite-volume solver.

use tsc3d_floorplan::{Floorplan, TsvPlan};
use tsc3d_geometry::{Grid, GridMap};
use tsc3d_leakage::map_correlation;
use tsc3d_thermal::{SolveError, SteadyStateSolver, ThermalConfig, ThermalResult};

/// Result of a detailed verification pass.
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationReport {
    /// Power maps used (watts per bin, per die).
    pub power_maps: Vec<GridMap>,
    /// Detailed thermal maps per die.
    pub thermal_maps: Vec<GridMap>,
    /// Pearson correlation per die (Eq. 1), evaluated on the detailed maps.
    pub correlations: Vec<f64>,
    /// Peak temperature over all dies in kelvin.
    pub peak_temperature: f64,
}

impl VerificationReport {
    /// Average correlation over the dies.
    pub fn avg_correlation(&self) -> f64 {
        if self.correlations.is_empty() {
            0.0
        } else {
            self.correlations.iter().sum::<f64>() / self.correlations.len() as f64
        }
    }
}

/// Runs the detailed solver for a floorplan and reports the per-die correlations.
///
/// * `block_powers[b]` — the (voltage-scaled) power of block `b` in watts,
/// * `tsv_plan` — signal plus dummy TSVs of the floorplan,
/// * `grid` — analysis grid shared by the power and thermal maps,
/// * `solver` — a configured steady-state solver (its stack must match the floorplan's).
///
/// # Errors
///
/// Propagates [`SolveError`] from the detailed solver.
pub fn verify(
    floorplan: &Floorplan,
    block_powers: &[f64],
    tsv_plan: &TsvPlan,
    grid: Grid,
    solver: &SteadyStateSolver,
) -> Result<VerificationReport, SolveError> {
    verify_cancellable(
        floorplan,
        block_powers,
        tsv_plan,
        grid,
        solver,
        &tsc3d_exec::CancelToken::new(),
    )
}

/// [`verify`] polling `cancel` at the solver's sweep-window checkpoints.
///
/// # Errors
///
/// Propagates [`SolveError`] from the detailed solver, including
/// [`SolveError::Interrupted`] when the token fires mid-solve.
pub fn verify_cancellable(
    floorplan: &Floorplan,
    block_powers: &[f64],
    tsv_plan: &TsvPlan,
    grid: Grid,
    solver: &SteadyStateSolver,
    cancel: &tsc3d_exec::CancelToken,
) -> Result<VerificationReport, SolveError> {
    let power_maps = floorplan.power_maps(grid, block_powers);
    let result: ThermalResult =
        solver.solve_cancellable(&power_maps, &tsv_plan.combined(), cancel)?;
    let thermal_maps: Vec<GridMap> = result.die_temperatures().to_vec();
    let correlations = power_maps
        .iter()
        .zip(&thermal_maps)
        .map(|(p, t)| map_correlation(p, t).unwrap_or(0.0))
        .collect();
    Ok(VerificationReport {
        power_maps,
        thermal_maps,
        correlations,
        peak_temperature: result.peak_temperature(),
    })
}

/// Builds the default detailed solver for a floorplan's stack.
pub fn default_solver(floorplan: &Floorplan) -> SteadyStateSolver {
    SteadyStateSolver::new(ThermalConfig::default_for(floorplan.stack()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tsc3d_floorplan::{plan_signal_tsvs, SequencePair3d};
    use tsc3d_geometry::Stack;
    use tsc3d_netlist::suite::{generate, Benchmark};

    #[test]
    fn verification_produces_defined_correlations() {
        let design = generate(Benchmark::N100, 1);
        let stack = Stack::two_die(design.outline());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let fp = SequencePair3d::initial(&design, stack, &mut rng).pack(&design);
        let grid = fp.analysis_grid(12);
        let powers: Vec<f64> = design.blocks().iter().map(|b| b.power()).collect();
        let plan = plan_signal_tsvs(&design, &fp, grid);
        let solver = default_solver(&fp);
        let report = verify(&fp, &powers, &plan, grid, &solver).unwrap();
        assert_eq!(report.correlations.len(), 2);
        assert!(report.correlations.iter().all(|c| c.abs() <= 1.0));
        assert!(report.peak_temperature > 293.0);
        assert!(report.avg_correlation().abs() <= 1.0);
        // Power landing on the grid never exceeds the design's total power; an initial
        // (unoptimized) floorplan may hang blocks outside the fixed outline, whose share is
        // clipped, so the captured fraction can be below 1 but must stay substantial.
        let total: f64 = report.power_maps.iter().map(|m| m.sum()).sum();
        assert!(total <= design.total_power() * 1.001);
        assert!(total > 0.3 * design.total_power());
    }
}
