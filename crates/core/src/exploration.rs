//! The exploratory power/TSV study of Section 3 and Figure 2.
//!
//! The paper investigates all 30 combinations of 5 power distributions and 6 TSV
//! distributions on a two-die stack and reports how strongly each die's thermal map
//! correlates with its power map. This module reproduces that study with synthetic power
//! maps and the detailed thermal solver.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tsc3d_geometry::{Grid, GridMap, Outline, Rect, Stack};
use tsc3d_leakage::map_correlation;
use tsc3d_thermal::{SteadyStateSolver, ThermalConfig, TsvField, TsvPattern};

/// The five power-distribution archetypes of the exploratory study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerPattern {
    /// Artificially unified power for all modules (globally uniform).
    GloballyUniform,
    /// Groups of locally similar power regimes.
    LocallyUniform,
    /// Smooth, small power gradients.
    SmallGradients,
    /// Medium power gradients.
    MediumGradients,
    /// Large power gradients (strong hotspots).
    LargeGradients,
}

impl PowerPattern {
    /// All five patterns.
    pub const ALL: [PowerPattern; 5] = [
        PowerPattern::GloballyUniform,
        PowerPattern::LocallyUniform,
        PowerPattern::SmallGradients,
        PowerPattern::MediumGradients,
        PowerPattern::LargeGradients,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            PowerPattern::GloballyUniform => "globally uniform",
            PowerPattern::LocallyUniform => "locally uniform",
            PowerPattern::SmallGradients => "small gradients",
            PowerPattern::MediumGradients => "medium gradients",
            PowerPattern::LargeGradients => "large gradients",
        }
    }
}

/// One evaluated combination of the study.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorationCase {
    /// The power-distribution archetype.
    pub power: PowerPattern,
    /// The TSV-distribution archetype.
    pub tsv: TsvPattern,
    /// Power–temperature correlation per die (bottom first).
    pub correlations: Vec<f64>,
    /// Peak temperature in kelvin.
    pub peak_temperature: f64,
}

impl ExplorationCase {
    /// Average correlation over both dies.
    pub fn avg_correlation(&self) -> f64 {
        self.correlations.iter().sum::<f64>() / self.correlations.len() as f64
    }
}

/// Synthesizes one die's power map for a pattern, normalized to `total_power` watts.
pub fn synthesize_power_map(
    grid: Grid,
    pattern: PowerPattern,
    total_power: f64,
    rng: &mut ChaCha8Rng,
) -> GridMap {
    let mut map = match pattern {
        PowerPattern::GloballyUniform => GridMap::constant(grid, 1.0),
        PowerPattern::LocallyUniform => {
            // A handful of rectangular regions, each with its own uniform level.
            let mut m = GridMap::constant(grid, 0.4);
            let region = grid.region();
            for _ in 0..4 {
                let w = region.width * rng.gen_range(0.25..0.5);
                let h = region.height * rng.gen_range(0.25..0.5);
                let x = region.x + rng.gen_range(0.0..(region.width - w));
                let y = region.y + rng.gen_range(0.0..(region.height - h));
                let level: f64 = rng.gen_range(0.6..1.4);
                m.splat_rect(&Rect::new(x, y, w, h), level);
            }
            m
        }
        PowerPattern::SmallGradients => gradient_map(grid, 0.15, rng),
        PowerPattern::MediumGradients => gradient_map(grid, 0.5, rng),
        PowerPattern::LargeGradients => {
            // A cool background with a few intense hotspots.
            let mut m = GridMap::constant(grid, 0.15);
            let region = grid.region();
            for _ in 0..3 {
                let w = region.width * rng.gen_range(0.1..0.2);
                let h = region.height * rng.gen_range(0.1..0.2);
                let x = region.x + rng.gen_range(0.0..(region.width - w));
                let y = region.y + rng.gen_range(0.0..(region.height - h));
                m.splat_rect(&Rect::new(x, y, w, h), rng.gen_range(6.0..10.0));
            }
            m
        }
    };
    // Normalize to the requested total power.
    let sum = map.sum();
    if sum > 0.0 {
        map = map.scaled(total_power / sum);
    }
    map
}

/// A smooth sinusoidal gradient with the given relative amplitude around 1.
fn gradient_map(grid: Grid, amplitude: f64, rng: &mut ChaCha8Rng) -> GridMap {
    let phase_x: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    let phase_y: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    let values = grid
        .positions()
        .map(|pos| {
            let fx = pos.col as f64 / grid.cols() as f64;
            let fy = pos.row as f64 / grid.rows() as f64;
            1.0 + amplitude
                * ((std::f64::consts::TAU * fx + phase_x).sin()
                    + (std::f64::consts::TAU * fy + phase_y).cos())
                / 2.0
        })
        .collect();
    GridMap::from_values(grid, values)
}

/// Configuration of the exploratory study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExplorationConfig {
    /// Die outline (shared by both dies).
    pub outline_mm2: f64,
    /// Analysis-grid resolution (bins per axis).
    pub grid_bins: usize,
    /// Total power per die in watts.
    pub power_per_die: f64,
    /// RNG seed for the synthetic patterns.
    pub seed: u64,
}

impl Default for ExplorationConfig {
    fn default() -> Self {
        Self {
            outline_mm2: 16.0,
            grid_bins: 16,
            power_per_die: 4.0,
            seed: 1,
        }
    }
}

/// Runs the full 5 × 6 study and returns the 30 cases in row-major order (power pattern
/// outer, TSV pattern inner) — the structure of Figure 2.
pub fn run_exploration(config: &ExplorationConfig) -> Vec<ExplorationCase> {
    let outline = Outline::square(config.outline_mm2 * 1e6);
    let stack = Stack::two_die(outline);
    let grid = Grid::square(outline.rect(), config.grid_bins);
    let solver = SteadyStateSolver::new(ThermalConfig::default_for(stack))
        .with_tolerance(1e-4)
        .with_max_iterations(5_000);

    let mut cases = Vec::with_capacity(PowerPattern::ALL.len() * TsvPattern::ALL.len());
    for (pi, &power_pattern) in PowerPattern::ALL.iter().enumerate() {
        // One power scenario per pattern, shared across the TSV variations so that only the
        // TSV arrangement changes within a row of Figure 2.
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ (pi as u64) << 8);
        let power_maps = vec![
            synthesize_power_map(grid, power_pattern, config.power_per_die, &mut rng),
            synthesize_power_map(grid, power_pattern, config.power_per_die, &mut rng),
        ];
        for (ti, &tsv_pattern) in TsvPattern::ALL.iter().enumerate() {
            let tsvs = vec![TsvField::from_pattern(
                grid,
                tsv_pattern,
                config.seed ^ ti as u64,
            )];
            let result = solver
                .solve(&power_maps, &tsvs)
                .expect("exploration solve converges");
            let correlations: Vec<f64> = power_maps
                .iter()
                .zip(result.die_temperatures())
                .map(|(p, t)| map_correlation(p, t).unwrap_or(0.0))
                .collect();
            cases.push(ExplorationCase {
                power: power_pattern,
                tsv: tsv_pattern,
                correlations,
                peak_temperature: result.peak_temperature(),
            });
        }
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> ExplorationConfig {
        ExplorationConfig {
            outline_mm2: 4.0,
            grid_bins: 12,
            power_per_die: 2.0,
            seed: 3,
        }
    }

    fn find(cases: &[ExplorationCase], p: PowerPattern, t: TsvPattern) -> &ExplorationCase {
        cases
            .iter()
            .find(|c| c.power == p && c.tsv == t)
            .expect("case present")
    }

    #[test]
    fn study_covers_all_thirty_combinations() {
        let cases = run_exploration(&quick_config());
        assert_eq!(cases.len(), 30);
        for p in PowerPattern::ALL {
            for t in TsvPattern::ALL {
                assert!(cases.iter().any(|c| c.power == p && c.tsv == t));
            }
        }
    }

    #[test]
    fn key_findings_of_section_3_hold() {
        let cases = run_exploration(&quick_config());
        // (i) Globally uniform power shows the lowest correlation (degenerate: zero power
        //     variance ⇒ correlation reported as 0).
        let uniform = find(&cases, PowerPattern::GloballyUniform, TsvPattern::Irregular);
        assert!(uniform.correlations[0].abs() < 1e-9);
        // (ii) Non-uniform power correlates strongly on the bottom die for every TSV
        //      arrangement (large gradients leak regardless of the vertical interconnect).
        for t in TsvPattern::ALL {
            let case = find(&cases, PowerPattern::LargeGradients, t);
            assert!(
                case.correlations[0] > 0.3,
                "{t}: r1 = {}",
                case.correlations[0]
            );
        }
        // (iii) Regular TSV arrangements (homogeneous structure) preserve the correlation,
        //       irregular ones (heterogeneous vertical heat paths) destroy it — the
        //       Fig. 2(a–d) vs Fig. 2(e–h) comparison, most visible for smooth power.
        let smooth_regular = find(&cases, PowerPattern::SmallGradients, TsvPattern::MaxDensity);
        let smooth_irregular = find(&cases, PowerPattern::SmallGradients, TsvPattern::Irregular);
        let smooth_islands = find(&cases, PowerPattern::SmallGradients, TsvPattern::Islands);
        assert!(smooth_irregular.correlations[0] < smooth_regular.correlations[0]);
        assert!(smooth_islands.correlations[0] < smooth_regular.correlations[0]);
        // (iv) TSV islands (strongly heterogeneous vertical heat paths) weaken the
        //      correlation of gradient-style power relative to having no TSVs at all —
        //      the decorrelation effect the paper's post-processing exploits.
        //      (An earlier variant asserted locally-uniform power correlates no more than
        //      large gradients; that comparison is not robust at this test's coarse grid:
        //      after normalization the few-hotspot LargeGradients maps have *low* per-bin
        //      variance outside the hotspots and can correlate less than LocallyUniform
        //      regions, so the single-draw ordering depends on the RNG stream.)
        for p in [PowerPattern::SmallGradients, PowerPattern::MediumGradients] {
            let none = find(&cases, p, TsvPattern::None);
            let islands = find(&cases, p, TsvPattern::Islands);
            assert!(
                islands.correlations[0] < none.correlations[0],
                "{}: islands r1 = {} !< no-TSV r1 = {}",
                p.name(),
                islands.correlations[0],
                none.correlations[0]
            );
        }
    }

    #[test]
    fn power_maps_are_normalized() {
        let grid = Grid::square(Rect::from_size(1000.0, 1000.0), 10);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for p in PowerPattern::ALL {
            let map = synthesize_power_map(grid, p, 3.0, &mut rng);
            assert!((map.sum() - 3.0).abs() < 1e-9, "{}", p.name());
            assert!(map.min() >= 0.0);
        }
    }

    #[test]
    fn pattern_names_are_unique() {
        let names: Vec<&str> = PowerPattern::ALL.iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }

    #[test]
    fn case_average_correlation_is_mean_of_dies() {
        let c = ExplorationCase {
            power: PowerPattern::SmallGradients,
            tsv: TsvPattern::None,
            correlations: vec![0.2, 0.6],
            peak_temperature: 300.0,
        };
        assert!((c.avg_correlation() - 0.4).abs() < 1e-12);
    }
}
