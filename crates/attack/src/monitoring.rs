//! Attack 2b: runtime monitoring of a localized module.

use crate::{standard_normal, ThermalOracle};
use rand_chacha::ChaCha8Rng;
use tsc3d_geometry::Point;
use tsc3d_leakage::pearson;

/// Result of the monitoring attack against one or more target modules.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitoringResult {
    /// Per target: the Pearson correlation between the module's true activity and the
    /// temperature the attacker observes at the monitored location.
    pub activity_correlations: Vec<f64>,
    /// Number of activity samples used per target.
    pub samples: usize,
}

impl MonitoringResult {
    /// Average activity correlation over all targets (higher = more leakage to exploit).
    pub fn mean_correlation(&self) -> f64 {
        if self.activity_correlations.is_empty() {
            return 0.0;
        }
        self.activity_correlations.iter().sum::<f64>() / self.activity_correlations.len() as f64
    }
}

/// The monitoring attack: "once the thermal response is confined to particular regions,
/// i.e., modules of interest are localized with some confidence, [...] an attacker may now
/// observe the sensitive activity/computation of particular modules by monitoring them
/// during runtime."
///
/// The attacker reads the sensor closest to the location where a module was (believed to
/// be) localized, while the device runs `samples` different activity sets; the attack
/// reports how strongly the observed temperature correlates with the module's true activity
/// — effectively a single-bin instance of Eq. 2 of the paper, evaluated from the attacker's
/// side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitoringAttack {
    /// Number of activity sets the attacker observes.
    pub samples: usize,
    /// Relative standard deviation of the (secret) runtime activity the device exhibits.
    pub activity_sigma: f64,
}

impl MonitoringAttack {
    /// Creates a monitoring attack.
    ///
    /// # Panics
    ///
    /// Panics if `samples < 3` (no meaningful correlation can be estimated).
    pub fn new(samples: usize, activity_sigma: f64) -> Self {
        assert!(samples >= 3, "monitoring needs at least three samples");
        Self {
            samples,
            activity_sigma,
        }
    }

    /// The paper-style configuration: 100 sampled activity sets at 10 % sigma.
    pub fn paper_default() -> Self {
        Self::new(100, 0.10)
    }

    /// Runs the attack.
    ///
    /// `targets[k]` is `(module index, die, monitored location)` — typically the output of a
    /// localization attack. `nominal_powers` are the modules' nominal power draws.
    pub fn run(
        &self,
        oracle: &dyn ThermalOracle,
        nominal_powers: &[f64],
        targets: &[(usize, usize, Point)],
        rng: &mut ChaCha8Rng,
    ) -> MonitoringResult {
        let mut activities: Vec<Vec<f64>> = vec![Vec::with_capacity(self.samples); targets.len()];
        let mut readings: Vec<Vec<f64>> = vec![Vec::with_capacity(self.samples); targets.len()];

        for _ in 0..self.samples {
            // The device runs a random (secret) activity set.
            let powers: Vec<f64> = nominal_powers
                .iter()
                .map(|&p| (p * (1.0 + self.activity_sigma * standard_normal(rng))).max(0.0))
                .collect();
            let maps = oracle.observe(&powers);
            for (k, &(module, die, location)) in targets.iter().enumerate() {
                activities[k].push(powers[module]);
                let map = &maps[die.min(maps.len() - 1)];
                let reading = map
                    .grid()
                    .bin_of(location)
                    .map(|pos| map.get(pos))
                    .unwrap_or_else(|| map.mean());
                readings[k].push(reading);
            }
        }

        let activity_correlations = activities
            .iter()
            .zip(&readings)
            .map(|(a, r)| pearson(a, r).unwrap_or(0.0))
            .collect();
        MonitoringResult {
            activity_correlations,
            samples: self.samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tsc3d_geometry::{Grid, GridMap, Rect};

    /// Module 0 heats the left half, module 1 the right half of one die.
    struct HalfOracle {
        grid: Grid,
    }

    impl ThermalOracle for HalfOracle {
        fn dies(&self) -> usize {
            1
        }
        fn observe(&self, powers: &[f64]) -> Vec<GridMap> {
            let mut map = GridMap::zeros(self.grid);
            map.splat_power(&Rect::new(0.0, 0.0, 50.0, 100.0), powers[0]);
            map.splat_power(&Rect::new(50.0, 0.0, 50.0, 100.0), powers[1]);
            vec![map.map(|p| 293.0 + 6.0 * p)]
        }
    }

    fn oracle() -> HalfOracle {
        HalfOracle {
            grid: Grid::square(Rect::from_size(100.0, 100.0), 10),
        }
    }

    #[test]
    fn monitoring_the_right_spot_reveals_activity() {
        let attack = MonitoringAttack::new(60, 0.10);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let result = attack.run(
            &oracle(),
            &[0.5, 0.5],
            &[(0, 0, Point::new(25.0, 50.0))],
            &mut rng,
        );
        assert_eq!(result.samples, 60);
        assert!(
            result.mean_correlation() > 0.9,
            "corr {}",
            result.mean_correlation()
        );
    }

    #[test]
    fn monitoring_the_wrong_spot_reveals_little() {
        let attack = MonitoringAttack::new(60, 0.10);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        // Watching the right half while targeting module 0's activity: the reading tracks
        // module 1 instead, so the correlation with module 0 must be much weaker.
        let wrong = attack.run(
            &oracle(),
            &[0.5, 0.5],
            &[(0, 0, Point::new(75.0, 50.0))],
            &mut rng,
        );
        assert!(
            wrong.mean_correlation() < 0.5,
            "corr {}",
            wrong.mean_correlation()
        );
    }

    #[test]
    fn multiple_targets_are_scored_independently() {
        let attack = MonitoringAttack::new(50, 0.10);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let result = attack.run(
            &oracle(),
            &[0.5, 0.5],
            &[
                (0, 0, Point::new(25.0, 50.0)),
                (1, 0, Point::new(75.0, 50.0)),
            ],
            &mut rng,
        );
        assert_eq!(result.activity_correlations.len(), 2);
        assert!(result.activity_correlations.iter().all(|&c| c > 0.8));
    }

    #[test]
    #[should_panic(expected = "three samples")]
    fn too_few_samples_rejected() {
        let _ = MonitoringAttack::new(2, 0.1);
    }
}
