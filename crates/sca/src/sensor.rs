//! The attacker's sensor model: what a trace-level adversary actually reads.
//!
//! Unlike the steady-state oracles of `tsc3d-attack` (full noise-free maps, the paper's
//! worst case for the defender), a trace-level attacker samples a *finite sensor array*
//! at a *finite rate* through an *ADC*: placement on the exposed die, a sampling period,
//! quantization, and Gaussian noise. The noise convention (seeded ChaCha8 + Box–Muller)
//! is shared with [`tsc3d_attack::NoisyOracle`] via [`tsc3d_attack::standard_normal`].

use rand_chacha::ChaCha8Rng;
use tsc3d_attack::standard_normal;
use tsc3d_geometry::{Grid, GridPos};

/// Configuration of the attacker's sensor array and acquisition chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorConfig {
    /// The die the attacker instruments (0 = bottom die, the package-exposed side of the
    /// default stack).
    pub die: usize,
    /// Sensors per axis: an `s × s` array spread uniformly over the die outline.
    pub sensors_per_axis: usize,
    /// Temporal samples taken per trace, spread evenly over the dwell.
    pub samples_per_trace: usize,
    /// Observed dwell per trace in seconds (the window the crypto core repeats the
    /// encryption of one plaintext — thermal integration time).
    pub dwell_s: f64,
    /// Gaussian sensor noise (standard deviation) in kelvin.
    pub sigma_k: f64,
    /// ADC quantization step in kelvin; `0` models an ideal readout.
    pub quantization_k: f64,
}

impl SensorConfig {
    /// Number of observation points per trace (`sensors × temporal samples`).
    pub fn points(&self) -> usize {
        self.sensors_per_axis * self.sensors_per_axis * self.samples_per_trace
    }

    /// The grid bins the sensor array lands on: an `s × s` array at the centres of a
    /// uniform partition of the die outline.
    pub fn positions(&self, grid: Grid) -> Vec<GridPos> {
        let s = self.sensors_per_axis;
        let mut out = Vec::with_capacity(s * s);
        for row in 0..s {
            for col in 0..s {
                // Centre of cell (col, row) of an s×s partition, mapped to a grid bin.
                let c = ((2 * col + 1) * grid.cols()) / (2 * s);
                let r = ((2 * row + 1) * grid.rows()) / (2 * s);
                out.push(GridPos::new(c.min(grid.cols() - 1), r.min(grid.rows() - 1)));
            }
        }
        out
    }

    /// Draws one reading's Gaussian noise in kelvin (`sigma_k` times a standard normal;
    /// the rng advances even when `sigma_k` is 0).
    #[inline]
    pub fn noise(&self, rng: &mut ChaCha8Rng) -> f64 {
        self.sigma_k * standard_normal(rng)
    }

    /// Applies the acquisition chain to one true temperature and its drawn
    /// [`SensorConfig::noise`]: adds the noise, then quantizes.
    #[inline]
    pub fn read(&self, true_temperature: f64, noise: f64) -> f64 {
        let noisy = true_temperature + noise;
        if self.quantization_k > 0.0 {
            (noisy / self.quantization_k).round() * self.quantization_k
        } else {
            noisy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tsc3d_geometry::Rect;

    fn config(sigma: f64, quant: f64) -> SensorConfig {
        SensorConfig {
            die: 0,
            sensors_per_axis: 3,
            samples_per_trace: 2,
            dwell_s: 0.01,
            sigma_k: sigma,
            quantization_k: quant,
        }
    }

    #[test]
    fn positions_cover_the_die_without_duplicates() {
        let grid = Grid::square(Rect::from_size(1000.0, 1000.0), 12);
        let positions = config(0.0, 0.0).positions(grid);
        assert_eq!(positions.len(), 9);
        let mut unique = positions.clone();
        unique.sort_by_key(|p| (p.row, p.col));
        unique.dedup();
        assert_eq!(
            unique.len(),
            9,
            "sensor bins must be distinct on a 12-bin grid"
        );
        // The centre sensor sits at the grid centre.
        assert_eq!(positions[4], GridPos::new(6, 6));
        assert!(positions.iter().all(|p| p.col < 12 && p.row < 12));
    }

    #[test]
    fn points_counts_sensors_times_samples() {
        assert_eq!(config(0.0, 0.0).points(), 18);
    }

    #[test]
    fn ideal_acquisition_is_transparent() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let c = config(0.0, 0.0);
        assert_eq!(c.read(300.25, c.noise(&mut rng)), 300.25);
    }

    #[test]
    fn quantization_snaps_to_the_lsb() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let c = config(0.0, 0.125);
        let q = c.read(300.30, c.noise(&mut rng));
        assert_eq!(q, 300.25);
    }

    #[test]
    fn noise_is_seed_deterministic() {
        let c = config(0.5, 0.0);
        let a = c.read(300.0, c.noise(&mut ChaCha8Rng::seed_from_u64(9)));
        let b = c.read(300.0, c.noise(&mut ChaCha8Rng::seed_from_u64(9)));
        assert_eq!(a, b);
        assert_ne!(a, 300.0);
    }
}
