//! Gaussian activity sampling (Section 6.2 of the paper).

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use tsc3d_netlist::Design;

/// Samples per-module power values from Gaussian distributions.
///
/// "To impersonate an attacker triggering various activity patterns by alternating the
/// inputs at runtime, we model the power profiles of all modules as Gaussian distributions
/// [...] with the module's nominal power value as mean and a standard deviation of 10 %."
#[derive(Debug, Clone, PartialEq)]
pub struct ActivitySampler {
    means: Vec<f64>,
    relative_sigma: f64,
}

impl ActivitySampler {
    /// Creates a sampler with the paper's default relative standard deviation of 10 %.
    pub fn paper_default(design: &Design) -> Self {
        Self::new(design, 0.10)
    }

    /// Creates a sampler with an explicit relative standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `relative_sigma` is negative.
    pub fn new(design: &Design, relative_sigma: f64) -> Self {
        Self::with_means(
            design.blocks().iter().map(|b| b.power()).collect(),
            relative_sigma,
        )
    }

    /// Creates a sampler around explicit per-module means (e.g. the voltage-scaled powers
    /// of a finished flow, which `tsc3d-sca` uses as the background-traffic baseline).
    ///
    /// # Panics
    ///
    /// Panics if `relative_sigma` is negative.
    pub fn with_means(means: Vec<f64>, relative_sigma: f64) -> Self {
        assert!(relative_sigma >= 0.0, "sigma must be non-negative");
        Self {
            means,
            relative_sigma,
        }
    }

    /// Number of modules the sampler covers.
    pub fn len(&self) -> usize {
        self.means.len()
    }

    /// Returns `true` when the design has no modules (cannot happen for validated designs).
    pub fn is_empty(&self) -> bool {
        self.means.is_empty()
    }

    /// The nominal (mean) power of every module in watts.
    pub fn nominal(&self) -> &[f64] {
        &self.means
    }

    /// Draws one activity set: a power value per module, clamped at zero.
    pub fn sample(&self, rng: &mut ChaCha8Rng) -> Vec<f64> {
        self.means
            .iter()
            .map(|&mean| {
                let sigma = mean * self.relative_sigma;
                (mean + sigma * standard_normal(rng)).max(0.0)
            })
            .collect()
    }

    /// Draws `count` activity sets.
    pub fn sample_many(&self, rng: &mut ChaCha8Rng, count: usize) -> Vec<Vec<f64>> {
        (0..count).map(|_| self.sample(rng)).collect()
    }
}

/// Standard normal variate via the Box–Muller transform (keeps the dependency surface to
/// plain `rand`).
fn standard_normal(rng: &mut ChaCha8Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tsc3d_geometry::Outline;
    use tsc3d_netlist::{Block, BlockShape};

    fn design() -> Design {
        let blocks = vec![
            Block::new("a", BlockShape::soft(100.0), 1.0),
            Block::new("b", BlockShape::soft(100.0), 2.0),
            Block::new("c", BlockShape::soft(100.0), 0.0),
        ];
        Design::new("d", blocks, vec![], vec![], Outline::new(100.0, 100.0)).unwrap()
    }

    #[test]
    fn sample_statistics_match_configuration() {
        let d = design();
        let sampler = ActivitySampler::paper_default(&d);
        assert_eq!(sampler.len(), 3);
        assert!(!sampler.is_empty());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let samples = sampler.sample_many(&mut rng, 2_000);
        let mean_b: f64 = samples.iter().map(|s| s[1]).sum::<f64>() / samples.len() as f64;
        let var_b: f64 =
            samples.iter().map(|s| (s[1] - mean_b).powi(2)).sum::<f64>() / samples.len() as f64;
        // Mean ≈ 2.0 W, sigma ≈ 0.2 W.
        assert!((mean_b - 2.0).abs() < 0.03, "mean {mean_b}");
        assert!((var_b.sqrt() - 0.2).abs() < 0.03, "sigma {}", var_b.sqrt());
    }

    #[test]
    fn zero_power_module_stays_at_zero() {
        let d = design();
        let sampler = ActivitySampler::paper_default(&d);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for s in sampler.sample_many(&mut rng, 100) {
            assert_eq!(s[2], 0.0);
            assert!(s[0] >= 0.0 && s[1] >= 0.0);
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = design();
        let sampler = ActivitySampler::paper_default(&d);
        let a = sampler.sample(&mut ChaCha8Rng::seed_from_u64(3));
        let b = sampler.sample(&mut ChaCha8Rng::seed_from_u64(3));
        let c = sampler.sample(&mut ChaCha8Rng::seed_from_u64(4));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_sigma_reproduces_nominal_power() {
        let d = design();
        let sampler = ActivitySampler::new(&d, 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        assert_eq!(sampler.sample(&mut rng), sampler.nominal().to_vec());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_sigma_rejected() {
        let _ = ActivitySampler::new(&design(), -0.1);
    }
}
