//! Attack 1: thermal characterization of the 3D IC.

use crate::ThermalOracle;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use tsc3d_geometry::GridMap;

/// The differential thermal signature of one module, as learnt by the attacker.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleSignature {
    /// Index of the module (the attacker's numbering follows the inputs he crafts).
    pub module: usize,
    /// Per-die temperature difference maps (probed minus baseline), in kelvin.
    pub delta: Vec<GridMap>,
    /// Die on which the strongest response was observed.
    pub dominant_die: usize,
    /// Contrast of the signature: peak response divided by the mean response on the
    /// dominant die. A value near 1 means the module's activity merely warms the whole die
    /// uniformly (hard to pinpoint); large values mean a sharp, easily attributable hotspot.
    pub contrast: f64,
}

/// Result of the characterization attack.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizationResult {
    /// One learnt signature per module.
    pub signatures: Vec<ModuleSignature>,
    /// Baseline thermal maps at nominal activity.
    pub baseline: Vec<GridMap>,
}

impl CharacterizationResult {
    /// Average signature contrast over all modules — the headline "how well did the
    /// attacker characterize the chip" number (higher is better for the attacker).
    pub fn mean_contrast(&self) -> f64 {
        if self.signatures.is_empty() {
            return 0.0;
        }
        self.signatures.iter().map(|s| s.contrast).sum::<f64>() / self.signatures.len() as f64
    }

    /// The signature of one module.
    pub fn signature(&self, module: usize) -> &ModuleSignature {
        &self.signatures[module]
    }
}

/// The exploratory characterization attack: "step by step, the attacker will apply a broad
/// and varied range of input patterns in order to trigger as many activity patterns as
/// possible. By monitoring the TSC, he/she can then build a model for the thermal behaviour
/// of the 3D IC."
///
/// The implementation uses differential probing, the strongest practical realization of
/// that description under the paper's attacker model: the attacker first records the
/// steady-state baseline at nominal activity, then — module by module — crafts inputs that
/// boost a single module's activity and records the differential response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CharacterizationAttack {
    /// Relative activity boost applied to the probed module (e.g. 1.0 = +100 %).
    pub boost: f64,
    /// Relative jitter applied to all other modules while probing (models imperfect input
    /// crafting; 0 = perfectly clean probes).
    pub background_jitter: f64,
}

impl CharacterizationAttack {
    /// Creates an attack with the given probe boost and background jitter.
    pub fn new(boost: f64, background_jitter: f64) -> Self {
        Self {
            boost,
            background_jitter,
        }
    }

    /// A clean, worst-case-for-the-defender attack: +100 % probe boost, no jitter.
    pub fn ideal() -> Self {
        Self::new(1.0, 0.0)
    }

    /// Runs the attack against an oracle.
    ///
    /// `nominal_powers[m]` is the module's power draw under nominal activity (the attacker
    /// controls relative activity, not absolute watts; the oracle translates).
    pub fn run(
        &self,
        oracle: &dyn ThermalOracle,
        nominal_powers: &[f64],
        rng: &mut ChaCha8Rng,
    ) -> CharacterizationResult {
        let baseline = oracle.observe(nominal_powers);
        let signatures = (0..nominal_powers.len())
            .map(|module| {
                let mut probe = nominal_powers.to_vec();
                for (i, p) in probe.iter_mut().enumerate() {
                    if i == module {
                        *p *= 1.0 + self.boost;
                    } else if self.background_jitter > 0.0 {
                        let jitter: f64 =
                            rng.gen_range(-self.background_jitter..self.background_jitter);
                        *p *= (1.0 + jitter).max(0.0);
                    }
                }
                let probed = oracle.observe(&probe);
                let delta: Vec<GridMap> = probed
                    .iter()
                    .zip(&baseline)
                    .map(|(p, b)| {
                        GridMap::from_values(
                            p.grid(),
                            p.values()
                                .iter()
                                .zip(b.values())
                                .map(|(a, b)| a - b)
                                .collect(),
                        )
                    })
                    .collect();
                let (dominant_die, contrast) = dominant_and_contrast(&delta);
                ModuleSignature {
                    module,
                    delta,
                    dominant_die,
                    contrast,
                }
            })
            .collect();
        CharacterizationResult {
            signatures,
            baseline,
        }
    }
}

/// Picks the die with the largest peak response and reports the peak-to-mean ratio there.
fn dominant_and_contrast(delta: &[GridMap]) -> (usize, f64) {
    let mut best_die = 0;
    let mut best_peak = f64::NEG_INFINITY;
    for (die, map) in delta.iter().enumerate() {
        let peak = map.max();
        if peak > best_peak {
            best_peak = peak;
            best_die = die;
        }
    }
    let mean = delta[best_die].mean();
    let contrast = if mean > 1e-12 { best_peak / mean } else { 0.0 };
    (best_die, contrast.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tsc3d_geometry::{Grid, Rect};

    /// Two modules, each heating its own half of a single die; module 1 couples weakly into
    /// module 0's half.
    struct TwoModuleOracle {
        grid: Grid,
        leak: f64,
    }

    impl ThermalOracle for TwoModuleOracle {
        fn dies(&self) -> usize {
            1
        }
        fn observe(&self, powers: &[f64]) -> Vec<GridMap> {
            let p0 = powers.first().copied().unwrap_or(0.0);
            let p1 = powers.get(1).copied().unwrap_or(0.0);
            let mut map = GridMap::zeros(self.grid);
            map.splat_power(&Rect::new(0.0, 0.0, 50.0, 100.0), p0 + self.leak * p1);
            map.splat_power(&Rect::new(50.0, 0.0, 50.0, 100.0), p1 + self.leak * p0);
            vec![map.map(|p| 293.0 + 4.0 * p)]
        }
    }

    fn oracle(leak: f64) -> TwoModuleOracle {
        TwoModuleOracle {
            grid: Grid::square(Rect::from_size(100.0, 100.0), 10),
            leak,
        }
    }

    #[test]
    fn signatures_locate_each_module_half() {
        let attack = CharacterizationAttack::ideal();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let result = attack.run(&oracle(0.0), &[0.5, 0.5], &mut rng);
        assert_eq!(result.signatures.len(), 2);
        // Module 0 heats the left half → peak of its signature lies in columns 0..5.
        let pos0 = result.signature(0).delta[0].argmax();
        assert!(pos0.col < 5);
        let pos1 = result.signature(1).delta[0].argmax();
        assert!(pos1.col >= 5);
        assert!(result.mean_contrast() > 0.5);
    }

    #[test]
    fn thermal_mixing_lowers_contrast() {
        // When modules' heat responses blur into each other the signatures flatten.
        let attack = CharacterizationAttack::ideal();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let sharp = attack.run(&oracle(0.0), &[0.5, 0.5], &mut rng);
        let blurred = attack.run(&oracle(0.9), &[0.5, 0.5], &mut rng);
        assert!(blurred.mean_contrast() < sharp.mean_contrast());
    }

    #[test]
    fn background_jitter_is_reproducible_per_seed() {
        let attack = CharacterizationAttack::new(1.0, 0.2);
        let a = attack.run(&oracle(0.1), &[0.5, 0.5], &mut ChaCha8Rng::seed_from_u64(5));
        let b = attack.run(&oracle(0.1), &[0.5, 0.5], &mut ChaCha8Rng::seed_from_u64(5));
        assert_eq!(a.signatures[0].delta[0], b.signatures[0].delta[0]);
    }

    #[test]
    fn empty_module_list_yields_empty_result() {
        let attack = CharacterizationAttack::ideal();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let result = attack.run(&oracle(0.0), &[], &mut rng);
        assert!(result.signatures.is_empty());
        assert_eq!(result.mean_contrast(), 0.0);
    }
}
