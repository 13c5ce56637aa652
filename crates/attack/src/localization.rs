//! Attack 2a: localization of modules from their thermal signatures.

use crate::{CharacterizationAttack, CharacterizationResult, ThermalOracle};
use rand_chacha::ChaCha8Rng;
use tsc3d_geometry::{DieId, Point, Rect};

/// Where the attacker believes one module sits, versus where it actually is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalizationOutcome {
    /// Module index.
    pub module: usize,
    /// Die the attacker picked.
    pub guessed_die: DieId,
    /// Location (bin centre) the attacker picked.
    pub guessed_location: Point,
    /// Whether the attacker picked the correct die.
    pub die_correct: bool,
    /// Whether the guessed location falls inside the module's true footprint (and the die is
    /// correct).
    pub hit: bool,
    /// Distance from the guess to the module's true centre, in µm.
    pub error_um: f64,
}

/// Aggregate result of the localization attack.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalizationResult {
    /// Per-module outcomes.
    pub outcomes: Vec<LocalizationOutcome>,
}

impl LocalizationResult {
    /// Fraction of modules whose guessed location falls inside their true footprint.
    pub fn hit_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|o| o.hit).count() as f64 / self.outcomes.len() as f64
    }

    /// Fraction of modules for which the attacker picked the correct die.
    pub fn die_accuracy(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|o| o.die_correct).count() as f64 / self.outcomes.len() as f64
    }

    /// Mean distance between guess and true module centre, in µm.
    pub fn mean_error_um(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(|o| o.error_um).sum::<f64>() / self.outcomes.len() as f64
    }
}

/// The localization attack: "the attacker targets particular modules by applying crafted
/// input patterns; the objective is to trigger these modules and observe thermal variations
/// exclusively or at least predominantly within these modules."
///
/// The attack first runs a [`CharacterizationAttack`] (or reuses an existing result) and
/// then, per module, guesses the module's die and location as the argmax of its differential
/// thermal signature. Success is scored against the true (secret) floorplan, which the
/// attack only uses for scoring — never for the guess itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalizationAttack {
    /// The characterization step driving the localization.
    pub characterization: CharacterizationAttack,
}

impl LocalizationAttack {
    /// Creates the attack with the given characterization settings.
    pub fn new(characterization: CharacterizationAttack) -> Self {
        Self { characterization }
    }

    /// An ideal (noise-free) localization attack.
    pub fn ideal() -> Self {
        Self::new(CharacterizationAttack::ideal())
    }

    /// Runs characterization followed by localization.
    ///
    /// `true_footprints[m]` is the secret placement of module `m` (die and rectangle), used
    /// only to score the attack.
    pub fn run(
        &self,
        oracle: &dyn ThermalOracle,
        nominal_powers: &[f64],
        true_footprints: &[(DieId, Rect)],
        rng: &mut ChaCha8Rng,
    ) -> LocalizationResult {
        let characterization = self.characterization.run(oracle, nominal_powers, rng);
        self.score(&characterization, true_footprints)
    }

    /// Scores an existing characterization result against the true floorplan.
    pub fn score(
        &self,
        characterization: &CharacterizationResult,
        true_footprints: &[(DieId, Rect)],
    ) -> LocalizationResult {
        let outcomes = characterization
            .signatures
            .iter()
            .map(|sig| {
                let die = sig.dominant_die;
                let map = &sig.delta[die];
                let guess_bin = map.argmax();
                let guessed_location = map.grid().bin_center(guess_bin);
                let (true_die, true_rect) = true_footprints[sig.module];
                let die_correct = true_die.index() == die;
                let hit = die_correct && true_rect.contains(guessed_location);
                let error_um = guessed_location.distance(true_rect.center());
                LocalizationOutcome {
                    module: sig.module,
                    guessed_die: DieId(die),
                    guessed_location,
                    die_correct,
                    hit,
                    error_um,
                }
            })
            .collect();
        LocalizationResult { outcomes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThermalOracle;
    use rand::SeedableRng;
    use tsc3d_geometry::{Grid, GridMap};

    /// Two dies, two modules per die, each heating its own quadrant-equivalent region.
    struct QuadOracle {
        grid: Grid,
        regions: Vec<(usize, Rect)>,
        blur: f64,
    }

    impl ThermalOracle for QuadOracle {
        fn dies(&self) -> usize {
            2
        }
        fn observe(&self, powers: &[f64]) -> Vec<GridMap> {
            let mut maps = vec![GridMap::zeros(self.grid), GridMap::zeros(self.grid)];
            for (m, (die, rect)) in self.regions.iter().enumerate() {
                maps[*die].splat_power(rect, powers[m]);
                // Optional blur: leak a fraction of the power uniformly over the die.
                if self.blur > 0.0 {
                    let whole = self.grid.region();
                    maps[*die].splat_power(&whole, powers[m] * self.blur);
                }
            }
            maps.into_iter()
                .map(|m| m.map(|p| 293.0 + 3.0 * p))
                .collect()
        }
    }

    fn regions() -> Vec<(usize, Rect)> {
        vec![
            (0, Rect::new(0.0, 0.0, 40.0, 40.0)),
            (0, Rect::new(60.0, 60.0, 40.0, 40.0)),
            (1, Rect::new(0.0, 60.0, 40.0, 40.0)),
            (1, Rect::new(60.0, 0.0, 40.0, 40.0)),
        ]
    }

    fn oracle(blur: f64) -> QuadOracle {
        QuadOracle {
            grid: Grid::square(Rect::from_size(100.0, 100.0), 10),
            regions: regions(),
            blur,
        }
    }

    fn footprints() -> Vec<(DieId, Rect)> {
        regions().into_iter().map(|(d, r)| (DieId(d), r)).collect()
    }

    #[test]
    fn clean_responses_are_localized_perfectly() {
        let attack = LocalizationAttack::ideal();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let result = attack.run(&oracle(0.0), &[0.5; 4], &footprints(), &mut rng);
        assert_eq!(result.outcomes.len(), 4);
        assert_eq!(result.hit_rate(), 1.0);
        assert_eq!(result.die_accuracy(), 1.0);
        assert!(result.mean_error_um() < 30.0);
    }

    #[test]
    fn heavy_blurring_degrades_localization() {
        let attack = LocalizationAttack::ideal();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let clean = attack.run(&oracle(0.0), &[0.5; 4], &footprints(), &mut rng);
        // With most of the heat spread uniformly the argmax is barely above the background;
        // the localization error must grow (hit rate may or may not collapse, the error is
        // the robust indicator).
        let blurred = attack.run(&oracle(25.0), &[0.5; 4], &footprints(), &mut rng);
        assert!(blurred.mean_error_um() >= clean.mean_error_um());
    }

    #[test]
    fn scoring_flags_wrong_die_guesses() {
        // Swap the claimed footprints of modules 0 and 2 (different dies): the attacker's
        // (correct) guesses now count as misses against the falsified ground truth.
        let attack = LocalizationAttack::ideal();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut fp = footprints();
        fp.swap(0, 2);
        let result = attack.run(&oracle(0.0), &[0.5; 4], &fp, &mut rng);
        assert!(result.die_accuracy() < 1.0);
        assert!(result.hit_rate() < 1.0);
    }

    #[test]
    fn empty_result_statistics_are_zero() {
        let r = LocalizationResult { outcomes: vec![] };
        assert_eq!(r.hit_rate(), 0.0);
        assert_eq!(r.die_accuracy(), 0.0);
        assert_eq!(r.mean_error_um(), 0.0);
    }
}
