//! Voltage volumes: 3D voltage domains spanning (possibly) multiple dies.

use tsc3d_netlist::{BlockId, Design};
use tsc3d_timing::{VoltageLevel, VoltageScaling};

/// A voltage volume: a set of modules sharing one supply voltage.
///
/// "Voltage volumes — the generalized 3D version of voltage domains spanning across multiple
/// dies." Every module of the volume must be able to run at the chosen voltage without
/// violating its timing budget; the feasible set records the voltages for which this holds.
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageVolume {
    blocks: Vec<BlockId>,
    feasible: Vec<VoltageLevel>,
    level: VoltageLevel,
}

impl VoltageVolume {
    /// Creates a volume over `blocks` with the given feasible set, operating at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty, the feasible set is empty, or `level` is not in the
    /// feasible set.
    pub fn new(blocks: Vec<BlockId>, feasible: Vec<VoltageLevel>, level: VoltageLevel) -> Self {
        assert!(!blocks.is_empty(), "voltage volume cannot be empty");
        assert!(!feasible.is_empty(), "feasible voltage set cannot be empty");
        assert!(
            feasible.contains(&level),
            "selected level must be in the feasible set"
        );
        Self {
            blocks,
            feasible,
            level,
        }
    }

    /// The modules of the volume.
    pub fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }

    /// The voltages every module of the volume could run at.
    pub fn feasible(&self) -> &[VoltageLevel] {
        &self.feasible
    }

    /// The voltage the volume operates at.
    pub fn level(&self) -> VoltageLevel {
        self.level
    }

    /// Number of modules in the volume.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the volume is empty (never true for constructed volumes).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// A complete voltage assignment: a partition of all modules into voltage volumes.
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageAssignment {
    volumes: Vec<VoltageVolume>,
    /// Per block (by index), the volume it belongs to.
    block_volume: Vec<usize>,
}

impl VoltageAssignment {
    /// Builds an assignment from a set of volumes covering every block exactly once.
    ///
    /// # Panics
    ///
    /// Panics if a block is covered by zero or more than one volume.
    pub fn new(block_count: usize, volumes: Vec<VoltageVolume>) -> Self {
        let mut block_volume = vec![usize::MAX; block_count];
        for (v, volume) in volumes.iter().enumerate() {
            for b in volume.blocks() {
                assert!(
                    block_volume[b.index()] == usize::MAX,
                    "block {b} assigned to two volumes"
                );
                block_volume[b.index()] = v;
            }
        }
        assert!(
            block_volume.iter().all(|&v| v != usize::MAX),
            "every block must be covered by a volume"
        );
        Self {
            volumes,
            block_volume,
        }
    }

    /// A trivial assignment running every block at the nominal 1.0 V in its own volume.
    pub fn nominal(block_count: usize) -> Self {
        let volumes = (0..block_count)
            .map(|i| {
                VoltageVolume::new(
                    vec![BlockId(i)],
                    vec![VoltageLevel::V1_0],
                    VoltageLevel::V1_0,
                )
            })
            .collect();
        Self::new(block_count, volumes)
    }

    /// The voltage volumes.
    pub fn volumes(&self) -> &[VoltageVolume] {
        &self.volumes
    }

    /// Number of volumes.
    pub fn volume_count(&self) -> usize {
        self.volumes.len()
    }

    /// The operating voltage of a block.
    pub fn level_of(&self, block: BlockId) -> VoltageLevel {
        self.volumes[self.block_volume[block.index()]].level()
    }

    /// The voltage-scaled power of every block in watts.
    pub fn scaled_powers(&self, design: &Design, scaling: &VoltageScaling) -> Vec<f64> {
        design
            .iter_blocks()
            .map(|(id, b)| b.power() * scaling.power_factor(self.level_of(id)))
            .collect()
    }

    /// The voltage-scaled intrinsic delay of every block, given the nominal delays.
    pub fn scaled_delays(&self, nominal_delays: &[f64], scaling: &VoltageScaling) -> Vec<f64> {
        nominal_delays
            .iter()
            .enumerate()
            .map(|(i, &d)| d * scaling.delay_factor(self.level_of(BlockId(i))))
            .collect()
    }

    /// Total voltage-scaled power of the design in watts.
    pub fn total_power(&self, design: &Design, scaling: &VoltageScaling) -> f64 {
        self.scaled_powers(design, scaling).iter().sum()
    }

    /// Standard deviation of per-block power *density* (W/µm²) within each volume, averaged
    /// over volumes. This is objective (i) of the TSC-aware voltage selection: "locally
    /// uniform power densities within volumes".
    pub fn intra_volume_density_std(&self, design: &Design, scaling: &VoltageScaling) -> f64 {
        let powers = self.scaled_powers(design, scaling);
        let mut total = 0.0;
        for volume in &self.volumes {
            let densities: Vec<f64> = volume
                .blocks()
                .iter()
                .map(|b| powers[b.index()] / design.block(*b).area())
                .collect();
            total += std_dev(&densities);
        }
        total / self.volumes.len() as f64
    }

    /// Standard deviation of the mean power density across volumes. This is objective (ii)
    /// of the TSC-aware voltage selection: "small power gradients across volumes".
    pub fn inter_volume_density_std(&self, design: &Design, scaling: &VoltageScaling) -> f64 {
        let powers = self.scaled_powers(design, scaling);
        let means: Vec<f64> = self
            .volumes
            .iter()
            .map(|v| {
                let p: f64 = v.blocks().iter().map(|b| powers[b.index()]).sum();
                let a: f64 = v.blocks().iter().map(|b| design.block(*b).area()).sum();
                p / a
            })
            .collect();
        std_dev(&means)
    }
}

fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc3d_geometry::Outline;
    use tsc3d_netlist::{Block, BlockShape};

    fn design() -> Design {
        let blocks = vec![
            Block::new("a", BlockShape::soft(100.0), 1.0),
            Block::new("b", BlockShape::soft(100.0), 2.0),
            Block::new("c", BlockShape::soft(200.0), 1.0),
        ];
        Design::new("d", blocks, vec![], vec![], Outline::new(100.0, 100.0)).unwrap()
    }

    #[test]
    fn nominal_assignment_runs_everything_at_one_volt() {
        let d = design();
        let a = VoltageAssignment::nominal(3);
        assert_eq!(a.volume_count(), 3);
        assert_eq!(a.level_of(BlockId(1)), VoltageLevel::V1_0);
        let scaling = VoltageScaling::paper_90nm();
        assert!((a.total_power(&d, &scaling) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_power_and_delay_follow_the_level() {
        let d = design();
        let scaling = VoltageScaling::paper_90nm();
        let volumes = vec![
            VoltageVolume::new(
                vec![BlockId(0), BlockId(2)],
                vec![VoltageLevel::V0_8, VoltageLevel::V1_0],
                VoltageLevel::V0_8,
            ),
            VoltageVolume::new(
                vec![BlockId(1)],
                vec![VoltageLevel::V1_2],
                VoltageLevel::V1_2,
            ),
        ];
        let a = VoltageAssignment::new(3, volumes);
        let powers = a.scaled_powers(&d, &scaling);
        assert!((powers[0] - 0.817).abs() < 1e-9);
        assert!((powers[1] - 2.0 * 1.496).abs() < 1e-9);
        let delays = a.scaled_delays(&[1.0, 1.0, 1.0], &scaling);
        assert!((delays[0] - 1.56).abs() < 1e-9);
        assert!((delays[1] - 0.83).abs() < 1e-9);
        assert_eq!(a.level_of(BlockId(2)), VoltageLevel::V0_8);
    }

    #[test]
    fn density_statistics() {
        let d = design();
        let scaling = VoltageScaling::paper_90nm();
        // One volume containing everything at 1.0 V.
        let all = VoltageAssignment::new(
            3,
            vec![VoltageVolume::new(
                vec![BlockId(0), BlockId(1), BlockId(2)],
                vec![VoltageLevel::V1_0],
                VoltageLevel::V1_0,
            )],
        );
        // Densities are 0.01, 0.02, 0.005 → nonzero intra std; only one volume → zero inter std.
        assert!(all.intra_volume_density_std(&d, &scaling) > 0.0);
        assert_eq!(all.inter_volume_density_std(&d, &scaling), 0.0);

        // Per-block volumes: zero intra std, nonzero inter std.
        let solo = VoltageAssignment::nominal(3);
        assert_eq!(solo.intra_volume_density_std(&d, &scaling), 0.0);
        assert!(solo.inter_volume_density_std(&d, &scaling) > 0.0);
    }

    #[test]
    #[should_panic(expected = "two volumes")]
    fn overlapping_volumes_rejected() {
        let v1 = VoltageVolume::new(
            vec![BlockId(0)],
            vec![VoltageLevel::V1_0],
            VoltageLevel::V1_0,
        );
        let v2 = VoltageVolume::new(
            vec![BlockId(0), BlockId(1)],
            vec![VoltageLevel::V1_0],
            VoltageLevel::V1_0,
        );
        let _ = VoltageAssignment::new(2, vec![v1, v2]);
    }

    #[test]
    #[should_panic(expected = "covered")]
    fn uncovered_block_rejected() {
        let v1 = VoltageVolume::new(
            vec![BlockId(0)],
            vec![VoltageLevel::V1_0],
            VoltageLevel::V1_0,
        );
        let _ = VoltageAssignment::new(2, vec![v1]);
    }

    #[test]
    #[should_panic(expected = "feasible")]
    fn level_outside_feasible_set_rejected() {
        let _ = VoltageVolume::new(
            vec![BlockId(0)],
            vec![VoltageLevel::V1_0],
            VoltageLevel::V0_8,
        );
    }
}
