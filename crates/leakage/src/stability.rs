//! Runtime correlation stability (Eq. 2 of the paper).

use crate::correlation::pearson;
use serde::{Deserialize, Serialize};
use tsc3d_geometry::{Grid, GridMap, GridPos};

/// Per-bin correlation-stability map produced by [`CorrelationStability::finish`].
///
/// Each bin holds `r_{d,x,y}`: the Pearson correlation, *across activity samples*, of the
/// local power and local temperature at that bin. Bins where the correlation is undefined
/// (constant power or constant temperature across all samples) hold `0.0` — such bins leak
/// nothing an attacker could calibrate against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StabilityMap {
    map: GridMap,
    samples: usize,
}

impl StabilityMap {
    /// The underlying per-bin stability values.
    pub fn map(&self) -> &GridMap {
        &self.map
    }

    /// Number of activity samples the map was computed from.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Stability at a specific bin.
    pub fn at(&self, pos: GridPos) -> f64 {
        self.map.get(pos)
    }

    /// Average stability over the die.
    pub fn mean(&self) -> f64 {
        self.map.mean()
    }

    /// The most stable (most attacker-friendly) bin and its stability value.
    pub fn most_stable(&self) -> (GridPos, f64) {
        let pos = self.map.argmax();
        (pos, self.map.get(pos))
    }

    /// The `k` most stable bins in decreasing order of stability.
    ///
    /// These are the candidate sites for dummy-thermal-TSV insertion in the paper's
    /// post-processing stage.
    pub fn top_bins(&self, k: usize) -> Vec<(GridPos, f64)> {
        let grid = self.map.grid();
        let mut bins: Vec<(GridPos, f64)> =
            grid.positions().map(|p| (p, self.map.get(p))).collect();
        bins.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        bins.truncate(k);
        bins
    }
}

/// Accumulator for the correlation-stability computation.
///
/// Feed it `m` pairs of (power map, thermal map) — one pair per sampled activity set — then
/// call [`CorrelationStability::finish`].
///
/// ```
/// use tsc3d_geometry::{Grid, GridMap, Rect};
/// use tsc3d_leakage::CorrelationStability;
///
/// let grid = Grid::square(Rect::from_size(10.0, 10.0), 4);
/// let mut acc = CorrelationStability::new(grid);
/// for i in 0..10 {
///     let p = GridMap::constant(grid, 1.0 + i as f64);
///     let t = p.map(|v| 300.0 + 2.0 * v); // temperature follows power exactly
///     acc.add_sample(&p, &t);
/// }
/// let stability = acc.finish();
/// assert!(stability.mean() > 0.99); // perfectly stable everywhere
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorrelationStability {
    grid: Grid,
    power_samples: Vec<Vec<f64>>,
    thermal_samples: Vec<Vec<f64>>,
}

impl CorrelationStability {
    /// Creates an empty accumulator for maps on `grid`.
    pub fn new(grid: Grid) -> Self {
        Self {
            grid,
            power_samples: Vec::new(),
            thermal_samples: Vec::new(),
        }
    }

    /// Adds one activity sample (power map and the resulting thermal map).
    ///
    /// # Panics
    ///
    /// Panics if either map is defined on a different grid than the accumulator.
    pub fn add_sample(&mut self, power: &GridMap, thermal: &GridMap) {
        assert_eq!(power.grid(), self.grid, "power map grid mismatch");
        assert_eq!(thermal.grid(), self.grid, "thermal map grid mismatch");
        self.power_samples.push(power.values().to_vec());
        self.thermal_samples.push(thermal.values().to_vec());
    }

    /// Computes the per-bin stability map (Eq. 2).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two samples have been added.
    pub fn finish(&self) -> StabilityMap {
        let m = self.power_samples.len();
        assert!(
            m >= 2,
            "correlation stability needs at least two activity samples"
        );
        let bins = self.grid.bins();
        let mut values = vec![0.0; bins];
        let mut p_series = vec![0.0; m];
        let mut t_series = vec![0.0; m];
        for (b, value) in values.iter_mut().enumerate() {
            for s in 0..m {
                p_series[s] = self.power_samples[s][b];
                t_series[s] = self.thermal_samples[s][b];
            }
            *value = pearson(&p_series, &t_series).unwrap_or(0.0);
        }
        StabilityMap {
            map: GridMap::from_values(self.grid, values),
            samples: m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc3d_geometry::Rect;

    fn grid() -> Grid {
        Grid::square(Rect::from_size(80.0, 80.0), 8)
    }

    /// Simple deterministic pseudo-random series for test inputs.
    fn noise(i: usize, b: usize) -> f64 {
        let x = (i * 2654435761 + b * 40503) as f64;
        (x.sin() * 43758.5453).fract().abs()
    }

    #[test]
    fn tracking_temperature_gives_high_stability() {
        let g = grid();
        let mut acc = CorrelationStability::new(g);
        for i in 0..20 {
            let p = GridMap::from_values(g, (0..g.bins()).map(|b| 0.5 + noise(i, b)).collect());
            let t = p.map(|v| 300.0 + 5.0 * v);
            acc.add_sample(&p, &t);
        }
        let s = acc.finish();
        assert_eq!(s.samples(), 20);
        assert!(s.mean() > 0.99);
        assert!(s.most_stable().1 > 0.99);
    }

    #[test]
    fn decoupled_temperature_gives_low_stability() {
        let g = grid();
        let mut acc = CorrelationStability::new(g);
        for i in 0..40 {
            let p = GridMap::from_values(g, (0..g.bins()).map(|b| 0.5 + noise(i, b)).collect());
            // Temperature varies independently of the local power.
            let t = GridMap::from_values(
                g,
                (0..g.bins())
                    .map(|b| 300.0 + noise(i + 1000, b + 7))
                    .collect(),
            );
            acc.add_sample(&p, &t);
        }
        let s = acc.finish();
        assert!(s.mean().abs() < 0.35, "mean stability {}", s.mean());
    }

    #[test]
    fn constant_bins_report_zero_stability() {
        let g = grid();
        let mut acc = CorrelationStability::new(g);
        for i in 0..5 {
            // Power varies but temperature is pinned: undefined correlation → 0.
            let p = GridMap::constant(g, i as f64);
            let t = GridMap::constant(g, 300.0);
            acc.add_sample(&p, &t);
        }
        let s = acc.finish();
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn top_bins_are_sorted_and_bounded() {
        let g = grid();
        let mut acc = CorrelationStability::new(g);
        for i in 0..10 {
            let p = GridMap::from_values(g, (0..g.bins()).map(|b| noise(i, b)).collect());
            // Only the first half of the bins track power.
            let t = GridMap::from_values(
                g,
                (0..g.bins())
                    .map(|b| {
                        if b < g.bins() / 2 {
                            300.0 + 3.0 * noise(i, b)
                        } else {
                            300.0 + noise(i + 99, b)
                        }
                    })
                    .collect(),
            );
            acc.add_sample(&p, &t);
        }
        let s = acc.finish();
        let top = s.top_bins(10);
        assert_eq!(top.len(), 10);
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // The most stable bins must come from the tracking half.
        let grid = s.map().grid();
        assert!(grid.flat_index(top[0].0) < grid.bins() / 2);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn finish_requires_two_samples() {
        let g = grid();
        let mut acc = CorrelationStability::new(g);
        acc.add_sample(&GridMap::zeros(g), &GridMap::zeros(g));
        let _ = acc.finish();
    }

    #[test]
    #[should_panic(expected = "grid mismatch")]
    fn grid_mismatch_panics() {
        let g = grid();
        let other = Grid::square(Rect::from_size(80.0, 80.0), 4);
        let mut acc = CorrelationStability::new(g);
        acc.add_sample(&GridMap::zeros(other), &GridMap::zeros(other));
    }
}
