//! Fast mask-based thermal estimation ("power blurring").
//!
//! Corblivar's key enabler — and the reason the paper can evaluate thermal leakage inside
//! every floorplanning iteration — is a fast thermal analysis that approximates the thermal
//! map as the convolution of the power map with a pre-characterized impulse response
//! ("thermal mask"). This module implements that estimator for the two-die stack:
//!
//! * each die's power map is blurred with a Gaussian mask whose width models lateral heat
//!   spreading,
//! * dies couple vertically (power in one die raises the temperature of the other, scaled by
//!   a coupling factor that grows with the local TSV density),
//! * the local temperature *rise* is additionally reduced where TSVs provide a good vertical
//!   path towards the heatsink.
//!
//! The estimator is intentionally cheap and only has to be *rank-correlated* with the
//! detailed solver (the paper itself notes the fast analysis "to be inferior to the detailed
//! analysis of HotSpot" and verifies final results with the detailed engine — we do the
//! same, see `tsc3d::flow`).

use crate::{ThermalConfig, TsvField};
use tsc3d_geometry::{Grid, GridMap};

/// Parameters of the power-blurring estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBlurring {
    /// Ambient temperature in kelvin.
    pub ambient: f64,
    /// Lateral spreading of the thermal mask, in grid bins (Gaussian sigma).
    pub sigma_bins: f64,
    /// Temperature rise per watt-per-bin for the die adjacent to the heatsink (top die).
    pub top_die_gain: f64,
    /// Temperature rise per watt-per-bin for dies farther from the heatsink. The bottom die
    /// of a two-die stack sees roughly twice the thermal resistance towards the sink.
    pub bottom_die_gain: f64,
    /// Fraction of the *other* die's blurred power that couples into a die.
    pub coupling: f64,
    /// Strength with which local TSV density suppresses the temperature rise
    /// (`rise *= 1 - tsv_relief * density`, clamped at 0).
    pub tsv_relief: f64,
}

impl PowerBlurring {
    /// Creates an estimator with default mask parameters for the given stack configuration.
    pub fn new(config: &ThermalConfig) -> Self {
        Self {
            ambient: config.ambient,
            sigma_bins: 2.0,
            top_die_gain: 6.0,
            bottom_die_gain: 11.0,
            coupling: 0.45,
            tsv_relief: 0.65,
        }
    }

    /// Estimates the per-die thermal maps for a stack of `power_per_die.len()` dies.
    ///
    /// `tsv_per_interface[i]` is the TSV field between die `i` and `i+1`; pass an empty
    /// slice for single-die stacks. Allocates fresh maps (and a transient [`BlurScratch`]);
    /// the floorplanner's hot loop uses [`PowerBlurring::estimate_into`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the maps are defined on different grids, or if
    /// `tsv_per_interface.len() + 1 != power_per_die.len()` for multi-die stacks.
    pub fn estimate(
        &self,
        power_per_die: &[GridMap],
        tsv_per_interface: &[TsvField],
    ) -> Vec<GridMap> {
        let mut scratch = BlurScratch::new();
        let mut out = Vec::new();
        self.estimate_into(power_per_die, tsv_per_interface, &mut scratch, &mut out);
        out
    }

    /// [`PowerBlurring::estimate`] into reusable buffers: the Gaussian kernel, the blurred
    /// intermediate maps and the output maps are all reused across calls, so a steady-state
    /// annealing loop allocates nothing here. Produces values identical to
    /// [`PowerBlurring::estimate`] (same kernel, same traversal order).
    ///
    /// # Panics
    ///
    /// See [`PowerBlurring::estimate`].
    pub fn estimate_into(
        &self,
        power_per_die: &[GridMap],
        tsv_per_interface: &[TsvField],
        scratch: &mut BlurScratch,
        out: &mut Vec<GridMap>,
    ) {
        assert!(!power_per_die.is_empty(), "at least one die required");
        let grid = power_per_die[0].grid();
        assert!(
            power_per_die.iter().all(|m| m.grid() == grid),
            "power maps must share one grid"
        );
        let dies = power_per_die.len();
        if dies > 1 {
            assert_eq!(
                tsv_per_interface.len(),
                dies - 1,
                "one TSV field per inter-die interface required"
            );
            assert!(
                tsv_per_interface.iter().all(|f| f.density().grid() == grid),
                "TSV fields must share the power-map grid"
            );
        }

        scratch.ensure(self.sigma_bins, dies, grid);
        let BlurScratch {
            kernel,
            tmp,
            blurred,
            padded,
            pad_idx,
            row_idx,
            ..
        } = scratch;
        for (d, power) in power_per_die.iter().enumerate() {
            gaussian_blur_lanes(
                power,
                kernel,
                pad_idx,
                row_idx,
                padded,
                tmp,
                &mut blurred[d],
            );
        }
        let blurred = &*blurred;

        if out.len() != dies || out.iter().any(|m| m.grid() != grid) {
            *out = (0..dies).map(|_| GridMap::zeros(grid)).collect();
        }
        let top = dies - 1;
        for (d, map) in out.iter_mut().enumerate() {
            let gain = if d == top {
                self.top_die_gain
            } else {
                self.bottom_die_gain
            };
            let own = blurred[d].values();
            let values = map.values_mut();
            // Coupling from the neighbouring dies (two-die stacks have one neighbour;
            // larger stacks accumulate both), summed in the output lanes from zero.
            values.fill(0.0);
            let mut couple = |tsv: &TsvField, other: &GridMap| {
                let density = tsv.density().values();
                for ((v, &rho), &p) in values.iter_mut().zip(density).zip(other.values()) {
                    *v += self.coupling * (0.5 + rho) * gain * p;
                }
            };
            if d > 0 {
                couple(&tsv_per_interface[d - 1], &blurred[d - 1]);
            }
            if d + 1 < dies {
                couple(&tsv_per_interface[d], &blurred[d + 1]);
            }
            // Local TSVs open a vertical escape path that reduces the rise.
            if dies > 1 {
                let field = &tsv_per_interface[if d == top { d - 1 } else { d }];
                let density = field.density().values();
                for ((v, &o), &rho) in values.iter_mut().zip(own).zip(density) {
                    let relief = (1.0 - self.tsv_relief * rho).max(0.0);
                    *v = self.ambient + (gain * o + *v) * relief;
                }
            } else {
                // No relief: the reference's factor 1 changes no value.
                for (v, &o) in values.iter_mut().zip(own) {
                    *v = self.ambient + (gain * o + *v);
                }
            }
        }
    }

    /// Peak temperature of an estimate produced by [`PowerBlurring::estimate`].
    pub fn peak(maps: &[GridMap]) -> f64 {
        maps.iter()
            .map(|m| m.max())
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Reusable buffers for [`PowerBlurring::estimate_into`]: the normalized Gaussian kernel
/// (rebuilt only when the sigma changes), the reflect-index tables, the padded row and
/// the separable-blur intermediate, and the per-die blurred maps.
#[derive(Debug, Clone)]
pub struct BlurScratch {
    /// Sigma (in bins) the kernel was built for; NaN before the first use.
    sigma: f64,
    /// Normalized 1D Gaussian taps covering `-radius..=radius`.
    kernel: Vec<f64>,
    /// Horizontal-pass intermediate of the separable blur.
    tmp: Vec<f64>,
    /// Blurred power map per die.
    blurred: Vec<GridMap>,
    /// One row reflect-padded by the kernel radius on both sides.
    padded: Vec<f64>,
    /// Source column of every padded-row position (`cols + 2 * radius` entries).
    pad_idx: Vec<u32>,
    /// Pre-resolved reflected source row per (row, tap) pair.
    row_idx: Vec<u32>,
    /// Grid the index tables were built for.
    table_grid: Option<Grid>,
}

impl Default for BlurScratch {
    fn default() -> Self {
        Self {
            sigma: f64::NAN,
            kernel: Vec::new(),
            tmp: Vec::new(),
            blurred: Vec::new(),
            padded: Vec::new(),
            pad_idx: Vec::new(),
            row_idx: Vec::new(),
            table_grid: None,
        }
    }
}

impl BlurScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the kernel, the reflect-index tables and the buffers as needed.
    fn ensure(&mut self, sigma: f64, dies: usize, grid: Grid) {
        let sigma_changed = self.sigma != sigma;
        if sigma_changed {
            self.kernel = gaussian_kernel(sigma);
            self.sigma = sigma;
        }
        if self.tmp.len() != grid.bins() {
            self.tmp = vec![0.0; grid.bins()];
        }
        if self.blurred.len() != dies || self.blurred.iter().any(|m| m.grid() != grid) {
            self.blurred = (0..dies).map(|_| GridMap::zeros(grid)).collect();
        }
        if sigma_changed || self.table_grid != Some(grid) {
            let radius = (self.kernel.len() / 2) as isize;
            let cols = grid.cols() as isize;
            self.pad_idx = (-radius..cols + radius).map(|c| reflect(c, cols)).collect();
            self.padded = vec![0.0; self.pad_idx.len()];
            self.row_idx = reflect_table(grid.rows(), self.kernel.len());
            self.table_grid = Some(grid);
        }
    }
}

/// Normalized 1D Gaussian taps over `-radius..=radius`, `radius = ceil(3 sigma)`.
fn gaussian_kernel(sigma: f64) -> Vec<f64> {
    let radius = (3.0 * sigma).ceil() as isize;
    let mut kernel: Vec<f64> = (-radius..=radius)
        .map(|i| (-(i as f64).powi(2) / (2.0 * sigma * sigma)).exp())
        .collect();
    let norm: f64 = kernel.iter().sum();
    for k in &mut kernel {
        *k /= norm;
    }
    kernel
}

/// Reflecting boundary: index `i` of a line of `n` samples, mirrored at both ends
/// (`-1 → 0`, `n → n - 1`) and clamped when the kernel is wider than the line.
fn reflect(i: isize, n: isize) -> u32 {
    let mut i = i;
    if i < 0 {
        i = -i - 1;
    }
    if i >= n {
        i = 2 * n - i - 1;
    }
    i.clamp(0, n - 1) as u32
}

/// The reflected source position of every (position, tap) pair of a line of `n` samples.
fn reflect_table(n: usize, taps: usize) -> Vec<u32> {
    let radius = (taps / 2) as isize;
    (0..n as isize)
        .flat_map(|p| (0..taps as isize).map(move |k| reflect(p + k - radius, n as isize)))
        .collect()
}

/// Separable Gaussian blur with reflecting boundaries (allocating convenience wrapper,
/// kept for the blur-conservation tests).
#[cfg(test)]
fn gaussian_blur(map: &GridMap, sigma: f64) -> GridMap {
    let mut scratch = BlurScratch::new();
    scratch.ensure(sigma, 1, map.grid());
    let mut out = GridMap::zeros(map.grid());
    gaussian_blur_lanes(
        map,
        &scratch.kernel,
        &scratch.pad_idx,
        &scratch.row_idx,
        &mut scratch.padded,
        &mut scratch.tmp,
        &mut out,
    );
    out
}

/// Separable Gaussian blur with reflecting boundaries, into a caller-provided map.
///
/// Both passes run lanes across the columns: the horizontal pass copies each row into
/// `padded` through the reflect table `pad_idx`, so the taps of output column `c` are the
/// contiguous `padded[c..c + taps]`; the vertical pass reads whole source rows through
/// `row_idx`. Each pass adds one tap to every output lane before the next, so every
/// output accumulates `0 + w₀x₀ + w₁x₁ + …` over the same operands in the same order as
/// a per-output tap loop.
fn gaussian_blur_lanes(
    map: &GridMap,
    kernel: &[f64],
    pad_idx: &[u32],
    row_idx: &[u32],
    padded: &mut [f64],
    tmp: &mut [f64],
    out: &mut GridMap,
) {
    let cols = map.grid().cols();
    let taps = kernel.len();

    // Horizontal pass.
    for (line, acc) in map
        .values()
        .chunks_exact(cols)
        .zip(tmp.chunks_exact_mut(cols))
    {
        for (p, &c) in padded.iter_mut().zip(pad_idx) {
            *p = line[c as usize];
        }
        acc.fill(0.0);
        for (k, &w) in kernel.iter().enumerate() {
            for (a, &x) in acc.iter_mut().zip(&padded[k..k + cols]) {
                *a += w * x;
            }
        }
    }
    // Vertical pass.
    let tmp = &*tmp;
    for (acc, idx) in out
        .values_mut()
        .chunks_exact_mut(cols)
        .zip(row_idx.chunks_exact(taps))
    {
        acc.fill(0.0);
        for (&w, &r) in kernel.iter().zip(idx) {
            let r = r as usize;
            for (a, &x) in acc.iter_mut().zip(&tmp[r * cols..(r + 1) * cols]) {
                *a += w * x;
            }
        }
    }
}

/// The per-output tap loop the lane kernel replaced: each output sums its taps through
/// its own reflect-index row — the independent reference of the blur tests.
#[cfg(test)]
fn gaussian_blur_reference(map: &GridMap, sigma: f64) -> GridMap {
    let grid = map.grid();
    let (cols, rows) = (grid.cols(), grid.rows());
    let kernel = gaussian_kernel(sigma);
    let taps = kernel.len();
    let col_idx = reflect_table(cols, taps);
    let row_idx = reflect_table(rows, taps);

    // Horizontal pass.
    let input = map.values();
    let mut tmp = vec![0.0; grid.bins()];
    for row in 0..rows {
        let line = &input[row * cols..(row + 1) * cols];
        for col in 0..cols {
            let mut acc = 0.0;
            let idx = &col_idx[col * taps..(col + 1) * taps];
            for (w, &c) in kernel.iter().zip(idx) {
                acc += w * line[c as usize];
            }
            tmp[row * cols + col] = acc;
        }
    }
    // Vertical pass.
    let mut out = GridMap::zeros(grid);
    let values = out.values_mut();
    for row in 0..rows {
        let idx = &row_idx[row * taps..(row + 1) * taps];
        for col in 0..cols {
            let mut acc = 0.0;
            for (w, &r) in kernel.iter().zip(idx) {
                acc += w * tmp[r as usize * cols + col];
            }
            values[row * cols + col] = acc;
        }
    }
    out
}

/// [`PowerBlurring::estimate`] as the per-bin loop the lane kernels replaced, over
/// [`gaussian_blur_reference`].
#[cfg(test)]
fn estimate_reference(
    pb: &PowerBlurring,
    power_per_die: &[GridMap],
    tsv_per_interface: &[TsvField],
) -> Vec<GridMap> {
    let dies = power_per_die.len();
    let blurred: Vec<GridMap> = power_per_die
        .iter()
        .map(|p| gaussian_blur_reference(p, pb.sigma_bins))
        .collect();
    let top = dies - 1;
    let mut out = Vec::new();
    for d in 0..dies {
        let gain = if d == top {
            pb.top_die_gain
        } else {
            pb.bottom_die_gain
        };
        let mut map = GridMap::zeros(power_per_die[0].grid());
        for (b, value) in map.values_mut().iter_mut().enumerate() {
            let own = gain * blurred[d].values()[b];
            let mut coupled = 0.0;
            if d > 0 {
                let density = tsv_per_interface[d - 1].density().values()[b];
                coupled += pb.coupling * (0.5 + density) * gain * blurred[d - 1].values()[b];
            }
            if d + 1 < dies {
                let density = tsv_per_interface[d].density().values()[b];
                coupled += pb.coupling * (0.5 + density) * gain * blurred[d + 1].values()[b];
            }
            let relief = if dies > 1 {
                let density = if d == top {
                    tsv_per_interface[d - 1].density().values()[b]
                } else {
                    tsv_per_interface[d].density().values()[b]
                };
                (1.0 - pb.tsv_relief * density).max(0.0)
            } else {
                1.0
            };
            *value = pb.ambient + (own + coupled) * relief;
        }
        out.push(map);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc3d_geometry::{Grid, Outline, Point, Rect, Stack};

    fn setup() -> (PowerBlurring, Grid) {
        let stack = Stack::two_die(Outline::new(2000.0, 2000.0));
        let grid = Grid::square(stack.outline().rect(), 16);
        (PowerBlurring::new(&ThermalConfig::default_for(stack)), grid)
    }

    #[test]
    fn estimate_into_matches_estimate_and_reuses_buffers() {
        let (pb, grid) = setup();
        let mut p0 = GridMap::zeros(grid);
        p0.splat_power(&Rect::new(200.0, 300.0, 700.0, 500.0), 2.5);
        let power = vec![p0, GridMap::constant(grid, 0.004)];
        let tsvs = vec![TsvField::uniform(grid, 0.1)];
        let reference = pb.estimate(&power, &tsvs);
        let mut scratch = BlurScratch::new();
        let mut out = Vec::new();
        for _ in 0..3 {
            pb.estimate_into(&power, &tsvs, &mut scratch, &mut out);
            assert_eq!(out, reference);
        }
    }

    #[test]
    fn lane_blur_matches_per_output_reference_bit_for_bit() {
        // At sigma 2 the kernel has 13 taps, more than a 4- or 5-bin row, so the
        // reflect-and-clamp indices are exercised too.
        for bins in [4usize, 5, 10, 16, 33] {
            let grid = Grid::square(Rect::from_size(1000.0, 1000.0), bins);
            let mut map = GridMap::zeros(grid);
            map.splat_power(&Rect::new(120.0, 310.0, 420.0, 170.0), 2.5);
            map.splat_power(&Rect::new(700.0, 40.0, 90.0, 800.0), 0.75);
            for (i, v) in map.values_mut().iter_mut().enumerate() {
                *v += ((i * 7919) % 13) as f64 * 1e-3;
            }
            for sigma in [0.5, 2.0, 3.3] {
                let lanes = gaussian_blur(&map, sigma);
                let reference = gaussian_blur_reference(&map, sigma);
                assert_eq!(
                    lanes.values(),
                    reference.values(),
                    "{bins} bins, sigma {sigma}"
                );
            }
            // The whole estimate, for one, two and three dies.
            let pb = PowerBlurring::new(&ThermalConfig::default_for(Stack::two_die(Outline::new(
                1000.0, 1000.0,
            ))));
            let mut field = TsvField::empty(grid);
            field.add_site(crate::TsvSite::island(Point::new(400.0, 380.0), 40));
            let powers = [map.clone(), map.scaled(0.3), GridMap::constant(grid, 0.01)];
            let fields = [field, TsvField::uniform(grid, 0.2)];
            for dies in 1..=3 {
                let power = &powers[..dies];
                let tsvs = &fields[..dies - 1];
                assert_eq!(
                    pb.estimate(power, tsvs),
                    estimate_reference(&pb, power, tsvs),
                    "{bins} bins, {dies} dies"
                );
            }
        }
    }

    #[test]
    fn zero_power_gives_ambient() {
        let (pb, grid) = setup();
        let maps = pb.estimate(
            &[GridMap::zeros(grid), GridMap::zeros(grid)],
            &[TsvField::empty(grid)],
        );
        assert!((PowerBlurring::peak(&maps) - pb.ambient).abs() < 1e-12);
    }

    #[test]
    fn blur_conserves_total_power() {
        let (_, grid) = setup();
        let mut p = GridMap::zeros(grid);
        p.splat_power(&Rect::new(500.0, 500.0, 600.0, 600.0), 3.0);
        let blurred = gaussian_blur(&p, 2.0);
        assert!((blurred.sum() - p.sum()).abs() < 0.15, "blur lost power");
    }

    #[test]
    fn hotspot_location_is_preserved() {
        let (pb, grid) = setup();
        let mut p0 = GridMap::zeros(grid);
        p0.splat_power(&Rect::new(0.0, 0.0, 400.0, 400.0), 2.0);
        let maps = pb.estimate(&[p0, GridMap::zeros(grid)], &[TsvField::empty(grid)]);
        let hottest = maps[0].argmax();
        assert!(hottest.col < 6 && hottest.row < 6);
    }

    #[test]
    fn bottom_die_hotter_for_equal_power() {
        let (pb, grid) = setup();
        let p = GridMap::constant(grid, 0.01);
        let maps = pb.estimate(&[p.clone(), p], &[TsvField::empty(grid)]);
        assert!(maps[0].mean() > maps[1].mean());
    }

    #[test]
    fn tsvs_lower_local_temperature() {
        let (pb, grid) = setup();
        let p = GridMap::constant(grid, 0.01);
        let cool = pb.estimate(&[p.clone(), p.clone()], &[TsvField::uniform(grid, 0.4)]);
        let warm = pb.estimate(&[p.clone(), p], &[TsvField::empty(grid)]);
        assert!(cool[0].mean() < warm[0].mean());
    }

    #[test]
    fn coupling_spreads_heat_across_dies() {
        let (pb, grid) = setup();
        let mut p0 = GridMap::zeros(grid);
        p0.splat_power(&Rect::new(0.0, 0.0, 500.0, 500.0), 2.0);
        let maps = pb.estimate(&[p0, GridMap::zeros(grid)], &[TsvField::empty(grid)]);
        // The un-powered top die still warms above ambient through coupling.
        assert!(maps[1].max() > pb.ambient + 0.01);
    }

    #[test]
    #[should_panic(expected = "interface")]
    fn missing_tsv_field_panics() {
        let (pb, grid) = setup();
        let _ = pb.estimate(&[GridMap::zeros(grid), GridMap::zeros(grid)], &[]);
    }

    #[test]
    fn single_die_stack_needs_no_tsv_field() {
        let (pb, grid) = setup();
        let maps = pb.estimate(&[GridMap::constant(grid, 0.01)], &[]);
        assert_eq!(maps.len(), 1);
        assert!(maps[0].mean() > pb.ambient);
    }
}
