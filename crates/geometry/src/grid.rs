//! Uniform grids and scalar grid maps (power maps, thermal maps, TSV-density maps).

use crate::{Point, Rect};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A position (column, row) within a [`Grid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridPos {
    /// Column index (x direction), `0..cols`.
    pub col: usize,
    /// Row index (y direction), `0..rows`.
    pub row: usize,
}

impl GridPos {
    /// Creates a grid position.
    pub const fn new(col: usize, row: usize) -> Self {
        Self { col, row }
    }

    /// Manhattan distance to another bin, measured in bins.
    pub fn manhattan(self, other: GridPos) -> usize {
        self.col.abs_diff(other.col) + self.row.abs_diff(other.row)
    }
}

impl fmt::Display for GridPos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.col, self.row)
    }
}

/// A uniform 2D grid covering a rectangular region of a die.
///
/// The same grid dimensions are used for the power map and the thermal map of a die so that
/// the Pearson correlation of Eq. 1 of the paper can be evaluated bin by bin.
///
/// ```
/// use tsc3d_geometry::{Grid, Rect};
/// let grid = Grid::new(Rect::from_size(100.0, 100.0), 10, 10);
/// assert_eq!(grid.bins(), 100);
/// assert_eq!(grid.bin_area(), 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grid {
    region: Rect,
    cols: usize,
    rows: usize,
}

impl Grid {
    /// Creates a grid with `cols x rows` bins over `region`.
    ///
    /// # Panics
    ///
    /// Panics if `cols` or `rows` is zero, or if the region has zero area.
    pub fn new(region: Rect, cols: usize, rows: usize) -> Self {
        assert!(
            cols > 0 && rows > 0,
            "grid must have at least one bin per axis"
        );
        assert!(region.area() > 0.0, "grid region must have positive area");
        Self { region, cols, rows }
    }

    /// Creates a square `n x n` grid over `region`.
    pub fn square(region: Rect, n: usize) -> Self {
        Self::new(region, n, n)
    }

    /// The covered region.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of bins.
    pub fn bins(&self) -> usize {
        self.cols * self.rows
    }

    /// Width of one bin in µm.
    pub fn bin_width(&self) -> f64 {
        self.region.width / self.cols as f64
    }

    /// Height of one bin in µm.
    pub fn bin_height(&self) -> f64 {
        self.region.height / self.rows as f64
    }

    /// Area of one bin in µm².
    pub fn bin_area(&self) -> f64 {
        self.bin_width() * self.bin_height()
    }

    /// The rectangle covered by bin `pos`.
    pub fn bin_rect(&self, pos: GridPos) -> Rect {
        Rect::new(
            self.region.x + pos.col as f64 * self.bin_width(),
            self.region.y + pos.row as f64 * self.bin_height(),
            self.bin_width(),
            self.bin_height(),
        )
    }

    /// Centre of bin `pos`.
    pub fn bin_center(&self, pos: GridPos) -> Point {
        self.bin_rect(pos).center()
    }

    /// The bin containing the point, or `None` if the point lies outside the region.
    pub fn bin_of(&self, p: Point) -> Option<GridPos> {
        if !self.region.contains(p) {
            return None;
        }
        let col = (((p.x - self.region.x) / self.bin_width()) as usize).min(self.cols - 1);
        let row = (((p.y - self.region.y) / self.bin_height()) as usize).min(self.rows - 1);
        Some(GridPos::new(col, row))
    }

    /// Flat index of a bin in row-major order.
    pub fn flat_index(&self, pos: GridPos) -> usize {
        debug_assert!(pos.col < self.cols && pos.row < self.rows);
        pos.row * self.cols + pos.col
    }

    /// The bin at the given flat (row-major) index.
    pub fn pos_of(&self, index: usize) -> GridPos {
        debug_assert!(index < self.bins());
        GridPos::new(index % self.cols, index / self.cols)
    }

    /// Iterator over all bin positions in row-major order.
    pub fn positions(&self) -> impl Iterator<Item = GridPos> + '_ {
        (0..self.bins()).map(move |i| self.pos_of(i))
    }

    /// Iterator over the bins whose rectangles can overlap `rect` (a conservative,
    /// clipped index-range sweep; callers still check the exact overlap area).
    pub fn bins_overlapping(&self, rect: &Rect) -> impl Iterator<Item = GridPos> + '_ {
        let bw = self.bin_width();
        let bh = self.bin_height();
        let col_lo = (((rect.x - self.region.x) / bw).floor().max(0.0)) as usize;
        let row_lo = (((rect.y - self.region.y) / bh).floor().max(0.0)) as usize;
        let col_hi =
            (((rect.x + rect.width - self.region.x) / bw).ceil().max(0.0) as usize).min(self.cols);
        let row_hi = (((rect.y + rect.height - self.region.y) / bh)
            .ceil()
            .max(0.0) as usize)
            .min(self.rows);
        let cols = self.cols;
        (row_lo.min(self.rows)..row_hi)
            .flat_map(move |row| (col_lo.min(cols)..col_hi).map(move |col| GridPos::new(col, row)))
    }

    /// Calls `f(flat_index, overlap_area)` for every bin whose rectangle overlaps `rect`,
    /// in row-major order.
    ///
    /// This is the fused clip arithmetic of [`GridMap::splat_power`]'s inner loop (no
    /// per-bin `Rect` round-trips), factored out so a rasterization can be *precomputed*:
    /// the overlap areas recorded here, replayed in the same order, accumulate
    /// bit-identically to a live splat. Portions of `rect` outside the grid region are
    /// dropped, and bins with zero overlap are skipped, exactly as in the live splat.
    pub fn for_each_overlap<F: FnMut(usize, f64)>(&self, rect: &Rect, mut f: F) {
        let region = self.region;
        let bw = self.bin_width();
        let bh = self.bin_height();
        let col_lo = ((((rect.x - region.x) / bw).floor().max(0.0)) as usize).min(self.cols);
        let row_lo = ((((rect.y - region.y) / bh).floor().max(0.0)) as usize).min(self.rows);
        let col_hi =
            (((rect.x + rect.width - region.x) / bw).ceil().max(0.0) as usize).min(self.cols);
        let row_hi =
            (((rect.y + rect.height - region.y) / bh).ceil().max(0.0) as usize).min(self.rows);
        let rect_x1 = rect.x + rect.width;
        let rect_y1 = rect.y + rect.height;
        for row in row_lo..row_hi {
            let bin_y = region.y + row as f64 * bh;
            let y0 = bin_y.max(rect.y);
            let y1 = (bin_y + bh).min(rect_y1);
            if y1 <= y0 {
                continue;
            }
            let base = row * self.cols;
            for col in col_lo..col_hi {
                let bin_x = region.x + col as f64 * bw;
                let x0 = bin_x.max(rect.x);
                let x1 = (bin_x + bw).min(rect_x1);
                if x1 > x0 {
                    f(base + col, (x1 - x0) * (y1 - y0));
                }
            }
        }
    }

    /// The 4-neighbourhood (von Neumann) of a bin, clipped to the grid.
    pub fn neighbors(&self, pos: GridPos) -> Vec<GridPos> {
        let mut out = Vec::with_capacity(4);
        if pos.col > 0 {
            out.push(GridPos::new(pos.col - 1, pos.row));
        }
        if pos.col + 1 < self.cols {
            out.push(GridPos::new(pos.col + 1, pos.row));
        }
        if pos.row > 0 {
            out.push(GridPos::new(pos.col, pos.row - 1));
        }
        if pos.row + 1 < self.rows {
            out.push(GridPos::new(pos.col, pos.row + 1));
        }
        out
    }
}

/// A scalar field sampled on a [`Grid`] (row-major storage).
///
/// `GridMap` is the common representation for power-density maps, thermal maps, TSV-density
/// maps and correlation-stability maps. Values carry whatever unit the producer defines
/// (µW/µm², K, TSV count, ...).
///
/// ```
/// use tsc3d_geometry::{Grid, GridMap, Rect};
/// let grid = Grid::square(Rect::from_size(10.0, 10.0), 5);
/// let mut m = GridMap::zeros(grid);
/// m[(0, 0)] = 2.0;
/// assert_eq!(m.max(), 2.0);
/// assert_eq!(m.mean(), 2.0 / 25.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GridMap {
    grid: Grid,
    values: Vec<f64>,
}

impl GridMap {
    /// Creates a map filled with zeros.
    pub fn zeros(grid: Grid) -> Self {
        Self {
            values: vec![0.0; grid.bins()],
            grid,
        }
    }

    /// Creates a map filled with a constant value.
    pub fn constant(grid: Grid, value: f64) -> Self {
        Self {
            values: vec![value; grid.bins()],
            grid,
        }
    }

    /// Creates a map from raw row-major values.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != grid.bins()`.
    pub fn from_values(grid: Grid, values: Vec<f64>) -> Self {
        assert_eq!(
            values.len(),
            grid.bins(),
            "value vector length must match the number of grid bins"
        );
        Self { grid, values }
    }

    /// The underlying grid.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// The raw row-major values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the raw row-major values.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Value of the bin at `pos`.
    pub fn get(&self, pos: GridPos) -> f64 {
        self.values[self.grid.flat_index(pos)]
    }

    /// Sets the value of the bin at `pos`.
    pub fn set(&mut self, pos: GridPos, value: f64) {
        let idx = self.grid.flat_index(pos);
        self.values[idx] = value;
    }

    /// Adds `value` to the bin at `pos`.
    pub fn add(&mut self, pos: GridPos, value: f64) {
        let idx = self.grid.flat_index(pos);
        self.values[idx] += value;
    }

    /// Sum of all bin values.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Mean of all bin values.
    pub fn mean(&self) -> f64 {
        self.sum() / self.values.len() as f64
    }

    /// Maximum bin value (`-inf` for an empty map, which cannot occur via constructors).
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum bin value.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Population standard deviation of the bin values.
    pub fn std_dev(&self) -> f64 {
        let mean = self.mean();
        let var =
            self.values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / self.values.len() as f64;
        var.sqrt()
    }

    /// Position of the bin holding the maximum value (first occurrence).
    pub fn argmax(&self) -> GridPos {
        let (idx, _) =
            self.values
                .iter()
                .enumerate()
                .fold((0, f64::NEG_INFINITY), |(bi, bv), (i, &v)| {
                    if v > bv {
                        (i, v)
                    } else {
                        (bi, bv)
                    }
                });
        self.grid.pos_of(idx)
    }

    /// Adds `amount`, distributed area-proportionally, to every bin overlapping `rect`.
    ///
    /// This is the rasterization primitive used to build power maps from block footprints:
    /// a block dissipating `P` watts over area `A` contributes `P * overlap(bin)/A` to each
    /// bin. Here the caller passes `amount` as the *density* to splat; use
    /// [`GridMap::splat_power`] to distribute an absolute quantity.
    pub fn splat_rect(&mut self, rect: &Rect, density: f64) {
        let grid = self.grid;
        for pos in grid.bins_overlapping(rect) {
            let overlap = grid.bin_rect(pos).overlap_area(rect);
            if overlap > 0.0 {
                self.add(pos, density * overlap / grid.bin_area());
            }
        }
    }

    /// Distributes an absolute quantity `total` (e.g. watts) uniformly over `rect`,
    /// accumulating the per-bin share into the map.
    ///
    /// Bins receive `total * overlap_area / rect.area()`. Portions of `rect` falling outside
    /// the grid region are dropped (their share is lost), mirroring how power outside the die
    /// outline is not modelled.
    pub fn splat_power(&mut self, rect: &Rect, total: f64) {
        let rect_area = rect.area();
        if rect_area <= 0.0 {
            return;
        }
        // [`Grid::for_each_overlap`] is the manually fused variant of `bins_overlapping`
        // + `bin_rect().overlap_area()`: rasterization is the inner loop of every
        // power-map build, so the per-bin `Rect` round-trips are flattened into the same
        // clip arithmetic on the same operands (the accumulated values are bit-identical
        // to the iterator formulation).
        let grid = self.grid;
        let values = &mut self.values;
        grid.for_each_overlap(rect, |bin, overlap| {
            values[bin] += total * overlap / rect_area;
        });
    }

    /// Returns a map where each bin holds `f(self[bin])`.
    pub fn map<F: Fn(f64) -> f64>(&self, f: F) -> GridMap {
        GridMap {
            grid: self.grid,
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise sum of two maps defined on the same grid.
    ///
    /// # Panics
    ///
    /// Panics if the grids differ.
    pub fn added(&self, other: &GridMap) -> GridMap {
        assert_eq!(self.grid, other.grid, "grid mismatch");
        GridMap {
            grid: self.grid,
            values: self
                .values
                .iter()
                .zip(&other.values)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Scales every bin by `factor`.
    pub fn scaled(&self, factor: f64) -> GridMap {
        self.map(|v| v * factor)
    }

    /// Normalizes the map so that its maximum is 1 (no-op for all-zero maps).
    pub fn normalized(&self) -> GridMap {
        let max = self.max();
        if max <= 0.0 {
            self.clone()
        } else {
            self.scaled(1.0 / max)
        }
    }

    /// Down-samples the map onto a coarser grid over the same region by averaging bins.
    ///
    /// # Panics
    ///
    /// Panics if the target grid covers a different region.
    pub fn resampled(&self, target: Grid) -> GridMap {
        assert_eq!(
            self.grid.region(),
            target.region(),
            "resampling requires identical regions"
        );
        let mut out = GridMap::zeros(target);
        let mut weights = vec![0.0; target.bins()];
        for pos in self.grid.positions() {
            let center = self.grid.bin_center(pos);
            if let Some(tpos) = target.bin_of(center) {
                let idx = target.flat_index(tpos);
                out.values[idx] += self.get(pos);
                weights[idx] += 1.0;
            }
        }
        for (v, w) in out.values.iter_mut().zip(weights) {
            if w > 0.0 {
                *v /= w;
            }
        }
        out
    }
}

impl Index<(usize, usize)> for GridMap {
    type Output = f64;
    /// Indexes by `(col, row)`.
    fn index(&self, (col, row): (usize, usize)) -> &f64 {
        &self.values[self.grid.flat_index(GridPos::new(col, row))]
    }
}

impl IndexMut<(usize, usize)> for GridMap {
    fn index_mut(&mut self, (col, row): (usize, usize)) -> &mut f64 {
        let idx = self.grid.flat_index(GridPos::new(col, row));
        &mut self.values[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid10() -> Grid {
        Grid::square(Rect::from_size(100.0, 100.0), 10)
    }

    #[test]
    fn grid_geometry() {
        let g = grid10();
        assert_eq!(g.bins(), 100);
        assert_eq!(g.bin_width(), 10.0);
        assert_eq!(g.bin_area(), 100.0);
        assert_eq!(
            g.bin_rect(GridPos::new(0, 0)),
            Rect::new(0.0, 0.0, 10.0, 10.0)
        );
        assert_eq!(g.bin_center(GridPos::new(1, 2)), Point::new(15.0, 25.0));
    }

    #[test]
    fn bin_of_and_indexing_roundtrip() {
        let g = grid10();
        assert_eq!(g.bin_of(Point::new(5.0, 5.0)), Some(GridPos::new(0, 0)));
        assert_eq!(g.bin_of(Point::new(99.9, 99.9)), Some(GridPos::new(9, 9)));
        // The upper-right boundary is clamped into the last bin.
        assert_eq!(g.bin_of(Point::new(100.0, 100.0)), Some(GridPos::new(9, 9)));
        assert_eq!(g.bin_of(Point::new(101.0, 5.0)), None);
        for i in 0..g.bins() {
            assert_eq!(g.flat_index(g.pos_of(i)), i);
        }
    }

    #[test]
    fn neighbors_clipped() {
        let g = grid10();
        assert_eq!(g.neighbors(GridPos::new(0, 0)).len(), 2);
        assert_eq!(g.neighbors(GridPos::new(5, 5)).len(), 4);
        assert_eq!(g.neighbors(GridPos::new(9, 0)).len(), 2);
    }

    #[test]
    fn map_statistics() {
        let mut m = GridMap::zeros(grid10());
        m[(3, 4)] = 10.0;
        m[(0, 0)] = -2.0;
        assert_eq!(m.max(), 10.0);
        assert_eq!(m.min(), -2.0);
        assert_eq!(m.sum(), 8.0);
        assert_eq!(m.argmax(), GridPos::new(3, 4));
        assert!(m.std_dev() > 0.0);
        assert_eq!(GridMap::constant(grid10(), 3.0).std_dev(), 0.0);
    }

    #[test]
    fn splat_power_conserves_total() {
        let mut m = GridMap::zeros(grid10());
        // Block fully inside the die: total power must be conserved exactly.
        m.splat_power(&Rect::new(12.0, 12.0, 36.0, 24.0), 5.0);
        assert!((m.sum() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn splat_power_clips_outside() {
        let mut m = GridMap::zeros(grid10());
        // Half the block hangs off the die; only half the power lands on the grid.
        m.splat_power(&Rect::new(90.0, 0.0, 20.0, 100.0), 4.0);
        assert!((m.sum() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn splat_zero_area_is_noop() {
        let mut m = GridMap::zeros(grid10());
        m.splat_power(&Rect::new(0.0, 0.0, 0.0, 0.0), 4.0);
        assert_eq!(m.sum(), 0.0);
    }

    #[test]
    fn map_transforms() {
        let m = GridMap::constant(grid10(), 2.0);
        assert_eq!(m.scaled(3.0).mean(), 6.0);
        assert_eq!(m.normalized().max(), 1.0);
        assert_eq!(m.map(|v| v * v).mean(), 4.0);
        let s = m.added(&m);
        assert_eq!(s.mean(), 4.0);
    }

    #[test]
    fn resample_preserves_mean_of_uniform_map() {
        let fine = GridMap::constant(Grid::square(Rect::from_size(100.0, 100.0), 20), 7.0);
        let coarse = fine.resampled(grid10());
        assert!((coarse.mean() - 7.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn from_values_length_checked() {
        let _ = GridMap::from_values(grid10(), vec![0.0; 3]);
    }
}
