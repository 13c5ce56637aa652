//! Through-silicon-via (TSV) distributions.
//!
//! TSVs are copper/tungsten pillars crossing an inter-die bond layer. Thermally they act as
//! "heat pipes" between stacked dies; their number and spatial arrangement is the second key
//! knob (besides the power distribution) controlling how strongly the thermal map of a die
//! correlates with its power map (Section 3 of the paper).
//!
//! A [`TsvField`] stores, per inter-die interface, the fraction of each grid bin occupied by
//! TSV metal. Fields can be built from explicit [`TsvSite`]s (as produced by the
//! floorplanner's TSV planning) or synthesized from one of the exploratory [`TsvPattern`]s
//! of the paper's initial study.

use std::fmt;
use tsc3d_geometry::{Grid, GridMap, GridPos, Point, Rect};

/// Technology parameters of a TSV.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TsvTechnology {
    /// TSV (copper) diameter in µm.
    pub diameter: f64,
    /// Minimum pitch between adjacent TSVs in µm.
    pub pitch: f64,
    /// Keep-out-zone margin around each TSV in µm (no active devices allowed).
    pub keep_out: f64,
}

impl TsvTechnology {
    /// Default 3D-IC technology: 5 µm diameter, 10 µm pitch, 5 µm keep-out (Corblivar
    /// defaults for the 90 nm node used in the paper).
    pub const fn default_90nm() -> Self {
        Self {
            diameter: 5.0,
            pitch: 10.0,
            keep_out: 5.0,
        }
    }

    /// Metal cross-section area of a single TSV in µm².
    pub fn metal_area(&self) -> f64 {
        std::f64::consts::PI * (self.diameter / 2.0).powi(2)
    }

    /// Footprint (pitch cell) area of a single TSV including its keep-out zone, in µm².
    pub fn footprint_area(&self) -> f64 {
        let cell = self.diameter + 2.0 * self.keep_out;
        cell * cell
    }

    /// Maximum achievable TSV metal density (metal area / footprint area).
    pub fn max_density(&self) -> f64 {
        (self.metal_area() / self.footprint_area()).min(1.0)
    }
}

impl Default for TsvTechnology {
    fn default() -> Self {
        Self::default_90nm()
    }
}

/// A single TSV (or a group of TSVs at the same site) located on an inter-die interface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TsvSite {
    /// Centre position of the site in µm.
    pub position: Point,
    /// Number of TSVs at this site (1 for a single signal TSV, larger for a TSV island).
    pub count: usize,
}

impl TsvSite {
    /// Creates a single-TSV site.
    pub fn single(position: Point) -> Self {
        Self { position, count: 1 }
    }

    /// Creates an island of `count` TSVs centred at `position`.
    pub fn island(position: Point, count: usize) -> Self {
        Self { position, count }
    }
}

/// The exploratory TSV arrangements studied in Section 3 / Figure 2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TsvPattern {
    /// No TSVs at all (pure face-to-back bonding, no vertical interconnect).
    None,
    /// Maximum TSV density: 100 % of the area covered by TSVs and their keep-out zones.
    MaxDensity,
    /// Irregularly placed individual TSVs.
    Irregular,
    /// Irregular TSVs plus a regular background array.
    IrregularPlusRegular,
    /// Irregular groups of densely packed TSVs (TSV islands).
    Islands,
    /// TSV islands plus a regular background array.
    IslandsPlusRegular,
}

impl TsvPattern {
    /// All six patterns in the order used by the exploratory study.
    pub const ALL: [TsvPattern; 6] = [
        TsvPattern::None,
        TsvPattern::MaxDensity,
        TsvPattern::Irregular,
        TsvPattern::IrregularPlusRegular,
        TsvPattern::Islands,
        TsvPattern::IslandsPlusRegular,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            TsvPattern::None => "no TSVs",
            TsvPattern::MaxDensity => "maximal TSV density",
            TsvPattern::Irregular => "irregular TSVs",
            TsvPattern::IrregularPlusRegular => "irregular + regular TSVs",
            TsvPattern::Islands => "TSV islands",
            TsvPattern::IslandsPlusRegular => "TSV islands + regular TSVs",
        }
    }
}

impl fmt::Display for TsvPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// TSV metal-density field over one inter-die interface.
///
/// Each bin stores the fraction of the bin area occupied by TSV metal, in `[0, 1]`. The
/// thermal solvers turn this into an effective vertical conductivity; the floorplanner
/// updates it as signal and dummy TSVs are planned.
#[derive(Debug, Clone, PartialEq)]
pub struct TsvField {
    density: GridMap,
    sites: Vec<TsvSite>,
}

impl TsvField {
    /// The TSV technology of every field: the 90 nm defaults of
    /// [`TsvTechnology::default_90nm`].
    pub const TECHNOLOGY: TsvTechnology = TsvTechnology::default_90nm();

    /// Creates an empty field (no TSVs) on the given grid.
    pub fn empty(grid: Grid) -> Self {
        Self {
            density: GridMap::zeros(grid),
            sites: Vec::new(),
        }
    }

    /// Creates a field with uniform density everywhere (clamped to `[0, 1]`).
    pub fn uniform(grid: Grid, density: f64) -> Self {
        Self {
            density: GridMap::constant(grid, density.clamp(0.0, 1.0)),
            sites: Vec::new(),
        }
    }

    /// The underlying density map (fraction of bin area that is TSV metal).
    pub fn density(&self) -> &GridMap {
        &self.density
    }

    /// The explicit TSV sites added so far (empty for synthesized patterns).
    pub fn sites(&self) -> &[TsvSite] {
        &self.sites
    }

    /// Total number of TSVs represented by the explicit sites.
    pub fn tsv_count(&self) -> usize {
        self.sites.iter().map(|s| s.count).sum()
    }

    /// Removes every TSV from the field (density back to zero, sites cleared), keeping the
    /// allocated storage. Lets hot loops reuse one field per interface across re-plans.
    pub fn clear(&mut self) {
        self.density.values_mut().fill(0.0);
        self.sites.clear();
    }

    /// Adds a TSV site, updating the density map.
    ///
    /// The site's metal area is spread over the bin containing it (and clipped at a density
    /// of 1). Sites outside the grid region are ignored.
    pub fn add_site(&mut self, site: TsvSite) {
        let grid = self.density.grid();
        if let Some(pos) = grid.bin_of(site.position) {
            let added = site.count as f64 * Self::TECHNOLOGY.metal_area() / grid.bin_area();
            let new = (self.density.get(pos) + added).min(1.0);
            self.density.set(pos, new);
            self.sites.push(site);
        }
    }

    /// [`TsvField::add_site`] with the containing bin already resolved — the hot-loop
    /// variant for callers that cache `bin_of(site.position)` alongside the site.
    ///
    /// # Panics
    ///
    /// Debug builds assert that `pos` is the bin containing the site.
    pub fn add_site_at(&mut self, site: TsvSite, pos: GridPos) {
        let grid = self.density.grid();
        debug_assert_eq!(grid.bin_of(site.position), Some(pos));
        let added = site.count as f64 * Self::TECHNOLOGY.metal_area() / grid.bin_area();
        let new = (self.density.get(pos) + added).min(1.0);
        self.density.set(pos, new);
        self.sites.push(site);
    }

    /// Average density over the whole interface.
    pub fn mean_density(&self) -> f64 {
        self.density.mean()
    }

    /// Density at a specific bin.
    pub fn density_at(&self, pos: GridPos) -> f64 {
        self.density.get(pos)
    }

    /// Synthesizes one of the exploratory patterns of Section 3 on the given grid.
    ///
    /// `seed` makes irregular patterns reproducible. The returned field has no explicit
    /// sites; only the density map is populated.
    pub fn from_pattern(grid: Grid, pattern: TsvPattern, seed: u64) -> Self {
        let max_density = Self::TECHNOLOGY.max_density();
        let mut density = GridMap::zeros(grid);
        let mut rng = SplitMix::new(seed);

        match pattern {
            TsvPattern::None => {}
            TsvPattern::MaxDensity => {
                density = GridMap::constant(grid, max_density);
            }
            TsvPattern::Irregular => {
                scatter(&mut density, &mut rng, grid.bins() / 6, max_density * 0.6);
            }
            TsvPattern::IrregularPlusRegular => {
                regular(&mut density, 4, max_density * 0.3);
                scatter(&mut density, &mut rng, grid.bins() / 8, max_density * 0.6);
            }
            TsvPattern::Islands => {
                islands(&mut density, &mut rng, 5, grid, max_density);
            }
            TsvPattern::IslandsPlusRegular => {
                regular(&mut density, 4, max_density * 0.3);
                islands(&mut density, &mut rng, 5, grid, max_density);
            }
        }
        Self {
            density,
            sites: Vec::new(),
        }
    }

    /// Returns a copy whose density is the element-wise maximum of `self` and `other`
    /// (useful for overlaying signal-TSV and dummy-TSV fields on the same interface).
    ///
    /// # Panics
    ///
    /// Panics if the grids differ.
    pub fn merged(&self, other: &TsvField) -> TsvField {
        assert_eq!(self.density.grid(), other.density.grid(), "grid mismatch");
        let values: Vec<f64> = self
            .density
            .values()
            .iter()
            .zip(other.density.values())
            .map(|(a, b)| (a + b).min(1.0))
            .collect();
        let mut sites = self.sites.clone();
        sites.extend_from_slice(&other.sites);
        TsvField {
            density: GridMap::from_values(self.density.grid(), values),
            sites,
        }
    }
}

fn scatter(density: &mut GridMap, rng: &mut SplitMix, bins: usize, amount: f64) {
    let grid = density.grid();
    for _ in 0..bins {
        let col = rng.below(grid.cols());
        let row = rng.below(grid.rows());
        let pos = GridPos::new(col, row);
        let new = (density.get(pos) + amount).min(1.0);
        density.set(pos, new);
    }
}

fn regular(density: &mut GridMap, stride: usize, amount: f64) {
    let grid = density.grid();
    for pos in grid.positions() {
        if pos.col % stride == 0 && pos.row % stride == 0 {
            let new = (density.get(pos) + amount).min(1.0);
            density.set(pos, new);
        }
    }
}

fn islands(density: &mut GridMap, rng: &mut SplitMix, count: usize, grid: Grid, max_density: f64) {
    for _ in 0..count {
        let col = rng.below(grid.cols());
        let row = rng.below(grid.rows());
        let radius = 1 + rng.below(2);
        let center = grid.bin_center(GridPos::new(col, row));
        let half = radius as f64 * grid.bin_width();
        let island = Rect::new(center.x - half, center.y - half, 2.0 * half, 2.0 * half);
        for pos in grid.positions() {
            if grid.bin_rect(pos).overlaps(&island) {
                density.set(pos, max_density);
            }
        }
    }
}

/// Minimal deterministic PRNG (SplitMix64) so this crate does not need a `rand` dependency.
#[derive(Debug, Clone)]
struct SplitMix {
    state: u64,
}

impl SplitMix {
    fn new(seed: u64) -> Self {
        Self {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound.max(1) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc3d_geometry::Rect;

    fn grid() -> Grid {
        Grid::square(Rect::from_size(1000.0, 1000.0), 16)
    }

    #[test]
    fn technology_density_bounds() {
        let t = TsvTechnology::default_90nm();
        assert!(t.max_density() > 0.0 && t.max_density() < 1.0);
        assert!(t.metal_area() < t.footprint_area());
    }

    #[test]
    fn empty_and_uniform_fields() {
        assert_eq!(TsvField::empty(grid()).mean_density(), 0.0);
        let f = TsvField::uniform(grid(), 0.3);
        assert!((f.mean_density() - 0.3).abs() < 1e-12);
        // Clamping.
        assert_eq!(TsvField::uniform(grid(), 2.0).mean_density(), 1.0);
    }

    #[test]
    fn adding_sites_increases_density() {
        let mut f = TsvField::empty(grid());
        f.add_site(TsvSite::single(Point::new(100.0, 100.0)));
        f.add_site(TsvSite::island(Point::new(500.0, 500.0), 50));
        assert_eq!(f.sites().len(), 2);
        assert_eq!(f.tsv_count(), 51);
        assert!(f.mean_density() > 0.0);
        // Sites outside the region are ignored.
        f.add_site(TsvSite::single(Point::new(5000.0, 5000.0)));
        assert_eq!(f.sites().len(), 2);
    }

    #[test]
    fn density_saturates_at_one() {
        let mut f = TsvField::empty(grid());
        f.add_site(TsvSite::island(Point::new(100.0, 100.0), 1_000_000));
        let pos = f.density().grid().bin_of(Point::new(100.0, 100.0)).unwrap();
        assert_eq!(f.density_at(pos), 1.0);
    }

    #[test]
    fn patterns_have_expected_ordering() {
        let g = grid();
        let none = TsvField::from_pattern(g, TsvPattern::None, 1);
        let max = TsvField::from_pattern(g, TsvPattern::MaxDensity, 1);
        let irregular = TsvField::from_pattern(g, TsvPattern::Irregular, 1);
        let islands = TsvField::from_pattern(g, TsvPattern::Islands, 1);
        assert_eq!(none.mean_density(), 0.0);
        assert!(max.mean_density() > irregular.mean_density());
        assert!(irregular.mean_density() > 0.0);
        assert!(islands.mean_density() > 0.0);
        // Max-density pattern is spatially uniform.
        assert!(max.density().std_dev() < 1e-12);
        // Irregular pattern is not.
        assert!(irregular.density().std_dev() > 0.0);
    }

    #[test]
    fn patterns_are_deterministic_per_seed() {
        let g = grid();
        let a = TsvField::from_pattern(g, TsvPattern::Islands, 7);
        let b = TsvField::from_pattern(g, TsvPattern::Islands, 7);
        let c = TsvField::from_pattern(g, TsvPattern::Islands, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn merged_takes_sum_clamped() {
        let g = grid();
        let a = TsvField::uniform(g, 0.6);
        let b = TsvField::uniform(g, 0.7);
        let m = a.merged(&b);
        assert_eq!(m.mean_density(), 1.0);
    }

    #[test]
    fn pattern_names_and_all() {
        assert_eq!(TsvPattern::ALL.len(), 6);
        assert_eq!(format!("{}", TsvPattern::Islands), "TSV islands");
    }
}
