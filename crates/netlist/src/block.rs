//! Blocks (modules) of a block-level design.

use std::fmt;

/// Identifier of a block within a [`crate::Design`].
///
/// Block ids are dense indices into the design's block vector, which keeps every per-block
/// table (placements, voltages, activities) a plain `Vec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub usize);

impl BlockId {
    /// The zero-based index of the block.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

impl From<usize> for BlockId {
    fn from(v: usize) -> Self {
        BlockId(v)
    }
}

/// Footprint flexibility of a block.
///
/// GSRC benchmarks contain only soft blocks (area fixed, aspect ratio flexible);
/// IBM-HB+ benchmarks mix hard macros (fixed width/height) and soft blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlockShape {
    /// Fixed footprint: the block must be placed with exactly this width and height
    /// (rotation by 90° is still allowed by the floorplanner).
    Hard {
        /// Width in µm.
        width: f64,
        /// Height in µm.
        height: f64,
    },
    /// Flexible footprint: the area is fixed but the aspect ratio may vary within
    /// `[min_aspect, max_aspect]` (height / width).
    Soft {
        /// Area in µm².
        area: f64,
        /// Minimum aspect ratio (height/width).
        min_aspect: f64,
        /// Maximum aspect ratio (height/width).
        max_aspect: f64,
    },
}

impl BlockShape {
    /// A hard block of the given size.
    pub fn hard(width: f64, height: f64) -> Self {
        BlockShape::Hard { width, height }
    }

    /// A soft block with the default aspect-ratio range `[1/3, 3]` used by the GSRC suite.
    pub fn soft(area: f64) -> Self {
        BlockShape::Soft {
            area,
            min_aspect: 1.0 / 3.0,
            max_aspect: 3.0,
        }
    }

    /// Block area in µm².
    pub fn area(&self) -> f64 {
        match *self {
            BlockShape::Hard { width, height } => width * height,
            BlockShape::Soft { area, .. } => area,
        }
    }

    /// Returns `true` for hard blocks.
    pub fn is_hard(&self) -> bool {
        matches!(self, BlockShape::Hard { .. })
    }

    /// Returns `true` for soft blocks.
    pub fn is_soft(&self) -> bool {
        matches!(self, BlockShape::Soft { .. })
    }

    /// Width and height realizing the given aspect ratio.
    ///
    /// For hard blocks the stored dimensions are returned unchanged; for soft blocks the
    /// requested aspect ratio is clamped into the legal range and dimensions with the stored
    /// area are derived (`height = sqrt(area * ar)`, `width = area / height`).
    pub fn dimensions(&self, aspect: f64) -> (f64, f64) {
        match *self {
            BlockShape::Hard { width, height } => (width, height),
            BlockShape::Soft {
                area,
                min_aspect,
                max_aspect,
            } => {
                let ar = aspect.clamp(min_aspect, max_aspect);
                let height = (area * ar).sqrt();
                let width = area / height;
                (width, height)
            }
        }
    }

    /// Returns a copy with both linear dimensions scaled by `factor` (area scales by
    /// `factor²`), mirroring the module up-scaling applied in Section 7 of the paper.
    pub fn scaled(&self, factor: f64) -> BlockShape {
        match *self {
            BlockShape::Hard { width, height } => BlockShape::Hard {
                width: width * factor,
                height: height * factor,
            },
            BlockShape::Soft {
                area,
                min_aspect,
                max_aspect,
            } => BlockShape::Soft {
                area: area * factor * factor,
                min_aspect,
                max_aspect,
            },
        }
    }
}

/// A block (module) of the design: a named footprint with a nominal power value.
///
/// The paper treats blocks as black-box IP: only area, pins and nominal power are known.
/// `power` is the nominal dissipation in watts at the 1.0 V operating point; voltage
/// assignment scales it (see `tsc3d-power`).
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    name: String,
    shape: BlockShape,
    power: f64,
}

impl Block {
    /// Creates a block.
    ///
    /// # Panics
    ///
    /// Panics if `power` is negative or the shape has non-positive area.
    pub fn new(name: impl Into<String>, shape: BlockShape, power: f64) -> Self {
        assert!(power >= 0.0, "block power must be non-negative");
        assert!(shape.area() > 0.0, "block area must be positive");
        Self {
            name: name.into(),
            shape,
            power,
        }
    }

    /// Block name (unique within a design).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Footprint description.
    pub fn shape(&self) -> &BlockShape {
        &self.shape
    }

    /// Block area in µm².
    pub fn area(&self) -> f64 {
        self.shape.area()
    }

    /// Nominal power in watts at 1.0 V.
    pub fn power(&self) -> f64 {
        self.power
    }

    /// Nominal power density in W/µm².
    pub fn power_density(&self) -> f64 {
        self.power / self.area()
    }

    /// Returns a copy with the footprint linearly scaled by `factor` and the same power.
    pub fn scaled(&self, factor: f64) -> Block {
        Block {
            name: self.name.clone(),
            shape: self.shape.scaled(factor),
            power: self.power,
        }
    }

    /// Returns a copy with a different nominal power.
    pub fn with_power(&self, power: f64) -> Block {
        assert!(power >= 0.0, "block power must be non-negative");
        Block {
            name: self.name.clone(),
            shape: self.shape,
            power,
        }
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({:.0} µm², {:.3} W)",
            self.name,
            self.area(),
            self.power
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hard_block_dimensions_are_fixed() {
        let s = BlockShape::hard(10.0, 20.0);
        assert_eq!(s.area(), 200.0);
        assert!(s.is_hard());
        assert_eq!(s.dimensions(5.0), (10.0, 20.0));
    }

    #[test]
    fn soft_block_respects_aspect_bounds() {
        let s = BlockShape::soft(100.0);
        assert!(s.is_soft());
        let (w, h) = s.dimensions(1.0);
        assert!((w - 10.0).abs() < 1e-9 && (h - 10.0).abs() < 1e-9);
        // Requesting an extreme aspect ratio clamps to the bound but keeps the area.
        let (w, h) = s.dimensions(100.0);
        assert!((w * h - 100.0).abs() < 1e-9);
        assert!((h / w - 3.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_scales_area_quadratically() {
        let s = BlockShape::soft(100.0).scaled(10.0);
        assert!((s.area() - 10_000.0).abs() < 1e-9);
        let h = BlockShape::hard(2.0, 3.0).scaled(2.0);
        assert_eq!(h.area(), 24.0);
    }

    #[test]
    fn block_accessors() {
        let b = Block::new("alu", BlockShape::hard(100.0, 100.0), 0.5);
        assert_eq!(b.name(), "alu");
        assert_eq!(b.area(), 10_000.0);
        assert!((b.power_density() - 5e-5).abs() < 1e-12);
        assert_eq!(b.with_power(1.0).power(), 1.0);
        assert_eq!(b.scaled(2.0).area(), 40_000.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_power_rejected() {
        let _ = Block::new("x", BlockShape::soft(1.0), -1.0);
    }

    #[test]
    fn block_id_display() {
        assert_eq!(format!("{}", BlockId(7)), "b7");
        assert_eq!(BlockId::from(3).index(), 3);
    }
}
