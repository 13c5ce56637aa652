//! 2D points and distance helpers.

use std::fmt;
use std::ops::{Add, Sub};

/// A 2D point in micrometres.
///
/// Points are used for block centres, pin locations and TSV sites. Coordinates follow the
/// usual EDA convention: the origin is the lower-left corner of the die, `x` grows to the
/// right, `y` grows upwards.
///
/// ```
/// use tsc3d_geometry::Point;
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// assert_eq!(a.manhattan(b), 7.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate in micrometres.
    pub x: f64,
    /// Vertical coordinate in micrometres.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin `(0, 0)`.
    pub const fn origin() -> Self {
        Self { x: 0.0, y: 0.0 }
    }

    /// Euclidean distance to `other`.
    pub fn distance(self, other: Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Manhattan (L1) distance to `other`. This is the distance measure used for routed
    /// wirelength estimates and for the spatial-entropy class distances.
    pub fn manhattan(self, other: Point) -> f64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Component-wise midpoint between `self` and `other`.
    pub fn midpoint(self, other: Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// Returns a copy scaled by `factor` about the origin.
    pub fn scaled(self, factor: f64) -> Point {
        Point::new(self.x * factor, self.y * factor)
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.manhattan(b), 7.0);
        assert_eq!(b.manhattan(a), 7.0);
    }

    #[test]
    fn midpoint_and_ops() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 4.0);
        assert_eq!(a.midpoint(b), Point::new(1.0, 2.0));
        assert_eq!(a + b, b);
        assert_eq!(b - b, Point::origin());
        assert_eq!(b.scaled(0.5), Point::new(1.0, 2.0));
    }

    #[test]
    fn display_and_from() {
        let p: Point = (1.0, 2.0).into();
        assert_eq!(format!("{p}"), "(1.000, 2.000)");
    }
}
