//! Axis-aligned rectangles and fixed die outlines.

use crate::Point;
use std::fmt;

/// An axis-aligned rectangle in micrometres, defined by its lower-left corner and size.
///
/// Rectangles model block outlines, die outlines, TSV keep-out zones and voltage-volume
/// footprints.
///
/// ```
/// use tsc3d_geometry::Rect;
/// let r = Rect::new(10.0, 20.0, 30.0, 40.0);
/// assert_eq!(r.area(), 1200.0);
/// assert_eq!(r.center().x, 25.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rect {
    /// Lower-left x coordinate.
    pub x: f64,
    /// Lower-left y coordinate.
    pub y: f64,
    /// Width (extent along x).
    pub width: f64,
    /// Height (extent along y).
    pub height: f64,
}

impl Rect {
    /// Creates a rectangle from its lower-left corner and size.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is negative or not finite.
    pub fn new(x: f64, y: f64, width: f64, height: f64) -> Self {
        assert!(
            width >= 0.0 && height >= 0.0 && width.is_finite() && height.is_finite(),
            "rectangle size must be finite and non-negative (got {width} x {height})"
        );
        Self {
            x,
            y,
            width,
            height,
        }
    }

    /// Creates a rectangle anchored at the origin with the given size.
    pub fn from_size(width: f64, height: f64) -> Self {
        Self::new(0.0, 0.0, width, height)
    }

    /// Lower-left corner.
    pub fn lower_left(&self) -> Point {
        Point::new(self.x, self.y)
    }

    /// Upper-right corner.
    pub fn upper_right(&self) -> Point {
        Point::new(self.x + self.width, self.y + self.height)
    }

    /// Geometric centre.
    pub fn center(&self) -> Point {
        Point::new(self.x + self.width / 2.0, self.y + self.height / 2.0)
    }

    /// Area in square micrometres.
    pub fn area(&self) -> f64 {
        self.width * self.height
    }

    /// Aspect ratio `height / width`; returns `f64::INFINITY` for zero-width rectangles.
    pub fn aspect_ratio(&self) -> f64 {
        if self.width == 0.0 {
            f64::INFINITY
        } else {
            self.height / self.width
        }
    }

    /// Returns `true` if the point lies inside or on the boundary of the rectangle.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.x && p.x <= self.x + self.width && p.y >= self.y && p.y <= self.y + self.height
    }

    /// Returns `true` if `other` lies entirely inside (or exactly on the boundary of) `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.x >= self.x
            && other.y >= self.y
            && other.x + other.width <= self.x + self.width
            && other.y + other.height <= self.y + self.height
    }

    /// Returns `true` if the two rectangles overlap with positive area.
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.x < other.x + other.width
            && other.x < self.x + self.width
            && self.y < other.y + other.height
            && other.y < self.y + self.height
    }

    /// Intersection of the two rectangles, or `None` when they do not overlap.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        let x0 = self.x.max(other.x);
        let y0 = self.y.max(other.y);
        let x1 = (self.x + self.width).min(other.x + other.width);
        let y1 = (self.y + self.height).min(other.y + other.height);
        if x1 > x0 && y1 > y0 {
            Some(Rect::new(x0, y0, x1 - x0, y1 - y0))
        } else {
            None
        }
    }

    /// Area of the intersection with `other` (zero when disjoint).
    pub fn overlap_area(&self, other: &Rect) -> f64 {
        self.intersection(other).map_or(0.0, |r| r.area())
    }

    /// Smallest rectangle containing both `self` and `other`.
    pub fn union(&self, other: &Rect) -> Rect {
        let x0 = self.x.min(other.x);
        let y0 = self.y.min(other.y);
        let x1 = (self.x + self.width).max(other.x + other.width);
        let y1 = (self.y + self.height).max(other.y + other.height);
        Rect::new(x0, y0, x1 - x0, y1 - y0)
    }

    /// Returns a copy translated so that its lower-left corner is at `(x, y)`.
    pub fn at(&self, x: f64, y: f64) -> Rect {
        Rect::new(x, y, self.width, self.height)
    }

    /// Returns a copy whose width and height are swapped (a 90° rotation of the outline).
    pub fn rotated(&self) -> Rect {
        Rect::new(self.x, self.y, self.height, self.width)
    }

    /// Returns a copy expanded by `margin` on every side (clamped to non-negative size).
    pub fn expanded(&self, margin: f64) -> Rect {
        let width = (self.width + 2.0 * margin).max(0.0);
        let height = (self.height + 2.0 * margin).max(0.0);
        Rect::new(self.x - margin, self.y - margin, width, height)
    }

    /// Returns a copy scaled by `factor` about the origin (both position and size).
    pub fn scaled(&self, factor: f64) -> Rect {
        Rect::new(
            self.x * factor,
            self.y * factor,
            self.width * factor,
            self.height * factor,
        )
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.1},{:.1} {:.1}x{:.1}]",
            self.x, self.y, self.width, self.height
        )
    }
}

/// A fixed die outline, i.e. the rectangle every block of a die must fit into.
///
/// The paper uses fixed-outline floorplanning ("the resulting die outlines are fixed, making
/// the floorplanning problem practical yet challenging"); [`Outline`] carries the fixed
/// dimensions plus helpers for utilization book-keeping.
///
/// ```
/// use tsc3d_geometry::{Outline, Rect};
/// let outline = Outline::square(25.0e6); // 25 mm² die, in µm²
/// assert!((outline.rect().area() - 25.0e6).abs() < 1e-6);
/// assert!(outline.fits(&Rect::new(0.0, 0.0, 100.0, 100.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outline {
    rect: Rect,
}

impl Outline {
    /// Creates an outline with the given width and height in micrometres.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is non-positive.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(
            width > 0.0 && height > 0.0,
            "outline must have positive area"
        );
        Self {
            rect: Rect::from_size(width, height),
        }
    }

    /// Creates a square outline with the given total area in µm².
    pub fn square(area: f64) -> Self {
        let side = area.sqrt();
        Self::new(side, side)
    }

    /// The outline rectangle (anchored at the origin).
    pub fn rect(&self) -> Rect {
        self.rect
    }

    /// Outline width in µm.
    pub fn width(&self) -> f64 {
        self.rect.width
    }

    /// Outline height in µm.
    pub fn height(&self) -> f64 {
        self.rect.height
    }

    /// Outline area in µm².
    pub fn area(&self) -> f64 {
        self.rect.area()
    }

    /// Returns `true` if the block rectangle fits entirely inside the outline.
    pub fn fits(&self, block: &Rect) -> bool {
        self.rect.contains_rect(block)
    }

    /// Fraction of the outline covered by the given blocks (overlaps counted twice; callers
    /// that need exact utilization should pass non-overlapping blocks).
    pub fn utilization<'a, I>(&self, blocks: I) -> f64
    where
        I: IntoIterator<Item = &'a Rect>,
    {
        let covered: f64 = blocks.into_iter().map(|b| b.overlap_area(&self.rect)).sum();
        covered / self.area()
    }
}

impl fmt::Display for Outline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} x {:.1} µm", self.rect.width, self.rect.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_basics() {
        let r = Rect::new(1.0, 2.0, 3.0, 4.0);
        assert_eq!(r.area(), 12.0);
        assert_eq!(r.lower_left(), Point::new(1.0, 2.0));
        assert_eq!(r.upper_right(), Point::new(4.0, 6.0));
        assert_eq!(r.center(), Point::new(2.5, 4.0));
        assert!((r.aspect_ratio() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rect_rejects_negative_size() {
        let _ = Rect::new(0.0, 0.0, -1.0, 1.0);
    }

    #[test]
    fn overlap_and_intersection() {
        let a = Rect::new(0.0, 0.0, 10.0, 10.0);
        let b = Rect::new(5.0, 5.0, 10.0, 10.0);
        let c = Rect::new(20.0, 20.0, 1.0, 1.0);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert_eq!(a.overlap_area(&b), 25.0);
        assert_eq!(a.overlap_area(&c), 0.0);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, Rect::new(5.0, 5.0, 5.0, 5.0));
        assert_eq!(a.union(&c), Rect::new(0.0, 0.0, 21.0, 21.0));
    }

    #[test]
    fn touching_rects_do_not_overlap() {
        let a = Rect::new(0.0, 0.0, 10.0, 10.0);
        let b = Rect::new(10.0, 0.0, 10.0, 10.0);
        assert!(!a.overlaps(&b));
        assert_eq!(a.overlap_area(&b), 0.0);
    }

    #[test]
    fn contains() {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(10.0, 10.0)));
        assert!(!r.contains(Point::new(10.1, 5.0)));
        assert!(r.contains_rect(&Rect::new(1.0, 1.0, 2.0, 2.0)));
        assert!(!r.contains_rect(&Rect::new(9.0, 9.0, 2.0, 2.0)));
    }

    #[test]
    fn transforms() {
        let r = Rect::new(1.0, 1.0, 2.0, 4.0);
        assert_eq!(r.rotated(), Rect::new(1.0, 1.0, 4.0, 2.0));
        assert_eq!(r.at(0.0, 0.0), Rect::new(0.0, 0.0, 2.0, 4.0));
        assert_eq!(r.scaled(2.0), Rect::new(2.0, 2.0, 4.0, 8.0));
        assert_eq!(r.expanded(1.0), Rect::new(0.0, 0.0, 4.0, 6.0));
        // Expanding by a large negative margin clamps to zero size.
        assert_eq!(r.expanded(-10.0).area(), 0.0);
    }

    #[test]
    fn outline_helpers() {
        let o = Outline::new(100.0, 50.0);
        assert_eq!(o.area(), 5000.0);
        assert!(o.fits(&Rect::new(0.0, 0.0, 100.0, 50.0)));
        assert!(!o.fits(&Rect::new(0.0, 0.0, 101.0, 50.0)));
        let blocks = [
            Rect::new(0.0, 0.0, 50.0, 50.0),
            Rect::new(50.0, 0.0, 50.0, 50.0),
        ];
        assert!((o.utilization(blocks.iter()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn square_outline() {
        let o = Outline::square(16.0);
        assert!((o.width() - 4.0).abs() < 1e-12);
        assert!((o.height() - 4.0).abs() < 1e-12);
    }
}
