//! Addressing of dies within a 3D stack.

use crate::Outline;
use std::fmt;

/// Identifier of a die within the 3D stack.
///
/// Die 0 is the **bottom** die (farthest from the heatsink), die `n-1` is the **top** die
/// (the heatsink is attached above it), matching the face-to-back stacking of the paper
/// (Figure 1). In the paper's notation the bottom die is `d = 1` and the top die `d = 2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DieId(pub usize);

impl DieId {
    /// The bottom die (index 0, farthest from the heatsink).
    pub const BOTTOM: DieId = DieId(0);
    /// The second die from the bottom; for two-die stacks this is the top die.
    pub const TOP: DieId = DieId(1);

    /// The zero-based index of the die.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for DieId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "die{}", self.0)
    }
}

impl From<usize> for DieId {
    fn from(v: usize) -> Self {
        DieId(v)
    }
}

/// Description of a 3D stack: number of dies and the (shared, fixed) die outline.
///
/// The paper considers TSV-based 3D ICs with two dies stacked face-to-back and a heatsink
/// atop the upper die; [`Stack`] generalizes the die count so larger stacks (future work in
/// the paper) can be explored.
///
/// ```
/// use tsc3d_geometry::{Outline, Stack};
/// let stack = Stack::two_die(Outline::new(5000.0, 5000.0));
/// assert_eq!(stack.dies(), 2);
/// assert!(stack.is_top(stack.top()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stack {
    dies: usize,
    outline: Outline,
}

impl Stack {
    /// Creates a stack with `dies` dies sharing the given fixed outline.
    ///
    /// # Panics
    ///
    /// Panics if `dies` is zero.
    pub fn new(dies: usize, outline: Outline) -> Self {
        assert!(dies >= 1, "a stack needs at least one die");
        Self { dies, outline }
    }

    /// Convenience constructor for the two-die stacks evaluated in the paper.
    pub fn two_die(outline: Outline) -> Self {
        Self::new(2, outline)
    }

    /// Number of dies.
    pub fn dies(&self) -> usize {
        self.dies
    }

    /// The shared fixed die outline.
    pub fn outline(&self) -> Outline {
        self.outline
    }

    /// The bottom die (farthest from the heatsink).
    pub fn bottom(&self) -> DieId {
        DieId(0)
    }

    /// The top die (the heatsink is attached above it).
    pub fn top(&self) -> DieId {
        DieId(self.dies - 1)
    }

    /// Returns `true` for the top die.
    pub fn is_top(&self, die: DieId) -> bool {
        die.0 == self.dies - 1
    }

    /// Returns `true` for the bottom die.
    pub fn is_bottom(&self, die: DieId) -> bool {
        die.0 == 0
    }

    /// Iterator over all die ids from bottom to top.
    pub fn die_ids(&self) -> impl Iterator<Item = DieId> {
        (0..self.dies).map(DieId)
    }

    /// Returns `true` if the id addresses an existing die.
    pub fn contains(&self, die: DieId) -> bool {
        die.0 < self.dies
    }
}

impl fmt::Display for Stack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} dies @ {}", self.dies, self.outline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_die_stack() {
        let s = Stack::two_die(Outline::new(100.0, 100.0));
        assert_eq!(s.dies(), 2);
        assert_eq!(s.bottom(), DieId::BOTTOM);
        assert_eq!(s.top(), DieId::TOP);
        assert!(s.is_bottom(DieId(0)));
        assert!(s.is_top(DieId(1)));
        assert!(!s.is_top(DieId(0)));
        assert_eq!(s.die_ids().count(), 2);
        assert!(s.contains(DieId(1)));
        assert!(!s.contains(DieId(2)));
    }

    #[test]
    #[should_panic(expected = "at least one die")]
    fn zero_dies_rejected() {
        let _ = Stack::new(0, Outline::new(1.0, 1.0));
    }

    #[test]
    fn die_id_display_and_from() {
        let d: DieId = 3.into();
        assert_eq!(d.index(), 3);
        assert_eq!(format!("{d}"), "die3");
    }
}
