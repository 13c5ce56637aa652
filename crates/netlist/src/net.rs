//! Nets, pins and terminals.

use crate::BlockId;
use std::fmt;
use tsc3d_geometry::Point;

/// Identifier of a net within a design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub usize);

impl NetId {
    /// The zero-based index of the net.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an I/O terminal within a design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TerminalId(pub usize);

impl TerminalId {
    /// The zero-based index of the terminal.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TerminalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// An I/O terminal (primary input/output pad) with a fixed position on the package.
///
/// Terminal pins participate in wirelength estimation but are never moved by the
/// floorplanner.
#[derive(Debug, Clone, PartialEq)]
pub struct Terminal {
    name: String,
    position: Point,
}

impl Terminal {
    /// Creates a terminal at a fixed position.
    pub fn new(name: impl Into<String>, position: Point) -> Self {
        Self {
            name: name.into(),
            position,
        }
    }

    /// Terminal name (unique within the design).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Fixed terminal position in µm (package coordinates, shared across dies).
    pub fn position(&self) -> Point {
        self.position
    }
}

/// A pin of a net: either a block pin or an I/O terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PinRef {
    /// Pin on a block; the pin is assumed to sit at the block centre (block-level model).
    Block(BlockId),
    /// Pin on a fixed I/O terminal.
    Terminal(TerminalId),
}

impl PinRef {
    /// The referenced block, if this pin is a block pin.
    pub fn block(self) -> Option<BlockId> {
        match self {
            PinRef::Block(b) => Some(b),
            PinRef::Terminal(_) => None,
        }
    }

    /// The referenced terminal, if this pin is a terminal pin.
    pub fn terminal(self) -> Option<TerminalId> {
        match self {
            PinRef::Terminal(t) => Some(t),
            PinRef::Block(_) => None,
        }
    }
}

impl From<BlockId> for PinRef {
    fn from(b: BlockId) -> Self {
        PinRef::Block(b)
    }
}

impl From<TerminalId> for PinRef {
    fn from(t: TerminalId) -> Self {
        PinRef::Terminal(t)
    }
}

/// A net connecting two or more pins.
///
/// Nets drive the half-perimeter wirelength estimate, the Elmore delay model and — when the
/// connected blocks end up on different dies — the demand for signal TSVs.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    name: String,
    pins: Vec<PinRef>,
}

impl Net {
    /// Creates a net over the given pins.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two pins are given (degenerate nets carry no information).
    pub fn new(name: impl Into<String>, pins: Vec<PinRef>) -> Self {
        assert!(pins.len() >= 2, "a net needs at least two pins");
        Self {
            name: name.into(),
            pins,
        }
    }

    /// Net name (unique within the design).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All pins of the net.
    pub fn pins(&self) -> &[PinRef] {
        &self.pins
    }

    /// Number of pins.
    pub fn degree(&self) -> usize {
        self.pins.len()
    }

    /// Iterator over the block pins only.
    pub fn blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.pins.iter().filter_map(|p| p.block())
    }

    /// Iterator over the terminal pins only.
    pub fn terminals(&self) -> impl Iterator<Item = TerminalId> + '_ {
        self.pins.iter().filter_map(|p| p.terminal())
    }

    /// Returns `true` if the net touches any I/O terminal.
    pub fn has_terminal(&self) -> bool {
        self.pins.iter().any(|p| p.terminal().is_some())
    }
}

impl fmt::Display for Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} pins)", self.name, self.pins.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_pin_queries() {
        let net = Net::new(
            "clk",
            vec![
                PinRef::Block(BlockId(0)),
                PinRef::Block(BlockId(3)),
                PinRef::Terminal(TerminalId(1)),
            ],
        );
        assert_eq!(net.degree(), 3);
        assert_eq!(net.blocks().count(), 2);
        assert_eq!(net.terminals().count(), 1);
        assert!(net.has_terminal());
        assert_eq!(net.name(), "clk");
    }

    #[test]
    #[should_panic(expected = "at least two pins")]
    fn degenerate_net_rejected() {
        let _ = Net::new("bad", vec![PinRef::Block(BlockId(0))]);
    }

    #[test]
    fn pinref_conversions() {
        let p: PinRef = BlockId(2).into();
        assert_eq!(p.block(), Some(BlockId(2)));
        assert_eq!(p.terminal(), None);
        let q: PinRef = TerminalId(5).into();
        assert_eq!(q.terminal(), Some(TerminalId(5)));
        assert_eq!(q.block(), None);
    }

    #[test]
    fn terminal_accessors() {
        let t = Terminal::new("in0", Point::new(1.0, 2.0));
        assert_eq!(t.name(), "in0");
        assert_eq!(t.position(), Point::new(1.0, 2.0));
    }

    #[test]
    fn id_displays() {
        assert_eq!(format!("{}", NetId(4)), "n4");
        assert_eq!(format!("{}", TerminalId(4)), "p4");
        assert_eq!(NetId(9).index(), 9);
        assert_eq!(TerminalId(9).index(), 9);
    }
}
