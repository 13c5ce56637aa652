//! The [`Design`] container: blocks + nets + terminals + die outline.

use crate::{Block, BlockId, Net, NetId, PinRef, Terminal, TerminalId};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use tsc3d_geometry::Outline;

/// Errors raised while assembling or validating a [`Design`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignError {
    /// Two blocks share the same name.
    DuplicateBlockName(String),
    /// Two terminals share the same name.
    DuplicateTerminalName(String),
    /// A net references a block id that does not exist.
    UnknownBlock(usize),
    /// A net references a terminal id that does not exist.
    UnknownTerminal(usize),
    /// The design contains no blocks.
    Empty,
}

impl fmt::Display for DesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignError::DuplicateBlockName(n) => write!(f, "duplicate block name `{n}`"),
            DesignError::DuplicateTerminalName(n) => write!(f, "duplicate terminal name `{n}`"),
            DesignError::UnknownBlock(i) => write!(f, "net references unknown block index {i}"),
            DesignError::UnknownTerminal(i) => {
                write!(f, "net references unknown terminal index {i}")
            }
            DesignError::Empty => write!(f, "design contains no blocks"),
        }
    }
}

impl Error for DesignError {}

/// Aggregate statistics of a design, mirroring the columns of Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignStats {
    /// Number of hard blocks.
    pub hard_blocks: usize,
    /// Number of soft blocks.
    pub soft_blocks: usize,
    /// Number of nets.
    pub nets: usize,
    /// Number of terminal pins.
    pub terminals: usize,
    /// Die outline area in mm² (one die of the stack).
    pub outline_mm2: f64,
    /// Total nominal power in watts at 1.0 V.
    pub power_w: f64,
    /// Total block area in µm².
    pub block_area_um2: f64,
    /// Average net degree.
    pub avg_net_degree: f64,
}

/// A block-level design: blocks, nets, I/O terminals and the fixed per-die outline it is to
/// be floorplanned into.
///
/// Construction validates referential integrity so that downstream crates can index blocks
/// and terminals without further checks.
///
/// ```
/// use tsc3d_netlist::{Block, BlockShape, Design, Net, PinRef, BlockId};
/// use tsc3d_geometry::Outline;
///
/// # fn main() -> Result<(), tsc3d_netlist::DesignError> {
/// let blocks = vec![
///     Block::new("a", BlockShape::soft(100.0), 0.1),
///     Block::new("b", BlockShape::soft(200.0), 0.2),
/// ];
/// let nets = vec![Net::new("n0", vec![PinRef::Block(BlockId(0)), PinRef::Block(BlockId(1))])];
/// let design = Design::new("tiny", blocks, nets, vec![], Outline::new(50.0, 50.0))?;
/// assert_eq!(design.stats().soft_blocks, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    name: String,
    blocks: Vec<Block>,
    nets: Vec<Net>,
    terminals: Vec<Terminal>,
    outline: Outline,
}

impl Design {
    /// Assembles and validates a design.
    ///
    /// # Errors
    ///
    /// Returns a [`DesignError`] if the design is empty, a block or terminal name is
    /// duplicated, or a net references a non-existing block/terminal.
    pub fn new(
        name: impl Into<String>,
        blocks: Vec<Block>,
        nets: Vec<Net>,
        terminals: Vec<Terminal>,
        outline: Outline,
    ) -> Result<Self, DesignError> {
        if blocks.is_empty() {
            return Err(DesignError::Empty);
        }
        let mut seen = HashMap::new();
        for b in &blocks {
            if seen.insert(b.name().to_string(), ()).is_some() {
                return Err(DesignError::DuplicateBlockName(b.name().to_string()));
            }
        }
        let mut seen_t = HashMap::new();
        for t in &terminals {
            if seen_t.insert(t.name().to_string(), ()).is_some() {
                return Err(DesignError::DuplicateTerminalName(t.name().to_string()));
            }
        }
        for net in &nets {
            for pin in net.pins() {
                match *pin {
                    PinRef::Block(BlockId(i)) if i >= blocks.len() => {
                        return Err(DesignError::UnknownBlock(i))
                    }
                    PinRef::Terminal(TerminalId(i)) if i >= terminals.len() => {
                        return Err(DesignError::UnknownTerminal(i))
                    }
                    _ => {}
                }
            }
        }
        Ok(Self {
            name: name.into(),
            blocks,
            nets,
            terminals,
            outline,
        })
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All blocks, indexable by [`BlockId`].
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// All nets, indexable by [`NetId`].
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All I/O terminals, indexable by [`TerminalId`].
    pub fn terminals(&self) -> &[Terminal] {
        &self.terminals
    }

    /// The fixed per-die outline.
    pub fn outline(&self) -> Outline {
        self.outline
    }

    /// The block with the given id.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// The net with the given id.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// The terminal with the given id.
    pub fn terminal(&self, id: TerminalId) -> &Terminal {
        &self.terminals[id.index()]
    }

    /// Iterator over `(BlockId, &Block)` pairs.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks.iter().enumerate().map(|(i, b)| (BlockId(i), b))
    }

    /// Iterator over `(NetId, &Net)` pairs.
    pub fn iter_nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets.iter().enumerate().map(|(i, n)| (NetId(i), n))
    }

    /// Looks up a block id by name.
    pub fn block_by_name(&self, name: &str) -> Option<BlockId> {
        self.blocks
            .iter()
            .position(|b| b.name() == name)
            .map(BlockId)
    }

    /// Total block area in µm².
    pub fn total_block_area(&self) -> f64 {
        self.blocks.iter().map(|b| b.area()).sum()
    }

    /// Total nominal power in watts (at 1.0 V).
    pub fn total_power(&self) -> f64 {
        self.blocks.iter().map(|b| b.power()).sum()
    }

    /// Nets incident to the given block.
    pub fn nets_of_block(&self, id: BlockId) -> Vec<NetId> {
        self.nets
            .iter()
            .enumerate()
            .filter(|(_, n)| n.blocks().any(|b| b == id))
            .map(|(i, _)| NetId(i))
            .collect()
    }

    /// Blocks sharing at least one net with `id` (the adjacency used when growing voltage
    /// volumes via breadth-first search).
    pub fn connected_blocks(&self, id: BlockId) -> Vec<BlockId> {
        let mut out = Vec::new();
        for net in &self.nets {
            if net.blocks().any(|b| b == id) {
                for b in net.blocks() {
                    if b != id && !out.contains(&b) {
                        out.push(b);
                    }
                }
            }
        }
        out
    }

    /// Returns a copy of the design with every block footprint linearly scaled by `factor`
    /// and the outline area left unchanged.
    ///
    /// The paper scales up module footprints "in order to obtain sufficiently large dies";
    /// the per-benchmark scale factors of Table 1 are applied by the [`crate::suite`]
    /// generators through this method.
    pub fn with_scaled_blocks(&self, factor: f64) -> Design {
        Design {
            name: self.name.clone(),
            blocks: self.blocks.iter().map(|b| b.scaled(factor)).collect(),
            nets: self.nets.clone(),
            terminals: self.terminals.clone(),
            outline: self.outline,
        }
    }

    /// Returns a copy with a different outline.
    pub fn with_outline(&self, outline: Outline) -> Design {
        Design {
            name: self.name.clone(),
            blocks: self.blocks.clone(),
            nets: self.nets.clone(),
            terminals: self.terminals.clone(),
            outline,
        }
    }

    /// Aggregate statistics (the columns of Table 1).
    pub fn stats(&self) -> DesignStats {
        let hard_blocks = self.blocks.iter().filter(|b| b.shape().is_hard()).count();
        let soft_blocks = self.blocks.len() - hard_blocks;
        let avg_net_degree = if self.nets.is_empty() {
            0.0
        } else {
            self.nets.iter().map(|n| n.degree()).sum::<usize>() as f64 / self.nets.len() as f64
        };
        DesignStats {
            hard_blocks,
            soft_blocks,
            nets: self.nets.len(),
            terminals: self.terminals.len(),
            outline_mm2: self.outline.area() / 1e6,
            power_w: self.total_power(),
            block_area_um2: self.total_block_area(),
            avg_net_degree,
        }
    }
}

impl fmt::Display for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} blocks, {} nets, {} terminals, outline {}",
            self.name,
            self.blocks.len(),
            self.nets.len(),
            self.terminals.len(),
            self.outline
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockShape;
    use tsc3d_geometry::Point;

    fn small_design() -> Design {
        let blocks = vec![
            Block::new("a", BlockShape::soft(100.0), 1.0),
            Block::new("b", BlockShape::soft(200.0), 2.0),
            Block::new("c", BlockShape::hard(10.0, 10.0), 0.5),
        ];
        let terminals = vec![Terminal::new("in", Point::new(0.0, 0.0))];
        let nets = vec![
            Net::new(
                "n0",
                vec![PinRef::Block(BlockId(0)), PinRef::Block(BlockId(1))],
            ),
            Net::new(
                "n1",
                vec![
                    PinRef::Block(BlockId(1)),
                    PinRef::Block(BlockId(2)),
                    PinRef::Terminal(TerminalId(0)),
                ],
            ),
        ];
        Design::new("small", blocks, nets, terminals, Outline::new(100.0, 100.0)).unwrap()
    }

    #[test]
    fn totals_and_lookup() {
        let d = small_design();
        assert_eq!(d.total_block_area(), 400.0);
        assert_eq!(d.total_power(), 3.5);
        assert_eq!(d.block_by_name("b"), Some(BlockId(1)));
        assert_eq!(d.block_by_name("zz"), None);
        assert_eq!(d.block(BlockId(2)).name(), "c");
        assert_eq!(d.net(NetId(1)).degree(), 3);
        assert_eq!(d.terminal(TerminalId(0)).name(), "in");
    }

    #[test]
    fn connectivity_queries() {
        let d = small_design();
        assert_eq!(d.nets_of_block(BlockId(1)), vec![NetId(0), NetId(1)]);
        assert_eq!(d.connected_blocks(BlockId(1)), vec![BlockId(0), BlockId(2)]);
        assert_eq!(d.connected_blocks(BlockId(0)), vec![BlockId(1)]);
    }

    #[test]
    fn stats_match_contents() {
        let s = small_design().stats();
        assert_eq!(s.hard_blocks, 1);
        assert_eq!(s.soft_blocks, 2);
        assert_eq!(s.nets, 2);
        assert_eq!(s.terminals, 1);
        assert!((s.outline_mm2 - 0.01).abs() < 1e-9);
        assert!((s.avg_net_degree - 2.5).abs() < 1e-12);
    }

    #[test]
    fn validation_errors() {
        let blocks = vec![
            Block::new("a", BlockShape::soft(1.0), 0.0),
            Block::new("a", BlockShape::soft(1.0), 0.0),
        ];
        let err = Design::new("dup", blocks, vec![], vec![], Outline::new(1.0, 1.0)).unwrap_err();
        assert_eq!(err, DesignError::DuplicateBlockName("a".into()));

        let blocks = vec![Block::new("a", BlockShape::soft(1.0), 0.0)];
        let nets = vec![Net::new(
            "n",
            vec![PinRef::Block(BlockId(0)), PinRef::Block(BlockId(5))],
        )];
        let err = Design::new("bad", blocks, nets, vec![], Outline::new(1.0, 1.0)).unwrap_err();
        assert_eq!(err, DesignError::UnknownBlock(5));

        assert_eq!(
            Design::new("empty", vec![], vec![], vec![], Outline::new(1.0, 1.0)).unwrap_err(),
            DesignError::Empty
        );
        assert!(format!("{}", DesignError::UnknownTerminal(3)).contains("terminal"));
    }

    #[test]
    fn scaling_blocks_preserves_structure() {
        let d = small_design().with_scaled_blocks(2.0);
        assert_eq!(d.total_block_area(), 1600.0);
        assert_eq!(d.nets().len(), 2);
        let d2 = d.with_outline(Outline::new(500.0, 500.0));
        assert_eq!(d2.outline().area(), 250_000.0);
    }
}
