//! Sequence-pair floorplan representation for stacked dies.
//!
//! Corblivar uses a corner-block-list representation; any complete floorplan representation
//! works for the paper's purposes, and the sequence pair is the most transparent one: per
//! die, two permutations of the die's blocks encode the relative left-of / below
//! relationships, and a longest-path packing turns them into coordinates. The 3D extension
//! adds a per-block die assignment plus per-block rotation (hard blocks) and aspect ratio
//! (soft blocks), which is exactly the move set the annealer perturbs.
//!
//! # Hot-loop APIs
//!
//! The annealer evaluates thousands of candidate layouts per run, so the representation
//! offers an allocation-free fast path next to the convenient one:
//!
//! * [`SequencePair3d::pack_with`] packs into a caller-provided [`Floorplan`] using a
//!   reusable [`PackScratch`], replacing the per-call `Vec` allocations of the original
//!   packing with an O(n log n) Fenwick prefix-max longest path. Because `max` is
//!   order-insensitive, its coordinates are **bit-identical** to the O(n²) reference.
//! * [`SequencePair3d::perturb_undoable`] applies one random move and returns a [`MoveUndo`]
//!   token; [`SequencePair3d::undo`] reverts it exactly, replacing the clone-per-move
//!   pattern of the original annealing loop.
//!
//! The tests keep the original O(n²) packing as the from-scratch reference and check
//! [`SequencePair3d::pack_with`] against it bit for bit.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use tsc3d_geometry::{DieId, Rect, Stack};
use tsc3d_netlist::{BlockId, Design};

use crate::{Floorplan, PlacedBlock};

/// The annealer's state: a sequence pair per die plus per-block shape choices.
#[derive(Debug, Clone, PartialEq)]
pub struct SequencePair3d {
    stack: Stack,
    /// Die index per block.
    die_of: Vec<usize>,
    /// Per die, the first sequence (block ids).
    seq_a: Vec<Vec<BlockId>>,
    /// Per die, the second sequence (block ids).
    seq_b: Vec<Vec<BlockId>>,
    /// Per block, whether it is rotated by 90°.
    rotated: Vec<bool>,
    /// Per block, the requested aspect ratio (soft blocks only; ignored for hard blocks).
    aspect: Vec<f64>,
}

/// Reusable buffers for [`SequencePair3d::pack_with`].
///
/// Holds the per-block sequence positions, the chosen block dimensions and the two Fenwick
/// (binary-indexed) prefix-max trees of the longest-path packing. One scratch serves any
/// number of packs of any representation whose designs have at most the capacity it has
/// grown to — buffers are enlarged on demand and never shrink, so a steady-state annealing
/// loop performs no allocations at all.
#[derive(Debug, Clone, Default)]
pub struct PackScratch {
    /// Position of each block within `seq_a` of its die.
    pos_a: Vec<usize>,
    /// Position of each block within `seq_b` of its die.
    pos_b: Vec<usize>,
    /// Current width of each block under its shape choice.
    width: Vec<f64>,
    /// Current height of each block under its shape choice.
    height: Vec<f64>,
    /// Fenwick prefix-max tree over `x + width`, indexed by `seq_a` position (1-based).
    fen_x: Vec<f64>,
    /// Fenwick prefix-max tree over `y + height`, indexed by reversed `seq_a` position.
    fen_y: Vec<f64>,
}

impl PackScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the buffers to hold `n` blocks.
    fn ensure(&mut self, n: usize) {
        if self.pos_a.len() < n {
            self.pos_a.resize(n, 0);
            self.pos_b.resize(n, 0);
            self.width.resize(n, 0.0);
            self.height.resize(n, 0.0);
            self.fen_x.resize(n + 1, 0.0);
            self.fen_y.resize(n + 1, 0.0);
        }
    }
}

/// Raises the prefix maxima covering 1-based position `i` to at least `value`.
#[inline]
fn fenwick_raise(tree: &mut [f64], mut i: usize, value: f64) {
    while i < tree.len() {
        if tree[i] < value {
            tree[i] = value;
        }
        i += i & i.wrapping_neg();
    }
}

/// Maximum over the 1-based positions `1..=i` (0.0 when the range is empty).
#[inline]
fn fenwick_prefix_max(tree: &[f64], mut i: usize) -> f64 {
    let mut best = 0.0_f64;
    while i > 0 {
        if tree[i] > best {
            best = tree[i];
        }
        i -= i & i.wrapping_neg();
    }
    best
}

/// Undo token returned by [`SequencePair3d::perturb_undoable`].
///
/// The token is a small `Copy` value describing how to revert exactly one move; it holds no
/// heap data, so probing a move and rejecting it allocates nothing. Tokens must be applied
/// to the same representation the move was made on, in last-in-first-out order.
#[derive(Debug, Clone, Copy)]
pub struct MoveUndo {
    kind: UndoKind,
    label: &'static str,
}

impl MoveUndo {
    /// Short name of the move kind (matches the labels of
    /// [`SequencePair3d::perturb`]: `"swap_a"`, `"swap_both"`, `"reshape"`, `"move_die"`,
    /// `"swap_die"`, `"noop"`).
    pub fn kind(&self) -> &'static str {
        self.label
    }
}

#[derive(Debug, Clone, Copy)]
enum UndoKind {
    /// The move did not change the representation.
    None,
    /// Swap `seq_a[die][i]` and `seq_a[die][j]` back.
    SwapA { die: usize, i: usize, j: usize },
    /// Swap both sequences back.
    SwapBoth {
        die: usize,
        i: usize,
        j: usize,
        k: usize,
        l: usize,
    },
    /// Toggle the rotation flag back.
    Rotate { block: usize },
    /// Restore the previous aspect ratio.
    Aspect { block: usize, previous: f64 },
    /// Remove the block from `to` (at the recorded insertion points) and re-insert it into
    /// `from` at its original positions.
    MoveDie {
        block: usize,
        from: usize,
        to: usize,
        from_pos: (usize, usize),
        to_pos: (usize, usize),
    },
    /// Revert a cross-die block swap (inverse operations in reverse order).
    SwapDie {
        a: usize,
        b: usize,
        die_a: usize,
        die_b: usize,
        a_from: (usize, usize),
        b_from: (usize, usize),
        a_to: (usize, usize),
        b_to: (usize, usize),
    },
}

impl SequencePair3d {
    /// Creates an initial solution: blocks are distributed over the dies by balancing the
    /// total block area per die (largest blocks first), sequences start in id order and are
    /// then shuffled.
    pub fn initial(design: &Design, stack: Stack, rng: &mut ChaCha8Rng) -> Self {
        Self::initial_with_assignment(design, stack, rng, false)
    }

    /// Creates an initial solution that additionally applies Corblivar's thermal design
    /// rule: high-power modules are preferentially assigned to the top die (closest to the
    /// heatsink), while the per-die block area stays balanced.
    ///
    /// The paper discusses this rule in Section 7.2 — it keeps peak temperatures down but
    /// creates large power gradients across dies, which is why the top die's correlation
    /// stays high for both setups.
    pub fn initial_thermally_aware(design: &Design, stack: Stack, rng: &mut ChaCha8Rng) -> Self {
        Self::initial_with_assignment(design, stack, rng, true)
    }

    fn initial_with_assignment(
        design: &Design,
        stack: Stack,
        rng: &mut ChaCha8Rng,
        thermal_rule: bool,
    ) -> Self {
        let n = design.blocks().len();
        let dies = stack.dies();

        // Die assignment: largest blocks first for area balance; with the thermal rule the
        // hottest (highest power-density) blocks are pinned to the top die as long as that
        // die is not over-filled relative to the others.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            design.blocks()[b]
                .area()
                .partial_cmp(&design.blocks()[a].area())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut die_area = vec![0.0; dies];
        let mut die_of = vec![0usize; n];
        let capacity = stack.outline().area();
        // Threshold separating "hot" from "cool" blocks: the design-wide power density.
        let hot_threshold = design.total_power() / design.total_block_area();
        for &b in &order {
            let balanced = (0..dies)
                .min_by(|&x, &y| die_area[x].partial_cmp(&die_area[y]).unwrap())
                .unwrap_or(0);
            let target = if thermal_rule
                && dies > 1
                && design.blocks()[b].power_density() > hot_threshold
                && die_area[dies - 1] + design.blocks()[b].area() <= capacity
            {
                dies - 1
            } else {
                balanced
            };
            die_of[b] = target;
            die_area[target] += design.blocks()[b].area();
        }

        let mut seq_a = vec![Vec::new(); dies];
        let mut seq_b = vec![Vec::new(); dies];
        for b in 0..n {
            seq_a[die_of[b]].push(BlockId(b));
            seq_b[die_of[b]].push(BlockId(b));
        }
        for d in 0..dies {
            seq_a[d].shuffle(rng);
            seq_b[d].shuffle(rng);
        }

        Self {
            stack,
            die_of,
            seq_a,
            seq_b,
            rotated: vec![false; n],
            aspect: vec![1.0; n],
        }
    }

    /// The stack this representation targets.
    pub fn stack(&self) -> Stack {
        self.stack
    }

    /// Die assignment of a block.
    pub fn die_of(&self, block: BlockId) -> DieId {
        DieId(self.die_of[block.index()])
    }

    /// Current width/height of a block given its shape choice.
    fn dimensions(&self, design: &Design, block: usize) -> (f64, f64) {
        let shape = design.blocks()[block].shape();
        let (w, h) = shape.dimensions(self.aspect[block]);
        if self.rotated[block] {
            (h, w)
        } else {
            (w, h)
        }
    }

    /// Packs the representation into a concrete floorplan via longest-path evaluation of the
    /// sequence pairs (lower-left anchored at the die origin).
    ///
    /// Allocates a fresh [`Floorplan`] (and a transient [`PackScratch`]); the annealing loop
    /// uses [`SequencePair3d::pack_with`] instead, which reuses both.
    pub fn pack(&self, design: &Design) -> Floorplan {
        let mut scratch = PackScratch::new();
        let mut out = Floorplan::shell(self.stack, design.blocks().len());
        self.pack_with(design, &mut scratch, &mut out);
        out
    }

    /// Packs into a caller-provided floorplan without allocating.
    ///
    /// The longest path through the sequence-pair constraint graph is evaluated with two
    /// Fenwick prefix-max trees (O(n log n) per die instead of the O(n²) pairwise scan of
    /// the original packing, which the tests keep as the reference). Both compute the same
    /// per-block maxima over the same operand sets, and `max` over a set of non-NaN floats
    /// is order-insensitive, so the produced coordinates are bit-identical to the
    /// reference packing.
    ///
    /// # Panics
    ///
    /// Panics if `out` targets a different stack than this representation. `out`'s
    /// placement storage is resized to the design's block count if it differs.
    pub fn pack_with(&self, design: &Design, scratch: &mut PackScratch, out: &mut Floorplan) {
        assert_eq!(
            out.stack(),
            self.stack,
            "output floorplan must target the same stack"
        );
        let n = design.blocks().len();
        scratch.ensure(n);

        // Block dimensions under the current shape choices, computed once per block (the
        // reference path recomputes them per predecessor pair).
        for b in 0..n {
            let (w, h) = self.dimensions(design, b);
            scratch.width[b] = w;
            scratch.height[b] = h;
        }

        let placements = out.placements_mut();
        if placements.len() != n {
            *placements = (0..n)
                .map(|b| PlacedBlock {
                    block: BlockId(b),
                    die: DieId(self.die_of[b]),
                    rect: Rect::default(),
                })
                .collect();
        }

        for die in 0..self.stack.dies() {
            let members = &self.seq_a[die];
            if members.is_empty() {
                continue;
            }
            let m = members.len();
            for (i, b) in self.seq_a[die].iter().enumerate() {
                scratch.pos_a[b.index()] = i;
            }
            for (i, b) in self.seq_b[die].iter().enumerate() {
                scratch.pos_b[b.index()] = i;
            }
            // Reset the trees for this die; 0.0 is the identity of the packing maxima
            // (coordinates and extents are non-negative).
            scratch.fen_x[..=m].fill(0.0);
            scratch.fen_y[..=m].fill(0.0);

            // Longest-path packing, processed in seq_b order so that every predecessor (in
            // either relation) is already placed. A predecessor c of b satisfies
            // pos_b[c] < pos_b[b] (processing order) and either pos_a[c] < pos_a[b]
            // (c left of b → constrains x) or pos_a[c] > pos_a[b] (c below b → constrains
            // y); the two cases are prefix maxima over pos_a and reversed pos_a.
            for b in &self.seq_b[die] {
                let bi = b.index();
                let pa = scratch.pos_a[bi];
                let bx = fenwick_prefix_max(&scratch.fen_x[..=m], pa);
                let by = fenwick_prefix_max(&scratch.fen_y[..=m], m - 1 - pa);
                placements[bi] = PlacedBlock {
                    block: BlockId(bi),
                    die: DieId(die),
                    rect: Rect::new(bx, by, scratch.width[bi], scratch.height[bi]),
                };
                fenwick_raise(&mut scratch.fen_x[..=m], pa + 1, bx + scratch.width[bi]);
                fenwick_raise(&mut scratch.fen_y[..=m], m - pa, by + scratch.height[bi]);
            }
        }
    }

    /// The original O(n²) longest-path packing, kept as the from-scratch reference
    /// ([`SequencePair3d::pack_with`] is the production path and produces bit-identical
    /// coordinates).
    #[cfg(test)]
    pub(crate) fn pack_reference(&self, design: &Design) -> Floorplan {
        let n = design.blocks().len();
        let mut rects = vec![Rect::default(); n];

        for die in 0..self.stack.dies() {
            let members = &self.seq_a[die];
            if members.is_empty() {
                continue;
            }
            // Positions of each block within the two sequences.
            let mut pos_a = vec![0usize; n];
            let mut pos_b = vec![0usize; n];
            for (i, b) in self.seq_a[die].iter().enumerate() {
                pos_a[b.index()] = i;
            }
            for (i, b) in self.seq_b[die].iter().enumerate() {
                pos_b[b.index()] = i;
            }

            // Longest-path packing, processed in seq_b order so that every predecessor (in
            // either relation) is already placed.
            let mut x = vec![0.0f64; n];
            let mut y = vec![0.0f64; n];
            for (i, b) in self.seq_b[die].iter().enumerate() {
                let bi = b.index();
                let (wb, hb) = self.dimensions(design, bi);
                let mut bx = 0.0f64;
                let mut by = 0.0f64;
                for c in &self.seq_b[die][..i] {
                    let ci = c.index();
                    let (wc, hc) = self.dimensions(design, ci);
                    if pos_a[ci] < pos_a[bi] {
                        // c is left of b.
                        bx = bx.max(x[ci] + wc);
                    } else {
                        // c is below b.
                        by = by.max(y[ci] + hc);
                    }
                }
                x[bi] = bx;
                y[bi] = by;
                rects[bi] = Rect::new(bx, by, wb, hb);
            }
        }

        let placements = (0..n)
            .map(|b| PlacedBlock {
                block: BlockId(b),
                die: DieId(self.die_of[b]),
                rect: rects[b],
            })
            .collect();
        Floorplan::new(self.stack, placements)
    }

    /// Applies one random move, returning a short description of the move kind (useful for
    /// move statistics).
    pub fn perturb(&mut self, design: &Design, rng: &mut ChaCha8Rng) -> &'static str {
        self.perturb_undoable(design, rng).kind()
    }

    /// Applies one random move and returns an undo token reverting it.
    ///
    /// Consumes exactly the same random stream as [`SequencePair3d::perturb`], so a loop
    /// that probes moves via perturb/undo visits the same state trajectory as one that
    /// clones the representation per move.
    pub fn perturb_undoable(&mut self, design: &Design, rng: &mut ChaCha8Rng) -> MoveUndo {
        let n = self.die_of.len();
        if n < 2 {
            return MoveUndo {
                kind: UndoKind::None,
                label: "noop",
            };
        }
        match rng.gen_range(0..5u8) {
            0 => {
                // Swap two blocks within seq_a of one die.
                let kind = if let Some(die) = self.random_populated_die(rng, 2) {
                    let len = self.seq_a[die].len();
                    let i = rng.gen_range(0..len);
                    let j = rng.gen_range(0..len);
                    self.seq_a[die].swap(i, j);
                    UndoKind::SwapA { die, i, j }
                } else {
                    UndoKind::None
                };
                MoveUndo {
                    kind,
                    label: "swap_a",
                }
            }
            1 => {
                // Swap two blocks in both sequences of one die.
                let kind = if let Some(die) = self.random_populated_die(rng, 2) {
                    let len = self.seq_a[die].len();
                    let i = rng.gen_range(0..len);
                    let j = rng.gen_range(0..len);
                    self.seq_a[die].swap(i, j);
                    let len_b = self.seq_b[die].len();
                    let k = rng.gen_range(0..len_b);
                    let l = rng.gen_range(0..len_b);
                    self.seq_b[die].swap(k, l);
                    UndoKind::SwapBoth { die, i, j, k, l }
                } else {
                    UndoKind::None
                };
                MoveUndo {
                    kind,
                    label: "swap_both",
                }
            }
            2 => {
                // Rotate a hard block or re-shape a soft block.
                let b = rng.gen_range(0..n);
                let kind = if design.blocks()[b].shape().is_hard() {
                    self.rotated[b] = !self.rotated[b];
                    UndoKind::Rotate { block: b }
                } else {
                    let previous = self.aspect[b];
                    self.aspect[b] = rng.gen_range(0.4..2.5);
                    UndoKind::Aspect { block: b, previous }
                };
                MoveUndo {
                    kind,
                    label: "reshape",
                }
            }
            3 => {
                // Move a block to another die.
                let kind = if self.stack.dies() > 1 {
                    let b = rng.gen_range(0..n);
                    let from = self.die_of[b];
                    let to = (from + rng.gen_range(1..self.stack.dies())) % self.stack.dies();
                    let from_pos = self.remove_from_sequences(b, from);
                    let to_pos = self.insert_into_sequences(BlockId(b), to, rng);
                    self.die_of[b] = to;
                    UndoKind::MoveDie {
                        block: b,
                        from,
                        to,
                        from_pos,
                        to_pos,
                    }
                } else {
                    UndoKind::None
                };
                MoveUndo {
                    kind,
                    label: "move_die",
                }
            }
            _ => {
                // Swap the die assignment of two blocks on different dies.
                let mut kind = UndoKind::None;
                if self.stack.dies() > 1 {
                    let a = rng.gen_range(0..n);
                    let b = rng.gen_range(0..n);
                    if self.die_of[a] != self.die_of[b] {
                        let da = self.die_of[a];
                        let db = self.die_of[b];
                        let a_from = self.remove_from_sequences(a, da);
                        let b_from = self.remove_from_sequences(b, db);
                        let a_to = self.insert_into_sequences(BlockId(a), db, rng);
                        let b_to = self.insert_into_sequences(BlockId(b), da, rng);
                        self.die_of[a] = db;
                        self.die_of[b] = da;
                        kind = UndoKind::SwapDie {
                            a,
                            b,
                            die_a: da,
                            die_b: db,
                            a_from,
                            b_from,
                            a_to,
                            b_to,
                        };
                    }
                }
                MoveUndo {
                    kind,
                    label: "swap_die",
                }
            }
        }
    }

    /// Reverts the move described by `undo`.
    ///
    /// Tokens must be applied to the representation that produced them, most recent first;
    /// applying a stale token corrupts the sequences (debug builds catch this through the
    /// consistency assertions of the packing tests).
    pub fn undo(&mut self, undo: MoveUndo) {
        match undo.kind {
            UndoKind::None => {}
            UndoKind::SwapA { die, i, j } => {
                self.seq_a[die].swap(i, j);
            }
            UndoKind::SwapBoth { die, i, j, k, l } => {
                self.seq_b[die].swap(k, l);
                self.seq_a[die].swap(i, j);
            }
            UndoKind::Rotate { block } => {
                self.rotated[block] = !self.rotated[block];
            }
            UndoKind::Aspect { block, previous } => {
                self.aspect[block] = previous;
            }
            UndoKind::MoveDie {
                block,
                from,
                to,
                from_pos,
                to_pos,
            } => {
                self.seq_a[to].remove(to_pos.0);
                self.seq_b[to].remove(to_pos.1);
                self.seq_a[from].insert(from_pos.0, BlockId(block));
                self.seq_b[from].insert(from_pos.1, BlockId(block));
                self.die_of[block] = from;
            }
            UndoKind::SwapDie {
                a,
                b,
                die_a,
                die_b,
                a_from,
                b_from,
                a_to,
                b_to,
            } => {
                // Inverse operations in reverse order of the move.
                self.seq_a[die_a].remove(b_to.0);
                self.seq_b[die_a].remove(b_to.1);
                self.seq_a[die_b].remove(a_to.0);
                self.seq_b[die_b].remove(a_to.1);
                self.seq_a[die_b].insert(b_from.0, BlockId(b));
                self.seq_b[die_b].insert(b_from.1, BlockId(b));
                self.seq_a[die_a].insert(a_from.0, BlockId(a));
                self.seq_b[die_a].insert(a_from.1, BlockId(a));
                self.die_of[a] = die_a;
                self.die_of[b] = die_b;
            }
        }
    }

    fn random_populated_die(&self, rng: &mut ChaCha8Rng, min_blocks: usize) -> Option<usize> {
        let candidates = (0..self.stack.dies())
            .filter(|&d| self.seq_a[d].len() >= min_blocks)
            .count();
        if candidates == 0 {
            None
        } else {
            let pick = rng.gen_range(0..candidates);
            (0..self.stack.dies())
                .filter(|&d| self.seq_a[d].len() >= min_blocks)
                .nth(pick)
        }
    }

    /// Removes the block from both sequences of `die`, returning its former positions
    /// `(seq_a index, seq_b index)`.
    fn remove_from_sequences(&mut self, block: usize, die: usize) -> (usize, usize) {
        let pa = self.seq_a[die]
            .iter()
            .position(|b| b.index() == block)
            .expect("block must be in seq_a of its die");
        self.seq_a[die].remove(pa);
        let pb = self.seq_b[die]
            .iter()
            .position(|b| b.index() == block)
            .expect("block must be in seq_b of its die");
        self.seq_b[die].remove(pb);
        (pa, pb)
    }

    /// Inserts the block at random positions in both sequences of `die`, returning the
    /// chosen positions `(seq_a index, seq_b index)`.
    fn insert_into_sequences(
        &mut self,
        block: BlockId,
        die: usize,
        rng: &mut ChaCha8Rng,
    ) -> (usize, usize) {
        let pos_a = rng.gen_range(0..=self.seq_a[die].len());
        self.seq_a[die].insert(pos_a, block);
        let pos_b = rng.gen_range(0..=self.seq_b[die].len());
        self.seq_b[die].insert(pos_b, block);
        (pos_a, pos_b)
    }

    /// Internal consistency check: every block appears exactly once in the sequences of its
    /// assigned die. Intended for tests and debug assertions.
    pub fn is_consistent(&self) -> bool {
        for (b, &die) in self.die_of.iter().enumerate() {
            let in_a = self.seq_a[die].iter().filter(|x| x.index() == b).count();
            let in_b = self.seq_b[die].iter().filter(|x| x.index() == b).count();
            if in_a != 1 || in_b != 1 {
                return false;
            }
            for other in 0..self.stack.dies() {
                if other == die {
                    continue;
                }
                if self.seq_a[other].iter().any(|x| x.index() == b)
                    || self.seq_b[other].iter().any(|x| x.index() == b)
                {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tsc3d_geometry::Outline;
    use tsc3d_netlist::suite::{generate, Benchmark};
    use tsc3d_netlist::{Block, BlockShape};

    fn small_design() -> Design {
        let blocks = vec![
            Block::new("a", BlockShape::hard(10.0, 20.0), 0.1),
            Block::new("b", BlockShape::hard(20.0, 10.0), 0.1),
            Block::new("c", BlockShape::soft(400.0), 0.1),
            Block::new("d", BlockShape::soft(100.0), 0.1),
            Block::new("e", BlockShape::hard(15.0, 15.0), 0.1),
        ];
        Design::new("s", blocks, vec![], vec![], Outline::new(200.0, 200.0)).unwrap()
    }

    fn stack() -> Stack {
        Stack::two_die(Outline::new(200.0, 200.0))
    }

    #[test]
    fn initial_solution_is_consistent_and_balanced() {
        let d = small_design();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let sp = SequencePair3d::initial(&d, stack(), &mut rng);
        assert!(sp.is_consistent());
        // Both dies must be populated for a 5-block design with area balancing.
        let fp = sp.pack(&d);
        assert!(!fp.blocks_on(DieId(0)).is_empty());
        assert!(!fp.blocks_on(DieId(1)).is_empty());
    }

    #[test]
    fn packing_produces_no_overlaps() {
        let d = small_design();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for seed in 0..20u64 {
            let mut sp = SequencePair3d::initial(&d, stack(), &mut rng);
            for _ in 0..seed {
                sp.perturb(&d, &mut rng);
            }
            let fp = sp.pack(&d);
            assert!(fp.overlap_area() < 1e-9, "overlap after {seed} moves");
        }
    }

    #[test]
    fn packing_preserves_block_areas() {
        let d = small_design();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let sp = SequencePair3d::initial(&d, stack(), &mut rng);
        let fp = sp.pack(&d);
        for (id, block) in d.iter_blocks() {
            let placed = fp.placement(id).rect.area();
            assert!(
                (placed - block.area()).abs() / block.area() < 1e-9,
                "area changed for {id}"
            );
        }
    }

    #[test]
    fn perturbations_keep_consistency() {
        let d = small_design();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut sp = SequencePair3d::initial(&d, stack(), &mut rng);
        for _ in 0..500 {
            sp.perturb(&d, &mut rng);
            assert!(sp.is_consistent());
        }
        // After many moves packing still succeeds with zero overlap.
        let fp = sp.pack(&d);
        assert!(fp.overlap_area() < 1e-9);
    }

    #[test]
    fn die_of_matches_packed_floorplan() {
        let d = small_design();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut sp = SequencePair3d::initial(&d, stack(), &mut rng);
        for _ in 0..50 {
            sp.perturb(&d, &mut rng);
        }
        let fp = sp.pack(&d);
        for b in 0..5 {
            assert_eq!(fp.placement(BlockId(b)).die, sp.die_of(BlockId(b)));
        }
    }

    #[test]
    fn fenwick_packing_matches_reference_bit_for_bit() {
        // The Fenwick prefix-max packing and the O(n²) reference evaluate the same maxima,
        // so their floorplans must be *exactly* equal across designs and move sequences.
        for (design, outline) in [
            (small_design(), Outline::new(200.0, 200.0)),
            (
                generate(Benchmark::N100, 1),
                generate(Benchmark::N100, 1).outline(),
            ),
            (
                generate(Benchmark::N200, 1),
                generate(Benchmark::N200, 1).outline(),
            ),
        ] {
            let stack = Stack::two_die(outline);
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let mut sp = SequencePair3d::initial(&design, stack, &mut rng);
            let mut scratch = PackScratch::new();
            let mut fp = Floorplan::shell(stack, design.blocks().len());
            for step in 0..200 {
                sp.perturb(&design, &mut rng);
                sp.pack_with(&design, &mut scratch, &mut fp);
                assert_eq!(
                    fp,
                    sp.pack_reference(&design),
                    "packings diverged after {step} moves"
                );
            }
        }
    }

    #[test]
    fn perturb_undo_restores_the_exact_state() {
        let d = generate(Benchmark::N100, 1);
        let stack = Stack::two_die(d.outline());
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut sp = SequencePair3d::initial(&d, stack, &mut rng);
        for step in 0..1000 {
            let before = sp.clone();
            let undo = sp.perturb_undoable(&d, &mut rng);
            assert!(sp.is_consistent(), "inconsistent after move {step}");
            sp.undo(undo);
            assert_eq!(sp, before, "undo failed to restore state at move {step}");
            // Re-apply so the walk explores different states (fresh randomness).
            sp.perturb(&d, &mut rng);
        }
    }

    #[test]
    fn perturb_and_perturb_undoable_share_one_random_stream() {
        let d = small_design();
        let mut rng_a = ChaCha8Rng::seed_from_u64(13);
        let mut rng_b = ChaCha8Rng::seed_from_u64(13);
        let mut sp_a = SequencePair3d::initial(&d, stack(), &mut rng_a);
        let mut sp_b = SequencePair3d::initial(&d, stack(), &mut rng_b);
        for _ in 0..500 {
            let label = sp_a.perturb(&d, &mut rng_a);
            let undo = sp_b.perturb_undoable(&d, &mut rng_b);
            assert_eq!(label, undo.kind());
            assert_eq!(sp_a, sp_b);
        }
    }

    #[test]
    fn thermal_rule_pushes_hot_blocks_to_the_top_die() {
        let d = generate(Benchmark::N100, 1);
        let stack = Stack::two_die(d.outline());
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let plain = SequencePair3d::initial(&d, stack, &mut rng);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let thermal = SequencePair3d::initial_thermally_aware(&d, stack, &mut rng);
        assert!(thermal.is_consistent());

        let top_power = |sp: &SequencePair3d| -> f64 {
            d.iter_blocks()
                .filter(|(id, _)| sp.die_of(*id) == DieId(1))
                .map(|(_, b)| b.power())
                .sum()
        };
        assert!(
            top_power(&thermal) > top_power(&plain),
            "thermal rule must concentrate power on the top die: {} !> {}",
            top_power(&thermal),
            top_power(&plain)
        );
        // The rule must not blow the top die past its outline capacity.
        let top_area: f64 = d
            .iter_blocks()
            .filter(|(id, _)| thermal.die_of(*id) == DieId(1))
            .map(|(_, b)| b.area())
            .sum();
        assert!(top_area <= stack.outline().area() * 1.01);
    }

    #[test]
    fn packing_scales_to_benchmark_sizes() {
        let d = generate(Benchmark::N100, 1);
        let stack = Stack::two_die(d.outline());
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let sp = SequencePair3d::initial(&d, stack, &mut rng);
        let fp = sp.pack(&d);
        assert!(fp.overlap_area() < 1e-6);
        // Initial packing of a shuffled sequence pair is loose but must stay within a few
        // multiples of the outline.
        let bbox = fp.packing_bbox(DieId(0)).unwrap();
        assert!(bbox.width < 6.0 * d.outline().width());
    }
}
