//! Concrete placements of blocks onto the dies of a 3D stack.

use serde::{Deserialize, Serialize};
use tsc3d_geometry::{DieId, Grid, GridMap, Outline, Point, Rect, Stack};
use tsc3d_netlist::{BlockId, Design, NetId};
use tsc3d_timing::NetTopology;

/// A block placed on a specific die with a concrete footprint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacedBlock {
    /// The placed block.
    pub block: BlockId,
    /// The die the block sits on.
    pub die: DieId,
    /// The block's footprint on that die.
    pub rect: Rect,
}

/// A complete floorplan: every block of the design placed onto one die of the stack.
///
/// The floorplan owns no reference to the [`Design`]; methods that need netlist information
/// (wirelength, net topologies, power maps) take it as an argument, so floorplans remain
/// cheap to clone inside the annealer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Floorplan {
    stack: Stack,
    placements: Vec<PlacedBlock>,
}

impl Floorplan {
    /// Creates a floorplan from per-block placements.
    ///
    /// # Panics
    ///
    /// Panics if `placements` is not indexed consistently (placement `i` must place block
    /// `i`) or places a block on a die outside the stack.
    pub fn new(stack: Stack, placements: Vec<PlacedBlock>) -> Self {
        for (i, p) in placements.iter().enumerate() {
            assert_eq!(p.block.index(), i, "placement {i} must describe block {i}");
            assert!(stack.contains(p.die), "die {} outside the stack", p.die);
        }
        Self { stack, placements }
    }

    /// Creates a floorplan shell for `n` blocks (default rects on the bottom die): a
    /// reusable output buffer for [`SequencePair3d::pack_with`](crate::SequencePair3d).
    pub(crate) fn shell(stack: Stack, n: usize) -> Self {
        Self {
            stack,
            placements: (0..n)
                .map(|b| PlacedBlock {
                    block: BlockId(b),
                    die: DieId(0),
                    rect: Rect::default(),
                })
                .collect(),
        }
    }

    /// Mutable placement storage for the in-crate packing path, which maintains the
    /// `placements[i].block == i` invariant itself.
    pub(crate) fn placements_mut(&mut self) -> &mut Vec<PlacedBlock> {
        &mut self.placements
    }

    /// The stack the floorplan targets.
    pub fn stack(&self) -> Stack {
        self.stack
    }

    /// The fixed die outline.
    pub fn outline(&self) -> Outline {
        self.stack.outline()
    }

    /// All placements, indexed by block id.
    pub fn placements(&self) -> &[PlacedBlock] {
        &self.placements
    }

    /// The placement of one block.
    pub fn placement(&self, block: BlockId) -> &PlacedBlock {
        &self.placements[block.index()]
    }

    /// Blocks placed on the given die.
    pub fn blocks_on(&self, die: DieId) -> Vec<BlockId> {
        self.placements
            .iter()
            .filter(|p| p.die == die)
            .map(|p| p.block)
            .collect()
    }

    /// Pin position used for wirelength/timing estimates: the centre of the block.
    pub fn pin_of(&self, block: BlockId) -> Point {
        self.placements[block.index()].rect.center()
    }

    /// Total overlap area between blocks sharing a die, in µm² (zero for legal floorplans).
    pub fn overlap_area(&self) -> f64 {
        let mut total = 0.0;
        for die in self.stack.die_ids() {
            let on_die: Vec<&PlacedBlock> =
                self.placements.iter().filter(|p| p.die == die).collect();
            for (i, a) in on_die.iter().enumerate() {
                for b in &on_die[i + 1..] {
                    total += a.rect.overlap_area(&b.rect);
                }
            }
        }
        total
    }

    /// Total block area falling outside the fixed outline, in µm².
    pub fn outline_violation_area(&self) -> f64 {
        let outline = self.outline().rect();
        self.placements
            .iter()
            .map(|p| p.rect.area() - p.rect.overlap_area(&outline))
            .sum()
    }

    /// Returns `true` when no blocks overlap and every block lies inside the outline.
    pub fn is_legal(&self) -> bool {
        self.overlap_area() < 1e-6 && self.outline_violation_area() < 1e-6
    }

    /// Per-die area utilization (block area on the die / outline area).
    pub fn utilization(&self, design: &Design, die: DieId) -> f64 {
        let area: f64 = self
            .placements
            .iter()
            .filter(|p| p.die == die)
            .map(|p| design.block(p.block).area())
            .sum();
        area / self.outline().area()
    }

    /// Bounding box of all blocks on a die (the packing envelope), or `None` for empty dies.
    pub fn packing_bbox(&self, die: DieId) -> Option<Rect> {
        self.placements
            .iter()
            .filter(|p| p.die == die)
            .map(|p| p.rect)
            .reduce(|a, b| a.union(&b))
    }

    /// Half-perimeter wirelength of one net in µm, including an extra vertical detour of
    /// `tsv_length` per die crossing.
    pub fn net_hpwl(&self, design: &Design, net: NetId, tsv_length: f64) -> f64 {
        let topo = self.net_topology(design, net, tsv_length);
        topo.hpwl + topo.tsv_crossings as f64 * tsv_length
    }

    /// Total half-perimeter wirelength over all nets, in µm.
    pub fn total_wirelength(&self, design: &Design, tsv_length: f64) -> f64 {
        design
            .iter_nets()
            .map(|(id, _)| self.net_hpwl(design, id, tsv_length))
            .sum()
    }

    /// The timing-relevant topology of one net: planar HPWL, number of die crossings and
    /// fanout. `tsv_length` is only used to derive crossings consistently (it does not enter
    /// the HPWL returned here; the Elmore model accounts for TSVs separately).
    pub fn net_topology(&self, design: &Design, net: NetId, _tsv_length: f64) -> NetTopology {
        let net_ref = design.net(net);
        let mut min_x = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        let mut min_die = usize::MAX;
        let mut max_die = 0usize;
        let mut pins = 0usize;
        for pin in net_ref.pins() {
            let (point, die) = match *pin {
                tsc3d_netlist::PinRef::Block(b) => {
                    let p = &self.placements[b.index()];
                    (p.rect.center(), p.die.index())
                }
                tsc3d_netlist::PinRef::Terminal(t) => {
                    // Terminals sit on the package; they do not add die crossings beyond the
                    // bottom die.
                    (design.terminal(t).position(), 0)
                }
            };
            min_x = min_x.min(point.x);
            max_x = max_x.max(point.x);
            min_y = min_y.min(point.y);
            max_y = max_y.max(point.y);
            min_die = min_die.min(die);
            max_die = max_die.max(die);
            pins += 1;
        }
        let hpwl = (max_x - min_x) + (max_y - min_y);
        let crossings = max_die.saturating_sub(min_die);
        NetTopology::new(hpwl, crossings, pins.saturating_sub(1))
    }

    /// Net topologies for every net of the design.
    pub fn net_topologies(&self, design: &Design, tsv_length: f64) -> Vec<NetTopology> {
        design
            .iter_nets()
            .map(|(id, _)| self.net_topology(design, id, tsv_length))
            .collect()
    }

    /// Spatial adjacency between blocks: two blocks are adjacent when their footprints,
    /// expanded by `margin` µm, overlap — either on the same die or on vertically
    /// neighbouring dies (which is what lets voltage volumes span dies).
    pub fn adjacency(&self, margin: f64) -> Vec<Vec<BlockId>> {
        let mut adj = Vec::new();
        self.adjacency_into(margin, &mut adj);
        adj
    }

    /// [`Floorplan::adjacency`] into a reusable buffer: the outer vector is resized to the
    /// block count and the per-block lists are cleared, keeping their allocations across
    /// calls. Produces the same lists as the allocating variant.
    pub fn adjacency_into(&self, margin: f64, adj: &mut Vec<Vec<BlockId>>) {
        let n = self.placements.len();
        adj.resize_with(n, Vec::new);
        for list in adj.iter_mut() {
            list.clear();
        }
        for i in 0..n {
            let a = &self.placements[i];
            let ra = a.rect.expanded(margin);
            for j in (i + 1)..n {
                let b = &self.placements[j];
                let die_distance = a.die.index().abs_diff(b.die.index());
                if die_distance > 1 {
                    continue;
                }
                if ra.overlaps(&b.rect.expanded(margin)) {
                    adj[i].push(BlockId(j));
                    adj[j].push(BlockId(i));
                }
            }
        }
    }

    /// Builds the per-die power maps (watts per bin) for the given per-block powers.
    ///
    /// # Panics
    ///
    /// Panics if `block_powers` does not provide one value per block.
    pub fn power_maps(&self, grid: Grid, block_powers: &[f64]) -> Vec<GridMap> {
        let mut out = Vec::new();
        self.power_maps_into(grid, block_powers, &mut out);
        out
    }

    /// [`Floorplan::power_maps`] into reusable maps: `out` is rebuilt only when the die
    /// count or grid changed, otherwise the existing maps are zeroed and re-rasterized.
    /// Splats the same rects in the same order as the allocating variant (and as
    /// [`tsc3d_power::power_map_from_rects`]), so the maps are identical.
    ///
    /// # Panics
    ///
    /// Panics if `block_powers` does not provide one value per block.
    pub fn power_maps_into(&self, grid: Grid, block_powers: &[f64], out: &mut Vec<GridMap>) {
        assert_eq!(
            block_powers.len(),
            self.placements.len(),
            "one power value per block required"
        );
        let dies = self.stack.dies();
        if out.len() != dies || out.iter().any(|m| m.grid() != grid) {
            *out = (0..dies).map(|_| GridMap::zeros(grid)).collect();
        }
        for (die, map) in self.stack.die_ids().zip(out.iter_mut()) {
            map.values_mut().fill(0.0);
            for p in self.placements.iter().filter(|p| p.die == die) {
                map.splat_power(&p.rect, block_powers[p.block.index()]);
            }
        }
    }

    /// The standard analysis grid used throughout the experiments: 64×64 bins over the die
    /// outline (matching the resolution of the paper's thermal maps).
    pub fn analysis_grid(&self, bins_per_axis: usize) -> Grid {
        Grid::square(self.outline().rect(), bins_per_axis)
    }

    /// Precomputes the rasterization of this floorplan on `grid` as replayable
    /// [`PowerStamps`], so repeated power-map builds (one per trace in a side-channel
    /// campaign) skip the per-rect clip arithmetic.
    pub fn power_stamps(&self, grid: Grid) -> PowerStamps {
        let mut stamps = Vec::new();
        let mut die_ends = Vec::with_capacity(self.stack.dies());
        for die in self.stack.die_ids() {
            for p in self.placements.iter().filter(|p| p.die == die) {
                let rect_area = p.rect.area();
                if rect_area <= 0.0 {
                    continue;
                }
                let block = p.block.index();
                grid.for_each_overlap(&p.rect, |bin, overlap| {
                    stamps.push(PowerStamp {
                        block,
                        bin,
                        overlap,
                        rect_area,
                    });
                });
            }
            die_ends.push(stamps.len());
        }
        PowerStamps {
            grid,
            dies: self.stack.dies(),
            blocks: self.placements.len(),
            stamps,
            die_ends,
        }
    }
}

/// One precomputed bin contribution of one placed block: replaying
/// `power[block] * overlap / rect_area` reproduces the live splat's term exactly.
#[derive(Debug, Clone, Copy)]
struct PowerStamp {
    block: usize,
    bin: usize,
    overlap: f64,
    rect_area: f64,
}

/// The precomputed rasterization of a [`Floorplan`] on one grid.
///
/// [`Floorplan::power_maps_into`] re-clips every placement rectangle against the grid on
/// every call; in trace-level side-channel simulation that cost repeats per *trace* while
/// the floorplan never changes. `PowerStamps` performs the clipping once and stores, in
/// the exact accumulation order of the live splat (die-major, placements in floorplan
/// order, bins row-major), the `(block, bin, overlap, rect_area)` of every non-zero
/// contribution. [`PowerStamps::power_maps_into`] then replays
/// `power[block] * overlap / rect_area` per stamp — the identical operations on the
/// identical operands, so the maps are **bit-identical** to [`Floorplan::power_maps`].
#[derive(Debug, Clone)]
pub struct PowerStamps {
    grid: Grid,
    dies: usize,
    blocks: usize,
    stamps: Vec<PowerStamp>,
    /// Exclusive end index into `stamps` per die (stamps are die-major).
    die_ends: Vec<usize>,
}

impl PowerStamps {
    /// The grid the stamps were clipped against.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// The number of blocks (one power value each).
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Rebuilds the per-die power maps for `block_powers` by replaying the stamps,
    /// bit-identical to [`Floorplan::power_maps_into`] on the originating floorplan.
    ///
    /// # Panics
    ///
    /// Panics if `block_powers` does not provide one value per block.
    pub fn power_maps_into(&self, block_powers: &[f64], out: &mut Vec<GridMap>) {
        assert_eq!(
            block_powers.len(),
            self.blocks,
            "one power value per block required"
        );
        if out.len() != self.dies || out.iter().any(|m| m.grid() != self.grid) {
            *out = (0..self.dies).map(|_| GridMap::zeros(self.grid)).collect();
        }
        let mut start = 0;
        for (map, &end) in out.iter_mut().zip(&self.die_ends) {
            let values = map.values_mut();
            values.fill(0.0);
            for stamp in &self.stamps[start..end] {
                values[stamp.bin] += block_powers[stamp.block] * stamp.overlap / stamp.rect_area;
            }
            start = end;
        }
    }

    /// The adjoint of [`PowerStamps::power_maps_into`]: folds one value per bin and die
    /// into one value per block, `out[block] = Σ maps[die][bin] · overlap / rect_area`
    /// over the block's stamps, summed in stamp order.
    ///
    /// With `maps` a temperature field per watt injected somewhere, `out[block]` is that
    /// point's temperature per watt of the block's power, since the power maps are a
    /// linear image of the block powers.
    ///
    /// # Panics
    ///
    /// Panics if `maps` does not hold one map per die on the stamps' grid, or `out` does
    /// not hold one value per block.
    pub fn fold_maps(&self, maps: &[GridMap], out: &mut [f64]) {
        assert!(
            maps.len() == self.dies && maps.iter().all(|m| m.grid() == self.grid),
            "one map per die on the stamps' grid required"
        );
        assert_eq!(
            out.len(),
            self.blocks,
            "one output value per block required"
        );
        out.fill(0.0);
        let mut start = 0;
        for (map, &end) in maps.iter().zip(&self.die_ends) {
            let values = map.values();
            for stamp in &self.stamps[start..end] {
                out[stamp.block] += values[stamp.bin] * (stamp.overlap / stamp.rect_area);
            }
            start = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc3d_geometry::Outline;
    use tsc3d_netlist::{Block, BlockShape, Net, PinRef, Terminal, TerminalId};

    fn design() -> Design {
        let blocks = vec![
            Block::new("a", BlockShape::hard(20.0, 20.0), 1.0),
            Block::new("b", BlockShape::hard(20.0, 20.0), 2.0),
            Block::new("c", BlockShape::hard(20.0, 20.0), 0.5),
        ];
        let terminals = vec![Terminal::new("t0", Point::new(0.0, 0.0))];
        let nets = vec![
            Net::new(
                "ab",
                vec![PinRef::Block(BlockId(0)), PinRef::Block(BlockId(1))],
            ),
            Net::new(
                "bc_t",
                vec![
                    PinRef::Block(BlockId(1)),
                    PinRef::Block(BlockId(2)),
                    PinRef::Terminal(TerminalId(0)),
                ],
            ),
        ];
        Design::new("tiny", blocks, nets, terminals, Outline::new(100.0, 100.0)).unwrap()
    }

    fn floorplan() -> Floorplan {
        let stack = Stack::two_die(Outline::new(100.0, 100.0));
        Floorplan::new(
            stack,
            vec![
                PlacedBlock {
                    block: BlockId(0),
                    die: DieId(0),
                    rect: Rect::new(0.0, 0.0, 20.0, 20.0),
                },
                PlacedBlock {
                    block: BlockId(1),
                    die: DieId(0),
                    rect: Rect::new(30.0, 0.0, 20.0, 20.0),
                },
                PlacedBlock {
                    block: BlockId(2),
                    die: DieId(1),
                    rect: Rect::new(0.0, 0.0, 20.0, 20.0),
                },
            ],
        )
    }

    #[test]
    fn legality_checks() {
        let fp = floorplan();
        assert!(fp.is_legal());
        assert_eq!(fp.overlap_area(), 0.0);
        assert_eq!(fp.outline_violation_area(), 0.0);
        assert_eq!(fp.blocks_on(DieId(0)), vec![BlockId(0), BlockId(1)]);
        assert_eq!(fp.blocks_on(DieId(1)), vec![BlockId(2)]);
    }

    #[test]
    fn overlap_and_violation_are_detected() {
        let stack = Stack::two_die(Outline::new(100.0, 100.0));
        let fp = Floorplan::new(
            stack,
            vec![
                PlacedBlock {
                    block: BlockId(0),
                    die: DieId(0),
                    rect: Rect::new(0.0, 0.0, 20.0, 20.0),
                },
                PlacedBlock {
                    block: BlockId(1),
                    die: DieId(0),
                    rect: Rect::new(10.0, 10.0, 20.0, 20.0),
                },
                PlacedBlock {
                    block: BlockId(2),
                    die: DieId(1),
                    rect: Rect::new(90.0, 90.0, 20.0, 20.0),
                },
            ],
        );
        assert!(!fp.is_legal());
        assert!((fp.overlap_area() - 100.0).abs() < 1e-9);
        assert!((fp.outline_violation_area() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn wirelength_and_topologies() {
        let d = design();
        let fp = floorplan();
        // Net ab: centres (10,10) and (40,10) → HPWL 30, same die.
        let t0 = fp.net_topology(&d, NetId(0), 50.0);
        assert!((t0.hpwl - 30.0).abs() < 1e-9);
        assert_eq!(t0.tsv_crossings, 0);
        // Net bc_t: b on die0 at (40,10), c on die1 at (10,10), terminal at (0,0):
        // HPWL = 40 + 10 = 50, one die crossing.
        let t1 = fp.net_topology(&d, NetId(1), 50.0);
        assert!((t1.hpwl - 50.0).abs() < 1e-9);
        assert_eq!(t1.tsv_crossings, 1);
        assert_eq!(t1.fanout, 2);
        // Total wirelength adds the TSV detour for the crossing net.
        let wl = fp.total_wirelength(&d, 50.0);
        assert!((wl - (30.0 + 50.0 + 50.0)).abs() < 1e-9);
        assert_eq!(fp.net_topologies(&d, 50.0).len(), 2);
    }

    #[test]
    fn power_maps_conserve_power_per_die() {
        let _d = design();
        let fp = floorplan();
        let grid = fp.analysis_grid(10);
        let maps = fp.power_maps(grid, &[1.0, 2.0, 0.5]);
        assert_eq!(maps.len(), 2);
        assert!((maps[0].sum() - 3.0).abs() < 1e-9);
        assert!((maps[1].sum() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn power_stamps_replay_bit_identically() {
        let fp = floorplan();
        for bins in [3usize, 10, 17] {
            let grid = fp.analysis_grid(bins);
            let stamps = fp.power_stamps(grid);
            assert_eq!(stamps.grid(), grid);
            // Start from deliberately mismatched buffers to exercise the rebuild path.
            let mut replayed = vec![GridMap::zeros(fp.analysis_grid(2))];
            for powers in [[1.0, 2.0, 0.5], [0.0, 7.25, 1e-3]] {
                let live = fp.power_maps(grid, &powers);
                stamps.power_maps_into(&powers, &mut replayed);
                assert_eq!(live.len(), replayed.len(), "{bins} bins");
                for (a, b) in live.iter().zip(&replayed) {
                    assert_eq!(a.values(), b.values(), "{bins} bins");
                }
            }
        }
    }

    #[test]
    fn fold_maps_is_the_adjoint_of_the_power_maps() {
        let fp = floorplan();
        let grid = fp.analysis_grid(10);
        let stamps = fp.power_stamps(grid);
        // A non-uniform field per die: ⟨field, maps(p)⟩ must equal ⟨fold(field), p⟩.
        let fields: Vec<GridMap> = (0..2)
            .map(|die| {
                let values = (0..grid.bins())
                    .map(|b| 1.0 + 0.37 * b as f64 + 5.0 * die as f64)
                    .collect();
                GridMap::from_values(grid, values)
            })
            .collect();
        let mut folded = vec![f64::NAN; 3];
        stamps.fold_maps(&fields, &mut folded);
        let powers = [1.0, 2.0, 0.5];
        let maps = fp.power_maps(grid, &powers);
        let direct: f64 = maps
            .iter()
            .zip(&fields)
            .map(|(map, field)| {
                map.values()
                    .iter()
                    .zip(field.values())
                    .map(|(p, t)| p * t)
                    .sum::<f64>()
            })
            .sum();
        let adjoint: f64 = folded.iter().zip(&powers).map(|(k, p)| k * p).sum();
        assert!(
            (direct - adjoint).abs() <= 1e-12 * direct.abs(),
            "{direct} vs {adjoint}"
        );
    }

    #[test]
    fn adjacency_same_die_and_cross_die() {
        let fp = floorplan();
        // With a 15 µm margin, a (0..20) and b (30..50) on die 0 are adjacent; c overlaps a
        // vertically (same footprint, neighbouring die).
        let adj = fp.adjacency(15.0);
        assert!(adj[0].contains(&BlockId(1)));
        assert!(adj[0].contains(&BlockId(2)));
        assert!(adj[1].contains(&BlockId(0)));
        // With zero margin, a and b are 10 µm apart and no longer adjacent.
        let tight = fp.adjacency(0.0);
        assert!(!tight[0].contains(&BlockId(1)));
        assert!(tight[0].contains(&BlockId(2)));
    }

    #[test]
    fn utilization_and_bbox() {
        let d = design();
        let fp = floorplan();
        assert!((fp.utilization(&d, DieId(0)) - 0.08).abs() < 1e-9);
        assert!((fp.utilization(&d, DieId(1)) - 0.04).abs() < 1e-9);
        let bbox = fp.packing_bbox(DieId(0)).unwrap();
        assert_eq!(bbox, Rect::new(0.0, 0.0, 50.0, 20.0));
        assert!(fp.packing_bbox(DieId(5)).is_none());
    }

    #[test]
    #[should_panic(expected = "must describe block")]
    fn inconsistent_indexing_rejected() {
        let stack = Stack::two_die(Outline::new(10.0, 10.0));
        let _ = Floorplan::new(
            stack,
            vec![PlacedBlock {
                block: BlockId(3),
                die: DieId(0),
                rect: Rect::new(0.0, 0.0, 1.0, 1.0),
            }],
        );
    }
}
