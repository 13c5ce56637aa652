//! Floorplanning-centric voltage assignment (Section 6.1 of the paper).

use crate::{VoltageAssignment, VoltageVolume};
use std::collections::VecDeque;
use tsc3d_netlist::{BlockId, Design};
use tsc3d_timing::{VoltageLevel, VoltageScaling};

/// The scaling table of every assignment, `(level, power factor, delay factor)` rows
/// lowest voltage first: the paper's 90 nm levels.
const TABLE: &[(VoltageLevel, f64, f64)] = &VoltageScaling::PAPER_90NM;

// Feasible voltage sets are `u32` bitmasks over table positions.
const _: () = assert!(
    TABLE.len() <= u32::BITS as usize,
    "bitmask assignment supports at most 32 voltage levels"
);

/// Optimization objective of the voltage-volume selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AssignmentObjective {
    /// Power-aware floorplanning (setup (i) of the paper): minimize overall power and the
    /// number of voltage volumes — every volume runs at the lowest commonly feasible voltage
    /// and volumes are grown as large as timing feasibility allows.
    PowerAware,
    /// TSC-aware floorplanning (setup (ii)): additionally minimize the standard deviation of
    /// power densities within volumes and across volumes, so the resulting power
    /// distribution is locally uniform with small global gradients.
    TscAware {
        /// Maximum allowed relative spread of power densities within one volume
        /// (`max density / min density`); candidate blocks exceeding it start a new volume.
        density_spread_limit: f64,
    },
}

impl AssignmentObjective {
    /// The default TSC-aware objective used in the experiments (spread limit 2.5×).
    pub fn tsc_default() -> Self {
        AssignmentObjective::TscAware {
            density_spread_limit: 2.5,
        }
    }
}

/// Per-block neighbour lists in compressed sparse rows: the neighbours of block `b` are
/// `neighbors[start[b]..start[b + 1]]`, ascending — the lists the floorplanner's
/// `Floorplan::adjacency` returns, in the flat form [`VoltageAssigner::assign_with`] reads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockAdjacency {
    start: Vec<u32>,
    neighbors: Vec<u32>,
    /// Neighbours grouped by block in pair order (the first of the two fill passes).
    unsorted: Vec<u32>,
    /// Per-block write cursor of the fill passes.
    cursor: Vec<u32>,
}

impl BlockAdjacency {
    /// Creates an empty adjacency; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the lists of `blocks` blocks from unordered pairs `(a, b)` of adjacent
    /// blocks (each pair once, `a != b`), every list ascending.
    ///
    /// Two counting passes, no sort: the first groups each block's neighbours, the second
    /// walks the blocks in ascending order and appends each to the lists of its
    /// neighbours, so every list fills in ascending order. Adjacency is symmetric, so the
    /// degree counts serve both passes.
    pub fn fill_from_pairs(&mut self, blocks: usize, pairs: &[(u32, u32)]) {
        self.start.clear();
        self.start.resize(blocks + 1, 0);
        for &(a, b) in pairs {
            self.start[a as usize + 1] += 1;
            self.start[b as usize + 1] += 1;
        }
        for i in 0..blocks {
            self.start[i + 1] += self.start[i];
        }
        let total = self.start[blocks] as usize;
        self.unsorted.resize(total, 0);
        self.neighbors.resize(total, 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.start[..blocks]);
        for &(a, b) in pairs {
            self.unsorted[self.cursor[a as usize] as usize] = b;
            self.cursor[a as usize] += 1;
            self.unsorted[self.cursor[b as usize] as usize] = a;
            self.cursor[b as usize] += 1;
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.start[..blocks]);
        for b in 0..blocks {
            for &a in &self.unsorted[self.start[b] as usize..self.start[b + 1] as usize] {
                self.neighbors[self.cursor[a as usize] as usize] = b as u32;
                self.cursor[a as usize] += 1;
            }
        }
    }

    /// Number of blocks.
    pub fn blocks(&self) -> usize {
        self.start.len().saturating_sub(1)
    }

    /// The neighbours of block `b`, ascending.
    pub fn neighbors(&self, b: usize) -> &[u32] {
        &self.neighbors[self.start[b] as usize..self.start[b + 1] as usize]
    }
}

/// Reusable buffers and results of [`VoltageAssigner::assign_with`], the assignment used
/// inside the floorplanner's hot loop.
///
/// Feasible voltage sets are held as bitmasks over the scaling-table indices, and the
/// power-sorted visit order and the per-block areas, powers and densities (functions of
/// the design alone) are computed once and reused. One scratch must only be used with a
/// single design (the cache is keyed by block count); create a fresh scratch per design.
/// After an assignment, the scratch holds every block's level, which
/// [`AssignScratch::scaled_delays_into`] and [`AssignScratch::scaled_powers_into`] apply.
#[derive(Debug, Clone, Default)]
pub struct AssignScratch {
    /// Blocks in decreasing-power order; rebuilt when the block count changes.
    order: Vec<usize>,
    /// Area per block; rebuilt with `order`.
    areas: Vec<f64>,
    /// Nominal power per block; rebuilt with `order`.
    powers: Vec<f64>,
    /// Power density per block (`power / area`); rebuilt with `order`.
    densities: Vec<f64>,
    /// Design-wide power density (total power / total block area); rebuilt with `order`.
    design_density: f64,
    /// Feasible-set bitmask per block (bit `i` = scaling-table level `i`).
    feasible: Vec<u32>,
    /// Per-block visited flags of the current assignment.
    assigned: Vec<bool>,
    /// Members of the volume being grown, in visit order (also its BFS queue).
    members: Vec<u32>,
    /// Scaling-table index of every block's level in the most recent assignment.
    level: Vec<u8>,
}

impl AssignScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes every block's voltage-scaled delay under the most recent assignment into
    /// `out` (cleared first): the values of [`VoltageAssignment::scaled_delays`].
    pub fn scaled_delays_into(&self, nominal_delays: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            nominal_delays
                .iter()
                .zip(&self.level)
                .map(|(&d, &l)| d * TABLE[l as usize].2),
        );
    }

    /// Writes every block's voltage-scaled power under the most recent assignment into
    /// `out` (cleared first): the values of [`VoltageAssignment::scaled_powers`].
    pub fn scaled_powers_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            self.powers
                .iter()
                .zip(&self.level)
                .map(|(&p, &l)| p * TABLE[l as usize].1),
        );
    }
}

/// The breadth-first voltage-volume construction of the paper.
///
/// "Voltage volumes are constructed by considering each module individually as the root for
/// a multi-branch tree representation of voltage volumes. Each tree/volume is recursively
/// built up via a breadth-first search across the respectively adjacent modules. During this
/// merging procedure, we update the resulting set of feasible voltages."
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageAssigner {
    objective: AssignmentObjective,
}

impl VoltageAssigner {
    /// Creates an assigner with the paper's 90 nm scaling table.
    pub fn new(objective: AssignmentObjective) -> Self {
        Self { objective }
    }

    /// The objective in use.
    pub fn objective(&self) -> AssignmentObjective {
        self.objective
    }

    /// Per-block feasible voltage sets given nominal delays and timing slacks (both in ns).
    ///
    /// A voltage is feasible for a block if scaling the block's intrinsic delay by the
    /// voltage's delay factor consumes no more than the block's slack:
    /// `delay * factor <= delay + slack`. The nominal voltage (1.0 V) is always feasible by
    /// construction since its factor is 1.
    pub fn feasible_sets(&self, nominal_delays: &[f64], slacks: &[f64]) -> Vec<Vec<VoltageLevel>> {
        let scaling = VoltageScaling::paper_90nm();
        nominal_delays
            .iter()
            .zip(slacks)
            .map(|(&delay, &slack)| {
                let budget = delay + slack;
                let mut set = scaling.feasible_set(delay, budget + 1e-12);
                if set.is_empty() {
                    // Timing is already violated at nominal voltage; boost to the fastest
                    // level so the assignment stays legal (the floorplanner's delay cost
                    // term penalizes this separately).
                    set = vec![*scaling.levels().last().expect("non-empty table")];
                }
                set
            })
            .collect()
    }

    /// Builds a complete voltage assignment.
    ///
    /// * `design` — the netlist (provides block powers and areas),
    /// * `adjacency[b]` — blocks spatially adjacent to block `b` in the current floorplan
    ///   (the floorplanner derives this from abutting/overlapping footprints, including
    ///   across dies),
    /// * `nominal_delays[b]` / `slacks[b]` — intrinsic delay and timing slack per block.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the design's block count.
    pub fn assign(
        &self,
        design: &Design,
        adjacency: &[Vec<BlockId>],
        nominal_delays: &[f64],
        slacks: &[f64],
    ) -> VoltageAssignment {
        let n = design.blocks().len();
        assert_eq!(adjacency.len(), n, "adjacency list per block required");
        assert_eq!(nominal_delays.len(), n, "nominal delay per block required");
        assert_eq!(slacks.len(), n, "slack per block required");

        let feasible = self.feasible_sets(nominal_delays, slacks);
        let scaling = VoltageScaling::paper_90nm();
        let mut assigned = vec![false; n];
        let mut volumes = Vec::new();

        // Visit blocks in decreasing-power order so high-power modules become volume roots;
        // this mirrors the paper's per-module tree construction while keeping the procedure
        // deterministic.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            design.blocks()[b]
                .power()
                .partial_cmp(&design.blocks()[a].power())
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        for &root in &order {
            if assigned[root] {
                continue;
            }
            let mut members = vec![BlockId(root)];
            let mut common = feasible[root].clone();
            assigned[root] = true;

            let root_density = density(design, root);
            let mut min_density = root_density;
            let mut max_density = root_density;

            let mut queue: VecDeque<usize> = VecDeque::new();
            queue.push_back(root);
            while let Some(current) = queue.pop_front() {
                for &neighbor in &adjacency[current] {
                    let b = neighbor.index();
                    if assigned[b] {
                        continue;
                    }
                    // Merging keeps the volume only if a commonly feasible voltage remains.
                    let merged: Vec<VoltageLevel> = common
                        .iter()
                        .copied()
                        .filter(|l| feasible[b].contains(l))
                        .collect();
                    if merged.is_empty() {
                        continue;
                    }
                    // Power-aware volumes must never force a module to a higher voltage than
                    // it needs on its own — merging has to be power-neutral.
                    if self.objective == AssignmentObjective::PowerAware
                        && merged.first() != feasible[b].first()
                    {
                        continue;
                    }
                    // The TSC-aware objective additionally demands locally uniform power
                    // densities within the volume.
                    if let AssignmentObjective::TscAware {
                        density_spread_limit,
                    } = self.objective
                    {
                        let d = density(design, b);
                        let new_min = min_density.min(d);
                        let new_max = max_density.max(d);
                        if new_min > 0.0 && new_max / new_min > density_spread_limit {
                            continue;
                        }
                        min_density = new_min;
                        max_density = new_max;
                    }
                    common = merged;
                    assigned[b] = true;
                    members.push(neighbor);
                    queue.push_back(b);
                }
            }

            let level = self.select_level(design, &members, &common, &scaling);
            volumes.push(VoltageVolume::new(members, common, level));
        }

        VoltageAssignment::new(n, volumes)
    }

    /// [`VoltageAssigner::assign`] over reusable buffers, returning the number of
    /// volumes and leaving every block's level in the scratch.
    ///
    /// Performs the same visits in the same order with the same merge decisions and the
    /// same level selection as the vector-based construction — feasible sets are bitmasks
    /// (set intersection becomes `&`, the "lowest feasible level" check a trailing-zeros
    /// comparison), the growing volume's member list doubles as its BFS queue, and no
    /// [`VoltageVolume`] is built. This is the path the floorplanner's evaluation tier
    /// calls thousands of times per annealing run.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the design's block count.
    pub fn assign_with(
        &self,
        design: &Design,
        adjacency: &BlockAdjacency,
        nominal_delays: &[f64],
        slacks: &[f64],
        scratch: &mut AssignScratch,
    ) -> usize {
        let n = design.blocks().len();
        assert_eq!(adjacency.blocks(), n, "adjacency list per block required");
        assert_eq!(nominal_delays.len(), n, "nominal delay per block required");
        assert_eq!(slacks.len(), n, "slack per block required");

        // Feasible sets as bitmasks, mirroring `feasible_sets`: a level is feasible when
        // the scaled delay fits the block's budget; an empty set falls back to the fastest
        // level.
        scratch.feasible.clear();
        scratch
            .feasible
            .extend(nominal_delays.iter().zip(slacks).map(|(&delay, &slack)| {
                let budget = delay + slack + 1e-12;
                let mut mask = 0u32;
                for (i, (_, _, delay_factor)) in TABLE.iter().enumerate() {
                    mask |= u32::from(delay * delay_factor <= budget) << i;
                }
                if mask == 0 {
                    mask = 1 << (TABLE.len() - 1);
                }
                mask
            }));

        // Visit blocks in decreasing-power order (a property of the design alone; cached,
        // as are the per-block figures the merge criterion and level selection read).
        if scratch.order.len() != n {
            scratch.order = (0..n).collect();
            scratch.order.sort_by(|&a, &b| {
                design.blocks()[b]
                    .power()
                    .partial_cmp(&design.blocks()[a].power())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            scratch.areas = design.blocks().iter().map(|b| b.area()).collect();
            scratch.powers = design.blocks().iter().map(|b| b.power()).collect();
            scratch.densities = (0..n).map(|b| density(design, b)).collect();
            scratch.design_density = design.total_power() / design.total_block_area();
        }

        scratch.assigned.clear();
        scratch.assigned.resize(n, false);
        scratch.level.resize(n, 0);
        let mut volumes = 0;

        for idx in 0..n {
            let root = scratch.order[idx];
            if scratch.assigned[root] {
                continue;
            }
            scratch.members.clear();
            scratch.members.push(root as u32);
            let mut common = scratch.feasible[root];
            scratch.assigned[root] = true;

            let root_density = scratch.densities[root];
            let mut min_density = root_density;
            let mut max_density = root_density;

            let mut head = 0;
            while let Some(&current) = scratch.members.get(head) {
                head += 1;
                for &b in adjacency.neighbors(current as usize) {
                    let b = b as usize;
                    if scratch.assigned[b] {
                        continue;
                    }
                    // Merging keeps the volume only if a commonly feasible voltage remains.
                    let merged = common & scratch.feasible[b];
                    if merged == 0 {
                        continue;
                    }
                    // Power-aware volumes must never force a module to a higher voltage than
                    // it needs on its own — merging has to be power-neutral.
                    if self.objective == AssignmentObjective::PowerAware
                        && merged.trailing_zeros() != scratch.feasible[b].trailing_zeros()
                    {
                        continue;
                    }
                    // The TSC-aware objective additionally demands locally uniform power
                    // densities within the volume.
                    if let AssignmentObjective::TscAware {
                        density_spread_limit,
                    } = self.objective
                    {
                        let d = scratch.densities[b];
                        let new_min = min_density.min(d);
                        let new_max = max_density.max(d);
                        if new_min > 0.0 && new_max / new_min > density_spread_limit {
                            continue;
                        }
                        min_density = new_min;
                        max_density = new_max;
                    }
                    common = merged;
                    scratch.assigned[b] = true;
                    scratch.members.push(b as u32);
                }
            }

            // The level `select_level` picks, by table index: the lowest feasible level
            // (power-aware), or the first feasible level whose scaled volume density is
            // closest to the design-wide density (TSC-aware; same sums, same order).
            let level = match self.objective {
                AssignmentObjective::PowerAware => common.trailing_zeros() as usize,
                AssignmentObjective::TscAware { .. } => {
                    let members = &scratch.members;
                    let volume_area: f64 = members.iter().map(|&b| scratch.areas[b as usize]).sum();
                    let volume_power: f64 =
                        members.iter().map(|&b| scratch.powers[b as usize]).sum();
                    let gap = |i: usize| {
                        (volume_power * TABLE[i].1 / volume_area - scratch.design_density).abs()
                    };
                    (0..TABLE.len())
                        .filter(|&i| common & (1 << i) != 0)
                        .min_by(|&a, &b| {
                            gap(a)
                                .partial_cmp(&gap(b))
                                .unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .expect("non-empty")
                }
            };
            for &b in &scratch.members {
                scratch.level[b as usize] = level as u8;
            }
            volumes += 1;
        }

        volumes
    }

    /// Selects the operating voltage of one volume according to the objective.
    fn select_level(
        &self,
        design: &Design,
        members: &[BlockId],
        feasible: &[VoltageLevel],
        scaling: &VoltageScaling,
    ) -> VoltageLevel {
        match self.objective {
            // Power-aware: the lowest feasible voltage minimizes power outright.
            AssignmentObjective::PowerAware => *feasible.first().expect("non-empty"),
            // TSC-aware: pick the feasible voltage whose scaled power density is closest to
            // the design-wide average density, which flattens gradients across volumes.
            AssignmentObjective::TscAware { .. } => {
                let design_density = design.total_power() / design.total_block_area();
                let volume_area: f64 = members.iter().map(|b| design.block(*b).area()).sum();
                let volume_power: f64 = members.iter().map(|b| design.block(*b).power()).sum();
                *feasible
                    .iter()
                    .min_by(|&&a, &&b| {
                        let da = (volume_power * scaling.power_factor(a) / volume_area
                            - design_density)
                            .abs();
                        let db = (volume_power * scaling.power_factor(b) / volume_area
                            - design_density)
                            .abs();
                        da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("non-empty")
            }
        }
    }
}

fn density(design: &Design, block: usize) -> f64 {
    let b = &design.blocks()[block];
    b.power() / b.area()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc3d_geometry::Outline;
    use tsc3d_netlist::{Block, BlockShape, Net, PinRef};

    /// Four blocks in a chain; block powers chosen so that densities differ strongly.
    fn design() -> Design {
        let blocks = vec![
            Block::new("a", BlockShape::soft(1_000_000.0), 1.0),
            Block::new("b", BlockShape::soft(1_000_000.0), 1.1),
            Block::new("c", BlockShape::soft(1_000_000.0), 8.0),
            Block::new("d", BlockShape::soft(1_000_000.0), 1.05),
        ];
        let nets = vec![Net::new(
            "all",
            vec![
                PinRef::Block(BlockId(0)),
                PinRef::Block(BlockId(1)),
                PinRef::Block(BlockId(2)),
                PinRef::Block(BlockId(3)),
            ],
        )];
        Design::new(
            "chain",
            blocks,
            nets,
            vec![],
            Outline::new(2_000.0, 2_000.0),
        )
        .unwrap()
    }

    /// The flat form of per-block neighbour lists.
    fn flat(lists: &[Vec<BlockId>]) -> BlockAdjacency {
        let pairs: Vec<(u32, u32)> = lists
            .iter()
            .enumerate()
            .flat_map(|(a, list)| {
                list.iter()
                    .filter(move |b| b.index() > a)
                    .map(move |b| (a as u32, b.index() as u32))
            })
            .collect();
        let mut adjacency = BlockAdjacency::new();
        adjacency.fill_from_pairs(lists.len(), &pairs);
        adjacency
    }

    fn full_adjacency(n: usize) -> Vec<Vec<BlockId>> {
        (0..n)
            .map(|i| (0..n).filter(|&j| j != i).map(BlockId).collect())
            .collect()
    }

    #[test]
    fn feasible_sets_follow_slack() {
        let assigner = VoltageAssigner::new(AssignmentObjective::PowerAware);
        let sets = assigner.feasible_sets(&[1.0, 1.0, 1.0], &[1.0, 0.1, 0.0]);
        // Plenty of slack: all three levels.
        assert_eq!(sets[0].len(), 3);
        // 10% slack: only 1.0 V and 1.2 V.
        assert_eq!(sets[1], vec![VoltageLevel::V1_0, VoltageLevel::V1_2]);
        // No slack: 1.0 V and 1.2 V (1.0 V is always feasible with zero slack).
        assert!(sets[2].contains(&VoltageLevel::V1_0));
    }

    #[test]
    fn negative_slack_forces_highest_voltage() {
        let assigner = VoltageAssigner::new(AssignmentObjective::PowerAware);
        let sets = assigner.feasible_sets(&[1.0], &[-0.5]);
        assert_eq!(sets[0], vec![VoltageLevel::V1_2]);
    }

    #[test]
    fn power_aware_merges_into_few_volumes_at_low_voltage() {
        let d = design();
        let assigner = VoltageAssigner::new(AssignmentObjective::PowerAware);
        let n = d.blocks().len();
        // Everyone has generous slack.
        let assignment = assigner.assign(&d, &full_adjacency(n), &[1.0; 4], &[2.0; 4]);
        assert_eq!(assignment.volume_count(), 1);
        assert_eq!(assignment.level_of(BlockId(0)), VoltageLevel::V0_8);
        let scaling = VoltageScaling::paper_90nm();
        assert!(assignment.total_power(&d, &scaling) < d.total_power());
    }

    #[test]
    fn tsc_aware_separates_outlier_density_blocks() {
        let d = design();
        let assigner = VoltageAssigner::new(AssignmentObjective::tsc_default());
        let n = d.blocks().len();
        let assignment = assigner.assign(&d, &full_adjacency(n), &[1.0; 4], &[2.0; 4]);
        // Block c has ~8x the density of its neighbours and must not share their volume.
        let volume_of_c = assignment
            .volumes()
            .iter()
            .find(|v| v.blocks().contains(&BlockId(2)))
            .unwrap();
        assert_eq!(volume_of_c.len(), 1);
        assert!(assignment.volume_count() >= 2);
    }

    #[test]
    fn tsc_aware_produces_more_volumes_than_power_aware() {
        // This mirrors the paper's Table 2 trend of ~87% more voltage volumes for TSC-aware
        // floorplanning.
        let d = design();
        let n = d.blocks().len();
        let adjacency = full_adjacency(n);
        let pa = VoltageAssigner::new(AssignmentObjective::PowerAware)
            .assign(&d, &adjacency, &[1.0; 4], &[2.0; 4]);
        let tsc = VoltageAssigner::new(AssignmentObjective::tsc_default())
            .assign(&d, &adjacency, &[1.0; 4], &[2.0; 4]);
        assert!(tsc.volume_count() >= pa.volume_count());
    }

    #[test]
    fn disconnected_blocks_get_their_own_volumes() {
        let d = design();
        let assigner = VoltageAssigner::new(AssignmentObjective::PowerAware);
        let adjacency = vec![Vec::new(); 4];
        let assignment = assigner.assign(&d, &adjacency, &[1.0; 4], &[2.0; 4]);
        assert_eq!(assignment.volume_count(), 4);
    }

    #[test]
    fn timing_infeasible_neighbours_are_not_merged() {
        let d = design();
        let assigner = VoltageAssigner::new(AssignmentObjective::PowerAware);
        let n = d.blocks().len();
        // Block 2 has no slack at all and can only run at 1.2 V; block 0,1,3 have huge slack
        // but once merged with block 2 the common set would be {1.2V}∩{0.8..} — still
        // non-empty ({1.0,1.2}∩...), so craft slacks so feasible sets are disjoint:
        // blocks 0,1,3 feasible = {0.8,1.0,1.2}; block 2 nominal delay so large that only
        // 1.2 V meets it (negative slack).
        let slacks = [2.0, 2.0, -0.5, 2.0];
        let assignment = assigner.assign(&d, &full_adjacency(n), &[1.0; 4], &slacks);
        // Block 2 runs at 1.2 V; the others at 0.8 V in a merged volume.
        assert_eq!(assignment.level_of(BlockId(2)), VoltageLevel::V1_2);
        assert_eq!(assignment.level_of(BlockId(0)), VoltageLevel::V0_8);
    }

    #[test]
    fn assign_with_matches_assign_exactly() {
        let d = design();
        let n = d.blocks().len();
        let adjacency = full_adjacency(n);
        // Adjacency is symmetric: blocks 0-1 and 2-3 abut.
        let sparse: Vec<Vec<BlockId>> = (0..n).map(|i| vec![BlockId(i ^ 1)]).collect();
        let scaling = VoltageScaling::paper_90nm();
        let nominal = [1.0, 0.7, 1.3, 0.9];
        for objective in [
            AssignmentObjective::PowerAware,
            AssignmentObjective::tsc_default(),
        ] {
            let assigner = VoltageAssigner::new(objective);
            let mut scratch = AssignScratch::new();
            let (mut delays, mut powers) = (Vec::new(), Vec::new());
            for adj in [&adjacency, &sparse] {
                let flat = flat(adj);
                for slacks in [[2.0; 4], [0.1; 4], [2.0, 0.0, -0.5, 0.05]] {
                    let reference = assigner.assign(&d, adj, &nominal, &slacks);
                    let volumes = assigner.assign_with(&d, &flat, &nominal, &slacks, &mut scratch);
                    assert_eq!(volumes, reference.volume_count());
                    for b in 0..n {
                        let level = TABLE[scratch.level[b] as usize].0;
                        assert_eq!(level, reference.level_of(BlockId(b)));
                    }
                    scratch.scaled_delays_into(&nominal, &mut delays);
                    assert_eq!(delays, reference.scaled_delays(&nominal, &scaling));
                    scratch.scaled_powers_into(&mut powers);
                    assert_eq!(powers, reference.scaled_powers(&d, &scaling));
                }
            }
        }
    }

    #[test]
    fn fill_from_pairs_builds_ascending_symmetric_lists() {
        let pairs = [(3, 0), (1, 2), (0, 1), (4, 2), (2, 0)];
        let mut adjacency = BlockAdjacency::new();
        adjacency.fill_from_pairs(5, &pairs);
        let expected: Vec<Vec<u32>> =
            vec![vec![1, 2, 3], vec![0, 2], vec![0, 1, 4], vec![0], vec![2]];
        for (b, list) in expected.iter().enumerate() {
            assert_eq!(adjacency.neighbors(b), &list[..]);
        }
        // Refilling reuses the buffers and drops the old lists.
        adjacency.fill_from_pairs(3, &[(2, 1)]);
        assert_eq!(adjacency.blocks(), 3);
        assert_eq!(adjacency.neighbors(0), &[] as &[u32]);
        assert_eq!(adjacency.neighbors(1), &[2]);
        assert_eq!(adjacency.neighbors(2), &[1]);
    }

    #[test]
    #[should_panic(expected = "adjacency")]
    fn wrong_adjacency_length_panics() {
        let d = design();
        let assigner = VoltageAssigner::new(AssignmentObjective::PowerAware);
        let _ = assigner.assign(&d, &[], &[1.0; 4], &[1.0; 4]);
    }
}
