//! Signal-TSV planning and the combined signal/dummy TSV plan.

use tsc3d_geometry::{Grid, Point};
use tsc3d_netlist::Design;
use tsc3d_thermal::{TsvField, TsvSite};

use crate::Floorplan;

/// The TSVs of a floorplan: per inter-die interface, the signal TSVs required by nets that
/// cross dies plus any dummy thermal TSVs inserted by post-processing.
#[derive(Debug, Clone, PartialEq)]
pub struct TsvPlan {
    signal: Vec<TsvField>,
    dummy: Vec<TsvField>,
    signal_count: usize,
    dummy_count: usize,
}

impl TsvPlan {
    /// Creates a plan with the given signal-TSV fields and no dummy TSVs yet.
    pub fn new(signal: Vec<TsvField>) -> Self {
        let grid = signal
            .first()
            .map(|f| f.density().grid())
            .unwrap_or_else(|| Grid::square(tsc3d_geometry::Rect::from_size(1.0, 1.0), 1));
        let signal_count = signal.iter().map(|f| f.tsv_count()).sum();
        let interfaces = signal.len();
        Self {
            signal,
            dummy: (0..interfaces).map(|_| TsvField::empty(grid)).collect(),
            signal_count,
            dummy_count: 0,
        }
    }

    /// The signal-TSV fields, one per inter-die interface.
    pub fn signal(&self) -> &[TsvField] {
        &self.signal
    }

    /// The dummy-TSV fields, one per inter-die interface.
    pub fn dummy(&self) -> &[TsvField] {
        &self.dummy
    }

    /// Total number of signal TSVs.
    pub fn signal_count(&self) -> usize {
        self.signal_count
    }

    /// Total number of dummy thermal TSVs.
    pub fn dummy_count(&self) -> usize {
        self.dummy_count
    }

    /// Adds a dummy thermal TSV island on the given interface.
    ///
    /// # Panics
    ///
    /// Panics if the interface index is out of range.
    pub fn add_dummy(&mut self, interface: usize, site: TsvSite) {
        assert!(interface < self.dummy.len(), "interface out of range");
        self.dummy_count += site.count;
        self.dummy[interface].add_site(site);
    }

    /// The combined (signal + dummy) TSV field per interface, as consumed by the thermal
    /// solvers.
    pub fn combined(&self) -> Vec<TsvField> {
        self.signal
            .iter()
            .zip(&self.dummy)
            .map(|(s, d)| s.merged(d))
            .collect()
    }
}

/// Derives the signal-TSV plan of a floorplan.
///
/// Every net whose pins span multiple dies needs one signal TSV per crossed interface. The
/// TSV is placed at the centre of the net's bounding box (clamped into the die outline),
/// which is where a router would naturally drop the vertical connection.
pub fn plan_signal_tsvs(design: &Design, floorplan: &Floorplan, grid: Grid) -> TsvPlan {
    let interfaces = floorplan.stack().dies().saturating_sub(1);
    let mut fields: Vec<TsvField> = (0..interfaces).map(|_| TsvField::empty(grid)).collect();
    plan_signal_tsvs_into(design, floorplan, &mut fields);
    TsvPlan::new(fields)
}

/// Re-derives the signal-TSV fields of a floorplan into existing per-interface fields,
/// clearing them first — the allocation-free variant of [`plan_signal_tsvs`] used inside
/// the annealing loop (the fields keep their site/density storage across re-plans).
///
/// Produces exactly the fields `plan_signal_tsvs` would build on the same grid.
///
/// # Panics
///
/// Panics if `fields` does not hold one field per inter-die interface of the floorplan's
/// stack.
pub fn plan_signal_tsvs_into(design: &Design, floorplan: &Floorplan, fields: &mut [TsvField]) {
    let interfaces = floorplan.stack().dies().saturating_sub(1);
    assert_eq!(
        fields.len(),
        interfaces,
        "one TSV field per inter-die interface required"
    );
    for field in fields.iter_mut() {
        field.clear();
    }
    if interfaces == 0 {
        return;
    }

    let outline = floorplan.outline().rect();
    for (net_id, net) in design.iter_nets() {
        let mut min_die = usize::MAX;
        let mut max_die = 0usize;
        for b in net.blocks() {
            let die = floorplan.placement(b).die.index();
            min_die = min_die.min(die);
            max_die = max_die.max(die);
        }
        if min_die == usize::MAX {
            // No block pins on this net.
            continue;
        }
        if max_die == min_die {
            continue;
        }
        // Place the TSV stack at the clamped bounding-box centre of the net.
        let topo_center = {
            let mut min_x = f64::INFINITY;
            let mut max_x = f64::NEG_INFINITY;
            let mut min_y = f64::INFINITY;
            let mut max_y = f64::NEG_INFINITY;
            for b in net.blocks() {
                let c = floorplan.pin_of(b);
                min_x = min_x.min(c.x);
                max_x = max_x.max(c.x);
                min_y = min_y.min(c.y);
                max_y = max_y.max(c.y);
            }
            Point::new(
                ((min_x + max_x) / 2.0).clamp(outline.x, outline.x + outline.width),
                ((min_y + max_y) / 2.0).clamp(outline.y, outline.y + outline.height),
            )
        };
        let _ = net_id;
        for field in fields.iter_mut().take(max_die).skip(min_die) {
            field.add_site(TsvSite::single(topo_center));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlacedBlock;
    use tsc3d_geometry::{DieId, Outline, Rect, Stack};
    use tsc3d_netlist::{Block, BlockId, BlockShape, Net, PinRef};

    fn design_and_floorplan() -> (Design, Floorplan) {
        let blocks = vec![
            Block::new("a", BlockShape::hard(20.0, 20.0), 1.0),
            Block::new("b", BlockShape::hard(20.0, 20.0), 1.0),
            Block::new("c", BlockShape::hard(20.0, 20.0), 1.0),
        ];
        let nets = vec![
            // Same-die net: no TSV.
            Net::new(
                "ab",
                vec![PinRef::Block(BlockId(0)), PinRef::Block(BlockId(1))],
            ),
            // Cross-die net: one TSV.
            Net::new(
                "ac",
                vec![PinRef::Block(BlockId(0)), PinRef::Block(BlockId(2))],
            ),
            // Cross-die 3-pin net: still one TSV for a two-die stack.
            Net::new(
                "abc",
                vec![
                    PinRef::Block(BlockId(0)),
                    PinRef::Block(BlockId(1)),
                    PinRef::Block(BlockId(2)),
                ],
            ),
        ];
        let design = Design::new("t", blocks, nets, vec![], Outline::new(100.0, 100.0)).unwrap();
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
                    rect: Rect::new(40.0, 40.0, 20.0, 20.0),
                },
                PlacedBlock {
                    block: BlockId(2),
                    die: DieId(1),
                    rect: Rect::new(60.0, 60.0, 20.0, 20.0),
                },
            ],
        );
        (design, fp)
    }

    #[test]
    fn signal_tsvs_follow_cross_die_nets() {
        let (d, fp) = design_and_floorplan();
        let grid = fp.analysis_grid(10);
        let plan = plan_signal_tsvs(&d, &fp, grid);
        assert_eq!(plan.signal().len(), 1);
        assert_eq!(plan.signal_count(), 2);
        assert_eq!(plan.dummy_count(), 0);
        assert!(plan.signal()[0].mean_density() > 0.0);
    }

    #[test]
    fn dummy_tsvs_accumulate_in_combined_field() {
        let (d, fp) = design_and_floorplan();
        let grid = fp.analysis_grid(10);
        let mut plan = plan_signal_tsvs(&d, &fp, grid);
        let before = plan.combined()[0].mean_density();
        plan.add_dummy(0, TsvSite::island(Point::new(10.0, 10.0), 20));
        assert_eq!(plan.dummy_count(), 20);
        assert_eq!(plan.signal_count(), 2);
        let after = plan.combined()[0].mean_density();
        assert!(after > before);
    }

    #[test]
    fn single_die_stack_has_no_interfaces() {
        let blocks = vec![Block::new("a", BlockShape::hard(10.0, 10.0), 1.0)];
        let d = Design::new("s", blocks, vec![], vec![], Outline::new(50.0, 50.0)).unwrap();
        let stack = Stack::new(1, Outline::new(50.0, 50.0));
        let fp = Floorplan::new(
            stack,
            vec![PlacedBlock {
                block: BlockId(0),
                die: DieId(0),
                rect: Rect::new(0.0, 0.0, 10.0, 10.0),
            }],
        );
        let plan = plan_signal_tsvs(&d, &fp, fp.analysis_grid(4));
        assert_eq!(plan.signal().len(), 0);
        assert_eq!(plan.signal_count(), 0);
        assert!(plan.combined().is_empty());
    }

    #[test]
    #[should_panic(expected = "interface out of range")]
    fn invalid_interface_panics() {
        let (d, fp) = design_and_floorplan();
        let mut plan = plan_signal_tsvs(&d, &fp, fp.analysis_grid(4));
        plan.add_dummy(5, TsvSite::single(Point::new(1.0, 1.0)));
    }
}
