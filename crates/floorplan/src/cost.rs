//! Multi-objective cost evaluation of 3D floorplans.
//!
//! The evaluator mirrors one iteration of the paper's flow (Figure 3): layout generation has
//! already happened (the packed [`Floorplan`]), then signal TSVs are planned, timing paths
//! are evaluated, the leakage-aware voltage assignment is performed, the fast thermal
//! analysis is run, and finally the leakage metrics (Pearson correlation and spatial
//! entropy) are computed alongside the classical design criteria.
//!
//! # Evaluation tiers
//!
//! The evaluation splits into two tiers, exposed separately so the annealer (and the
//! benchmarks) can account for them individually:
//!
//! * the **geometric tier** ([`Evaluator::evaluate_geometry`]): packing envelope, outline
//!   violation and wirelength, plus every net's Elmore delay and signal-TSV site. All nets
//!   are re-derived on every call from flat per-net pin rows fixed at construction.
//! * the **analysis tier** ([`Evaluator::evaluate_analysis`]): timing analysis, voltage
//!   assignment, power-map rasterization, signal-TSV planning, fast thermal estimation and
//!   the leakage metrics, all writing into reusable [`EvalScratch`] buffers instead of
//!   fresh allocations.
//!
//! [`Evaluator::evaluate_with`] chains both tiers; it produces [`CostBreakdown`]s
//! bit-identical to the retained from-scratch reference path ([`Evaluator::evaluate`] /
//! [`Evaluator::evaluate_full`]) while allocating almost nothing per call.
//!
//! # Data layout
//!
//! The tiered path keeps its data in flat arrays — structures of arrays and compressed
//! sparse rows — so that each kernel is a short loop without data-dependent branches,
//! which the compiler vectorizes where the access pattern allows:
//!
//! * nets: the block pins of every net as CSR rows over the block centres, plus each net's
//!   terminal bounding box, fixed at construction;
//! * timing: CSR out-edges with every edge's net delay gathered once per evaluation for
//!   the nominal forward, backward and voltage-scaled forward passes
//!   ([`TimingGraph::load_net_delays`]);
//! * adjacency: a sweep over the expanded footprints sorted by left edge
//!   ([`Floorplan::adjacency_into`]) into CSR neighbour lists;
//! * voltage assignment: every block's level and the volume count, left in the
//!   [`AssignScratch`];
//! * blur: lanes across the columns of reflect-padded rows;
//! * entropy: a sort of plain integers (value key and bin index packed into one `u64`),
//!   the two halves of every nested-means cut summed side by side, and branch-free integer
//!   histogram sums.
//!
//! Every value stays bit-identical to the reference: each output keeps its operands and
//! its accumulation order (a lane loop sums each output in the scalar order), and only
//! `min`/`max` folds, which are order-insensitive, are regrouped.

use serde::{Deserialize, Serialize};
use tsc3d_geometry::{Grid, GridMap, GridPos, Point, Stack};
use tsc3d_leakage::{map_correlation, EntropyScratch, SpatialEntropy};
use tsc3d_netlist::{Design, PinRef};
use tsc3d_power::{
    AssignScratch, AssignmentObjective, BlockAdjacency, VoltageAssigner, VoltageAssignment,
};
use tsc3d_thermal::{
    fast::{BlurScratch, PowerBlurring},
    ThermalConfig, TsvField, TsvSite,
};
use tsc3d_timing::{ElmoreModel, ModuleDelayModel, NetTopology, TimingGraph, TimingScratch};

use crate::{plan_signal_tsvs, AdjacencySweep, Floorplan, TsvPlan};

/// Weights of the multi-objective cost.
///
/// "For (i) [power-aware floorplanning], we optimize the packing density, wirelength,
/// critical delay, peak temperature, and voltage assignment, all at the same time; all
/// criteria are weighted equally. [...] For (ii) [TSC-aware], we consider the same criteria
/// \[and\] additionally seek to minimize both the average correlation coefficients and the
/// average spatial entropies."
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveWeights {
    /// Weight of the packing / fixed-outline term.
    pub packing: f64,
    /// Weight of the total wirelength term.
    pub wirelength: f64,
    /// Weight of the critical-delay term.
    pub delay: f64,
    /// Weight of the peak-temperature term.
    pub temperature: f64,
    /// Weight of the total-power term.
    pub power: f64,
    /// Weight of the voltage-volume-count term.
    pub volumes: f64,
    /// Weight of the average power–temperature correlation term (TSC-aware only).
    pub correlation: f64,
    /// Weight of the average spatial-entropy term (TSC-aware only).
    pub entropy: f64,
}

impl ObjectiveWeights {
    /// The power-aware setup (i): equal weights on the classical criteria, no leakage terms.
    pub fn power_aware() -> Self {
        Self {
            packing: 1.0,
            wirelength: 1.0,
            delay: 1.0,
            temperature: 1.0,
            power: 1.0,
            volumes: 1.0,
            correlation: 0.0,
            entropy: 0.0,
        }
    }

    /// The TSC-aware setup (ii): the same classical criteria plus the leakage terms.
    pub fn tsc_aware() -> Self {
        Self {
            correlation: 1.0,
            entropy: 1.0,
            ..Self::power_aware()
        }
    }

    /// Returns `true` when any leakage term carries weight.
    pub fn is_leakage_aware(&self) -> bool {
        self.correlation > 0.0 || self.entropy > 0.0
    }

    /// Scalarizes a cost breakdown, normalizing each term by the corresponding baseline
    /// term (typically the initial solution's breakdown). Fixed-outline violations are
    /// additionally penalized so the annealer is driven back inside the outline.
    pub fn scalar(&self, current: &CostBreakdown, baseline: &CostBreakdown) -> f64 {
        let norm = |value: f64, base: f64| {
            if base.abs() < 1e-12 {
                value
            } else {
                value / base
            }
        };
        let mut cost = self.packing * current.packing
            + self.wirelength * norm(current.wirelength, baseline.wirelength)
            + self.delay * norm(current.critical_delay, baseline.critical_delay)
            + self.temperature
                * norm(
                    current.peak_temperature_rise(),
                    baseline.peak_temperature_rise(),
                )
            + self.power * norm(current.total_power, baseline.total_power)
            + self.volumes
                * norm(
                    current.voltage_volumes as f64,
                    baseline.voltage_volumes as f64,
                );
        if self.correlation > 0.0 {
            cost += self.correlation * current.avg_correlation().abs();
        }
        if self.entropy > 0.0 {
            cost += self.entropy * norm(current.avg_entropy(), baseline.avg_entropy());
        }
        // Fixed-outline floorplanning: any packing envelope exceeding the outline is
        // penalized quadratically on top of the regular packing term.
        if current.packing > 1.0 {
            cost += 10.0 * (current.packing - 1.0).powi(2) + 2.0 * (current.packing - 1.0);
        }
        cost
    }
}

/// All evaluated criteria of one floorplan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Largest per-die packing-envelope stretch: `max(bbox_w/outline_w, bbox_h/outline_h)`
    /// over all dies. Values above 1 violate the fixed outline.
    pub packing: f64,
    /// Block area outside the fixed outline in µm² (0 for legal floorplans).
    pub outline_violation: f64,
    /// Total half-perimeter wirelength in µm (including TSV detours).
    pub wirelength: f64,
    /// Critical delay in ns, with voltage-scaled module delays.
    pub critical_delay: f64,
    /// Peak temperature (fast estimate) in K.
    pub peak_temperature: f64,
    /// Ambient temperature used by the fast estimate in K.
    pub ambient: f64,
    /// Total voltage-scaled power in W.
    pub total_power: f64,
    /// Number of voltage volumes.
    pub voltage_volumes: usize,
    /// Number of signal TSVs.
    pub signal_tsvs: usize,
    /// Power–temperature correlation per die (bottom first).
    pub correlations: Vec<f64>,
    /// Spatial entropy of the power map per die (bottom first).
    pub entropies: Vec<f64>,
}

impl CostBreakdown {
    /// Average correlation over all dies.
    pub fn avg_correlation(&self) -> f64 {
        if self.correlations.is_empty() {
            0.0
        } else {
            self.correlations.iter().sum::<f64>() / self.correlations.len() as f64
        }
    }

    /// Average spatial entropy over all dies.
    pub fn avg_entropy(&self) -> f64 {
        if self.entropies.is_empty() {
            0.0
        } else {
            self.entropies.iter().sum::<f64>() / self.entropies.len() as f64
        }
    }

    /// Peak temperature rise above ambient in K.
    pub fn peak_temperature_rise(&self) -> f64 {
        (self.peak_temperature - self.ambient).max(0.0)
    }
}

/// Result of the cheap geometric evaluation tier ([`Evaluator::evaluate_geometry`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeometricCost {
    /// Largest per-die packing-envelope stretch (see [`CostBreakdown::packing`]).
    pub packing: f64,
    /// Block area outside the fixed outline in µm².
    pub outline_violation: f64,
    /// Total half-perimeter wirelength in µm (including TSV detours).
    pub wirelength: f64,
}

/// The placement-independent part of one net's topology: its pin count and the bounding
/// box of its terminal pins (empty — `+∞` minima, `-∞` maxima — for nets without
/// terminals).
#[derive(Debug, Clone, Copy)]
struct NetFixed {
    pins: usize,
    has_terminals: bool,
    min_x: f64,
    max_x: f64,
    min_y: f64,
    max_y: f64,
}

/// One signal-TSV site of the current evaluation: a net whose block pins span dies
/// `min_die..=max_die` drops one TSV per interface in between, at the clamped centre of
/// its block pins (in analysis-grid bin `bin`).
#[derive(Debug, Clone, Copy)]
struct TsvNetSite {
    min_die: usize,
    max_die: usize,
    center: Point,
    bin: GridPos,
}

/// Reusable buffers for the tiered evaluation ([`Evaluator::evaluate_with`]).
///
/// Every buffer is overwritten by each evaluation, so one scratch serves any sequence of
/// floorplans. Create one via [`Evaluator::scratch`] (after the builder methods, so the
/// analysis grid matches) and keep it for the whole optimization run.
#[derive(Debug, Clone)]
pub struct EvalScratch {
    /// Analysis grid the buffers are sized for.
    grid: Grid,
    /// Block centres and dies of the current floorplan.
    center_x: Vec<f64>,
    center_y: Vec<f64>,
    die: Vec<u32>,
    /// Per-net Elmore delay of the current floorplan.
    net_delays: Vec<f64>,
    /// Signal-TSV sites of the current floorplan, in net order.
    tsv_sites: Vec<TsvNetSite>,
    timing: TimingScratch,
    slacks: Vec<f64>,
    scaled_delays: Vec<f64>,
    scaled_powers: Vec<f64>,
    sweep: AdjacencySweep,
    adjacency: BlockAdjacency,
    assign: AssignScratch,
    entropy: EntropyScratch,
    power_maps: Vec<GridMap>,
    signal_tsvs: Vec<TsvField>,
    blur: BlurScratch,
    thermal_maps: Vec<GridMap>,
}

impl EvalScratch {
    fn new(grid: Grid, nets: usize, interfaces: usize) -> Self {
        Self {
            grid,
            center_x: Vec::new(),
            center_y: Vec::new(),
            die: Vec::new(),
            net_delays: Vec::with_capacity(nets),
            tsv_sites: Vec::new(),
            timing: TimingScratch::new(),
            slacks: Vec::new(),
            scaled_delays: Vec::new(),
            scaled_powers: Vec::new(),
            sweep: AdjacencySweep::new(),
            adjacency: BlockAdjacency::new(),
            assign: AssignScratch::new(),
            entropy: EntropyScratch::new(),
            power_maps: Vec::new(),
            signal_tsvs: (0..interfaces).map(|_| TsvField::empty(grid)).collect(),
            blur: BlurScratch::new(),
            thermal_maps: Vec::new(),
        }
    }
}

/// Evaluates floorplans under the multi-objective cost.
///
/// The evaluator borrows the design and owns everything else that stays constant across
/// annealing iterations (the timing graph, the delay/thermal/entropy models, the voltage
/// assigner), so each evaluation call only performs the per-layout work. Two evaluation
/// paths are offered:
///
/// * [`Evaluator::evaluate_with`] — the tiered, scratch-buffer path used by the annealing
///   hot loop (see the crate's `cost`-module docs above for the tier split), and
/// * [`Evaluator::evaluate`] / [`Evaluator::evaluate_full`] — the from-scratch reference
///   path, which additionally returns the voltage-assignment and TSV-plan artefacts that
///   downstream flow stages consume.
///
/// Both produce bit-identical [`CostBreakdown`]s for the same floorplan.
#[derive(Debug, Clone)]
pub struct Evaluator<'d> {
    design: &'d Design,
    stack: Stack,
    weights: ObjectiveWeights,
    grid_bins: usize,
    tsv_length: f64,
    adjacency_margin: f64,
    elmore: ElmoreModel,
    module_model: ModuleDelayModel,
    timing_graph: TimingGraph,
    nominal_delays: Vec<f64>,
    assigner: VoltageAssigner,
    blurring: PowerBlurring,
    entropy_model: SpatialEntropy,
    ambient: f64,
    /// Block pins of every net as compressed sparse rows: net `n`'s block pins are
    /// `net_blocks[net_start[n]..net_start[n + 1]]`, in pin order.
    net_start: Vec<u32>,
    net_blocks: Vec<u32>,
    /// The placement-independent part of every net.
    net_fixed: Vec<NetFixed>,
}

impl<'d> Evaluator<'d> {
    /// Creates an evaluator for a design on the given stack.
    ///
    /// The evaluator borrows the design for its lifetime (batch drivers that used to pay a
    /// full netlist clone per job now share one `Design` across workers); wrap the design
    /// in an `Arc` on the caller side if an owning handle is needed.
    ///
    /// The voltage-assignment objective follows the weights: leakage-aware weights use the
    /// TSC-aware assignment (power-uniformity-driven), otherwise the power-aware assignment.
    pub fn new(design: &'d Design, stack: Stack, weights: ObjectiveWeights) -> Self {
        let module_model = ModuleDelayModel::default_90nm();
        let timing_graph = TimingGraph::new(design);
        let nominal_delays = TimingGraph::nominal_module_delays(design, &module_model);
        let assignment_objective = if weights.is_leakage_aware() {
            AssignmentObjective::tsc_default()
        } else {
            AssignmentObjective::PowerAware
        };
        let thermal_config = ThermalConfig::default_for(stack);
        let mut net_start = vec![0u32];
        let mut net_blocks = Vec::new();
        let mut net_fixed = Vec::with_capacity(design.nets().len());
        for net in design.nets() {
            let mut fixed = NetFixed {
                pins: net.degree(),
                has_terminals: false,
                min_x: f64::INFINITY,
                max_x: f64::NEG_INFINITY,
                min_y: f64::INFINITY,
                max_y: f64::NEG_INFINITY,
            };
            for pin in net.pins() {
                match *pin {
                    PinRef::Block(b) => net_blocks.push(b.index() as u32),
                    PinRef::Terminal(t) => {
                        let p = design.terminal(t).position();
                        fixed.has_terminals = true;
                        fixed.min_x = fixed.min_x.min(p.x);
                        fixed.max_x = fixed.max_x.max(p.x);
                        fixed.min_y = fixed.min_y.min(p.y);
                        fixed.max_y = fixed.max_y.max(p.y);
                    }
                }
            }
            net_start.push(net_blocks.len() as u32);
            net_fixed.push(fixed);
        }
        Self {
            design,
            stack,
            weights,
            grid_bins: 32,
            tsv_length: 50.0,
            adjacency_margin: stack.outline().width() * 0.02,
            elmore: ElmoreModel::default_90nm(),
            module_model,
            timing_graph,
            nominal_delays,
            assigner: VoltageAssigner::new(assignment_objective),
            blurring: PowerBlurring::new(&thermal_config),
            entropy_model: SpatialEntropy::default(),
            ambient: thermal_config.ambient,
            net_start,
            net_blocks,
            net_fixed,
        }
    }

    /// Sets the analysis-grid resolution (bins per axis) used for power/thermal maps.
    pub fn with_grid_bins(mut self, bins: usize) -> Self {
        self.grid_bins = bins.max(4);
        self
    }

    /// The design being evaluated.
    pub fn design(&self) -> &'d Design {
        self.design
    }

    /// The stack being targeted.
    pub fn stack(&self) -> Stack {
        self.stack
    }

    /// The objective weights.
    pub fn weights(&self) -> ObjectiveWeights {
        self.weights
    }

    /// The nominal (1.0 V) module delays in ns.
    pub fn nominal_delays(&self) -> &[f64] {
        &self.nominal_delays
    }

    /// The module-delay model in use.
    pub fn module_model(&self) -> &ModuleDelayModel {
        &self.module_model
    }

    /// The analysis grid used for power/thermal maps (matches
    /// [`Floorplan::analysis_grid`] at the configured resolution).
    pub fn analysis_grid(&self) -> Grid {
        Grid::square(self.stack.outline().rect(), self.grid_bins)
    }

    /// Creates a reusable [`EvalScratch`] sized for this evaluator's design and grid.
    ///
    /// Call after the builder methods ([`Evaluator::with_grid_bins`]) so the buffers match
    /// the final configuration.
    pub fn scratch(&self) -> EvalScratch {
        EvalScratch::new(
            self.analysis_grid(),
            self.design.nets().len(),
            self.stack.dies().saturating_sub(1),
        )
    }

    /// Evaluates a floorplan, returning the full breakdown plus the artefacts downstream
    /// stages need (the voltage assignment and the TSV plan).
    ///
    /// This is the retained from-scratch reference path: every quantity is derived directly
    /// from the floorplan with freshly allocated intermediates. The tiered
    /// [`Evaluator::evaluate_with`] path produces bit-identical breakdowns.
    pub fn evaluate_full(
        &self,
        floorplan: &Floorplan,
    ) -> (CostBreakdown, VoltageAssignment, TsvPlan) {
        let grid = floorplan.analysis_grid(self.grid_bins);
        let outline = floorplan.outline();

        // Packing / fixed outline.
        let mut packing: f64 = 0.0;
        for die in self.stack.die_ids() {
            if let Some(bbox) = floorplan.packing_bbox(die) {
                let stretch = (bbox.upper_right().x / outline.width())
                    .max(bbox.upper_right().y / outline.height());
                packing = packing.max(stretch);
            }
        }
        let outline_violation = floorplan.outline_violation_area();

        // Wirelength and net topologies (timing).
        let topologies = floorplan.net_topologies(self.design, self.tsv_length);
        let wirelength = floorplan.total_wirelength(self.design, self.tsv_length);
        let net_delays = TimingGraph::net_delays(&self.elmore, &topologies);

        // Nominal-timing slacks drive the voltage assignment.
        let nominal_report = self.timing_graph.analyze(&self.nominal_delays, &net_delays);
        let slacks = nominal_report.slacks();
        let adjacency = floorplan.adjacency(self.adjacency_margin);
        let assignment =
            self.assigner
                .assign(self.design, &adjacency, &self.nominal_delays, &slacks);

        // Voltage-scaled timing and power.
        let scaled_delays = assignment.scaled_delays(&self.nominal_delays, self.assigner.scaling());
        let critical_delay = self
            .timing_graph
            .analyze(&scaled_delays, &net_delays)
            .critical_delay();
        let scaled_powers = assignment.scaled_powers(self.design, self.assigner.scaling());
        let total_power: f64 = scaled_powers.iter().sum();

        // Power maps, TSV plan, fast thermal maps.
        let power_maps = floorplan.power_maps(grid, &scaled_powers);
        let tsv_plan = plan_signal_tsvs(self.design, floorplan, grid);
        let thermal_maps = self.blurring.estimate(&power_maps, &tsv_plan.combined());
        let peak_temperature = PowerBlurring::peak(&thermal_maps);

        // Leakage metrics per die.
        let correlations: Vec<f64> = power_maps
            .iter()
            .zip(&thermal_maps)
            .map(|(p, t)| map_correlation(p, t).unwrap_or(0.0))
            .collect();
        let entropies: Vec<f64> = power_maps
            .iter()
            .map(|p| self.entropy_model.of_map(p))
            .collect();

        let breakdown = CostBreakdown {
            packing,
            outline_violation,
            wirelength,
            critical_delay,
            peak_temperature,
            ambient: self.ambient,
            total_power,
            voltage_volumes: assignment.volume_count(),
            signal_tsvs: tsv_plan.signal_count(),
            correlations,
            entropies,
        };
        (breakdown, assignment, tsv_plan)
    }

    /// Evaluates a floorplan, returning only the cost breakdown (from-scratch reference
    /// path; see [`Evaluator::evaluate_with`] for the hot-loop variant).
    pub fn evaluate(&self, floorplan: &Floorplan) -> CostBreakdown {
        self.evaluate_full(floorplan).0
    }

    /// The cheap geometric evaluation tier: packing envelope, outline violation and
    /// wirelength, leaving every net's Elmore delay and signal-TSV site in the scratch for
    /// the analysis tier.
    ///
    /// Each net is derived from its CSR row of block pins over the block centres plus its
    /// terminal box, in one branch-free min/max fold per coordinate — the arithmetic of
    /// [`Floorplan::net_topology`] (bounding box over *all* pins, terminals on die 0) and
    /// of [`plan_signal_tsvs`] (bounding box and die span over the *block* pins, centre
    /// clamped into the outline); min/max folds are order-insensitive, so the split
    /// between block pins and the terminal box changes no value.
    pub fn evaluate_geometry(
        &self,
        floorplan: &Floorplan,
        scratch: &mut EvalScratch,
    ) -> GeometricCost {
        tsc3d_obs::add_to_span("tier_geometric", 1);
        let placements = floorplan.placements();
        assert_eq!(
            placements.len(),
            self.design.blocks().len(),
            "floorplan must place every design block"
        );
        let outline = floorplan.outline();

        // Packing / fixed outline (identical traversal to the reference path).
        let mut packing: f64 = 0.0;
        for die in self.stack.die_ids() {
            if let Some(bbox) = floorplan.packing_bbox(die) {
                let stretch = (bbox.upper_right().x / outline.width())
                    .max(bbox.upper_right().y / outline.height());
                packing = packing.max(stretch);
            }
        }
        let outline_violation = floorplan.outline_violation_area();

        let EvalScratch {
            grid,
            center_x,
            center_y,
            die,
            net_delays,
            tsv_sites,
            ..
        } = scratch;
        center_x.clear();
        center_y.clear();
        die.clear();
        for p in placements {
            let c = p.rect.center();
            center_x.push(c.x);
            center_y.push(c.y);
            die.push(p.die.index() as u32);
        }

        net_delays.clear();
        tsv_sites.clear();
        let rect = outline.rect();
        // Same per-net terms (`Floorplan::net_hpwl`) and summation order, from the same
        // start, as `Floorplan::total_wirelength`'s `Iterator::sum`.
        let mut wirelength = -0.0;
        for (n, fixed) in self.net_fixed.iter().enumerate() {
            let pins = &self.net_blocks[self.net_start[n] as usize..self.net_start[n + 1] as usize];
            let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
            let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
            let (mut min_die, mut max_die) = (u32::MAX, 0u32);
            for &b in pins {
                let b = b as usize;
                min_x = lesser(min_x, center_x[b]);
                max_x = greater(max_x, center_x[b]);
                min_y = lesser(min_y, center_y[b]);
                max_y = greater(max_y, center_y[b]);
                min_die = min_die.min(die[b]);
                max_die = max_die.max(die[b]);
            }

            // Topology over all pins: terminals widen the box and sit on die 0.
            let hpwl = (greater(max_x, fixed.max_x) - lesser(min_x, fixed.min_x))
                + (greater(max_y, fixed.max_y) - lesser(min_y, fixed.min_y));
            let low_die = if fixed.has_terminals { 0 } else { min_die };
            let crossings = max_die.saturating_sub(low_die) as usize;
            let topology = NetTopology::new(hpwl, crossings, fixed.pins.saturating_sub(1));
            net_delays.push(self.elmore.net_delay(&topology));
            wirelength += hpwl + crossings as f64 * self.tsv_length;

            // Signal TSVs over the block pins alone.
            if min_die != u32::MAX && max_die > min_die {
                let center = Point::new(
                    ((min_x + max_x) / 2.0).clamp(rect.x, rect.x + rect.width),
                    ((min_y + max_y) / 2.0).clamp(rect.y, rect.y + rect.height),
                );
                if let Some(bin) = grid.bin_of(center) {
                    tsv_sites.push(TsvNetSite {
                        min_die: min_die as usize,
                        max_die: max_die as usize,
                        center,
                        bin,
                    });
                }
            }
        }

        GeometricCost {
            packing,
            outline_violation,
            wirelength,
        }
    }

    /// The expensive analysis evaluation tier: timing, voltage assignment, power maps,
    /// signal-TSV planning, fast thermal estimation and leakage metrics, all into the
    /// scratch's reusable buffers.
    ///
    /// Must be called after [`Evaluator::evaluate_geometry`] on the same floorplan (it
    /// consumes the net delays and TSV sites the geometric tier left in the scratch).
    pub fn evaluate_analysis(
        &self,
        floorplan: &Floorplan,
        geometry: &GeometricCost,
        scratch: &mut EvalScratch,
    ) -> CostBreakdown {
        tsc3d_obs::add_to_span("tier_analysis", 1);
        // Nominal-timing slacks drive the voltage assignment; both timing passes read the
        // same per-edge net delays.
        self.timing_graph
            .load_net_delays(&scratch.net_delays, &mut scratch.timing);
        self.timing_graph
            .analyze_with(&self.nominal_delays, &mut scratch.timing);
        scratch.timing.slacks_into(&mut scratch.slacks);
        floorplan.adjacency_into(
            self.adjacency_margin,
            &mut scratch.sweep,
            &mut scratch.adjacency,
        );
        let voltage_volumes = self.assigner.assign_with(
            self.design,
            &scratch.adjacency,
            &self.nominal_delays,
            &scratch.slacks,
            &mut scratch.assign,
        );

        // Voltage-scaled timing and power. Only the critical delay is needed here, so the
        // backward (required-time) pass is skipped; the forward arrival arithmetic is
        // identical.
        scratch
            .assign
            .scaled_delays_into(&self.nominal_delays, &mut scratch.scaled_delays);
        let critical_delay = self
            .timing_graph
            .analyze_forward(&scratch.scaled_delays, &mut scratch.timing);
        scratch
            .assign
            .scaled_powers_into(&mut scratch.scaled_powers);
        let total_power: f64 = scratch.scaled_powers.iter().sum();

        // Power maps, signal TSVs, fast thermal maps. The signal fields equal the
        // `TsvPlan::combined` fields of the reference path because no dummy TSVs exist
        // inside the floorplanning loop (merging an all-zero dummy field is the identity).
        // The sites land in the same net order at the same centres as a fresh
        // `plan_signal_tsvs`.
        floorplan.power_maps_into(
            scratch.grid,
            &scratch.scaled_powers,
            &mut scratch.power_maps,
        );
        for field in scratch.signal_tsvs.iter_mut() {
            field.clear();
        }
        for site in &scratch.tsv_sites {
            for field in &mut scratch.signal_tsvs[site.min_die..site.max_die] {
                field.add_site_at(TsvSite::single(site.center), site.bin);
            }
        }
        let signal_count = scratch.signal_tsvs.iter().map(TsvField::tsv_count).sum();
        self.blurring.estimate_into(
            &scratch.power_maps,
            &scratch.signal_tsvs,
            &mut scratch.blur,
            &mut scratch.thermal_maps,
        );
        let peak_temperature = PowerBlurring::peak(&scratch.thermal_maps);

        // Leakage metrics per die.
        let correlations: Vec<f64> = scratch
            .power_maps
            .iter()
            .zip(&scratch.thermal_maps)
            .map(|(p, t)| map_correlation(p, t).unwrap_or(0.0))
            .collect();
        let mut entropies = Vec::with_capacity(scratch.power_maps.len());
        for die in 0..scratch.power_maps.len() {
            entropies.push(
                self.entropy_model
                    .of_map_with(&scratch.power_maps[die], &mut scratch.entropy),
            );
        }

        CostBreakdown {
            packing: geometry.packing,
            outline_violation: geometry.outline_violation,
            wirelength: geometry.wirelength,
            critical_delay,
            peak_temperature,
            ambient: self.ambient,
            total_power,
            voltage_volumes,
            signal_tsvs: signal_count,
            correlations,
            entropies,
        }
    }

    /// Evaluates a floorplan through both tiers using the scratch's reusable buffers.
    ///
    /// Produces a [`CostBreakdown`] bit-identical to [`Evaluator::evaluate`] while
    /// performing no per-call allocations beyond the breakdown's two per-die vectors.
    pub fn evaluate_with(&self, floorplan: &Floorplan, scratch: &mut EvalScratch) -> CostBreakdown {
        let geometry = self.evaluate_geometry(floorplan, scratch);
        self.evaluate_analysis(floorplan, &geometry, scratch)
    }

    /// Scalar cost of a breakdown relative to a baseline (see [`ObjectiveWeights::scalar`]).
    pub fn scalar_cost(&self, current: &CostBreakdown, baseline: &CostBreakdown) -> f64 {
        self.weights.scalar(current, baseline)
    }
}

/// The smaller of two coordinates, by one comparison. On the finite coordinates of
/// placed blocks and terminals it equals `f64::min` (which also screens out NaN, at
/// several instructions per call in the net fold).
fn lesser(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}

/// The larger of two coordinates, by one comparison (see [`lesser`]).
fn greater(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PackScratch, SequencePair3d};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tsc3d_netlist::suite::{generate, Benchmark};

    fn setup() -> (Design, Stack, Floorplan) {
        let design = generate(Benchmark::N100, 1);
        let stack = Stack::two_die(design.outline());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let sp = SequencePair3d::initial(&design, stack, &mut rng);
        let fp = sp.pack(&design);
        (design, stack, fp)
    }

    #[test]
    fn breakdown_has_plausible_values() {
        let (design, stack, fp) = setup();
        let eval =
            Evaluator::new(&design, stack, ObjectiveWeights::power_aware()).with_grid_bins(16);
        let b = eval.evaluate(&fp);
        assert!(b.packing > 0.0);
        assert!(b.wirelength > 0.0);
        assert!(b.critical_delay > 0.0);
        assert!(b.peak_temperature > b.ambient);
        assert!(b.total_power > 0.0);
        assert!(b.voltage_volumes >= 1);
        assert_eq!(b.correlations.len(), 2);
        assert_eq!(b.entropies.len(), 2);
        assert!(b.avg_correlation().abs() <= 1.0);
        assert!(b.avg_entropy() >= 0.0);
        assert!(b.signal_tsvs > 0, "cross-die nets must demand signal TSVs");
    }

    #[test]
    fn leakage_aware_weights_select_tsc_assignment() {
        let (design, stack, _) = setup();
        let pa = Evaluator::new(&design, stack, ObjectiveWeights::power_aware());
        let tsc = Evaluator::new(&design, stack, ObjectiveWeights::tsc_aware());
        assert!(!pa.weights().is_leakage_aware());
        assert!(tsc.weights().is_leakage_aware());
    }

    #[test]
    fn scalar_cost_prefers_smaller_terms() {
        let (design, stack, fp) = setup();
        let eval =
            Evaluator::new(&design, stack, ObjectiveWeights::power_aware()).with_grid_bins(16);
        let baseline = eval.evaluate(&fp);
        let mut better = baseline.clone();
        better.wirelength *= 0.5;
        better.total_power *= 0.9;
        assert!(eval.scalar_cost(&better, &baseline) < eval.scalar_cost(&baseline, &baseline));
        let mut worse = baseline.clone();
        worse.packing = 1.5; // outline violation
        assert!(eval.scalar_cost(&worse, &baseline) > eval.scalar_cost(&baseline, &baseline));
    }

    #[test]
    fn leakage_terms_enter_the_tsc_cost_only() {
        let (design, stack, fp) = setup();
        let pa = Evaluator::new(&design, stack, ObjectiveWeights::power_aware()).with_grid_bins(16);
        let tsc = Evaluator::new(&design, stack, ObjectiveWeights::tsc_aware()).with_grid_bins(16);
        let b_pa = pa.evaluate(&fp);
        let b_tsc = tsc.evaluate(&fp);
        // Same floorplan: classical metrics are computed identically up to the voltage
        // assignment objective; the scalarization differs through the leakage terms.
        let mut decorrelated = b_tsc.clone();
        decorrelated.correlations = vec![0.0; decorrelated.correlations.len()];
        assert!(
            tsc.scalar_cost(&decorrelated, &b_tsc) < tsc.scalar_cost(&b_tsc, &b_tsc),
            "reducing correlation must reduce the TSC-aware cost"
        );
        let mut decorrelated_pa = b_pa.clone();
        decorrelated_pa.correlations = vec![0.0; decorrelated_pa.correlations.len()];
        let delta = pa.scalar_cost(&decorrelated_pa, &b_pa) - pa.scalar_cost(&b_pa, &b_pa);
        assert!(delta.abs() < 1e-12, "PA cost must ignore correlation");
    }

    #[test]
    fn evaluate_full_returns_consistent_artifacts() {
        let (design, stack, fp) = setup();
        let eval = Evaluator::new(&design, stack, ObjectiveWeights::tsc_aware()).with_grid_bins(16);
        let (breakdown, assignment, tsv_plan) = eval.evaluate_full(&fp);
        assert_eq!(breakdown.voltage_volumes, assignment.volume_count());
        assert_eq!(breakdown.signal_tsvs, tsv_plan.signal_count());
        assert_eq!(tsv_plan.dummy_count(), 0);
    }

    #[test]
    fn tiered_evaluation_matches_reference_bit_for_bit() {
        // The scratch path (CSR nets, sweep adjacency, lane kernels, reused maps) must
        // reproduce the reference breakdown *exactly*, across both objectives, the loop
        // grids in use (serve 10, flow 16, standard schedule 32) and move sequences on
        // soft-block designs and on ibm01 (hard blocks and terminals).
        for (bench, moves) in [
            (Benchmark::N100, 40),
            (Benchmark::N200, 20),
            (Benchmark::Ibm01, 8),
        ] {
            let design = generate(bench, 1);
            let stack = Stack::two_die(design.outline());
            for bins in [10, 16, 32] {
                for weights in [
                    ObjectiveWeights::power_aware(),
                    ObjectiveWeights::tsc_aware(),
                ] {
                    let eval = Evaluator::new(&design, stack, weights).with_grid_bins(bins);
                    let mut scratch = eval.scratch();
                    let mut pack_scratch = PackScratch::new();
                    let mut rng = ChaCha8Rng::seed_from_u64(17);
                    let mut sp = SequencePair3d::initial(&design, stack, &mut rng);
                    let mut fp = sp.pack(&design);
                    for step in 0..moves {
                        sp.perturb(&design, &mut rng);
                        sp.pack_with(&design, &mut pack_scratch, &mut fp);
                        let tiered = eval.evaluate_with(&fp, &mut scratch);
                        let reference = eval.evaluate(&fp);
                        assert_eq!(
                            tiered,
                            reference,
                            "{} on {bins} bins diverged after {step} moves",
                            bench.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_survives_unrelated_floorplans() {
        // Jumping to an unrelated floorplan (as the annealer does between restarts) must
        // leave nothing stale in the scratch.
        let design = generate(Benchmark::N100, 1);
        let stack = Stack::two_die(design.outline());
        let eval =
            Evaluator::new(&design, stack, ObjectiveWeights::power_aware()).with_grid_bins(12);
        let mut scratch = eval.scratch();
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let a = SequencePair3d::initial(&design, stack, &mut rng).pack(&design);
        let b = SequencePair3d::initial(&design, stack, &mut rng).pack(&design);
        assert_eq!(eval.evaluate_with(&a, &mut scratch), eval.evaluate(&a));
        assert_eq!(eval.evaluate_with(&b, &mut scratch), eval.evaluate(&b));
        assert_eq!(eval.evaluate_with(&a, &mut scratch), eval.evaluate(&a));
    }
}
