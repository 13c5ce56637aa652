//! Multi-objective 3D floorplanning (the Corblivar-style substrate of the paper).
//!
//! The paper implements its TSC-aware techniques inside the open-source 3D floorplanner
//! Corblivar, chosen because it is "multi-objective, modular, and competitive" and offers a
//! fast thermal analysis for in-loop estimation. This crate provides an equivalent
//! floorplanning engine built from scratch:
//!
//! * [`Floorplan`] / [`PlacedBlock`] — a placement of every block onto one of the stacked
//!   dies, with geometric queries (overlap, adjacency, per-die power maps, wirelength, net
//!   topologies for timing, utilization).
//! * [`SequencePair3d`] — the floorplan representation explored by the annealer: one
//!   sequence pair per die plus per-block die assignment, rotation and soft-block aspect
//!   ratio; packing turns it into a concrete [`Floorplan`].
//! * [`plan_signal_tsvs`] — derives the signal-TSV demand (and its spatial distribution)
//!   from the nets that cross dies, and [`TsvPlan`] carries both signal and dummy TSVs.
//! * [`Evaluator`] + [`ObjectiveWeights`] — the multi-objective cost of the paper's two
//!   setups: packing, wirelength, critical delay, peak temperature, power and voltage-volume
//!   count for power-aware floorplanning, plus correlation and spatial entropy for
//!   TSC-aware floorplanning.
//! * [`SimulatedAnnealing`] — the adaptive annealing engine driving the whole loop
//!   (Figure 3 of the paper).
//!
//! # Example
//!
//! ```no_run
//! use tsc3d_netlist::suite::{Benchmark, generate};
//! use tsc3d_floorplan::{ObjectiveWeights, SaSchedule, SimulatedAnnealing};
//!
//! let design = generate(Benchmark::N100, 1);
//! let sa = SimulatedAnnealing::new(SaSchedule::quick());
//! let result = sa.optimize(&design, &ObjectiveWeights::power_aware(), 42);
//! println!("critical delay: {:.3} ns", result.breakdown.critical_delay);
//! ```

#![warn(missing_docs)]

mod annealing;
mod cost;
mod placement;
mod seqpair;
mod tsv_planning;

pub use annealing::{SaResult, SaSchedule, SimulatedAnnealing};
pub use cost::{CostBreakdown, EvalScratch, Evaluator, GeometricCost, ObjectiveWeights};
pub use placement::{AdjacencySweep, Floorplan, PlacedBlock, PowerStamps};
pub use seqpair::{MoveUndo, PackScratch, SequencePair3d};
pub use tsv_planning::{plan_signal_tsvs, plan_signal_tsvs_into, TsvPlan};
