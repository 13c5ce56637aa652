//! Power modelling and floorplanning-centric voltage assignment for 3D ICs.
//!
//! A key measure of the paper is "the management of global and local power distributions",
//! realized through voltage assignment during floorplanning (Section 6.1). This crate
//! provides that machinery:
//!
//! * [`ActivitySampler`] — Gaussian activity sampling of module powers (Section 6.2: nominal
//!   power as mean, 10 % standard deviation), used to impersonate an attacker triggering
//!   varying activity patterns.
//! * [`VoltageVolume`] / [`VoltageAssignment`] — voltage volumes, the 3D generalization of
//!   voltage domains: groups of (spatially adjacent) modules sharing one supply voltage.
//! * [`VoltageAssigner`] — the breadth-first merging procedure that grows volumes under
//!   timing feasibility and selects voltages under either the power-aware objective
//!   (minimize power and volume count) or the TSC-aware objective (minimize power
//!   non-uniformity within and across volumes).
//! * [`power_map_from_rects`] — rasterization of placed, voltage-scaled block powers into
//!   per-die power-density maps.
//!
//! # Example
//!
//! ```
//! use tsc3d_netlist::suite::{Benchmark, generate};
//! use tsc3d_power::{ActivitySampler};
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let design = generate(Benchmark::N100, 1);
//! let sampler = ActivitySampler::paper_default(&design);
//! let mut rng = ChaCha8Rng::seed_from_u64(7);
//! let sample = sampler.sample(&mut rng);
//! assert_eq!(sample.len(), design.blocks().len());
//! ```

#![warn(missing_docs)]

mod activity;
mod assignment;
mod map;
mod volume;

pub use activity::ActivitySampler;
pub use assignment::{AssignScratch, AssignmentObjective, BlockAdjacency, VoltageAssigner};
pub use map::power_map_from_rects;
pub use volume::{VoltageAssignment, VoltageVolume};
