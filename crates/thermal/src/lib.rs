//! Thermal analysis of TSV-based 3D ICs.
//!
//! The paper relies on two thermal engines:
//!
//! 1. **HotSpot 6.0** for detailed analysis — used to *verify* the power–temperature
//!    correlation after floorplanning and to drive the activity-sampling post-processing.
//! 2. **Corblivar's fast thermal analysis** (power blurring) — used *inside* the
//!    floorplanning loop where thousands of evaluations are needed.
//!
//! Neither tool is available as a Rust library, so this crate implements both abstractions
//! from scratch:
//!
//! * [`ThermalConfig`] + [`StackLayer`] describe the physical stack (active silicon layers,
//!   bond/BEOL layers whose vertical conductivity depends on the local TSV density, TIM,
//!   heat spreader / heatsink boundary and the weaker secondary heat path into the package).
//! * [`TsvField`] describes signal-TSV and dummy-TSV distributions per inter-die interface,
//!   including the regular/irregular/island patterns explored in Section 3 of the paper.
//! * [`SteadyStateSolver`] is a finite-volume solver for the steady-state heat equation on
//!   the layered grid (red-black successive over-relaxation on a color-split,
//!   structure-of-arrays copy of the network whose row loop vectorizes; bit-identical to
//!   the per-node scalar sweep and across worker counts).
//! * [`fast::PowerBlurring`] is the mask-based estimator used inside optimization loops.
//! * [`transient`] provides a lumped transient model reproducing the time-scale gap between
//!   power and temperature (Figure 1 of the paper), and [`TransientSolver`] — the spatial
//!   transient engine stepping the full solver grid forward in time, the basis of the
//!   trace-level side-channel simulations in `tsc3d-sca`.
//!
//! # Example
//!
//! ```
//! use tsc3d_geometry::{Grid, GridMap, Outline, Rect, Stack};
//! use tsc3d_thermal::{ThermalConfig, SteadyStateSolver, TsvField};
//!
//! let stack = Stack::two_die(Outline::new(2000.0, 2000.0));
//! let grid = Grid::square(stack.outline().rect(), 16);
//! let config = ThermalConfig::default_for(stack);
//! let mut power = vec![GridMap::zeros(grid), GridMap::zeros(grid)];
//! power[0].splat_power(&Rect::new(0.0, 0.0, 1000.0, 1000.0), 2.0);
//! let tsvs = TsvField::uniform(grid, 0.05);
//! let solver = SteadyStateSolver::new(config);
//! let result = solver.solve(&power, &[tsvs]).unwrap();
//! assert!(result.peak_temperature() > result.config().ambient);
//! ```

#![warn(missing_docs)]

pub mod batch;
mod config;
pub mod fast;
mod solver;
mod sor;
pub mod transient;
mod tsv;

pub use batch::{BatchTransientSolver, BatchTransientState};
pub use config::{MaterialProperties, StackLayer, StackLayerKind, ThermalConfig};
pub use solver::{SolveError, SteadyStateSolver, ThermalResult};
pub use transient::{LumpedTransient, TransientSample, TransientSolver, TransientState};
pub use tsv::{TsvField, TsvPattern, TsvSite, TsvTechnology};
