//! Finite-volume steady-state solver for the layered 3D-IC thermal network.
//!
//! The solver discretizes the stack into `layers x cols x rows` finite volumes, builds the
//! thermal conductance network (lateral conduction within layers, vertical conduction between
//! layers — with TSV-dependent effective conductivity in bond layers — and the two boundary
//! paths to ambient), and solves the resulting linear system with successive over-relaxation.
//! It plays the role HotSpot 6.0 plays in the paper: the reference ("detailed") analysis used
//! to verify correlations after floorplanning.
//!
//! The SOR sweep uses a **red-black (checkerboard) ordering**: nodes are colored by the
//! parity of `layer + row + col`, so every neighbour of a node has the other color and all
//! updates within one color are mutually independent. The sweep runs on a color-split
//! structure-of-arrays copy of the network (`sor::Checkerboard`): per color and
//! `(layer, row)` segment the node data is contiguous and zero-padded, so every neighbour
//! read is a unit-stride load and the row loop vectorizes without a branch per node. It
//! is exact, not approximate: the per-node arithmetic is the scalar per-node sweep's —
//! same accumulation order, absent neighbours contribute an exact `+0`, the division is
//! kept — so temperatures, iteration counts and residuals are those of the scalar sweep
//! bit for bit (checked against it, kept as a test reference).

use crate::config::{StackLayerKind, ThermalConfig};
use crate::sor::Checkerboard;
use crate::tsv::TsvField;
use crate::MaterialProperties;
use std::error::Error;
use std::fmt;
use tsc3d_exec::CancelToken;
use tsc3d_geometry::{Grid, GridMap};

/// Errors raised by [`SteadyStateSolver::solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The number of power maps does not match the number of dies in the stack.
    PowerMapCount {
        /// Number of maps provided.
        got: usize,
        /// Number of dies expected.
        expected: usize,
    },
    /// The number of TSV fields does not match the number of inter-die interfaces.
    TsvFieldCount {
        /// Number of fields provided.
        got: usize,
        /// Number of interfaces expected.
        expected: usize,
    },
    /// Power maps / TSV fields are not all defined on the same grid.
    GridMismatch,
    /// A power map or TSV density holds a NaN or infinite value. Checked before the
    /// first sweep: a non-finite source would otherwise spread through the whole field
    /// while the residual (a `max` that skips NaN) still reports convergence.
    NonFiniteInput {
        /// `"power"` or `"tsv density"`.
        field: &'static str,
        /// The die (power) or interface (TSV density) whose map holds the value.
        index: usize,
        /// Row-major bin index of its first non-finite value.
        bin: usize,
    },
    /// The iteration did not converge within the configured iteration budget.
    NotConverged {
        /// Residual (largest per-node temperature update) after the final iteration, in K.
        residual: f64,
        /// Number of iterations performed.
        iterations: usize,
    },
    /// The solve was abandoned at a sweep-window checkpoint (site `solver-sweep`):
    /// the caller's [`tsc3d_exec::CancelToken`] fired or the fault harness injected
    /// an error. Never retried by callers — unlike [`SolveError::NotConverged`],
    /// the solver state is fine; the *caller* asked out.
    Interrupted {
        /// Why the checkpoint fired.
        interrupt: tsc3d_exec::Interrupt,
        /// SOR sweeps completed before the interrupt.
        iterations: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::PowerMapCount { got, expected } => {
                write!(f, "expected {expected} power maps (one per die), got {got}")
            }
            SolveError::TsvFieldCount { got, expected } => {
                write!(
                    f,
                    "expected {expected} TSV fields (one per interface), got {got}"
                )
            }
            SolveError::GridMismatch => write!(f, "power maps and TSV fields use different grids"),
            SolveError::NonFiniteInput { field, index, bin } => {
                write!(f, "non-finite {field} in map {index} at bin {bin}")
            }
            SolveError::NotConverged {
                residual,
                iterations,
            } => write!(
                f,
                "solver did not converge after {iterations} iterations (residual {residual:.2e} K)"
            ),
            SolveError::Interrupted {
                interrupt,
                iterations,
            } => write!(
                f,
                "solve interrupted after {iterations} sweeps: {interrupt}"
            ),
        }
    }
}

impl Error for SolveError {}

/// Result of a steady-state thermal analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalResult {
    config: ThermalConfig,
    die_temperatures: Vec<GridMap>,
    layer_temperatures: Vec<GridMap>,
    iterations: usize,
    residual: f64,
}

impl ThermalResult {
    /// The configuration the analysis was run with.
    pub fn config(&self) -> &ThermalConfig {
        &self.config
    }

    /// Thermal map of the active layer of die `die` (0 = bottom die), in kelvin.
    pub fn die_temperature(&self, die: usize) -> &GridMap {
        &self.die_temperatures[die]
    }

    /// Thermal maps of all dies, bottom to top.
    pub fn die_temperatures(&self) -> &[GridMap] {
        &self.die_temperatures
    }

    /// Thermal maps of every layer of the stack (bottom to top), in kelvin.
    pub fn layer_temperatures(&self) -> &[GridMap] {
        &self.layer_temperatures
    }

    /// Peak temperature over all dies, in kelvin.
    pub fn peak_temperature(&self) -> f64 {
        self.die_temperatures
            .iter()
            .map(|m| m.max())
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Peak temperature rise above ambient, in kelvin.
    pub fn peak_rise(&self) -> f64 {
        self.peak_temperature() - self.config.ambient
    }

    /// Number of SOR iterations performed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Final residual (largest per-node update of the last iteration) in kelvin.
    pub fn residual(&self) -> f64 {
        self.residual
    }
}

/// Successive-over-relaxation steady-state solver.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyStateSolver {
    config: ThermalConfig,
    max_iterations: usize,
    tolerance: f64,
}

impl SteadyStateSolver {
    /// Default convergence tolerance of [`SteadyStateSolver::new`], in K.
    pub const DEFAULT_TOLERANCE: f64 = 1e-5;
    /// The SOR relaxation factor ω of every solve.
    pub const RELAXATION: f64 = 1.85;
    /// Default SOR iteration budget of [`SteadyStateSolver::new`].
    pub const DEFAULT_MAX_ITERATIONS: usize = 10_000;

    /// Creates a solver with default numerical parameters ([`Self::DEFAULT_MAX_ITERATIONS`]
    /// iterations, [`Self::DEFAULT_TOLERANCE`] K tolerance, ω = [`Self::RELAXATION`]).
    pub fn new(config: ThermalConfig) -> Self {
        Self {
            config,
            max_iterations: Self::DEFAULT_MAX_ITERATIONS,
            tolerance: Self::DEFAULT_TOLERANCE,
        }
    }

    /// The thermal configuration.
    pub fn config(&self) -> &ThermalConfig {
        &self.config
    }

    /// Sets the maximum number of SOR iterations.
    pub fn with_max_iterations(mut self, iterations: usize) -> Self {
        self.max_iterations = iterations;
        self
    }

    /// Sets the convergence tolerance (largest per-node update, in K).
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Solves for the steady-state temperature field.
    ///
    /// `power_per_die[d]` is the power map (in watts per bin) of die `d`'s active layer;
    /// `tsv_per_interface[i]` is the TSV field of the bond layer between die `i` and die
    /// `i+1`. All maps must share one grid.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] when the inputs are inconsistent or non-finite, or the
    /// iteration fails to converge.
    pub fn solve(
        &self,
        power_per_die: &[GridMap],
        tsv_per_interface: &[TsvField],
    ) -> Result<ThermalResult, SolveError> {
        self.solve_cancellable(power_per_die, tsv_per_interface, &CancelToken::new())
    }

    /// [`SteadyStateSolver::solve`] polling `cancel` once per SOR sweep (the
    /// checkpoint site is `solver-sweep`).
    ///
    /// Between checkpoints the solve is exactly the deterministic iteration it
    /// always was; a solve that completes is bit-identical to [`SteadyStateSolver::solve`].
    ///
    /// # Errors
    ///
    /// [`SolveError::Interrupted`] when the token fires or the fault harness
    /// injects an error, in addition to the [`SteadyStateSolver::solve`] errors.
    pub fn solve_cancellable(
        &self,
        power_per_die: &[GridMap],
        tsv_per_interface: &[TsvField],
        cancel: &CancelToken,
    ) -> Result<ThermalResult, SolveError> {
        let dies = self.config.stack.dies();
        if power_per_die.len() != dies {
            return Err(SolveError::PowerMapCount {
                got: power_per_die.len(),
                expected: dies,
            });
        }
        let interfaces = self.config.interfaces();
        if tsv_per_interface.len() != interfaces {
            return Err(SolveError::TsvFieldCount {
                got: tsv_per_interface.len(),
                expected: interfaces,
            });
        }
        let grid = power_per_die[0].grid();
        if power_per_die.iter().any(|m| m.grid() != grid)
            || tsv_per_interface.iter().any(|f| f.density().grid() != grid)
        {
            return Err(SolveError::GridMismatch);
        }

        let power = power_per_die.iter().map(|m| ("power", m));
        let density = tsv_per_interface
            .iter()
            .map(|f| ("tsv density", f.density()));
        for (index, (field, map)) in power.enumerate().chain(density.enumerate()) {
            if let Some(bin) = map.values().iter().position(|v| !v.is_finite()) {
                return Err(SolveError::NonFiniteInput { field, index, bin });
            }
        }

        let _span = tsc3d_obs::span!("thermal_solve");
        let network = Network::build(&self.config, grid, power_per_die, tsv_per_interface);
        let swept = Checkerboard::new(network).solve(
            Self::RELAXATION,
            self.max_iterations,
            self.tolerance,
            cancel,
        );
        let (temps, iterations, residual) = match swept {
            Ok(done) => done,
            Err((interrupt, iterations)) => {
                tsc3d_obs::add_to_span("solver_sweeps", iterations as u64);
                return Err(SolveError::Interrupted {
                    interrupt,
                    iterations,
                });
            }
        };
        tsc3d_obs::add_to_span("solver_sweeps", iterations as u64);
        solver_metrics().solves.inc();
        solver_metrics().sweeps.add(iterations as u64);
        if residual > self.tolerance {
            return Err(SolveError::NotConverged {
                residual,
                iterations,
            });
        }

        let layers = self.config.layer_count();
        let bins = grid.bins();
        let mut layer_temperatures = Vec::with_capacity(layers);
        for l in 0..layers {
            let values = temps[l * bins..(l + 1) * bins].to_vec();
            layer_temperatures.push(GridMap::from_values(grid, values));
        }
        let die_temperatures = (0..dies)
            .map(|d| {
                let l = self
                    .config
                    .active_layer_of(d)
                    .expect("config must contain an active layer per die");
                layer_temperatures[l].clone()
            })
            .collect();

        Ok(ThermalResult {
            config: self.config.clone(),
            die_temperatures,
            layer_temperatures,
            iterations,
            residual,
        })
    }
}

/// Cached handles for the `tsc3d_thermal_*` global-metric family (bumped once per
/// detailed solve; the per-sweep hot loop stays untouched).
struct SolverMetrics {
    solves: tsc3d_obs::Counter,
    sweeps: tsc3d_obs::Counter,
}

fn solver_metrics() -> &'static SolverMetrics {
    static METRICS: std::sync::OnceLock<SolverMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| SolverMetrics {
        solves: tsc3d_obs::global().counter(
            "tsc3d_thermal_solves_total",
            "Detailed steady-state thermal solves completed",
        ),
        sweeps: tsc3d_obs::global().counter(
            "tsc3d_thermal_sweeps_total",
            "Red-black SOR iterations performed by detailed solves",
        ),
    })
}

/// Assembled conductance network in structure-of-arrays form for the SOR sweep.
///
/// Also reused by the transient engine ([`crate::transient::TransientSolver`]), which
/// steps the same conductances forward in time instead of solving for the fixed point.
#[derive(Debug)]
pub(crate) struct Network {
    pub(crate) layers: usize,
    pub(crate) cols: usize,
    pub(crate) rows: usize,
    /// Lateral conductance to the +x neighbour, per node.
    pub(crate) gx: Vec<f64>,
    /// Lateral conductance to the +y neighbour, per node.
    pub(crate) gy: Vec<f64>,
    /// Vertical conductance to the node one layer up, per node.
    pub(crate) gz: Vec<f64>,
    /// Conductance to ambient (boundary paths), per node.
    pub(crate) gb: Vec<f64>,
    /// Injected power per node, in watts.
    pub(crate) power: Vec<f64>,
    pub(crate) ambient: f64,
}

impl Network {
    pub(crate) fn build(
        config: &ThermalConfig,
        grid: Grid,
        power_per_die: &[GridMap],
        tsv_per_interface: &[TsvField],
    ) -> Network {
        let layers = config.layer_count();
        let cols = grid.cols();
        let rows = grid.rows();
        let bins = grid.bins();
        let n = layers * bins;

        let dx = grid.bin_width() * 1e-6;
        let dy = grid.bin_height() * 1e-6;
        let area = dx * dy;

        // Effective conductivity per node: bond layers mix the bond material with copper
        // according to the local TSV density.
        let mut k_eff = vec![0.0; n];
        for (l, layer) in config.layers.iter().enumerate() {
            for b in 0..bins {
                let idx = l * bins + b;
                k_eff[idx] = match layer.kind {
                    StackLayerKind::Bond { interface } => {
                        let d = tsv_per_interface[interface].density().values()[b];
                        layer.material.conductivity * (1.0 - d)
                            + MaterialProperties::COPPER.conductivity * d
                    }
                    _ => layer.material.conductivity,
                };
            }
        }

        let mut gx = vec![0.0; n];
        let mut gy = vec![0.0; n];
        let mut gz = vec![0.0; n];
        let mut gb = vec![0.0; n];
        let mut power = vec![0.0; n];

        for (l, layer) in config.layers.iter().enumerate() {
            let dz = layer.thickness;
            for row in 0..rows {
                for col in 0..cols {
                    let b = row * cols + col;
                    let idx = l * bins + b;
                    let k = k_eff[idx];
                    // Lateral conductances (series of the two half-bins).
                    if col + 1 < cols {
                        let k_next = k_eff[l * bins + b + 1];
                        gx[idx] = series_conductance(k, k_next, dx, dz * dy);
                    }
                    if row + 1 < rows {
                        let k_next = k_eff[l * bins + b + cols];
                        gy[idx] = series_conductance(k, k_next, dy, dz * dx);
                    }
                    // Vertical conductance to the next layer up.
                    if l + 1 < layers {
                        let up = config.layers[l + 1];
                        let k_up = k_eff[(l + 1) * bins + b];
                        let r = dz / (2.0 * k * area) + up.thickness / (2.0 * k_up * area);
                        gz[idx] = 1.0 / r;
                    }
                    // Boundary paths.
                    if l == 0 && config.secondary_conductance > 0.0 {
                        let r = dz / (2.0 * k * area) + 1.0 / (config.secondary_conductance * area);
                        gb[idx] += 1.0 / r;
                    }
                    if l + 1 == layers && config.heatsink_conductance > 0.0 {
                        let r = dz / (2.0 * k * area) + 1.0 / (config.heatsink_conductance * area);
                        gb[idx] += 1.0 / r;
                    }
                }
            }
            if let StackLayerKind::ActiveSilicon { die } = layer.kind {
                let map = &power_per_die[die];
                for b in 0..bins {
                    power[l * bins + b] += map.values()[b];
                }
            }
        }

        Network {
            layers,
            cols,
            rows,
            gx,
            gy,
            gz,
            gb,
            power,
            ambient: config.ambient,
        }
    }
}

/// The scalar per-node sweep the split kernel replaced, kept as its bit-for-bit
/// reference.
#[cfg(test)]
impl Network {
    /// The relaxed value of one node given the current temperature field: returns the new
    /// temperature and the absolute update `|flow/g_sum - t|` (the residual contribution).
    fn relaxed_value(&self, t: &[f64], l: usize, row: usize, col: usize, omega: f64) -> (f64, f64) {
        let bins = self.cols * self.rows;
        let b = row * self.cols + col;
        let idx = l * bins + b;
        let mut g_sum = self.gb[idx];
        let mut flow = self.gb[idx] * self.ambient + self.power[idx];

        if col + 1 < self.cols {
            let g = self.gx[idx];
            g_sum += g;
            flow += g * t[idx + 1];
        }
        if col > 0 {
            let g = self.gx[idx - 1];
            g_sum += g;
            flow += g * t[idx - 1];
        }
        if row + 1 < self.rows {
            let g = self.gy[idx];
            g_sum += g;
            flow += g * t[idx + self.cols];
        }
        if row > 0 {
            let g = self.gy[idx - self.cols];
            g_sum += g;
            flow += g * t[idx - self.cols];
        }
        if l + 1 < self.layers {
            let g = self.gz[idx];
            g_sum += g;
            flow += g * t[idx + bins];
        }
        if l > 0 {
            let g = self.gz[idx - bins];
            g_sum += g;
            flow += g * t[idx - bins];
        }

        if g_sum > 0.0 {
            let new = flow / g_sum;
            let update = new - t[idx];
            (t[idx] + omega * update, update.abs())
        } else {
            (t[idx], 0.0)
        }
    }

    /// The serial in-place red-black SOR solve over [`Network::relaxed_value`]; returns
    /// (temperatures, iterations, final residual).
    fn solve_reference(
        &self,
        omega: f64,
        max_iterations: usize,
        tolerance: f64,
    ) -> (Vec<f64>, usize, f64) {
        let bins = self.cols * self.rows;
        let mut t = vec![self.ambient; self.layers * bins];
        let mut residual = f64::INFINITY;
        let mut iterations = 0;
        for iter in 0..max_iterations {
            residual = 0.0;
            for color in 0..2usize {
                for l in 0..self.layers {
                    for row in 0..self.rows {
                        let first = (color + l + row) % 2;
                        for col in (first..self.cols).step_by(2) {
                            let idx = l * bins + row * self.cols + col;
                            let (value, update) = self.relaxed_value(&t, l, row, col, omega);
                            t[idx] = value;
                            residual = residual.max(update);
                        }
                    }
                }
            }
            iterations = iter + 1;
            if residual < tolerance {
                break;
            }
        }
        (t, iterations, residual)
    }
}

/// Conductance of two half-bins in series along one lateral axis.
fn series_conductance(k_a: f64, k_b: f64, length: f64, cross_section: f64) -> f64 {
    let r = length / (2.0 * k_a * cross_section) + length / (2.0 * k_b * cross_section);
    1.0 / r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TsvPattern, TsvSite};
    use tsc3d_exec::Interrupt;
    use tsc3d_geometry::{GridPos, Outline, Point, Rect, Stack};

    fn setup(grid_n: usize) -> (ThermalConfig, Grid) {
        let stack = Stack::two_die(Outline::new(2000.0, 2000.0));
        let grid = Grid::square(stack.outline().rect(), grid_n);
        (ThermalConfig::default_for(stack), grid)
    }

    fn uniform_power(grid: Grid, total: f64) -> GridMap {
        GridMap::constant(grid, total / grid.bins() as f64)
    }

    #[test]
    fn zero_power_stays_at_ambient() {
        let (cfg, grid) = setup(8);
        let solver = SteadyStateSolver::new(cfg);
        let power = vec![GridMap::zeros(grid), GridMap::zeros(grid)];
        let tsvs = vec![TsvField::empty(grid)];
        let r = solver.solve(&power, &tsvs).unwrap();
        assert!((r.peak_temperature() - 293.0).abs() < 1e-6);
        assert!(r.peak_rise().abs() < 1e-6);
    }

    #[test]
    fn cancelled_token_interrupts_the_solve_typed() {
        let (cfg, grid) = setup(8);
        let solver = SteadyStateSolver::new(cfg);
        let power = vec![uniform_power(grid, 2.0), uniform_power(grid, 2.0)];
        let tsvs = vec![TsvField::uniform(grid, 0.05)];
        let cancel = CancelToken::new();
        cancel.cancel(tsc3d_exec::CancelReason::User);
        match solver.solve_cancellable(&power, &tsvs, &cancel) {
            Err(SolveError::Interrupted {
                interrupt,
                iterations,
            }) => {
                assert_eq!(
                    interrupt,
                    Interrupt::Cancelled(tsc3d_exec::CancelReason::User)
                );
                assert_eq!(iterations, 0, "the first sweep-window checkpoint fires");
            }
            other => panic!("expected an interrupted solve, got {other:?}"),
        }
        // A live token solves identically to the plain entry point.
        let clean = solver.solve(&power, &tsvs).unwrap();
        let live = solver
            .solve_cancellable(&power, &tsvs, &CancelToken::new())
            .unwrap();
        assert_eq!(clean, live);
    }

    #[test]
    fn uniform_power_heats_above_ambient() {
        let (cfg, grid) = setup(8);
        let solver = SteadyStateSolver::new(cfg);
        let power = vec![uniform_power(grid, 2.0), uniform_power(grid, 2.0)];
        let tsvs = vec![TsvField::uniform(grid, 0.05)];
        let r = solver.solve(&power, &tsvs).unwrap();
        assert!(r.peak_rise() > 0.5, "peak rise {}", r.peak_rise());
        // Both dies stay within a physically plausible range for 4 W on 4 mm².
        assert!(r.peak_temperature() < 450.0);
    }

    #[test]
    fn bottom_die_runs_hotter_than_top() {
        // The heatsink sits above the top die, so for equal power the bottom die (longer
        // path to the sink) must be hotter on average.
        let (cfg, grid) = setup(8);
        let solver = SteadyStateSolver::new(cfg);
        let power = vec![uniform_power(grid, 2.0), uniform_power(grid, 2.0)];
        let tsvs = vec![TsvField::empty(grid)];
        let r = solver.solve(&power, &tsvs).unwrap();
        assert!(r.die_temperature(0).mean() > r.die_temperature(1).mean());
    }

    #[test]
    fn hotspot_appears_over_the_powered_block() {
        let (cfg, grid) = setup(16);
        let solver = SteadyStateSolver::new(cfg);
        let mut p0 = GridMap::zeros(grid);
        p0.splat_power(&Rect::new(0.0, 0.0, 500.0, 500.0), 3.0);
        let power = vec![p0, GridMap::zeros(grid)];
        let tsvs = vec![TsvField::empty(grid)];
        let r = solver.solve(&power, &tsvs).unwrap();
        let hottest = r.die_temperature(0).argmax();
        // Hotspot must lie in the lower-left quadrant where the power is injected.
        assert!(hottest.col < 8 && hottest.row < 8, "hotspot at {hottest}");
    }

    #[test]
    fn more_tsvs_reduce_bottom_die_temperature() {
        let (cfg, grid) = setup(8);
        let solver = SteadyStateSolver::new(cfg);
        let power = vec![uniform_power(grid, 3.0), GridMap::zeros(grid)];
        let few = solver
            .solve(&power, &[TsvField::empty(grid)])
            .unwrap()
            .die_temperature(0)
            .mean();
        let many = solver
            .solve(&power, &[TsvField::uniform(grid, 0.2)])
            .unwrap()
            .die_temperature(0)
            .mean();
        assert!(
            many < few,
            "TSVs should cool the bottom die: {many} !< {few}"
        );
    }

    #[test]
    fn energy_is_conserved_at_steady_state() {
        // At steady state all injected power must leave through the two boundary paths;
        // equivalently the temperature rise must scale linearly with total power.
        let (cfg, grid) = setup(8);
        let solver = SteadyStateSolver::new(cfg);
        let tsvs = vec![TsvField::uniform(grid, 0.05)];
        let r1 = solver
            .solve(&[uniform_power(grid, 1.0), GridMap::zeros(grid)], &tsvs)
            .unwrap();
        let r2 = solver
            .solve(&[uniform_power(grid, 2.0), GridMap::zeros(grid)], &tsvs)
            .unwrap();
        let rise1 = r1.peak_rise();
        let rise2 = r2.peak_rise();
        assert!(
            (rise2 / rise1 - 2.0).abs() < 1e-3,
            "linearity violated: {rise1} vs {rise2}"
        );
    }

    #[test]
    fn input_validation() {
        let (cfg, grid) = setup(4);
        let solver = SteadyStateSolver::new(cfg);
        let err = solver.solve(&[GridMap::zeros(grid)], &[TsvField::empty(grid)]);
        assert!(matches!(
            err,
            Err(SolveError::PowerMapCount {
                expected: 2,
                got: 1
            })
        ));
        let err = solver.solve(&[GridMap::zeros(grid), GridMap::zeros(grid)], &[]);
        assert!(matches!(
            err,
            Err(SolveError::TsvFieldCount {
                expected: 1,
                got: 0
            })
        ));
        let other_grid = Grid::square(Rect::from_size(2000.0, 2000.0), 5);
        let err = solver.solve(
            &[GridMap::zeros(grid), GridMap::zeros(other_grid)],
            &[TsvField::empty(grid)],
        );
        assert!(matches!(err, Err(SolveError::GridMismatch)));
    }

    #[test]
    fn non_convergence_is_reported() {
        let (cfg, grid) = setup(8);
        let solver = SteadyStateSolver::new(cfg).with_max_iterations(2);
        let power = vec![uniform_power(grid, 2.0), uniform_power(grid, 2.0)];
        let err = solver.solve(&power, &[TsvField::empty(grid)]).unwrap_err();
        assert!(matches!(err, SolveError::NotConverged { .. }));
        assert!(format!("{err}").contains("did not converge"));
        // Same typed payload (residual and iteration count) as the scalar reference, on
        // irregular stacks.
        for (cols, dies) in [(7usize, 2usize), (12, 3), (48, 2)] {
            let (solver, power, tsvs) = irregular_case(dies, cols, cols);
            let solver = solver.with_max_iterations(9);
            let (_, iterations, residual) = reference(&solver, &power, &tsvs);
            let expected = SolveError::NotConverged {
                residual,
                iterations,
            };
            assert_eq!(solver.solve(&power, &tsvs).unwrap_err(), expected);
        }
    }

    #[test]
    fn exploratory_patterns_affect_thermal_map_structure() {
        let (cfg, grid) = setup(16);
        let solver = SteadyStateSolver::new(cfg);
        let mut p0 = GridMap::zeros(grid);
        p0.splat_power(&Rect::new(0.0, 0.0, 1000.0, 1000.0), 2.0);
        p0.splat_power(&Rect::new(1000.0, 1000.0, 1000.0, 1000.0), 0.5);
        let power = vec![p0, uniform_power(grid, 1.0)];
        let none = solver
            .solve(&power, &[TsvField::from_pattern(grid, TsvPattern::None, 1)])
            .unwrap();
        let max = solver
            .solve(
                &power,
                &[TsvField::from_pattern(grid, TsvPattern::MaxDensity, 1)],
            )
            .unwrap();
        // Dense TSVs flatten the bottom-die thermal profile.
        assert!(max.die_temperature(0).std_dev() < none.die_temperature(0).std_dev());
    }

    /// `dies` dies on a `cols × rows` grid: a power floor plus two hotspots per die (one
    /// moving with the die index) and two TSV islands per interface over a sparse
    /// uniform background.
    fn irregular_case(
        dies: usize,
        cols: usize,
        rows: usize,
    ) -> (SteadyStateSolver, Vec<GridMap>, Vec<TsvField>) {
        let stack = Stack::new(dies, Outline::new(2000.0, 2000.0));
        let grid = Grid::new(stack.outline().rect(), cols, rows);
        let power = (0..dies)
            .map(|d| {
                let mut p = uniform_power(grid, 0.2);
                let x = 100.0 + 300.0 * d as f64;
                p.splat_power(&Rect::new(x, 200.0, 700.0, 500.0), 1.5 + d as f64);
                p.splat_power(&Rect::new(1200.0, 900.0, 400.0, 800.0), 0.8);
                p
            })
            .collect();
        let tsvs = (0..dies - 1)
            .map(|i| {
                let mut f = TsvField::uniform(grid, 0.01);
                f.add_site(TsvSite::island(
                    Point::new(500.0 + 400.0 * i as f64, 1500.0),
                    400,
                ));
                f.add_site(TsvSite::island(Point::new(1700.0, 300.0), 900));
                f
            })
            .collect();
        let solver = SteadyStateSolver::new(ThermalConfig::default_for(stack))
            .with_tolerance(1e-4)
            .with_max_iterations(4_000);
        (solver, power, tsvs)
    }

    /// The scalar per-node sweep on the same inputs: (temperatures, iterations, residual).
    fn reference(
        solver: &SteadyStateSolver,
        power: &[GridMap],
        tsvs: &[TsvField],
    ) -> (Vec<f64>, usize, f64) {
        Network::build(&solver.config, power[0].grid(), power, tsvs).solve_reference(
            SteadyStateSolver::RELAXATION,
            solver.max_iterations,
            solver.tolerance,
        )
    }

    fn bits<'a>(values: impl IntoIterator<Item = &'a f64>) -> Vec<u64> {
        values.into_iter().map(|v| v.to_bits()).collect()
    }

    fn layer_bits(result: &ThermalResult) -> Vec<u64> {
        bits(result.layer_temperatures().iter().flat_map(|m| m.values()))
    }

    #[test]
    fn split_kernel_is_bit_identical_to_the_scalar_reference() {
        let square = [2usize, 3, 7, 12, 47, 48].map(|n| (n, n));
        for (cols, rows) in square.into_iter().chain([(7, 12), (12, 7), (1, 5), (5, 1)]) {
            for dies in 1..=3 {
                let case = format!("{cols}x{rows}, {dies} dies");
                let (solver, power, tsvs) = irregular_case(dies, cols, rows);
                let (temps, iterations, residual) = reference(&solver, &power, &tsvs);
                let serial = solver.solve(&power, &tsvs).unwrap();
                assert_eq!(layer_bits(&serial), bits(&temps), "{case}");
                assert_eq!(serial.iterations(), iterations, "{case}");
                assert_eq!(serial.residual().to_bits(), residual.to_bits(), "{case}");
            }
        }
    }

    #[test]
    fn non_finite_power_or_density_is_rejected_before_sweeping() {
        let (solver, power, tsvs) = irregular_case(2, 8, 8);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut maps = power.clone();
            maps[1].set(GridPos::new(5, 3), bad);
            let expected = SolveError::NonFiniteInput {
                field: "power",
                index: 1,
                bin: 3 * 8 + 5,
            };
            assert_eq!(solver.solve(&maps, &tsvs).unwrap_err(), expected, "{bad}");
        }
        let grid = power[0].grid();
        let err = solver
            .solve(&power, &[TsvField::uniform(grid, f64::NAN)])
            .unwrap_err();
        assert_eq!(
            err,
            SolveError::NonFiniteInput {
                field: "tsv density",
                index: 0,
                bin: 0,
            }
        );
        assert!(err.to_string().contains("non-finite tsv density"));
    }

    /// With laterally uniform power and TSV density no heat flows sideways, so every
    /// column is the same 1-D resistor chain: secondary path → layer 0 → … → top layer →
    /// heatsink. Its exact (tridiagonal) solution must match every node of every layer.
    #[test]
    fn laterally_uniform_stacks_match_the_exact_column_chain() {
        for dies in 1..=3 {
            let stack = Stack::new(dies, Outline::new(2000.0, 2000.0));
            let grid = Grid::new(stack.outline().rect(), 6, 5);
            let cfg = ThermalConfig::default_for(stack);
            let density = 0.08;
            let power: Vec<GridMap> = (0..dies)
                .map(|d| uniform_power(grid, 1.0 + d as f64))
                .collect();
            let tsvs = vec![TsvField::uniform(grid, density); dies - 1];
            let result = SteadyStateSolver::new(cfg.clone())
                .with_tolerance(1e-11)
                .with_max_iterations(100_000)
                .solve(&power, &tsvs)
                .unwrap();

            // The chain, from the stack description alone (per bin, in K/W and W/K).
            let area = grid.bin_width() * 1e-6 * grid.bin_height() * 1e-6;
            let half: Vec<f64> = cfg
                .layers
                .iter()
                .map(|layer| {
                    let k = match layer.kind {
                        StackLayerKind::Bond { .. } => {
                            layer.material.conductivity * (1.0 - density)
                                + MaterialProperties::COPPER.conductivity * density
                        }
                        _ => layer.material.conductivity,
                    };
                    layer.thickness / (2.0 * k * area)
                })
                .collect();
            let n = half.len();
            let up: Vec<f64> = (0..n - 1).map(|l| 1.0 / (half[l] + half[l + 1])).collect();
            let mut boundary = vec![0.0; n];
            boundary[0] += 1.0 / (half[0] + 1.0 / (cfg.secondary_conductance * area));
            boundary[n - 1] += 1.0 / (half[n - 1] + 1.0 / (cfg.heatsink_conductance * area));
            let mut source = vec![0.0; n];
            for (d, map) in power.iter().enumerate() {
                source[cfg.active_layer_of(d).unwrap()] = map.values()[0];
            }
            // Thomas algorithm on the rise above ambient:
            // (boundary + up[l-1] + up[l]) θ_l − up[l-1] θ_{l-1} − up[l] θ_{l+1} = source_l.
            let below = |l: usize| if l > 0 { up[l - 1] } else { 0.0 };
            let above = |l: usize| up.get(l).copied().unwrap_or(0.0);
            let (mut c, mut d) = (vec![0.0; n], vec![0.0; n]);
            for l in 0..n {
                let (c_prev, d_prev) = if l > 0 {
                    (c[l - 1], d[l - 1])
                } else {
                    (0.0, 0.0)
                };
                let pivot = boundary[l] + below(l) + above(l) - below(l) * c_prev;
                c[l] = above(l) / pivot;
                d[l] = (source[l] + below(l) * d_prev) / pivot;
            }
            let mut rise = vec![0.0; n];
            for l in (0..n).rev() {
                rise[l] = d[l] + if l + 1 < n { c[l] * rise[l + 1] } else { 0.0 };
            }

            for (l, map) in result.layer_temperatures().iter().enumerate() {
                let exact = cfg.ambient + rise[l];
                for &t in map.values() {
                    assert!(
                        (t - exact).abs() <= 1e-8,
                        "{dies} dies, layer {l}: {t} vs exact {exact}"
                    );
                }
            }
            assert!(rise[0] > 0.1, "the chain carries real heat: {rise:?}");
        }
    }
}
