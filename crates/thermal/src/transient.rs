//! Transient thermal models: the lumped per-die RC model and the spatial transient
//! engine over the full solver grid.
//!
//! Figure 1 of the paper illustrates the central practical limitation of the thermal side
//! channel: switching activity and power change on nanosecond scales, while on-die
//! temperatures respond on millisecond-to-second scales. [`LumpedTransient`] provides a
//! small lumped RC model per die that reproduces this time-scale gap and is used by the
//! `figure1` experiment binary.
//!
//! [`TransientSolver`] generalises the same explicit RC forward-stepping from one node per
//! die to the full `layers x cols x rows` conductance network of the steady-state solver —
//! the engine behind trace-level side-channel simulation (`tsc3d-sca`), where an attacker
//! samples *time series* of spatially resolved temperatures instead of one steady-state
//! map. The lumped model is retained as a bit-tested special case: stepping a
//! [`TransientSolver::lumped`] network (one uncoupled node per die on a 1×1 grid)
//! reproduces [`LumpedTransient::simulate`] bit for bit.

use crate::solver::Network;
use crate::tsv::TsvField;
use crate::{MaterialProperties, SolveError, StackLayerKind, ThermalConfig};
use serde::{Deserialize, Serialize};
use tsc3d_geometry::{Grid, GridMap, GridPos};

/// A lumped (single-node-per-die) transient thermal model.
///
/// Each die is represented by one thermal capacitance (its silicon volume) and one
/// resistance towards ambient derived from the configured boundary conductances. The model
/// intentionally ignores lateral detail — it only has to reproduce the *time constants*.
///
/// ```
/// use tsc3d_geometry::{Outline, Stack};
/// use tsc3d_thermal::{ThermalConfig, transient::LumpedTransient};
///
/// let config = ThermalConfig::default_for(Stack::two_die(Outline::new(4000.0, 4000.0)));
/// let model = LumpedTransient::new(&config);
/// assert!(model.time_constant(0) > 1e-4); // much slower than logic (ns)
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LumpedTransient {
    /// Thermal capacitance per die in J/K.
    capacitance: Vec<f64>,
    /// Thermal resistance towards ambient per die in K/W.
    resistance: Vec<f64>,
    /// Ambient temperature in K.
    ambient: f64,
}

/// One sample of a transient simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransientSample {
    /// Simulation time in seconds.
    pub time: f64,
    /// Instantaneous power in watts.
    pub power: f64,
    /// Die temperature in kelvin.
    pub temperature: f64,
}

/// The per-die lumped RC parameters derived from a thermal configuration: capacitance in
/// J/K and resistance towards ambient in K/W (bottom die first).
///
/// Shared by [`LumpedTransient::new`] and [`TransientSolver::lumped`], so the lumped model
/// and its grid-engine special case are built from the identical numbers.
fn lumped_rc(config: &ThermalConfig) -> (Vec<f64>, Vec<f64>) {
    let area_m2 = config.stack.outline().area() * 1e-12;
    let dies = config.stack.dies();
    let mut capacitance = Vec::with_capacity(dies);
    let mut resistance = Vec::with_capacity(dies);
    for die in 0..dies {
        // Capacitance: silicon volume of the die's active layer.
        let thickness = config
            .active_layer_of(die)
            .map(|l| config.layers[l].thickness)
            .unwrap_or(100e-6);
        let c = MaterialProperties::SILICON.volumetric_heat_capacity * area_m2 * thickness;
        // Resistance: top die goes through the heatsink path, lower dies additionally
        // through one bond layer per crossed interface.
        let sink_r = 1.0 / (config.heatsink_conductance * area_m2);
        let crossings = (dies - 1 - die) as f64;
        let bond_r = crossings
            * (20e-6 / (MaterialProperties::BOND.conductivity * area_m2)
                + 100e-6 / (MaterialProperties::SILICON.conductivity * area_m2));
        capacitance.push(c);
        resistance.push(sink_r + bond_r);
    }
    (capacitance, resistance)
}

impl LumpedTransient {
    /// Builds the lumped model from a thermal configuration.
    pub fn new(config: &ThermalConfig) -> Self {
        let (capacitance, resistance) = lumped_rc(config);
        Self {
            capacitance,
            resistance,
            ambient: config.ambient,
        }
    }

    /// Thermal RC time constant of die `die` in seconds.
    pub fn time_constant(&self, die: usize) -> f64 {
        self.resistance[die] * self.capacitance[die]
    }

    /// Steady-state temperature of die `die` for a constant power `p` in watts.
    pub fn steady_state(&self, die: usize, p: f64) -> f64 {
        self.ambient + p * self.resistance[die]
    }

    /// Simulates die `die` under a time-varying power waveform using explicit Euler
    /// integration.
    ///
    /// `power(t)` returns the instantaneous power in watts at time `t` (seconds). The
    /// simulation runs from 0 to `duration` with the given `dt`.
    ///
    /// The per-step arithmetic is the single-node instance of the
    /// [`TransientSolver`] step kernel (conductance form, `t += (flow / c) * dt`), which
    /// is what makes the grid engine's lumped special case bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `dt` or `duration` is non-positive.
    pub fn simulate<F>(&self, die: usize, power: F, duration: f64, dt: f64) -> Vec<TransientSample>
    where
        F: Fn(f64) -> f64,
    {
        assert!(
            dt > 0.0 && duration > 0.0,
            "dt and duration must be positive"
        );
        let c = self.capacitance[die];
        let g = 1.0 / self.resistance[die];
        let steps = (duration / dt).ceil() as usize;
        let mut t_die = self.ambient;
        let mut out = Vec::with_capacity(steps + 1);
        for step in 0..=steps {
            let time = step as f64 * dt;
            let p = power(time);
            out.push(TransientSample {
                time,
                power: p,
                temperature: t_die,
            });
            // dT/dt = (P - (T - T_amb) * G) / C
            let flow = p - (t_die - self.ambient) * g;
            t_die += (flow / c) * dt;
        }
        out
    }

    /// Produces the data behind Figure 1: a power waveform toggling every `period` seconds
    /// between `p_low` and `p_high`, together with the (much slower) thermal response.
    pub fn time_scale_demo(
        &self,
        die: usize,
        p_low: f64,
        p_high: f64,
        period: f64,
        duration: f64,
        samples: usize,
    ) -> Vec<TransientSample> {
        let dt = duration / samples as f64;
        self.simulate(
            die,
            |t| {
                if ((t / period) as u64) % 2 == 0 {
                    p_high
                } else {
                    p_low
                }
            },
            duration,
            dt,
        )
    }

    /// Ambient temperature of the model in kelvin.
    pub fn ambient(&self) -> f64 {
        self.ambient
    }
}

/// Safety margin applied to the explicit-Euler stability bound when
/// [`TransientSolver::advance`] picks its internal substep.
const STABILITY_MARGIN: f64 = 0.5;

/// The mutable side of a transient simulation: the temperature field, the per-node power
/// injection, and the scratch buffer of the Jacobi step. Reusable across traces
/// ([`TransientSolver::reset`]) so a long campaign allocates its buffers once.
#[derive(Debug, Clone)]
pub struct TransientState {
    /// Node temperatures in kelvin (`layers * bins`, layer-major).
    temps: Vec<f64>,
    /// Scratch for the out-of-place Jacobi step.
    next: Vec<f64>,
    /// Injected power per node in watts.
    power: Vec<f64>,
}

impl TransientState {
    /// Raw node temperatures (layer-major, `layers * bins` values).
    pub fn temperatures(&self) -> &[f64] {
        &self.temps
    }
}

/// Spatial transient engine: explicit RC forward-stepping of the steady-state solver's
/// conductance network.
///
/// The solver owns the immutable network (conductances, per-node heat capacities); each
/// simulation owns a [`TransientState`]. One step is a Jacobi update — every node reads
/// only the *previous* field. (Trace simulation steps many traces or sensors in lockstep
/// through [`crate::BatchTransientSolver`], whose lanes are bit-identical to this engine.)
///
/// Explicit Euler is conditionally stable: steps longer than
/// [`TransientSolver::max_stable_dt`] diverge. [`TransientSolver::advance`] substeps
/// automatically; the raw [`TransientSolver::step`] leaves `dt` to the caller (the
/// lumped-equivalence path).
///
/// ```
/// use tsc3d_geometry::{Grid, GridMap, Outline, Stack};
/// use tsc3d_thermal::{transient::TransientSolver, ThermalConfig, TsvField};
///
/// let stack = Stack::two_die(Outline::new(2000.0, 2000.0));
/// let grid = Grid::square(stack.outline().rect(), 8);
/// let config = ThermalConfig::default_for(stack);
/// let solver = TransientSolver::new(&config, grid, &[TsvField::empty(grid)]).unwrap();
/// let mut state = solver.state();
/// solver
///     .set_power(&mut state, &[GridMap::constant(grid, 2.0 / 64.0), GridMap::zeros(grid)])
///     .unwrap();
/// solver.advance(&mut state, 0.01);
/// assert!(solver.die_temperature(&state, 0).max() > config.ambient);
/// ```
#[derive(Debug)]
pub struct TransientSolver {
    grid: Grid,
    pub(crate) network: Network,
    /// Heat capacity per node in J/K.
    pub(crate) cap: Vec<f64>,
    /// Layer index of each die's active layer (node extraction for sensors).
    pub(crate) active_layers: Vec<usize>,
    dies: usize,
    /// Largest stable explicit-Euler step in seconds (min over nodes of C / ΣG).
    max_stable_dt: f64,
}

impl TransientSolver {
    /// Builds the transient engine for a stack configuration on an analysis grid.
    ///
    /// `tsv_per_interface[i]` is the TSV field of the bond layer between die `i` and die
    /// `i+1` — exactly the input of [`crate::SteadyStateSolver::solve`]; TSV density
    /// raises both the vertical conductance and the (copper-mixed) heat capacity of the
    /// bond nodes.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::TsvFieldCount`] / [`SolveError::GridMismatch`] when the TSV
    /// fields do not match the configuration or the grid.
    pub fn new(
        config: &ThermalConfig,
        grid: Grid,
        tsv_per_interface: &[TsvField],
    ) -> Result<Self, SolveError> {
        let interfaces = config.interfaces();
        if tsv_per_interface.len() != interfaces {
            return Err(SolveError::TsvFieldCount {
                got: tsv_per_interface.len(),
                expected: interfaces,
            });
        }
        if tsv_per_interface.iter().any(|f| f.density().grid() != grid) {
            return Err(SolveError::GridMismatch);
        }
        let dies = config.stack.dies();
        let zero_power = vec![GridMap::zeros(grid); dies];
        let network = Network::build(config, grid, &zero_power, tsv_per_interface);

        // Per-node heat capacity: material volume heat capacity times cell volume; bond
        // layers mix the bond material with copper by the local TSV density, mirroring
        // the conductivity mixing of the steady-state network.
        let bins = grid.bins();
        let dx = grid.bin_width() * 1e-6;
        let dy = grid.bin_height() * 1e-6;
        let mut cap = vec![0.0; config.layer_count() * bins];
        for (l, layer) in config.layers.iter().enumerate() {
            let volume = dx * dy * layer.thickness;
            for b in 0..bins {
                let cv = match layer.kind {
                    StackLayerKind::Bond { interface } => {
                        let d = tsv_per_interface[interface].density().values()[b];
                        layer.material.volumetric_heat_capacity * (1.0 - d)
                            + MaterialProperties::COPPER.volumetric_heat_capacity * d
                    }
                    _ => layer.material.volumetric_heat_capacity,
                };
                cap[l * bins + b] = cv * volume;
            }
        }

        let active_layers = (0..dies)
            .map(|die| {
                config
                    .active_layer_of(die)
                    .expect("config must contain an active layer per die")
            })
            .collect();
        let max_stable_dt = stable_dt(&network, &cap);
        Ok(Self {
            grid,
            network,
            cap,
            active_layers,
            dies,
            max_stable_dt,
        })
    }

    /// The lumped special case: one uncoupled node per die on a 1×1 grid, with the exact
    /// RC values of [`LumpedTransient::new`]. Stepping this solver with
    /// [`TransientSolver::step`] is bit-identical to [`LumpedTransient::simulate`].
    pub fn lumped(config: &ThermalConfig) -> Self {
        let (cap, resistance) = lumped_rc(config);
        let dies = config.stack.dies();
        let grid = Grid::square(config.stack.outline().rect(), 1);
        let gb: Vec<f64> = resistance.iter().map(|&r| 1.0 / r).collect();
        let network = Network {
            layers: dies,
            cols: 1,
            rows: 1,
            gx: vec![0.0; dies],
            gy: vec![0.0; dies],
            gz: vec![0.0; dies],
            gb,
            power: vec![0.0; dies],
            ambient: config.ambient,
        };
        let max_stable_dt = stable_dt(&network, &cap);
        Self {
            grid,
            network,
            cap,
            active_layers: (0..dies).collect(),
            dies,
            max_stable_dt,
        }
    }

    /// The analysis grid.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Number of dies.
    pub fn dies(&self) -> usize {
        self.dies
    }

    /// Number of RC nodes (`layers * bins`).
    pub fn node_count(&self) -> usize {
        self.cap.len()
    }

    /// Ambient temperature in kelvin.
    pub fn ambient(&self) -> f64 {
        self.network.ambient
    }

    /// The largest explicit-Euler step that keeps the integration stable, in seconds
    /// (`min` over nodes of `C / ΣG`). [`TransientSolver::advance`] applies an additional
    /// safety margin on top.
    pub fn max_stable_dt(&self) -> f64 {
        self.max_stable_dt
    }

    /// A fresh state: every node at ambient, zero injected power.
    pub fn state(&self) -> TransientState {
        let n = self.node_count();
        TransientState {
            temps: vec![self.network.ambient; n],
            next: vec![self.network.ambient; n],
            power: vec![0.0; n],
        }
    }

    /// Resets a state to ambient temperatures (power is left as set) — the buffer-reusing
    /// way to start the next trace.
    pub fn reset(&self, state: &mut TransientState) {
        state.temps.fill(self.network.ambient);
    }

    /// Sets the injected power from per-die maps (watts per bin, bottom die first), the
    /// same convention as [`crate::SteadyStateSolver::solve`].
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::PowerMapCount`] / [`SolveError::GridMismatch`] on mismatched
    /// inputs.
    pub fn set_power(
        &self,
        state: &mut TransientState,
        power_per_die: &[GridMap],
    ) -> Result<(), SolveError> {
        if power_per_die.len() != self.dies {
            return Err(SolveError::PowerMapCount {
                got: power_per_die.len(),
                expected: self.dies,
            });
        }
        if power_per_die.iter().any(|m| m.grid() != self.grid) {
            return Err(SolveError::GridMismatch);
        }
        let bins = self.grid.bins();
        state.power.fill(0.0);
        for (die, map) in power_per_die.iter().enumerate() {
            let l = self.active_layers[die];
            state.power[l * bins..(l + 1) * bins].copy_from_slice(map.values());
        }
        Ok(())
    }

    /// Sets a spatially uniform total power per die (watts), a convenience for demos and
    /// step-response tests.
    ///
    /// # Panics
    ///
    /// Panics if `watts_per_die.len()` differs from the die count.
    pub fn set_uniform_power(&self, state: &mut TransientState, watts_per_die: &[f64]) {
        assert_eq!(
            watts_per_die.len(),
            self.dies,
            "one power value per die required"
        );
        let bins = self.grid.bins();
        state.power.fill(0.0);
        for (die, &watts) in watts_per_die.iter().enumerate() {
            let l = self.active_layers[die];
            let per_bin = watts / bins as f64;
            state.power[l * bins..(l + 1) * bins].fill(per_bin);
        }
    }

    /// The new temperature of one node under the current field: the Jacobi explicit-Euler
    /// update. Reads only `t` (the previous field), so any execution order produces the
    /// same value — the bit-identical-parallelism property.
    #[inline]
    fn stepped_value(&self, t: &[f64], power: &[f64], idx: usize, dt: f64) -> f64 {
        let n = &self.network;
        let bins = n.cols * n.rows;
        let b = idx % bins;
        let l = idx / bins;
        let col = b % n.cols;
        let row = b / n.cols;
        let here = t[idx];
        let mut flow = power[idx] - n.gb[idx] * (here - n.ambient);
        if col + 1 < n.cols {
            flow += n.gx[idx] * (t[idx + 1] - here);
        }
        if col > 0 {
            flow += n.gx[idx - 1] * (t[idx - 1] - here);
        }
        if row + 1 < n.rows {
            flow += n.gy[idx] * (t[idx + n.cols] - here);
        }
        if row > 0 {
            flow += n.gy[idx - n.cols] * (t[idx - n.cols] - here);
        }
        if l + 1 < n.layers {
            flow += n.gz[idx] * (t[idx + bins] - here);
        }
        if l > 0 {
            flow += n.gz[idx - bins] * (t[idx - bins] - here);
        }
        here + (flow / self.cap[idx]) * dt
    }

    /// Advances the field by one explicit-Euler step of `dt` seconds.
    ///
    /// The caller owns stability: `dt` above [`TransientSolver::max_stable_dt`] diverges.
    /// Use [`TransientSolver::advance`] for automatic substepping.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn step(&self, state: &mut TransientState, dt: f64) {
        assert!(dt > 0.0, "dt must be positive");
        let TransientState { temps, next, power } = state;
        for (idx, value) in next.iter_mut().enumerate() {
            *value = self.stepped_value(temps, power, idx, dt);
        }
        std::mem::swap(temps, next);
    }

    /// Number of substeps [`TransientSolver::advance`] uses for a duration.
    pub fn steps_for(&self, duration: f64) -> usize {
        ((duration / (self.max_stable_dt * STABILITY_MARGIN)).ceil() as usize).max(1)
    }

    /// Advances the field by `duration` seconds, substepping within the stability bound.
    /// Returns the number of steps taken.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is not positive.
    pub fn advance(&self, state: &mut TransientState, duration: f64) -> usize {
        assert!(duration > 0.0, "duration must be positive");
        let steps = self.steps_for(duration);
        let dt = duration / steps as f64;
        for _ in 0..steps {
            self.step(state, dt);
        }
        steps
    }

    /// The temperature map of die `die`'s active layer, in kelvin.
    pub fn die_temperature(&self, state: &TransientState, die: usize) -> GridMap {
        let bins = self.grid.bins();
        let l = self.active_layers[die];
        GridMap::from_values(self.grid, state.temps[l * bins..(l + 1) * bins].to_vec())
    }

    /// The temperature of one bin of die `die`'s active layer — the cheap point read a
    /// sensor model samples every period without materialising a map.
    pub fn temperature_at(&self, state: &TransientState, die: usize, pos: GridPos) -> f64 {
        let bins = self.grid.bins();
        let l = self.active_layers[die];
        state.temps[l * bins + self.grid.flat_index(pos)]
    }
}

/// The explicit-Euler stability bound of a network: `min` over nodes of `C / ΣG`.
fn stable_dt(network: &Network, cap: &[f64]) -> f64 {
    let bins = network.cols * network.rows;
    let mut worst = f64::INFINITY;
    for (idx, &c) in cap.iter().enumerate() {
        let b = idx % bins;
        let l = idx / bins;
        let col = b % network.cols;
        let row = b / network.cols;
        let mut g_sum = network.gb[idx];
        if col + 1 < network.cols {
            g_sum += network.gx[idx];
        }
        if col > 0 {
            g_sum += network.gx[idx - 1];
        }
        if row + 1 < network.rows {
            g_sum += network.gy[idx];
        }
        if row > 0 {
            g_sum += network.gy[idx - network.cols];
        }
        if l + 1 < network.layers {
            g_sum += network.gz[idx];
        }
        if l > 0 {
            g_sum += network.gz[idx - bins];
        }
        if g_sum > 0.0 {
            worst = worst.min(c / g_sum);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SteadyStateSolver;
    use tsc3d_geometry::{Outline, Rect, Stack};

    fn model() -> LumpedTransient {
        let config = ThermalConfig::default_for(Stack::two_die(Outline::new(4000.0, 4000.0)));
        LumpedTransient::new(&config)
    }

    #[test]
    fn time_constants_are_slow_compared_to_logic() {
        let m = model();
        // Thermal time constants must be orders of magnitude above nanoseconds.
        assert!(m.time_constant(0) > 1e-4);
        assert!(m.time_constant(1) > 1e-5);
        // The bottom die (further from the sink) is slower than the top die.
        assert!(m.time_constant(0) > m.time_constant(1));
    }

    #[test]
    fn step_response_approaches_steady_state() {
        let m = model();
        let tau = m.time_constant(1);
        let samples = m.simulate(1, |_| 2.0, 8.0 * tau, tau / 50.0);
        let last = samples.last().unwrap();
        let target = m.steady_state(1, 2.0);
        assert!((last.temperature - target).abs() / (target - m.ambient()) < 0.02);
        // Early in the transient the temperature must still be far from steady state.
        let early = &samples[samples.len() / 100];
        assert!((early.temperature - m.ambient()) < 0.7 * (target - m.ambient()));
    }

    #[test]
    fn fast_power_toggling_is_filtered_out() {
        let m = model();
        let tau = m.time_constant(1);
        // Toggle power 1000x faster than the time constant: the temperature ripple must be
        // tiny compared to the mean rise — this is the low-bandwidth property of the TSC.
        let samples = m.time_scale_demo(1, 0.0, 2.0, tau / 1000.0, 4.0 * tau, 40_000);
        // Look at the tail of the simulation only, where the slow exponential settling no
        // longer masks the (tiny) toggling-induced ripple.
        let tail = &samples[samples.len() - samples.len() / 40..];
        let temps: Vec<f64> = tail.iter().map(|s| s.temperature).collect();
        let mean = temps.iter().sum::<f64>() / temps.len() as f64;
        let ripple = temps.iter().cloned().fold(f64::MIN, f64::max)
            - temps.iter().cloned().fold(f64::MAX, f64::min);
        let rise = mean - m.ambient();
        assert!(rise > 0.0);
        assert!(ripple / rise < 0.05, "ripple {ripple} vs rise {rise}");
        // The mean settles near the average-power steady state.
        let target = m.steady_state(1, 1.0);
        assert!((mean - target).abs() / (target - m.ambient()) < 0.1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_dt_panics() {
        let m = model();
        let _ = m.simulate(0, |_| 1.0, 1.0, 0.0);
    }

    fn spatial_setup(bins: usize) -> (ThermalConfig, Grid) {
        let stack = Stack::two_die(Outline::new(2000.0, 2000.0));
        let grid = Grid::square(stack.outline().rect(), bins);
        (ThermalConfig::default_for(stack), grid)
    }

    #[test]
    fn lumped_model_is_a_bit_tested_special_case_of_the_grid_engine() {
        // Step the lumped-topology grid engine and LumpedTransient::simulate through the
        // same toggling waveform: every sample must agree bit for bit.
        let config = ThermalConfig::default_for(Stack::two_die(Outline::new(4000.0, 4000.0)));
        let lumped = LumpedTransient::new(&config);
        let solver = TransientSolver::lumped(&config);
        assert_eq!(solver.dies(), 2);
        assert_eq!(solver.node_count(), 2);
        for die in 0..2 {
            let tau = lumped.time_constant(die);
            let dt = tau / 64.0;
            let duration = 2.0 * tau;
            let power = |t: f64| {
                if ((t / (tau / 8.0)) as u64) % 2 == 0 {
                    2.5
                } else {
                    0.5
                }
            };
            let reference = lumped.simulate(die, power, duration, dt);

            let mut state = solver.state();
            let steps = (duration / dt).ceil() as usize;
            let mut watts = vec![0.0; 2];
            for (step, sample) in reference.iter().enumerate().take(steps + 1) {
                let time = step as f64 * dt;
                assert_eq!(sample.time, time);
                assert_eq!(
                    solver.temperature_at(&state, die, GridPos::new(0, 0)),
                    sample.temperature,
                    "die {die} step {step}"
                );
                watts[die] = power(time);
                solver.set_uniform_power(&mut state, &watts);
                solver.step(&mut state, dt);
            }
        }
    }

    #[test]
    fn grid_transient_settles_to_the_steady_state_solution() {
        // The long-time limit of the transient engine must agree with the steady-state
        // solver on the identical network (same conductances, same boundary paths).
        let (config, grid) = spatial_setup(8);
        let tsvs = vec![TsvField::uniform(grid, 0.05)];
        let mut hotspot = GridMap::zeros(grid);
        hotspot.splat_power(&Rect::new(0.0, 0.0, 700.0, 500.0), 2.0);
        let power = vec![hotspot, GridMap::constant(grid, 1.0 / 64.0)];

        let steady = SteadyStateSolver::new(config.clone())
            .solve(&power, &tsvs)
            .unwrap();

        let solver = TransientSolver::new(&config, grid, &tsvs).unwrap();
        let mut state = solver.state();
        solver.set_power(&mut state, &power).unwrap();
        // Settle: several die-level time constants.
        solver.advance(&mut state, 0.5);
        for die in 0..2 {
            let transient_map = solver.die_temperature(&state, die);
            let steady_map = steady.die_temperature(die);
            for (a, b) in transient_map.values().iter().zip(steady_map.values()) {
                assert!(
                    (a - b).abs() < 0.05,
                    "die {die}: transient {a} vs steady {b}"
                );
            }
        }
    }

    #[test]
    fn transient_heats_where_the_power_is() {
        let (config, grid) = spatial_setup(16);
        let tsvs = vec![TsvField::empty(grid)];
        let solver = TransientSolver::new(&config, grid, &tsvs).unwrap();
        let mut state = solver.state();
        let mut p0 = GridMap::zeros(grid);
        p0.splat_power(&Rect::new(0.0, 0.0, 500.0, 500.0), 3.0);
        solver
            .set_power(&mut state, &[p0, GridMap::zeros(grid)])
            .unwrap();
        solver.advance(&mut state, 0.02);
        let map = solver.die_temperature(&state, 0);
        let hottest = map.argmax();
        assert!(hottest.col < 8 && hottest.row < 8, "hotspot at {hottest}");
        assert!(map.max() > solver.ambient());
        // The opposite corner has barely moved this early in the transient.
        let far = map.get(GridPos::new(15, 15));
        assert!(far - solver.ambient() < 0.2 * (map.max() - solver.ambient()));
    }

    #[test]
    fn stability_bound_is_finite_and_respected() {
        let (config, grid) = spatial_setup(8);
        let tsvs = vec![TsvField::empty(grid)];
        let solver = TransientSolver::new(&config, grid, &tsvs).unwrap();
        let dt_max = solver.max_stable_dt();
        assert!(dt_max.is_finite() && dt_max > 0.0);
        // advance picks at least duration/(margin*dt_max) steps.
        assert!(solver.steps_for(1.0) as f64 >= 1.0 / dt_max);
        // A long integration at the automatic substep stays bounded (no blow-up).
        let mut state = solver.state();
        solver.set_uniform_power(&mut state, &[2.0, 2.0]);
        solver.advance(&mut state, 0.05);
        assert!(state.temperatures().iter().all(|t| t.is_finite()));
        assert!(state.temperatures().iter().all(|&t| t < 500.0));
    }

    #[test]
    fn input_validation_is_typed() {
        let (config, grid) = spatial_setup(4);
        let err = TransientSolver::new(&config, grid, &[]).unwrap_err();
        assert!(matches!(
            err,
            SolveError::TsvFieldCount {
                expected: 1,
                got: 0
            }
        ));
        let other = Grid::square(Rect::from_size(2000.0, 2000.0), 5);
        let err = TransientSolver::new(&config, grid, &[TsvField::empty(other)]).unwrap_err();
        assert!(matches!(err, SolveError::GridMismatch));

        let solver = TransientSolver::new(&config, grid, &[TsvField::empty(grid)]).unwrap();
        let mut state = solver.state();
        let err = solver
            .set_power(&mut state, &[GridMap::zeros(grid)])
            .unwrap_err();
        assert!(matches!(
            err,
            SolveError::PowerMapCount {
                expected: 2,
                got: 1
            }
        ));
        let err = solver
            .set_power(&mut state, &[GridMap::zeros(other), GridMap::zeros(other)])
            .unwrap_err();
        assert!(matches!(err, SolveError::GridMismatch));
    }
}
