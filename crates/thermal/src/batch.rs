//! Lockstep batched transient stepping: many independent transients through one network.
//!
//! Trace-level side-channel simulation (`tsc3d-sca`) steps the *same* RC network through
//! many short transients that differ only in their injected power: one per sensor when
//! it extracts its response kernel, one per trace in the stepped reference its tests
//! check that kernel against. The scalar [`TransientSolver`] pays the per-node overhead
//! — index arithmetic, boundary branches, conductance loads — once per node per step
//! *per transient*. [`BatchTransientSolver`] steps a batch of transients ("lanes") in
//! lockstep over structure-of-arrays fields laid out `[node × lane]`, so every per-node
//! quantity is loaded once per step and the inner loop is a contiguous, vectorizable
//! sweep over the lanes.
//!
//! **Reciprocity.** Conductances are symmetric and capacities diagonal, so after `n`
//! substeps from ambient the rise at node `b` from 1 W at node `a` equals the rise at `a`
//! from 1 W at `b` (tested to 1e-12 relative). The sca kernel engine relies on this to
//! step one lane per sensor instead of one per trace.
//!
//! **Bit-identity.** For each lane the arithmetic is the exact per-node operation
//! sequence of [`TransientSolver::step`] — the boundary-damping term first, then the
//! +x, −x, +y, −y, +z, −z neighbour flows in that order, then `t + (flow / C) · dt` —
//! on the same operands. Lanes never mix, so every lane's temperature series is
//! bit-identical to a scalar simulation of that trace, for any batch size.

use crate::transient::TransientSolver;
use crate::SolveError;
use std::sync::Arc;
use tsc3d_geometry::{GridMap, GridPos};

/// The stepping plan of the whole network in CSR-style structure-of-arrays form:
/// everything [`BatchTransientSolver::step`] needs, resolved once at construction so the
/// hot loop carries no index arithmetic, no boundary branches, and the minimum possible
/// per-node memory traffic (the plan stream is read once per step sweep and competes with
/// the lane fields for bandwidth).
#[derive(Debug, Default)]
struct StepPlan {
    /// Conductance towards ambient (boundary paths) per node in W/K.
    gb: Vec<f64>,
    /// Heat capacity per node in J/K.
    cap: Vec<f64>,
    /// Exclusive prefix offsets into `neighbor`/`g`: node `i`'s neighbours occupy
    /// `starts[i]..starts[i + 1]`.
    starts: Vec<u32>,
    /// Neighbour node indices, per node in the scalar engine's flow-accumulation order:
    /// +x, −x, +y, −y, +z, −z, keeping only the neighbours that exist.
    neighbor: Vec<u32>,
    /// Conductance towards the matching `neighbor` entry in W/K.
    g: Vec<f64>,
}

/// The mutable side of a batched simulation: `lanes` independent temperature fields and
/// power injections interleaved `[node × lane]` (lane-contiguous per node).
#[derive(Debug, Clone)]
pub struct BatchTransientState {
    lanes: usize,
    /// Node temperatures in kelvin, `node_count × lanes`, node-major.
    temps: Vec<f64>,
    /// Scratch for the out-of-place Jacobi step.
    next: Vec<f64>,
    /// Injected power per node per lane in watts, same layout as `temps`.
    power: Vec<f64>,
    /// Per-lane flow accumulator of the node currently being stepped.
    flow: Vec<f64>,
}

impl BatchTransientState {
    /// Number of lanes (traces stepped in lockstep).
    pub fn lanes(&self) -> usize {
        self.lanes
    }
}

/// Lockstep batched variant of [`TransientSolver`]: one shared conductance network and
/// capacity vector, `lanes` independent transients advanced per step.
///
/// It is equivalence-tested lane by lane against the scalar engine (see module docs for
/// the bit-identity argument). The sca layer steps one lane per sensor through it to
/// extract its reciprocity kernel, and its tests one lane per trace, as the reference.
/// Lane counts 1, 2, 4, 8 and 16 step through specialised fixed-width loops; other
/// counts fall back to a slower generic loop, so callers pad to those widths.
///
/// ```
/// use std::sync::Arc;
/// use tsc3d_geometry::{Grid, GridMap, Outline, Stack};
/// use tsc3d_thermal::{BatchTransientSolver, ThermalConfig, TransientSolver, TsvField};
///
/// let stack = Stack::two_die(Outline::new(2000.0, 2000.0));
/// let grid = Grid::square(stack.outline().rect(), 8);
/// let config = ThermalConfig::default_for(stack);
/// let scalar = Arc::new(TransientSolver::new(&config, grid, &[TsvField::empty(grid)]).unwrap());
/// let batched = BatchTransientSolver::new(Arc::clone(&scalar));
/// let mut state = batched.state(4);
/// let maps = [GridMap::constant(grid, 2.0 / 64.0), GridMap::zeros(grid)];
/// for lane in 0..4 {
///     batched.set_power(&mut state, lane, &maps).unwrap();
/// }
/// batched.advance(&mut state, 0.01);
/// ```
#[derive(Debug)]
pub struct BatchTransientSolver {
    inner: Arc<TransientSolver>,
    plan: StepPlan,
}

impl BatchTransientSolver {
    /// Builds the batched engine over an existing scalar solver: the network and the
    /// capacity vector are shared (built once per mitigation state, not per trace), the
    /// per-node neighbour plans are resolved here.
    pub fn new(inner: Arc<TransientSolver>) -> Self {
        let n = &inner.network;
        let bins = n.cols * n.rows;
        let mut plan = StepPlan::default();
        for idx in 0..inner.node_count() {
            let b = idx % bins;
            let l = idx / bins;
            let col = b % n.cols;
            let row = b / n.cols;
            plan.gb.push(n.gb[idx]);
            plan.cap.push(inner.cap[idx]);
            plan.starts.push(plan.neighbor.len() as u32);
            let mut push = |node: usize, g: f64| {
                plan.neighbor.push(node as u32);
                plan.g.push(g);
            };
            // The scalar step's flow-accumulation order: +x, −x, +y, −y, +z, −z.
            if col + 1 < n.cols {
                push(idx + 1, n.gx[idx]);
            }
            if col > 0 {
                push(idx - 1, n.gx[idx - 1]);
            }
            if row + 1 < n.rows {
                push(idx + n.cols, n.gy[idx]);
            }
            if row > 0 {
                push(idx - n.cols, n.gy[idx - n.cols]);
            }
            if l + 1 < n.layers {
                push(idx + bins, n.gz[idx]);
            }
            if l > 0 {
                push(idx - bins, n.gz[idx - bins]);
            }
        }
        plan.starts.push(plan.neighbor.len() as u32);
        Self { inner, plan }
    }

    /// The shared scalar solver (network topology, stability bound, sensor extraction).
    pub fn inner(&self) -> &Arc<TransientSolver> {
        &self.inner
    }

    /// A fresh state of `lanes` lanes: every node of every lane at ambient, zero power.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn state(&self, lanes: usize) -> BatchTransientState {
        assert!(lanes > 0, "a batch needs at least one lane");
        let n = self.inner.node_count() * lanes;
        BatchTransientState {
            lanes,
            temps: vec![self.inner.ambient(); n],
            next: vec![self.inner.ambient(); n],
            power: vec![0.0; n],
            flow: vec![0.0; lanes],
        }
    }

    /// Resets every lane to ambient temperatures (power is left as set).
    pub fn reset(&self, state: &mut BatchTransientState) {
        state.temps.fill(self.inner.ambient());
    }

    /// Sets lane `lane`'s injected power from per-die maps, the batched counterpart of
    /// [`TransientSolver::set_power`].
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::PowerMapCount`] / [`SolveError::GridMismatch`] on mismatched
    /// inputs.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn set_power(
        &self,
        state: &mut BatchTransientState,
        lane: usize,
        power_per_die: &[GridMap],
    ) -> Result<(), SolveError> {
        assert!(lane < state.lanes, "lane {lane} outside the batch");
        if power_per_die.len() != self.inner.dies() {
            return Err(SolveError::PowerMapCount {
                got: power_per_die.len(),
                expected: self.inner.dies(),
            });
        }
        if power_per_die.iter().any(|m| m.grid() != self.inner.grid()) {
            return Err(SolveError::GridMismatch);
        }
        let lanes = state.lanes;
        let bins = self.inner.grid().bins();
        for node in 0..self.inner.node_count() {
            state.power[node * lanes + lane] = 0.0;
        }
        for (die, map) in power_per_die.iter().enumerate() {
            let l = self.inner.active_layers[die];
            for (b, &w) in map.values().iter().enumerate() {
                state.power[(l * bins + b) * lanes + lane] = w;
            }
        }
        Ok(())
    }

    /// Advances every lane by one explicit-Euler step of `dt` seconds — the lockstep
    /// counterpart of [`TransientSolver::step`], bit-identical per lane.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn step(&self, state: &mut BatchTransientState, dt: f64) {
        assert!(dt > 0.0, "dt must be positive");
        // Monomorphized lane counts keep the inner loops fixed-size (register-resident
        // flow accumulators, no bounds checks, full vectorization); the power-of-two
        // batch sizes the sca layer uses all hit a specialized path. Per-lane arithmetic
        // is identical in every variant, so this dispatch cannot affect bit-identity.
        match state.lanes {
            1 => self.step_lanes::<1>(state, dt),
            2 => self.step_lanes::<2>(state, dt),
            4 => self.step_lanes::<4>(state, dt),
            8 => self.step_lanes::<8>(state, dt),
            16 => self.step_lanes::<16>(state, dt),
            _ => self.step_dyn(state, dt),
        }
    }

    /// The fixed-lane-count step: `L` is a compile-time constant, so `flow` lives in
    /// registers and every lane loop unrolls.
    fn step_lanes<const L: usize>(&self, state: &mut BatchTransientState, dt: f64) {
        let ambient = self.inner.ambient();
        let plan = &self.plan;
        let BatchTransientState {
            temps, next, power, ..
        } = state;
        let temps: &[f64] = temps;
        for idx in 0..plan.gb.len() {
            let base = idx * L;
            let here: &[f64; L] = temps[base..base + L].try_into().expect("lane slice");
            let injected: &[f64; L] = power[base..base + L].try_into().expect("lane slice");
            // Per lane this is exactly the scalar flow accumulation: boundary term
            // first, then the existing neighbours in +x, −x, +y, −y, +z, −z order.
            let gb = plan.gb[idx];
            let mut flow = [0.0f64; L];
            for lane in 0..L {
                flow[lane] = injected[lane] - gb * (here[lane] - ambient);
            }
            let edges = plan.starts[idx] as usize..plan.starts[idx + 1] as usize;
            for (&neighbor, &g) in plan.neighbor[edges.clone()].iter().zip(&plan.g[edges]) {
                let nb = neighbor as usize * L;
                let there: &[f64; L] = temps[nb..nb + L].try_into().expect("lane slice");
                for lane in 0..L {
                    flow[lane] += g * (there[lane] - here[lane]);
                }
            }
            let cap = plan.cap[idx];
            let out: &mut [f64; L] = (&mut next[base..base + L]).try_into().expect("lane slice");
            for lane in 0..L {
                out[lane] = here[lane] + (flow[lane] / cap) * dt;
            }
        }
        std::mem::swap(&mut state.temps, &mut state.next);
    }

    /// The dynamic-lane-count fallback, same arithmetic with a heap flow accumulator.
    fn step_dyn(&self, state: &mut BatchTransientState, dt: f64) {
        let lanes = state.lanes;
        let ambient = self.inner.ambient();
        let plan = &self.plan;
        let BatchTransientState {
            temps,
            next,
            power,
            flow,
            ..
        } = state;
        let temps: &[f64] = temps;
        for idx in 0..plan.gb.len() {
            let base = idx * lanes;
            let here = &temps[base..base + lanes];
            let injected = &power[base..base + lanes];
            let gb = plan.gb[idx];
            for lane in 0..lanes {
                flow[lane] = injected[lane] - gb * (here[lane] - ambient);
            }
            let edges = plan.starts[idx] as usize..plan.starts[idx + 1] as usize;
            for (&neighbor, &g) in plan.neighbor[edges.clone()].iter().zip(&plan.g[edges]) {
                let nb = neighbor as usize * lanes;
                let there = &temps[nb..nb + lanes];
                for lane in 0..lanes {
                    flow[lane] += g * (there[lane] - here[lane]);
                }
            }
            let cap = plan.cap[idx];
            let out = &mut next[base..base + lanes];
            for lane in 0..lanes {
                out[lane] = here[lane] + (flow[lane] / cap) * dt;
            }
        }
        std::mem::swap(&mut state.temps, &mut state.next);
    }

    /// Advances every lane by `duration` seconds, substepping within the scalar engine's
    /// stability bound — same substep count and `dt` as [`TransientSolver::advance`].
    /// Returns the number of steps taken (per lane).
    ///
    /// # Panics
    ///
    /// Panics if `duration` is not positive.
    pub fn advance(&self, state: &mut BatchTransientState, duration: f64) -> usize {
        assert!(duration > 0.0, "duration must be positive");
        let steps = self.inner.steps_for(duration);
        let dt = duration / steps as f64;
        for _ in 0..steps {
            self.step(state, dt);
        }
        steps
    }

    /// The temperature of one bin of die `die`'s active layer in lane `lane` — the
    /// batched counterpart of [`TransientSolver::temperature_at`].
    pub fn temperature_at(
        &self,
        state: &BatchTransientState,
        lane: usize,
        die: usize,
        pos: GridPos,
    ) -> f64 {
        assert!(lane < state.lanes, "lane {lane} outside the batch");
        let bins = self.inner.grid().bins();
        let l = self.inner.active_layers[die];
        let node = l * bins + self.inner.grid().flat_index(pos);
        state.temps[node * state.lanes + lane]
    }

    /// Number of substeps [`BatchTransientSolver::advance`] uses for a duration (the
    /// scalar engine's count, delegated so the one stability margin stays authoritative).
    pub fn steps_for(&self, duration: f64) -> usize {
        self.inner.steps_for(duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ThermalConfig, TsvField, TsvSite};
    use tsc3d_geometry::{Grid, Outline, Point, Rect, Stack};

    fn setup(bins: usize) -> (Arc<TransientSolver>, Vec<Vec<GridMap>>) {
        let stack = Stack::two_die(Outline::new(2000.0, 2000.0));
        let grid = Grid::square(stack.outline().rect(), bins);
        let config = ThermalConfig::default_for(stack);
        let tsvs = vec![TsvField::uniform(grid, 0.04)];
        let solver = Arc::new(TransientSolver::new(&config, grid, &tsvs).unwrap());
        // A family of distinct per-lane power patterns.
        let patterns = (0..8usize)
            .map(|i| {
                let mut hot = GridMap::zeros(grid);
                let offset = 37.0 * i as f64;
                hot.splat_power(
                    &Rect::new(100.0 + offset, 150.0 + offset, 600.0, 450.0),
                    1.5 + 0.25 * i as f64,
                );
                let uniform = GridMap::constant(grid, (0.4 + 0.1 * i as f64) / grid.bins() as f64);
                vec![hot, uniform]
            })
            .collect();
        (solver, patterns)
    }

    #[test]
    fn lanes_match_the_scalar_engine_bit_for_bit() {
        let (solver, patterns) = setup(9);
        let duration = 0.003;
        // Scalar references, one per pattern.
        let scalar: Vec<_> = patterns
            .iter()
            .map(|maps| {
                let mut state = solver.state();
                solver.set_power(&mut state, maps).unwrap();
                let steps = solver.advance(&mut state, duration);
                (state, steps)
            })
            .collect();

        let batched = BatchTransientSolver::new(Arc::clone(&solver));
        for lanes in [1usize, 3, 8] {
            let mut state = batched.state(lanes);
            assert_eq!(state.lanes(), lanes);
            for (lane, pattern) in patterns.iter().take(lanes).enumerate() {
                batched.set_power(&mut state, lane, pattern).unwrap();
            }
            batched.reset(&mut state);
            let steps = batched.advance(&mut state, duration);
            for (lane, (reference, ref_steps)) in scalar.iter().take(lanes).enumerate() {
                assert_eq!(steps, *ref_steps, "{lanes} lanes");
                for die in 0..solver.dies() {
                    for pos in solver.grid().positions() {
                        assert_eq!(
                            batched.temperature_at(&state, lane, die, pos),
                            solver.temperature_at(reference, die, pos),
                            "{lanes} lanes, lane {lane}, die {die}, {pos}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reset_and_power_are_per_lane() {
        let (solver, patterns) = setup(6);
        let batched = BatchTransientSolver::new(Arc::clone(&solver));
        let mut state = batched.state(2);
        batched.set_power(&mut state, 0, &patterns[0]).unwrap();
        // Lane 1 keeps zero power: after stepping, it must stay at ambient.
        batched.advance(&mut state, 0.002);
        let pos = solver.grid().positions().next().unwrap();
        assert!(batched.temperature_at(&state, 0, 0, pos) > solver.ambient());
        for die in 0..solver.dies() {
            for pos in solver.grid().positions() {
                assert_eq!(
                    batched.temperature_at(&state, 1, die, pos),
                    solver.ambient(),
                    "unpowered lane must not heat"
                );
            }
        }
        // Reset returns every lane to ambient.
        batched.reset(&mut state);
        assert!(state.temps.iter().all(|&t| t == solver.ambient()));
    }

    /// One watt in bin `pos` of die `die`'s active layer, nothing elsewhere.
    fn unit_power(grid: Grid, die: usize, pos: GridPos) -> Vec<GridMap> {
        let mut maps = vec![GridMap::zeros(grid); 2];
        maps[die].set(pos, 1.0);
        maps
    }

    #[test]
    fn responses_are_reciprocal_on_a_non_uniform_network() {
        // Symmetric conductances and diagonal capacities make every Euler power
        // C⁻¹-weighted operator symmetric: after n substeps from ambient, the rise at b
        // from 1 W at a equals the rise at a from 1 W at b. This is the premise of the
        // sca kernel engine, so it is checked on an irregular TSV field.
        let stack = Stack::two_die(Outline::new(2000.0, 2000.0));
        let grid = Grid::square(stack.outline().rect(), 9);
        let config = ThermalConfig::default_for(stack).with_ambient(0.0);
        let mut tsvs = TsvField::empty(grid);
        for (x, y, count) in [
            (250.0, 300.0, 40),
            (1100.0, 900.0, 120),
            (1700.0, 1500.0, 15),
        ] {
            tsvs.add_site(TsvSite::island(Point::new(x, y), count));
        }
        let solver = Arc::new(TransientSolver::new(&config, grid, &[tsvs]).unwrap());
        let batched = BatchTransientSolver::new(Arc::clone(&solver));
        let pairs = [
            ((0, GridPos::new(1, 2)), (0, GridPos::new(6, 5))),
            ((1, GridPos::new(3, 3)), (1, GridPos::new(4, 8))),
            ((0, GridPos::new(2, 7)), (1, GridPos::new(7, 1))),
            ((0, GridPos::new(4, 4)), (1, GridPos::new(4, 4))),
        ];
        for ((die_a, a), (die_b, b)) in pairs {
            let mut state = batched.state(2);
            batched
                .set_power(&mut state, 0, &unit_power(grid, die_a, a))
                .unwrap();
            batched
                .set_power(&mut state, 1, &unit_power(grid, die_b, b))
                .unwrap();
            let steps = batched.advance(&mut state, 0.004);
            assert!(steps > 100, "{steps} substeps");
            let at_b = batched.temperature_at(&state, 0, die_b, b);
            let at_a = batched.temperature_at(&state, 1, die_a, a);
            assert!(
                at_b > 0.0,
                "die {die_a} {a} -> die {die_b} {b} never heated"
            );
            assert!(
                (at_b - at_a).abs() <= 1e-12 * at_b,
                "die {die_a} {a} -> die {die_b} {b}: {at_b:e} vs {at_a:e}"
            );
        }
    }

    #[test]
    fn lumped_steps_match_the_closed_form() {
        // One uncoupled node per die: n Euler steps under constant power P from ambient
        // rise by (P/g)·(1 − (1 − g·dt/C)ⁿ).
        let stack = Stack::two_die(Outline::new(4000.0, 4000.0));
        let config = ThermalConfig::default_for(stack).with_ambient(0.0);
        let solver = Arc::new(TransientSolver::lumped(&config));
        let batched = BatchTransientSolver::new(Arc::clone(&solver));
        let grid = solver.grid();
        let pos = GridPos::new(0, 0);
        let power = 1.75;
        for die in 0..2 {
            let (g, c) = (solver.network.gb[die], solver.cap[die]);
            let dt = 0.01 * c / g;
            let mut maps = unit_power(grid, die, pos);
            maps[die].set(pos, power);
            let mut state = batched.state(1);
            batched.set_power(&mut state, 0, &maps).unwrap();
            for n in 1..=300 {
                batched.step(&mut state, dt);
                let closed = (power / g) * (1.0 - (1.0 - g * dt / c).powi(n));
                let stepped = batched.temperature_at(&state, 0, die, pos);
                assert!(
                    (stepped - closed).abs() <= 1e-12 * closed,
                    "die {die}, step {n}: {stepped:e} vs {closed:e}"
                );
            }
        }
    }

    #[test]
    fn input_validation_is_typed() {
        let (solver, _) = setup(4);
        let batched = BatchTransientSolver::new(Arc::clone(&solver));
        let mut state = batched.state(2);
        let err = batched
            .set_power(&mut state, 0, &[GridMap::zeros(solver.grid())])
            .unwrap_err();
        assert!(matches!(
            err,
            SolveError::PowerMapCount {
                expected: 2,
                got: 1
            }
        ));
        let other = Grid::square(Rect::from_size(2000.0, 2000.0), 5);
        let err = batched
            .set_power(
                &mut state,
                0,
                &[GridMap::zeros(other), GridMap::zeros(other)],
            )
            .unwrap_err();
        assert!(matches!(err, SolveError::GridMismatch));
    }
}
