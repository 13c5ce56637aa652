//! An interrupted detailed solve counts the sweeps it performed in the registry and on
//! its `thermal_solve` span alike, and does not count as a solve.
//!
//! Lives in its own integration-test binary because the fault harness, the registry and
//! the span collector are process-wide: solves in concurrent tests would absorb the
//! `solver-sweep` hits and move the counters.

use tsc3d_exec::{fault, FaultPlan};
use tsc3d_geometry::{Grid, GridMap, Outline, Rect, Stack};
use tsc3d_thermal::{SolveError, SteadyStateSolver, ThermalConfig, TsvField};

fn counter(name: &str) -> u64 {
    tsc3d_obs::global().counter(name, "").get()
}

#[test]
fn a_solve_stopped_at_the_fifth_sweep_counts_four_sweeps_in_both_stores() {
    let stack = Stack::two_die(Outline::new(1_000.0, 1_000.0));
    let grid = Grid::square(stack.outline().rect(), 6);
    let mut hot = GridMap::zeros(grid);
    hot.splat_power(&Rect::new(100.0, 100.0, 400.0, 300.0), 1.5);
    let solver = SteadyStateSolver::new(ThermalConfig::default_for(stack));
    let solves = counter("tsc3d_thermal_solves_total");
    let sweeps = counter("tsc3d_thermal_sweeps_total");

    fault::arm(FaultPlan::parse("solver-sweep:5:error").expect("plan"));
    tsc3d_obs::set_tracing(true);
    let result = solver.solve(
        &[hot, GridMap::zeros(grid)],
        &[TsvField::uniform(grid, 0.1)],
    );
    tsc3d_obs::set_tracing(false);
    assert_eq!(fault::disarm().len(), 1);

    let Err(SolveError::Interrupted { iterations, .. }) = result else {
        panic!("the fault interrupts the solve: {result:?}");
    };
    assert_eq!(iterations, 4);
    assert_eq!(counter("tsc3d_thermal_sweeps_total") - sweeps, 4);
    assert_eq!(counter("tsc3d_thermal_solves_total"), solves);
    let spans = tsc3d_obs::drain_spans();
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].name, "thermal_solve");
    assert_eq!(spans[0].counters, [("solver_sweeps".to_string(), 4)]);
}
