//! A solve interrupted inside detailed post-processing fails the flow typed, instead of
//! falling back to the fast estimate and returning drifted correlations.
//!
//! The fault harness and the sweep counter are process-wide, so this test lives in its
//! own binary.

use tsc3d::postprocess::ThermalEngine;
use tsc3d::{FlowConfig, FlowStage, Setup, TscFlow};
use tsc3d_exec::fault::{self, FaultPlan};
use tsc3d_netlist::suite::{generate, Benchmark};

/// Detailed SOR sweeps performed in this process so far.
fn sweeps() -> u64 {
    tsc3d_obs::global()
        .render()
        .lines()
        .find_map(|line| line.strip_prefix("tsc3d_thermal_sweeps_total "))
        .map_or(0, |value| {
            value.trim().parse::<f64>().expect("a number") as u64
        })
}

#[test]
fn an_injected_sweep_error_in_a_sample_solve_fails_the_flow_typed() {
    let design = generate(Benchmark::N100, 1);
    let mut config = FlowConfig::quick(Setup::TscAware);
    config.schedule.stages = 20;
    config.schedule.moves_per_stage = 30;
    config.schedule.grid_bins = 10;
    config.verification_bins = 12;
    let post_process = config
        .post_process
        .as_mut()
        .expect("TSC flows post-process");
    post_process.engine = ThermalEngine::Detailed;
    post_process.activity_samples = 4;

    // Without post-processing the same flow runs only the verify stage's solves, so the
    // next sweep after them is the first sweep of an activity-sample solve (the first
    // two samples are solved side by side, and the serial schedule runs both).
    let verify_only = FlowConfig {
        post_process: None,
        ..config
    };
    let before = sweeps();
    TscFlow::new(verify_only)
        .run(&design, 1)
        .expect("a clean flow");
    let verify_sweeps = sweeps() - before;
    assert!(verify_sweeps > 0);

    let plan = format!("solver-sweep:{}:error", verify_sweeps + 1);
    fault::arm(FaultPlan::parse(&plan).expect("plan"));
    let outcome = TscFlow::new(config).run(&design, 1);
    let fired = fault::disarm();
    assert_eq!(fired.len(), 1, "{fired:?}");

    let error = outcome.expect_err("the interrupted sample solve fails the flow");
    assert_eq!(error.kind(), "fault-injected", "{error}");
    assert_eq!(error.stage(), FlowStage::PostProcess);
}
