//! A flow's helper lane under cancellation, injected panics, the process-wide flow
//! budget and the record that stops unneeded repair guesses, plus the sign-off that
//! reuses the verify stage's solve.
//!
//! The budget, the guess record, the fault harness and the metrics registry are
//! process-wide, so these tests live in their own binary and serialize on one lock.
//! Filling the budget before a run forces the serial schedule; an empty budget gives
//! the run a helper on a host with two or more cores.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};

use tsc3d::verification::{default_solver, verify};
use tsc3d::{FlowConfig, FlowError, FlowResult, Setup, TscFlow};
use tsc3d_exec::fault::{self, FaultPlan};
use tsc3d_exec::{flow_threads, CancelReason, CancelToken, FlowThread, Speculation};
use tsc3d_netlist::suite::{generate, Benchmark};
use tsc3d_obs as obs;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A test that fails while holding the lock poisons it; the state it guards is
    // re-established by every test.
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Budget occupants that leave a flow no helper (`full`) or every free core.
fn occupy_budget(full: bool) -> Vec<FlowThread> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (0..if full { cores } else { 0 })
        .map(|_| FlowThread::enter())
        .collect()
}

/// The current value of one series of the global registry's rendering.
fn series(name_and_labels: &str) -> u64 {
    obs::global()
        .render()
        .lines()
        .find_map(|line| line.strip_prefix(name_and_labels)?.strip_prefix(' '))
        .map_or(0, |value| {
            value.trim().parse::<f64>().expect("a number") as u64
        })
}

/// A TSC flow on 10-bin grids whose initial 20 × 30-move anneal needs one repair round.
fn small_config() -> FlowConfig {
    let mut config = FlowConfig::quick(Setup::TscAware);
    config.schedule.stages = 20;
    config.schedule.moves_per_stage = 30;
    config.schedule.grid_bins = 10;
    config.verification_bins = 10;
    let mut weights = config.setup.weights();
    weights.packing *= 16.0;
    config.weights = Some(weights);
    if let Some(pp) = config.post_process.as_mut() {
        pp.activity_samples = 4;
    }
    config
}

#[test]
fn a_process_whose_initial_anneals_stay_legal_stops_guessing_a_repair() {
    let _serial = serial();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        return; // The budget never grants a helper on one core.
    }
    let design = generate(Benchmark::N100, 3);
    let discarded =
        || series("tsc3d_flow_speculative_total{outcome=\"discarded\",work=\"anneal\"}");
    let run = |config: FlowConfig, legal: bool| {
        let result = TscFlow::new(config).run(&design, 4).expect("flow");
        assert_eq!(result.outline_repair.is_none(), legal);
    };
    // A 30 × 40-move anneal of this design and seed is legal at once; the 20 × 30-move
    // one needs a repair, which re-arms the guess.
    let mut legal = small_config();
    legal.schedule.stages = 30;
    legal.schedule.moves_per_stage = 40;
    legal.post_process = None;
    run(small_config(), false);
    let armed = discarded();
    for _ in 0..Speculation::PATIENCE {
        run(legal, true);
    }
    let guessed = Speculation::PATIENCE as u64;
    assert_eq!(
        discarded() - armed,
        guessed,
        "each guess ran ahead and was discarded"
    );
    run(legal, true);
    assert_eq!(
        discarded() - armed,
        guessed,
        "eight unneeded guesses in a row stop the next"
    );
    run(small_config(), false);
    run(legal, true);
    assert_eq!(
        discarded() - armed,
        guessed + 1,
        "a needed guess re-arms it"
    );
}

#[test]
fn a_job_cancelled_mid_anneal_returns_cancelled_and_leaves_no_helper() {
    let _serial = serial();
    obs::set_events(true);
    let design = generate(Benchmark::N100, 1);
    let mut config = small_config();
    // Long enough that the cancel always lands inside the initial anneal.
    config.schedule.stages = 20_000;
    for (job, full) in [(0x1A9E_0001, true), (0x1A9E_0002, false)] {
        let occupants = occupy_budget(full);
        let before = flow_threads();
        let token = CancelToken::new();
        let mut events = obs::subscribe();
        let outcome = std::thread::scope(|scope| {
            let run = scope.spawn(|| {
                let _job = obs::JobScope::enter(job);
                TscFlow::new(config).run_with_cancel(&design, 3, &token)
            });
            // The job's first annealing epoch has run: cancel now.
            'wait: loop {
                for event in events.poll(4096).events {
                    let sa = matches!(event.kind, obs::EventKind::Progress { phase: "sa", .. });
                    if sa && event.job == job {
                        break 'wait;
                    }
                }
                assert!(!run.is_finished(), "the flow ended before its first epoch");
                std::thread::yield_now();
            }
            token.cancel(CancelReason::User);
            run.join().expect("a cancelled flow does not panic")
        });
        match outcome {
            Err(FlowError::Cancelled { stage, .. }) => {
                assert_eq!(stage, tsc3d::FlowStage::Floorplan);
            }
            other => panic!("expected a cancelled flow, got {:?}", other.map(|_| ())),
        }
        assert_eq!(flow_threads(), before, "no helper outlives the flow");
        drop(occupants);
    }
    assert_eq!(flow_threads(), 0);
}

#[test]
fn an_injected_anneal_panic_is_the_jobs_panic_on_either_schedule() {
    let _serial = serial();
    let _faults = fault::test_lock();
    let design = generate(Benchmark::N100, 1);
    for full in [true, false] {
        let occupants = occupy_budget(full);
        let before = flow_threads();
        // The first `sa-epoch` hit panics, on whichever lane reaches one first.
        fault::arm(FaultPlan::parse("sa-epoch:1:panic").expect("plan"));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            TscFlow::new(small_config()).run(&design, 3)
        }));
        assert_eq!(fault::disarm().len(), 1, "the planned panic fired");
        let payload = outcome.expect_err("the injected panic reaches the caller");
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(message.contains("sa-epoch"), "{message}");
        assert_eq!(
            flow_threads(),
            before,
            "the unwind returned every budget slot"
        );
        drop(occupants);
    }
}

#[test]
fn a_run_that_accepts_no_island_signs_off_with_the_verify_solve() {
    let _serial = serial();
    let design = generate(Benchmark::N100, 1);
    let solves = || series("tsc3d_thermal_solves_total");
    let run = |seed| -> (FlowResult, u64) {
        let before = solves();
        let result = TscFlow::new(small_config())
            .run(&design, seed)
            .expect("flow");
        (result, solves() - before)
    };

    // The fast engine post-processes without detailed solves, so the verify stage's
    // solve is the only one left when no island is accepted.
    let (plain, solved) = run(1);
    assert_eq!(plain.post_process.as_ref().unwrap().accepted_steps, 0);
    assert_eq!(solved, 1);
    assert_eq!(
        plain.signoff_verification.as_ref(),
        Some(&plain.verification)
    );
    assert_eq!(plain.signoff_solve, Some(plain.verification_solve));
    let grid = plain.verification.power_maps[0].grid();
    let fresh = verify(
        plain.floorplan(),
        &plain.scaled_powers,
        &plain.final_tsv_plan,
        grid,
        &default_solver(plain.floorplan()),
    )
    .expect("the sign-off system solves");
    assert_eq!(
        fresh, plain.verification,
        "the reused report is the sign-off's"
    );

    // A run that accepts islands still signs off with a solve of its own.
    let (augmented, solved) = run(3);
    assert!(augmented.post_process.as_ref().unwrap().accepted_steps > 0);
    assert_eq!(solved, 2);
    assert_ne!(
        augmented.signoff_verification.as_ref(),
        Some(&augmented.verification)
    );
}
