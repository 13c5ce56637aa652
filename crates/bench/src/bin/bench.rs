//! `bench` — the measured-perf harness of the floorplanning hot path.
//!
//! Measures the throughput numbers every layer of the system bottoms out in and
//! records them as one entry of the committed perf trajectory (`BENCH_flow.json`):
//!
//! * **evaluations/sec** of the simulated-annealing hot loop (`SimulatedAnnealing::
//!   optimize_on`) on the N100/N200 two-die smoke, per seed, alongside the retained
//!   from-scratch reference loop and the final cost (so seeded-result drift is caught),
//! * **packs/sec** of the Fenwick scratch packing vs. the O(n²) reference packing,
//! * **sweeps/sec** of the detailed red-black SOR solver per grid size,
//! * **transient steps/sec** of the spatial transient engine per grid size — the hot
//!   loop of the `tsc3d-sca` trace simulations (one sca trace is a few hundred steps, so
//!   traces/sec is this number divided by the configured dwell's step count),
//! * **traces/sec** of the end-to-end sca attack (kernel extraction → trace evaluation →
//!   streaming CPA) per attack grid size, the default kernel engine vs. the batched
//!   stepper at each batch size (the reference engine). The harness asserts both engines
//!   return the identical `ScaOutcome` before timing them. Entries recorded before the
//!   kernel engine measured the batched stepper in `traces_per_sec` and the per-trace
//!   scalar path in `reference_traces_per_sec`.
//!
//! Methodology: every section runs one untimed warmup pass, then takes the best of
//! `--reps` timed repetitions. On a loaded (or single-CPU) box a single cold run can
//! swing ±40%; warmup plus best-of bounds that noise, and `--only` isolates a section so
//! its timing is not perturbed by the allocator and cache state the earlier sections
//! leave behind.
//!
//! ```text
//! bench [--smoke] [--reps N] [--label NAME] [--note TEXT] \
//!       [--only sa,packs,solver,transient,traces]  # run a subset of the sections
//!       [--append PATH]       # append this run as a new entry (created if missing)
//! ```
//!
//! The harness only measures and records. `--append` goes through the one bench-file
//! writer ([`tsc3d_obs::bench::append_entry`]), which refuses a file of another schema
//! instead of overwriting it; every comparison and gate is `obs bench-diff`, which by
//! default compares the newest entry with the newest earlier entry sharing a section.
//! CI appends onto copies of the committed `BENCH_flow.json`: a full informational sweep
//! (`bench --smoke --append <copy> --label ci`, then `obs bench-diff <copy>`) and a
//! gating pass (`bench --smoke --only traces --reps 4 --append <copy2>`, then `obs
//! bench-diff <copy2> --gate`), which fails when traces/sec drops more than 25% below the
//! last committed traces section in any (grid, batch) cell. Only traces/sec gates (the
//! default sca engine is this repo's headline perf claim) and that pass runs it alone at
//! best-of-4, so one noisy sample on a loaded runner cannot flake the check. Releases
//! extend the committed file with `bench --smoke --append BENCH_flow.json --label prN`.
//! End-to-end and per-layer timings of whole operations live in `perfbench/`.

use std::time::Instant;

use tsc3d::{FlowConfig, FlowResult, Setup, TscFlow};
use tsc3d_bench::{arg_present, arg_usize, arg_value};
use tsc3d_floorplan::{
    ObjectiveWeights, PackScratch, SaSchedule, SequencePair3d, SimulatedAnnealing,
};
use tsc3d_geometry::{Grid, GridMap, Outline, Rect, Stack};
use tsc3d_netlist::suite::{generate, Benchmark};
use tsc3d_netlist::Design;
use tsc3d_obs::bench::FLOW_SCHEMA;
use tsc3d_obs::json::Json;
use tsc3d_sca::{run_on_flow_with, AttackConfig, Mitigation, TraceEngine};
use tsc3d_thermal::{SteadyStateSolver, ThermalConfig, TransientSolver, TsvField};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One SA throughput sample.
struct SaSample {
    benchmark: &'static str,
    seed: u64,
    evals_per_sec: f64,
    reference_evals_per_sec: f64,
    cost: f64,
}

/// One packing throughput sample.
struct PackSample {
    benchmark: &'static str,
    packs_per_sec: f64,
    reference_packs_per_sec: f64,
}

/// One solver throughput sample.
struct SolverSample {
    grid: usize,
    sweeps_per_sec: f64,
}

/// One transient-engine throughput sample.
struct TransientSample {
    grid: usize,
    steps_per_sec: f64,
}

/// One end-to-end sca trace-throughput sample (kernel engine vs. the batched stepper).
struct TraceSample {
    grid: usize,
    batch: usize,
    traces_per_sec: f64,
    reference_traces_per_sec: f64,
}

/// The `--only` selection (all sections when the flag is absent).
fn section_enabled(only: &Option<Vec<String>>, name: &str) -> bool {
    match only {
        None => true,
        Some(list) => list.iter().any(|s| s == name),
    }
}

fn main() {
    let smoke = arg_present("--smoke");
    let reps = arg_usize("--reps", if smoke { 2 } else { 3 });
    let label = arg_value("--label").unwrap_or_else(|| "current".to_string());
    let note = arg_value("--note");
    let only: Option<Vec<String>> = arg_value("--only").map(|v| {
        v.split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect()
    });
    if let Some(list) = &only {
        for section in list {
            assert!(
                ["sa", "packs", "solver", "transient", "traces"].contains(&section.as_str()),
                "unknown --only section '{section}'"
            );
        }
    }

    let schedule = if smoke {
        SaSchedule::quick()
    } else {
        SaSchedule::standard()
    };
    let benchmarks: [(&'static str, Benchmark); 2] =
        [("N100", Benchmark::N100), ("N200", Benchmark::N200)];
    let seeds: [u64; 2] = [3, 5];

    println!(
        "bench: mode={} reps={reps} schedule={}x{} grid={}",
        if smoke { "smoke" } else { "full" },
        schedule.stages,
        schedule.moves_per_stage,
        schedule.grid_bins
    );

    // Simulated-annealing evaluations per second (the system's headline throughput).
    let mut sa_samples = Vec::new();
    if section_enabled(&only, "sa") {
        for (name, bench) in benchmarks {
            let design = generate(bench, 1);
            let stack = Stack::two_die(design.outline());
            let weights = ObjectiveWeights::tsc_aware();
            let sa = SimulatedAnnealing::new(schedule);
            for seed in seeds {
                // Untimed warmup: fault in the allocator and caches before timing.
                let _ = sa.optimize_on(&design, stack, &weights, seed);
                let mut evals_per_sec = 0.0f64;
                let mut cost = 0.0;
                for _ in 0..reps {
                    let result = sa.optimize_on(&design, stack, &weights, seed);
                    evals_per_sec =
                        evals_per_sec.max(result.evaluations as f64 / result.runtime_seconds);
                    cost = result.cost;
                }
                let reference = sa.optimize_on_reference(&design, stack, &weights, seed);
                let reference_evals_per_sec =
                    reference.evaluations as f64 / reference.runtime_seconds;
                assert_eq!(
                    cost, reference.cost,
                    "incremental and reference loops diverged on {name} seed {seed}"
                );
                println!(
                    "  sa {name} seed {seed}: {evals_per_sec:.0} evals/s \
                     (reference loop {reference_evals_per_sec:.0}, cost {cost:.6})"
                );
                sa_samples.push(SaSample {
                    benchmark: name,
                    seed,
                    evals_per_sec,
                    reference_evals_per_sec,
                    cost,
                });
            }
        }
    }

    // Packing throughput: the Fenwick scratch path vs. the O(n²) reference.
    let pack_iters = if smoke { 3_000 } else { 10_000 };
    let mut pack_samples = Vec::new();
    if section_enabled(&only, "packs") {
        for (name, bench) in benchmarks {
            let design = generate(bench, 1);
            let stack = Stack::two_die(design.outline());
            let sample = measure_packs(&design, stack, name, pack_iters, reps);
            println!(
                "  pack {name}: {:.0} packs/s (reference {:.0})",
                sample.packs_per_sec, sample.reference_packs_per_sec
            );
            pack_samples.push(sample);
        }
    }

    // Detailed-solver sweep throughput (serial red-black SOR).
    let sweep_budget = 300usize;
    let mut solver_samples = Vec::new();
    if section_enabled(&only, "solver") {
        // 48 bins is the `flow` workload's verification grid.
        for bins in [32usize, 48, 64] {
            let sweeps_per_sec = measure_sweeps(bins, sweep_budget, reps);
            println!("  solver grid {bins}: {sweeps_per_sec:.0} sweeps/s");
            solver_samples.push(SolverSample {
                grid: bins,
                sweeps_per_sec,
            });
        }
    }

    // Transient-engine step throughput (the sca trace hot loop).
    let transient_budget = if smoke { 2_000usize } else { 10_000 };
    let mut transient_samples = Vec::new();
    if section_enabled(&only, "transient") {
        for bins in [16usize, 32] {
            let steps_per_sec = measure_transient_steps(bins, transient_budget, reps);
            println!("  transient grid {bins}: {steps_per_sec:.0} steps/s");
            transient_samples.push(TransientSample {
                grid: bins,
                steps_per_sec,
            });
        }
    }

    // End-to-end sca trace throughput: kernel engine vs. the batched stepper.
    let mut trace_samples = Vec::new();
    if section_enabled(&only, "traces") {
        let (design, flow) = trace_fixture();
        for grid in [8usize, 12] {
            for batch in [4usize, 8] {
                let sample = measure_traces(&design, &flow, grid, batch, smoke, reps);
                println!(
                    "  traces grid {grid} batch {batch}: {:.0} traces/s \
                     (reference {:.0}, {:.2}x)",
                    sample.traces_per_sec,
                    sample.reference_traces_per_sec,
                    sample.traces_per_sec / sample.reference_traces_per_sec
                );
                trace_samples.push(sample);
            }
        }
    }

    let entry = render_entry(
        &label,
        smoke,
        note.as_deref(),
        &sa_samples,
        &pack_samples,
        &solver_samples,
        &transient_samples,
        &trace_samples,
    );

    if let Some(path) = arg_value("--append") {
        let path = std::path::Path::new(&path);
        if let Err(err) = tsc3d_obs::bench::append_entry(path, FLOW_SCHEMA, entry) {
            tsc3d_obs::log_error!("bench", "could not append to {}: {err}", path.display());
            std::process::exit(1);
        }
        println!("bench: appended entry '{label}' to {}", path.display());
    }
}

/// The shared quick flow for the traces section (the flow is timed separately from the
/// attacks it feeds — attack throughput is what the section reports).
fn trace_fixture() -> (Design, FlowResult) {
    let design = generate(Benchmark::N100, 1);
    let mut config = FlowConfig::quick(Setup::TscAware);
    config.schedule.stages = 6;
    config.schedule.moves_per_stage = 10;
    config.schedule.grid_bins = 12;
    config.verification_bins = 12;
    let flow = TscFlow::new(config)
        .run(&design, 3)
        .expect("quick flow converges");
    (design, flow)
}

/// Best-of-`reps` end-to-end attack throughput at attack grid `grid`², the kernel engine
/// vs. the batched stepper at `batch` traces per lockstep batch. Asserts the two engines
/// return identical outcomes before timing.
fn measure_traces(
    design: &Design,
    flow: &FlowResult,
    grid: usize,
    batch: usize,
    smoke: bool,
    reps: usize,
) -> TraceSample {
    let mut config = AttackConfig::quick();
    config.grid_bins = grid;
    config.traces = if smoke { 64 } else { 128 };
    config.sensors.samples_per_trace = 1;
    config.sensors.dwell_s = 0.008;
    config.mtd_checkpoints = 8;
    let attack = |engine: TraceEngine| {
        run_on_flow_with(
            design,
            flow,
            &config,
            5,
            11,
            Mitigation::Baseline,
            engine,
            None,
        )
        .expect("bench attack runs")
    };
    let stepper = TraceEngine::Batched {
        batch_traces: batch,
    };
    // The engines must agree before their speeds are worth comparing.
    assert_eq!(
        attack(TraceEngine::Kernel),
        attack(stepper),
        "kernel and batched sca engines diverged at grid {grid} batch {batch}"
    );
    let best_rate = |engine: TraceEngine| {
        let mut traces_per_sec = 0.0f64;
        for _ in 0..reps {
            let start = Instant::now();
            let _ = attack(engine);
            traces_per_sec =
                traces_per_sec.max(config.traces as f64 / start.elapsed().as_secs_f64());
        }
        traces_per_sec
    };
    let traces_per_sec = best_rate(TraceEngine::Kernel);
    let reference_traces_per_sec = best_rate(stepper);
    TraceSample {
        grid,
        batch,
        traces_per_sec,
        reference_traces_per_sec,
    }
}

/// Best-of-`reps` packing throughput for both the scratch and the reference path.
fn measure_packs(
    design: &Design,
    stack: Stack,
    benchmark: &'static str,
    iters: usize,
    reps: usize,
) -> PackSample {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let mut sp = SequencePair3d::initial(design, stack, &mut rng);
    for _ in 0..50 {
        sp.perturb(design, &mut rng);
    }
    let mut scratch = PackScratch::new();
    let mut floorplan = sp.pack(design);
    // Untimed warmup rep before the timed best-of loop.
    for _ in 0..(iters / 4).max(1) {
        sp.pack_with(design, &mut scratch, &mut floorplan);
    }
    let mut packs_per_sec = 0.0f64;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            sp.pack_with(design, &mut scratch, &mut floorplan);
        }
        packs_per_sec = packs_per_sec.max(iters as f64 / start.elapsed().as_secs_f64());
    }
    // The reference path costs more per pack; a quarter of the iterations suffices.
    let ref_iters = (iters / 4).max(1);
    let mut reference_packs_per_sec = 0.0f64;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..ref_iters {
            let _ = sp.pack_reference(design);
        }
        reference_packs_per_sec =
            reference_packs_per_sec.max(ref_iters as f64 / start.elapsed().as_secs_f64());
    }
    assert_eq!(
        sp.pack_reference(design),
        floorplan,
        "scratch and reference packings diverged on {benchmark}"
    );
    PackSample {
        benchmark,
        packs_per_sec,
        reference_packs_per_sec,
    }
}

/// Best-of-`reps` red-black SOR sweep throughput on a two-die stack at `bins`².
fn measure_sweeps(bins: usize, budget: usize, reps: usize) -> f64 {
    let stack = Stack::two_die(Outline::new(2000.0, 2000.0));
    let grid = Grid::square(stack.outline().rect(), bins);
    // An unreachable tolerance keeps the solver running for the full sweep budget.
    let solver = SteadyStateSolver::new(ThermalConfig::default_for(stack))
        .with_max_iterations(budget)
        .with_tolerance(1e-300);
    let mut hotspot = GridMap::zeros(grid);
    hotspot.splat_power(&Rect::new(0.0, 0.0, 900.0, 700.0), 2.0);
    let power = vec![hotspot, GridMap::constant(grid, 2.0 / grid.bins() as f64)];
    let tsvs = vec![TsvField::uniform(grid, 0.05)];
    // Untimed warmup solve before the timed best-of loop.
    let _ = solver.solve(&power, &tsvs);
    let mut sweeps_per_sec = 0.0f64;
    for _ in 0..reps {
        let start = Instant::now();
        let _ = solver.solve(&power, &tsvs);
        sweeps_per_sec = sweeps_per_sec.max(budget as f64 / start.elapsed().as_secs_f64());
    }
    sweeps_per_sec
}

/// Best-of-`reps` explicit-Euler step throughput of the transient engine on a two-die
/// stack at `bins`² (hotspot power, stability-bounded dt).
fn measure_transient_steps(bins: usize, budget: usize, reps: usize) -> f64 {
    let stack = Stack::two_die(Outline::new(2000.0, 2000.0));
    let grid = Grid::square(stack.outline().rect(), bins);
    let solver = TransientSolver::new(
        &ThermalConfig::default_for(stack),
        grid,
        &[TsvField::uniform(grid, 0.05)],
    )
    .expect("transient solver builds");
    let mut hotspot = GridMap::zeros(grid);
    hotspot.splat_power(&Rect::new(0.0, 0.0, 900.0, 700.0), 2.0);
    let power = vec![hotspot, GridMap::constant(grid, 2.0 / grid.bins() as f64)];
    let mut state = solver.state();
    solver.set_power(&mut state, &power).unwrap();
    let dt = solver.max_stable_dt() * 0.5;
    // Untimed warmup rep before the timed best-of loop.
    for _ in 0..(budget / 4).max(1) {
        solver.step(&mut state, dt);
    }
    let mut steps_per_sec = 0.0f64;
    for _ in 0..reps {
        solver.reset(&mut state);
        let start = Instant::now();
        for _ in 0..budget {
            solver.step(&mut state, dt);
        }
        steps_per_sec = steps_per_sec.max(budget as f64 / start.elapsed().as_secs_f64());
    }
    assert!(
        state.temperatures().iter().all(|t| t.is_finite()),
        "transient bench diverged"
    );
    steps_per_sec
}

#[allow(clippy::too_many_arguments)]
fn render_entry(
    label: &str,
    smoke: bool,
    note: Option<&str>,
    sa: &[SaSample],
    packs: &[PackSample],
    solver: &[SolverSample],
    transient: &[TransientSample],
    traces: &[TraceSample],
) -> Json {
    let mut members = vec![
        ("label".into(), Json::Str(label.into())),
        (
            "mode".into(),
            Json::Str(if smoke { "smoke" } else { "full" }.into()),
        ),
    ];
    if let Some(note) = note {
        members.push(("note".into(), Json::Str(note.into())));
    }
    // Sections skipped via --only are omitted entirely (an empty array would read as "this
    // section was measured and found nothing" to `obs bench-diff`).
    let sections: Vec<(String, Json)> = vec![
        (
            "sa".into(),
            Json::Arr(
                sa.iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("benchmark".into(), Json::Str(s.benchmark.into())),
                            ("seed".into(), Json::UInt(s.seed)),
                            ("evals_per_sec".into(), Json::Num(s.evals_per_sec)),
                            (
                                "reference_evals_per_sec".into(),
                                Json::Num(s.reference_evals_per_sec),
                            ),
                            ("cost".into(), Json::Num(s.cost)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "packs".into(),
            Json::Arr(
                packs
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("benchmark".into(), Json::Str(p.benchmark.into())),
                            ("packs_per_sec".into(), Json::Num(p.packs_per_sec)),
                            (
                                "reference_packs_per_sec".into(),
                                Json::Num(p.reference_packs_per_sec),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "solver".into(),
            Json::Arr(
                solver
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("grid".into(), Json::UInt(s.grid as u64)),
                            ("sweeps_per_sec".into(), Json::Num(s.sweeps_per_sec)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "transient".into(),
            Json::Arr(
                transient
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("grid".into(), Json::UInt(s.grid as u64)),
                            ("steps_per_sec".into(), Json::Num(s.steps_per_sec)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "traces".into(),
            Json::Arr(
                traces
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("grid".into(), Json::UInt(s.grid as u64)),
                            ("batch".into(), Json::UInt(s.batch as u64)),
                            ("traces_per_sec".into(), Json::Num(s.traces_per_sec)),
                            (
                                "reference_traces_per_sec".into(),
                                Json::Num(s.reference_traces_per_sec),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    for (name, section) in sections {
        if let Json::Arr(items) = &section {
            if items.is_empty() {
                continue;
            }
        }
        members.push((name, section));
    }
    Json::Obj(members)
}
