//! `flow`: one client runs TSC-aware flow jobs one at a time — the paper's flow, where
//! SA/packing/evaluation and the detailed steady solve of post-processing both carry a
//! large share and no trace simulation or HTTP runs.

use crate::bench::{setup, timed, Bench, Rng};
use crate::expected::{bits, Checker, Work};
use std::collections::BTreeMap;
use tsc3d::postprocess::ThermalEngine;
use tsc3d::{FlowConfig, FlowResult, Setup, TscFlow};
use tsc3d_netlist::suite::{generate, Benchmark};
use tsc3d_netlist::Design;

/// Design seeds of the catalog: every input any workload seed can draw.
const N100_DESIGNS: u64 = 24;
const N200_DESIGNS: u64 = 8;
/// Jobs in one drawn list (cycled if a run gets through all of them).
const JOBS: usize = 64;
const SETUPS: usize = 3;

#[derive(Debug, Clone, Copy)]
struct Job {
    benchmark: Benchmark,
    design_seed: u64,
}

impl Job {
    fn key(&self) -> String {
        format!("{}/{}", self.benchmark.name(), self.design_seed)
    }
}

/// The quick SA schedule lengthened to 30 × 40 moves with the packing weight raised
/// ×16, so N100 and N200 designs alike mostly need exactly one outline-repair round and
/// an N200 job costs well under twice an N100 job; detailed-engine post-processing on a
/// 48-bin verification grid.
fn config() -> FlowConfig {
    let mut config = FlowConfig::quick(Setup::TscAware);
    config.schedule.stages = 30;
    config.schedule.moves_per_stage = 40;
    let mut weights = config.setup.weights();
    weights.packing *= 16.0;
    config.weights = Some(weights);
    config.verification_bins = 48;
    if let Some(pp) = config.post_process.as_mut() {
        pp.engine = ThermalEngine::Detailed;
    }
    config
}

fn catalog() -> Vec<Job> {
    let n100 = (1..=N100_DESIGNS).map(|s| Job {
        benchmark: Benchmark::N100,
        design_seed: s,
    });
    let n200 = (1..=N200_DESIGNS).map(|s| Job {
        benchmark: Benchmark::N200,
        design_seed: s,
    });
    n100.chain(n200).collect()
}

/// Three N100 jobs to one N200 job, so the median op stays inside the N100 cluster,
/// drawn from the designs at their benchmark's modal recorded work (see
/// [`Checker::modal_inputs`]).
fn draw(seed: u64, checker: &Checker) -> Result<Vec<Job>, String> {
    let modal = checker.modal_inputs(&["evaluations", "solves"]);
    let eligible = |benchmark: Benchmark| -> Vec<Job> {
        catalog()
            .into_iter()
            .filter(|job| job.benchmark == benchmark && modal.contains(&job.key()))
            .collect()
    };
    let (n100, n200) = (eligible(Benchmark::N100), eligible(Benchmark::N200));
    if n100.is_empty() || n200.is_empty() {
        return Err("no eligible designs in the flow recording".into());
    }
    let mut rng = Rng::new(seed);
    Ok((0..JOBS)
        .map(|i| {
            let pool = if i % 4 == 3 { &n200 } else { &n100 };
            pool[rng.below(pool.len() as u64) as usize]
        })
        .collect())
}

struct Done {
    seconds: f64,
    result: FlowResult,
}

/// One flow job through `TscFlow::run`, checked against the recording.
fn run_job(bench: &mut Bench, flow: &TscFlow, design: &Design, job: &Job) -> Result<Done, String> {
    let before = crate::host::Counters::now();
    let (seconds, result) = timed(|| {
        let _span = tsc3d_obs::span!("perfbench.flow_job");
        flow.run(design, job.design_seed)
    });
    let work_done = crate::host::Counters::now().since(before);
    let result = result.map_err(|e| format!("{}: flow failed: {e}", job.key()))?;
    let output = format!(
        "cost={} corr={} dummies={}",
        bits(result.sa.cost),
        result
            .final_correlations
            .iter()
            .map(|c| bits(*c))
            .collect::<Vec<_>>()
            .join(","),
        result.dummy_tsvs()
    );
    let work = Work::from([
        ("evaluations".to_string(), result.sa.evaluations as u64),
        ("accepted".to_string(), result.sa.accepted as u64),
        ("solves".to_string(), work_done.solves()),
        ("sweeps".to_string(), work_done.sweeps()),
    ]);
    bench.checker.check(&job.key(), &output, Some(work))?;
    Ok(Done { seconds, result })
}

pub fn run(bench: &mut Bench) -> Result<(), String> {
    let flow = TscFlow::new(config());
    bench.threads = vec![("client_threads", 1), ("flow_threads", 1)];

    if bench.args.record {
        for job in catalog() {
            let design = generate(job.benchmark, job.design_seed);
            run_job(bench, &flow, &design, &job)?;
        }
        return Ok(());
    }

    let jobs = draw(bench.args.seed, &bench.checker)?;
    let (designs, setup_s) = setup(
        bench.started,
        SETUPS,
        |_| {
            let mut designs = BTreeMap::new();
            for job in &jobs {
                designs
                    .entry(job.key())
                    .or_insert_with(|| generate(job.benchmark, job.design_seed));
            }
            // The warm-up op: checked, but not timed as an op.
            run_job(bench, &flow, &designs[&jobs[0].key()], &jobs[0]).map(|_| designs)
        },
        drop,
    )?;
    bench.setup_s = setup_s;

    let op = |bench: &mut Bench, i: usize| {
        let job = &jobs[i % jobs.len()];
        run_job(bench, &flow, &designs[&job.key()], job).map(|done| done.seconds)
    };
    bench.closed_loop(false, op);
    if !bench.args.trace {
        return Ok(());
    }

    let mut results = Vec::new();
    bench.closed_loop(true, |bench, i| {
        let job = &jobs[i % jobs.len()];
        let done = run_job(bench, &flow, &designs[&job.key()], job)?;
        let seconds = done.seconds;
        results.push(done.result);
        Ok(seconds)
    });
    let sum = |f: &dyn Fn(&FlowResult) -> f64| results.iter().map(f).sum::<f64>();
    let floorplan_s = sum(&|r| r.stage_timings.floorplan_s);
    let evaluations = sum(&|r| r.sa.evaluations as f64);
    bench.layer("floorplan.busy_s", floorplan_s);
    bench.layer("floorplan.evals_per_s", evaluations / floorplan_s);
    bench.layer(
        "floorplan.accept_ratio",
        sum(&|r| r.sa.accepted as f64) / evaluations,
    );
    bench.layer(
        "floorplan.repair_ops",
        sum(&|r| f64::from(u8::from(r.outline_repair.is_some()))),
    );
    bench.layer("power.assign_s", sum(&|r| r.stage_timings.assign_s));
    bench.layer("core.verify_s", sum(&|r| r.stage_timings.verify_s));
    bench.layer(
        "core.post_process_s",
        sum(&|r| r.stage_timings.post_process_s),
    );
    bench.layer("core.dummy_tsvs", sum(&|r| r.dummy_tsvs() as f64));
    crate::counter_layers(bench);
    Ok(())
}
