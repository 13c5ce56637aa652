//! `verdict`: the attacker's verdict on one fixed floorplan. The calibrated sca-smoke
//! flow is computed in set-up; each op is `run_verdict` (192 traces, both mitigation
//! states) on a (key seed, sensor noise) pair, so transient stepping and CPA do nearly
//! all the work while floorplanning and the steady solve do none.

use crate::bench::{setup, timed, Bench, Rng};
use crate::expected::Work;
use tsc3d::{FlowResult, TscFlow};
use tsc3d_campaign::{ScaCampaignSpec, ScaJob};
use tsc3d_exec::Pool;
use tsc3d_netlist::suite::generate;
use tsc3d_netlist::Design;
use tsc3d_sca::{run_on_flow, run_verdict, AttackConfig, Mitigation, ScaOutcome, ScaVerdict};

const KEY_SEEDS: u64 = 16;
const SIGMAS_MK: [u64; 4] = [400, 500, 600, 700];
const PAIRS: usize = 64;
const SETUPS: usize = 3;
/// Threads executing the pool's work: one worker plus the helping caller.
const POOL_WORKERS: usize = 2;

#[derive(Debug, Clone, Copy)]
struct Pair {
    key_seed: u64,
    sigma_mk: u64,
}

impl Pair {
    fn key(&self) -> String {
        format!("key{}/sigma{}mK", self.key_seed, self.sigma_mk)
    }
}

fn catalog() -> Vec<Pair> {
    (1..=KEY_SEEDS)
        .flat_map(|key_seed| SIGMAS_MK.map(|sigma_mk| Pair { key_seed, sigma_mk }))
        .collect()
}

fn draw(seed: u64) -> Vec<Pair> {
    let mut rng = Rng::new(seed);
    (0..PAIRS)
        .map(|_| Pair {
            key_seed: 1 + rng.below(KEY_SEEDS),
            sigma_mk: SIGMAS_MK[rng.below(SIGMAS_MK.len() as u64) as usize],
        })
        .collect()
}

struct Target {
    design: Design,
    flow: FlowResult,
    job: ScaJob,
}

/// The calibrated sca-smoke flow, exactly as the sca campaign computes it.
fn target() -> Result<Target, String> {
    let spec = ScaCampaignSpec::smoke();
    let job = spec
        .expand()
        .into_iter()
        .next()
        .ok_or("empty sca smoke spec")?;
    let design = generate(job.benchmark, job.seed);
    let flow = TscFlow::new(spec.flow)
        .run(&design, job.run_seed())
        .map_err(|e| format!("sca smoke flow failed: {e}"))?;
    Ok(Target { design, flow, job })
}

fn attack(pair: &Pair) -> AttackConfig {
    let mut config = AttackConfig::smoke();
    config.sensors.sigma_k = pair.sigma_mk as f64 / 1000.0;
    config
}

fn trace_seed(target: &Target, pair: &Pair) -> u64 {
    ScaJob {
        key_seed: pair.key_seed,
        ..target.job.clone()
    }
    .trace_seed()
}

fn check(
    bench: &mut Bench,
    pair: &Pair,
    verdict: &ScaVerdict,
    work: crate::host::Counters,
) -> Result<(), String> {
    let state =
        |o: &ScaOutcome| format!("mtd={:?} recovered={}", o.mtd_traces(), o.recovered_bytes());
    let output = format!(
        "baseline {} mitigated {} effective={}",
        state(&verdict.baseline),
        state(&verdict.mitigated),
        verdict.mitigation_effective()
    );
    let work = Work::from([
        ("traces".to_string(), work.traces()),
        ("transient_steps".to_string(), work.transient_steps()),
        (
            "baseline_steps".to_string(),
            verdict.baseline.transient_steps,
        ),
        (
            "mitigated_steps".to_string(),
            verdict.mitigated.transient_steps,
        ),
        ("cpa_checkpoints".to_string(), work.cpa_checkpoints()),
    ]);
    bench.checker.check(&pair.key(), &output, Some(work))
}

/// One op: `run_verdict` on both mitigation states.
fn verdict_op(bench: &mut Bench, target: &Target, pool: &Pool, pair: &Pair) -> Result<f64, String> {
    let before = crate::host::Counters::now();
    let (seconds, verdict) = timed(|| {
        run_verdict(
            &target.design,
            &target.flow,
            &attack(pair),
            trace_seed(target, pair),
            pair.key_seed,
            Some(pool),
        )
    });
    let verdict = verdict.map_err(|e| format!("{}: verdict failed: {e}", pair.key()))?;
    check(
        bench,
        pair,
        &verdict,
        crate::host::Counters::now().since(before),
    )?;
    Ok(seconds)
}

pub fn run(bench: &mut Bench) -> Result<(), String> {
    bench.threads = vec![("client_threads", 1), ("pool_workers", POOL_WORKERS)];
    if bench.args.record {
        let target = target()?;
        let pool = Pool::with_batch_workers(POOL_WORKERS);
        for pair in catalog() {
            verdict_op(bench, &target, &pool, &pair)?;
        }
        pool.shutdown();
        return Ok(());
    }

    let pairs = draw(bench.args.seed);
    let ((target, pool), setup_s) = setup(
        bench.started,
        SETUPS,
        |_| {
            let target = target()?;
            let pool = Pool::with_batch_workers(POOL_WORKERS);
            verdict_op(bench, &target, &pool, &pairs[0])?;
            Ok((target, pool))
        },
        |(_, pool)| pool.shutdown(),
    )?;
    bench.setup_s = setup_s;

    bench.closed_loop(false, |bench, i| {
        verdict_op(bench, &target, &pool, &pairs[i % pairs.len()])
    });
    if bench.args.trace {
        traced(bench, &target, &pool, &pairs);
    }
    pool.shutdown();
    Ok(())
}

/// The traced phase calls `run_on_flow` once per mitigation state, so the two states'
/// times are measured separately; the op is their sum.
fn traced(bench: &mut Bench, target: &Target, pool: &Pool, pairs: &[Pair]) {
    let stats_before = pool.stats();
    let (mut baseline_s, mut mitigated_s) = (0.0, 0.0);
    bench.closed_loop(true, |bench, i| {
        let pair = &pairs[i % pairs.len()];
        let before = crate::host::Counters::now();
        let _op = tsc3d_obs::span!("perfbench.verdict");
        let state = |mitigation| {
            timed(|| {
                let _span = tsc3d_obs::span!("perfbench.run_on_flow");
                run_on_flow(
                    &target.design,
                    &target.flow,
                    &attack(pair),
                    trace_seed(target, pair),
                    pair.key_seed,
                    mitigation,
                    Some(pool),
                )
            })
        };
        let (b_s, baseline) = state(Mitigation::Baseline);
        let (m_s, mitigated) = state(Mitigation::DummyTsvs);
        let verdict = ScaVerdict {
            baseline: baseline
                .map_err(|e| format!("{}: baseline attack failed: {e}", pair.key()))?,
            mitigated: mitigated
                .map_err(|e| format!("{}: mitigated attack failed: {e}", pair.key()))?,
        };
        check(
            bench,
            pair,
            &verdict,
            crate::host::Counters::now().since(before),
        )?;
        baseline_s += b_s;
        mitigated_s += m_s;
        Ok(b_s + m_s)
    });
    let stats_after = pool.stats();
    bench.layer("sca.baseline_s", baseline_s);
    bench.layer("sca.mitigated_s", mitigated_s);
    crate::counter_layers(bench);
    crate::exec_layers(bench, &stats_before, &stats_after, POOL_WORKERS);
}
