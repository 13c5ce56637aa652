//! The `sca` campaign job kind: trace-level side-channel evaluations as a first-class,
//! sharded, resumable batch workload.
//!
//! An [`ScaCampaignSpec`] expands benchmarks × design seeds × key seeds × sensor
//! configurations × mitigation on/off into deterministic, individually-seeded
//! [`ScaJob`]s. Each job runs the TSC-aware flow, then mounts the CPA attack of
//! `tsc3d-sca` against the chosen mitigation state of the *same* flow result. The spec
//! is a [`JobKind`] (header key `sca_campaign`), so the one campaign engine shards,
//! resumes, retries and streams its [`ScaJobRecord`]s — recovered key bytes, guessing
//! entropy and measurements-to-disclosure — exactly as it does flow records. The
//! aggregation layer folds records into per-(benchmark, sensor, mitigation) groups and
//! renders an MTD report whose verdict line states whether the dummy-TSV mitigation
//! measurably hurt the attacker, byte-identical across worker counts, shards and resume
//! boundaries.

use crate::codec::{
    f64_field, flow_config_from_json, flow_config_to_json, str_field, usize_field, DecodeError,
};
use crate::job::{fnv1a, splitmix64};
use crate::kind::JobKind;
use crate::retry::Attempt;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;
use tsc3d::{display_chain, FlowConfig, FlowError, Setup, TscFlow};
use tsc3d_netlist::suite::Benchmark;
use tsc3d_obs::json::Json;
use tsc3d_sca::{
    run_on_flow_with_cancel, AttackConfig, LeakageModel, Mitigation, ScaOutcome, SensorConfig,
    TargetPolicy, WorkloadConfig,
};

/// A named sensor configuration — one value of the spec's sensor axis.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaSensorSet {
    /// Label of the sensor set (appears in records and reports).
    pub name: String,
    /// The sensor configuration the attack runs with.
    pub config: SensorConfig,
}

/// The declarative description of an sca campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaCampaignSpec {
    /// Benchmarks (designs) to attack.
    pub benchmarks: Vec<Benchmark>,
    /// Design/flow seeds.
    pub seeds: Vec<u64>,
    /// Key seeds (each derives one secret key).
    pub key_seeds: Vec<u64>,
    /// Sensor configurations to sweep.
    pub sensors: Vec<ScaSensorSet>,
    /// Mitigation states to compare (normally both).
    pub mitigations: Vec<Mitigation>,
    /// The flow template every job floorplans with (TSC-aware, so dummy TSVs exist).
    pub flow: FlowConfig,
    /// The attack template; each job replaces its `sensors` with its sensor set.
    pub attack: AttackConfig,
}

impl ScaCampaignSpec {
    /// A spec over the given benchmarks and seeds with one key, the attack template's
    /// sensor set, and both mitigation states.
    pub fn new(benchmarks: Vec<Benchmark>, seeds: Vec<u64>) -> Self {
        let attack = AttackConfig::quick();
        Self {
            benchmarks,
            seeds,
            key_seeds: vec![11],
            sensors: vec![ScaSensorSet {
                name: "base".to_string(),
                config: attack.sensors,
            }],
            mitigations: vec![Mitigation::Baseline, Mitigation::DummyTsvs],
            flow: FlowConfig::quick(Setup::TscAware),
            attack,
        }
    }

    /// The CI smoke preset: one benchmark/seed whose flow inserts a substantial dummy-TSV
    /// field, two keys, two sensor noise levels, both mitigation states — 8 jobs,
    /// calibrated so the mitigated floorplan shows a strictly higher MTD.
    pub fn smoke() -> Self {
        let attack = AttackConfig::smoke();
        let mut flow = FlowConfig::quick(Setup::TscAware);
        flow.schedule.stages = 8;
        flow.schedule.moves_per_stage = 16;
        flow.schedule.grid_bins = 12;
        flow.verification_bins = 12;
        if let Some(pp) = flow.post_process.as_mut() {
            pp.activity_samples = 8;
            pp.max_insertions = 16;
        }
        let mut quiet = attack.sensors;
        quiet.sigma_k = 0.5;
        let mut noisy = attack.sensors;
        noisy.sigma_k = 0.7;
        Self {
            benchmarks: vec![Benchmark::N100],
            seeds: vec![5],
            key_seeds: vec![11, 12],
            sensors: vec![
                ScaSensorSet {
                    name: "sigma-0.5".to_string(),
                    config: quiet,
                },
                ScaSensorSet {
                    name: "sigma-0.7".to_string(),
                    config: noisy,
                },
            ],
            mitigations: vec![Mitigation::Baseline, Mitigation::DummyTsvs],
            flow,
            attack,
        }
    }

    /// Total number of jobs the spec expands into.
    pub fn job_count(&self) -> usize {
        self.benchmarks.len()
            * self.seeds.len()
            * self.key_seeds.len()
            * self.sensors.len()
            * self.mitigations.len()
    }

    /// Expands the cartesian product into jobs with stable ids (expansion order:
    /// benchmarks, seeds, key seeds, sensors, then mitigations — so a
    /// baseline/mitigated pair on identical inputs sits on adjacent ids).
    pub fn expand(&self) -> Vec<ScaJob> {
        let mut jobs = Vec::with_capacity(self.job_count());
        for &benchmark in &self.benchmarks {
            for &seed in &self.seeds {
                for &key_seed in &self.key_seeds {
                    for sensor in &self.sensors {
                        for &mitigation in &self.mitigations {
                            jobs.push(ScaJob {
                                id: jobs.len() as u64,
                                benchmark,
                                seed,
                                key_seed,
                                sensor: sensor.clone(),
                                mitigation,
                            });
                        }
                    }
                }
            }
        }
        jobs
    }
}

/// One unit of sca campaign work.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaJob {
    /// Stable id: the job's position in the spec's expansion order.
    pub id: u64,
    /// The benchmark whose design the job attacks.
    pub benchmark: Benchmark,
    /// The design/flow seed.
    pub seed: u64,
    /// The key seed (derives the secret key).
    pub key_seed: u64,
    /// The sensor set.
    pub sensor: ScaSensorSet,
    /// Whether the attack sees the dummy-TSV-mitigated floorplan.
    pub mitigation: Mitigation,
}

impl ScaJob {
    /// The flow run seed — derived from benchmark and design seed only, exactly like
    /// [`crate::CampaignJob::run_seed`], so every mitigation/sensor/key scenario attacks
    /// the identical floorplan.
    pub fn run_seed(&self) -> u64 {
        splitmix64(self.seed ^ fnv1a(self.benchmark.name()))
    }

    /// The attack trace seed — derived from the design seed, benchmark and key seed, but
    /// *not* from the sensor set or the mitigation, so the baseline and mitigated jobs
    /// observe identical plaintexts, background traffic and sensor-noise draws (the
    /// paired-comparison property behind the MTD verdict).
    pub fn trace_seed(&self) -> u64 {
        splitmix64(self.run_seed() ^ splitmix64(self.key_seed ^ 0x5CA7))
    }
}

/// The scalar metrics of one successful sca job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaJobMetrics {
    /// Attacked key bytes.
    pub key_bytes: f64,
    /// Recovered key bytes (rank 1).
    pub recovered_bytes: f64,
    /// Measurements to full-key disclosure in traces; `+inf` when the key stays
    /// unrecovered (renders as the `"Infinity"` sentinel).
    pub mtd_traces: f64,
    /// Guessing entropy in bits.
    pub guessing_entropy_bits: f64,
    /// Best absolute correlation of any guess.
    pub best_correlation: f64,
    /// Traces observed.
    pub traces: f64,
    /// Transient grid steps simulated.
    pub transient_steps: f64,
    /// Dummy TSVs of the flow's final plan (0 for baseline jobs by construction of the
    /// attack's TSV fields, but recorded from the flow for context).
    pub dummy_tsvs: f64,
    /// The attacked module index.
    pub target_module: f64,
    /// Job runtime in seconds: the attack, plus the flow when this job was the one that
    /// computed it (flows are memoized per (benchmark, seed) within a campaign run).
    pub runtime_s: f64,
}

impl ScaJobMetrics {
    /// Builds the metrics from an attack outcome.
    pub fn from_outcome(outcome: &ScaOutcome, dummy_tsvs: usize, runtime_s: f64) -> Self {
        Self {
            key_bytes: outcome.key_bytes() as f64,
            recovered_bytes: outcome.recovered_bytes() as f64,
            mtd_traces: outcome
                .mtd_traces()
                .map(|mtd| mtd as f64)
                .unwrap_or(f64::INFINITY),
            guessing_entropy_bits: outcome.guessing_entropy_bits(),
            best_correlation: outcome.best_correlation(),
            traces: outcome.cpa.traces as f64,
            transient_steps: outcome.transient_steps as f64,
            dummy_tsvs: dummy_tsvs as f64,
            target_module: outcome.target_module as f64,
            runtime_s,
        }
    }

    /// Whether the full key was disclosed within the trace budget.
    pub fn disclosed(&self) -> bool {
        self.mtd_traces.is_finite()
    }

    /// Encodes the metrics as a JSON object (also used by the serve daemon's sca
    /// responses).
    pub fn to_json(self) -> Json {
        Json::Obj(vec![
            ("key_bytes".into(), Json::Num(self.key_bytes)),
            ("recovered_bytes".into(), Json::Num(self.recovered_bytes)),
            ("mtd_traces".into(), Json::Num(self.mtd_traces)),
            (
                "guessing_entropy_bits".into(),
                Json::Num(self.guessing_entropy_bits),
            ),
            ("best_correlation".into(), Json::Num(self.best_correlation)),
            ("traces".into(), Json::Num(self.traces)),
            ("transient_steps".into(), Json::Num(self.transient_steps)),
            ("dummy_tsvs".into(), Json::Num(self.dummy_tsvs)),
            ("target_module".into(), Json::Num(self.target_module)),
            ("runtime_s".into(), Json::Num(self.runtime_s)),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, DecodeError> {
        let num = |key: &str| -> Result<f64, DecodeError> {
            value
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| DecodeError(format!("sca metrics field '{key}' missing")))
        };
        Ok(Self {
            key_bytes: num("key_bytes")?,
            recovered_bytes: num("recovered_bytes")?,
            mtd_traces: num("mtd_traces")?,
            guessing_entropy_bits: num("guessing_entropy_bits")?,
            best_correlation: num("best_correlation")?,
            traces: num("traces")?,
            transient_steps: num("transient_steps")?,
            dummy_tsvs: num("dummy_tsvs")?,
            target_module: num("target_module")?,
            runtime_s: num("runtime_s")?,
        })
    }
}

/// How an sca job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum ScaJobOutcome {
    /// The flow and attack completed.
    Success(ScaJobMetrics),
    /// The flow or the attack failed with a typed error.
    Failure {
        /// Stable kind tag (`flow-…` or `sca-…`), the aggregation key.
        kind: String,
        /// Full error chain for the failure log.
        message: String,
    },
}

/// One line of the sca results file.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaJobRecord {
    /// The job's stable id within its spec.
    pub job_id: u64,
    /// The benchmark.
    pub benchmark: Benchmark,
    /// The design/flow seed.
    pub seed: u64,
    /// The key seed.
    pub key_seed: u64,
    /// The sensor-set name.
    pub sensor_name: String,
    /// The mitigation state.
    pub mitigation: Mitigation,
    /// Success metrics or typed failure.
    pub outcome: ScaJobOutcome,
}

impl ScaJobRecord {
    /// `true` for a successful job.
    pub fn is_success(&self) -> bool {
        matches!(self.outcome, ScaJobOutcome::Success(_))
    }

    /// The metrics of a successful job.
    pub fn metrics(&self) -> Option<&ScaJobMetrics> {
        match &self.outcome {
            ScaJobOutcome::Success(metrics) => Some(metrics),
            ScaJobOutcome::Failure { .. } => None,
        }
    }

    /// Serializes the record as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut members = vec![
            ("job_id".to_string(), Json::UInt(self.job_id)),
            (
                "benchmark".to_string(),
                Json::Str(self.benchmark.name().to_string()),
            ),
            ("seed".to_string(), Json::UInt(self.seed)),
            ("key_seed".to_string(), Json::UInt(self.key_seed)),
            ("sensor".to_string(), Json::Str(self.sensor_name.clone())),
            (
                "mitigation".to_string(),
                Json::Str(self.mitigation.label().to_string()),
            ),
        ];
        match &self.outcome {
            ScaJobOutcome::Success(metrics) => {
                members.push(("status".into(), Json::Str("ok".into())));
                members.push(("metrics".into(), metrics.to_json()));
            }
            ScaJobOutcome::Failure { kind, message } => {
                members.push(("status".into(), Json::Str("failed".into())));
                members.push(("error_kind".into(), Json::Str(kind.clone())));
                members.push(("error".into(), Json::Str(message.clone())));
            }
        }
        Json::Obj(members).render()
    }

    /// Parses one JSONL line.
    pub fn from_json(value: &Json) -> Result<Self, DecodeError> {
        let u64_of = |key: &str| -> Result<u64, DecodeError> {
            value
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| DecodeError(format!("sca record is missing '{key}'")))
        };
        let str_of = |key: &str| -> Result<&str, DecodeError> {
            value
                .get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| DecodeError(format!("sca record is missing '{key}'")))
        };
        let benchmark = Benchmark::from_name(str_of("benchmark")?)
            .ok_or_else(|| DecodeError("unknown benchmark in sca record".into()))?;
        let mitigation = Mitigation::from_label(str_of("mitigation")?)
            .ok_or_else(|| DecodeError("unknown mitigation label in sca record".into()))?;
        let outcome = match str_of("status")? {
            "ok" => ScaJobOutcome::Success(ScaJobMetrics::from_json(
                value
                    .get("metrics")
                    .ok_or_else(|| DecodeError("ok sca record is missing 'metrics'".into()))?,
            )?),
            "failed" => ScaJobOutcome::Failure {
                kind: value
                    .get("error_kind")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                message: value
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            },
            other => return Err(DecodeError(format!("unknown sca record status '{other}'"))),
        };
        Ok(Self {
            job_id: u64_of("job_id")?,
            benchmark,
            seed: u64_of("seed")?,
            key_seed: u64_of("key_seed")?,
            sensor_name: str_of("sensor")?.to_string(),
            mitigation,
            outcome,
        })
    }
}

// --- Spec codec -------------------------------------------------------------------

fn sensor_config_to_json(config: &SensorConfig) -> Json {
    Json::Obj(vec![
        ("die".into(), Json::UInt(config.die as u64)),
        (
            "sensors_per_axis".into(),
            Json::UInt(config.sensors_per_axis as u64),
        ),
        (
            "samples_per_trace".into(),
            Json::UInt(config.samples_per_trace as u64),
        ),
        ("dwell_s".into(), Json::Num(config.dwell_s)),
        ("sigma_k".into(), Json::Num(config.sigma_k)),
        ("quantization_k".into(), Json::Num(config.quantization_k)),
    ])
}

/// Decodes a sensor configuration (the inverse of the encoding in sca spec headers and
/// serve submissions).
pub fn sensor_config_from_json(value: &Json) -> Result<SensorConfig, DecodeError> {
    Ok(SensorConfig {
        die: usize_field(value, "die")?,
        sensors_per_axis: usize_field(value, "sensors_per_axis")?,
        samples_per_trace: usize_field(value, "samples_per_trace")?,
        dwell_s: f64_field(value, "dwell_s")?,
        sigma_k: f64_field(value, "sigma_k")?,
        quantization_k: f64_field(value, "quantization_k")?,
    })
}

/// Encodes an attack configuration (used in spec headers and serve submissions).
pub fn attack_config_to_json(config: &AttackConfig) -> Json {
    Json::Obj(vec![
        ("grid_bins".into(), Json::UInt(config.grid_bins as u64)),
        ("traces".into(), Json::UInt(config.traces as u64)),
        ("target".into(), Json::Str(config.target.label())),
        (
            "key_bytes".into(),
            Json::UInt(config.workload.key_bytes as u64),
        ),
        (
            "leakage".into(),
            Json::Str(config.workload.leakage.label().to_string()),
        ),
        (
            "watts_per_hw".into(),
            Json::Num(config.workload.watts_per_hw),
        ),
        (
            "background_sigma".into(),
            Json::Num(config.workload.background_sigma),
        ),
        ("sensors".into(), sensor_config_to_json(&config.sensors)),
        (
            "mtd_checkpoints".into(),
            Json::UInt(config.mtd_checkpoints as u64),
        ),
    ])
}

/// Decodes an attack configuration.
pub fn attack_config_from_json(value: &Json) -> Result<AttackConfig, DecodeError> {
    let target_label = str_field(value, "target")?;
    let leakage_label = str_field(value, "leakage")?;
    Ok(AttackConfig {
        grid_bins: usize_field(value, "grid_bins")?,
        traces: usize_field(value, "traces")?,
        target: TargetPolicy::from_label(target_label)
            .ok_or_else(|| DecodeError(format!("unknown target policy '{target_label}'")))?,
        workload: WorkloadConfig {
            key_bytes: usize_field(value, "key_bytes")?,
            leakage: LeakageModel::from_label(leakage_label)
                .ok_or_else(|| DecodeError(format!("unknown leakage model '{leakage_label}'")))?,
            watts_per_hw: f64_field(value, "watts_per_hw")?,
            background_sigma: f64_field(value, "background_sigma")?,
        },
        sensors: sensor_config_from_json(
            value
                .get("sensors")
                .ok_or_else(|| DecodeError("sca attack config is missing 'sensors'".into()))?,
        )?,
        mtd_checkpoints: usize_field(value, "mtd_checkpoints")?,
    })
}

/// Encodes an sca campaign spec (the content of an sca results-file header).
pub fn sca_spec_to_json(spec: &ScaCampaignSpec) -> Json {
    Json::Obj(vec![
        (
            "benchmarks".into(),
            Json::Arr(
                spec.benchmarks
                    .iter()
                    .map(|b| Json::Str(b.name().to_string()))
                    .collect(),
            ),
        ),
        (
            "seeds".into(),
            Json::Arr(spec.seeds.iter().map(|&s| Json::UInt(s)).collect()),
        ),
        (
            "key_seeds".into(),
            Json::Arr(spec.key_seeds.iter().map(|&s| Json::UInt(s)).collect()),
        ),
        (
            "sensors".into(),
            Json::Arr(
                spec.sensors
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(s.name.clone())),
                            ("config".into(), sensor_config_to_json(&s.config)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "mitigations".into(),
            Json::Arr(
                spec.mitigations
                    .iter()
                    .map(|m| Json::Str(m.label().to_string()))
                    .collect(),
            ),
        ),
        ("flow".into(), flow_config_to_json(&spec.flow)),
        ("attack".into(), attack_config_to_json(&spec.attack)),
    ])
}

/// Decodes an sca campaign spec.
pub fn sca_spec_from_json(value: &Json) -> Result<ScaCampaignSpec, DecodeError> {
    let arr = |key: &str| -> Result<&[Json], DecodeError> {
        value
            .get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| DecodeError(format!("sca spec field '{key}' is not an array")))
    };
    let seeds = |key: &str| -> Result<Vec<u64>, DecodeError> {
        arr(key)?
            .iter()
            .map(|s| {
                s.as_u64()
                    .ok_or_else(|| DecodeError(format!("sca spec '{key}' entry is not an integer")))
            })
            .collect()
    };
    Ok(ScaCampaignSpec {
        benchmarks: arr("benchmarks")?
            .iter()
            .map(|b| {
                b.as_str()
                    .and_then(Benchmark::from_name)
                    .ok_or_else(|| DecodeError("unknown benchmark in sca spec".into()))
            })
            .collect::<Result<_, _>>()?,
        seeds: seeds("seeds")?,
        key_seeds: seeds("key_seeds")?,
        sensors: arr("sensors")?
            .iter()
            .map(|s| {
                Ok(ScaSensorSet {
                    name: str_field(s, "name")?.to_string(),
                    config: sensor_config_from_json(
                        s.get("config")
                            .ok_or_else(|| DecodeError("sensor set is missing 'config'".into()))?,
                    )?,
                })
            })
            .collect::<Result<_, _>>()?,
        mitigations: arr("mitigations")?
            .iter()
            .map(|m| {
                m.as_str()
                    .and_then(Mitigation::from_label)
                    .ok_or_else(|| DecodeError("unknown mitigation in sca spec".into()))
            })
            .collect::<Result<_, _>>()?,
        flow: flow_config_from_json(
            value
                .get("flow")
                .ok_or_else(|| DecodeError("sca spec is missing 'flow'".into()))?,
        )?,
        attack: attack_config_from_json(
            value
                .get("attack")
                .ok_or_else(|| DecodeError("sca spec is missing 'attack'".into()))?,
        )?,
    })
}

// --- Execution --------------------------------------------------------------------

/// The per-(benchmark, seed) flow product shared by every job of that group.
struct FlowProduct {
    design: tsc3d_netlist::Design,
    /// The flow result, or its typed failure.
    flow: Result<tsc3d::FlowResult, FlowError>,
}

/// One lazily filled, independently lockable cache slot.
type FlowSlot = Arc<Mutex<Option<Arc<FlowProduct>>>>;

/// Memo of flow results within one campaign run (the sca kind's per-run context):
/// [`ScaJob::run_seed`] depends only on (benchmark, seed), so the key/sensor/mitigation
/// axes all attack the *identical* floorplan — computing it once per group keeps the
/// 8-job smoke from re-annealing the same design 8 times. Per-group mutexes let distinct
/// groups anneal in parallel while same-group jobs wait for (and then share) the first
/// computation.
///
/// Only a flow that ran to its end is memoized, succeeded or failed typed. An interrupted
/// one (it polls no job token, so only an injected fault stops it) fails just the attempt
/// that ran it: the retry, or the next job of the group, runs the flow again.
#[derive(Default)]
pub struct FlowCache {
    slots: Mutex<std::collections::HashMap<(Benchmark, u64), FlowSlot>>,
}

impl FlowCache {
    /// The group's flow product, and the seconds this call spent computing it: `0` when
    /// it took the memoized product, however long it waited for the job computing it.
    fn get(&self, spec: &ScaCampaignSpec, job: &ScaJob) -> (Arc<FlowProduct>, f64) {
        let slot = Arc::clone(
            self.slots
                .lock()
                .expect("flow cache index")
                .entry((job.benchmark, job.seed))
                .or_default(),
        );
        // Written only after the flow returns, so a flow that panicked left the slot empty.
        let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(product) = guard.as_ref() {
            return (Arc::clone(product), 0.0);
        }
        let started = Instant::now();
        let design = tsc3d_netlist::suite::generate(job.benchmark, job.seed);
        let flow = TscFlow::new(spec.flow).run(&design, job.run_seed());
        let product = Arc::new(FlowProduct { design, flow });
        if !matches!(product.flow, Err(FlowError::Interrupted { .. })) {
            *guard = Some(Arc::clone(&product));
        }
        (product, started.elapsed().as_secs_f64())
    }
}

impl ScaJobRecord {
    fn of(job: &ScaJob, outcome: ScaJobOutcome) -> Self {
        Self {
            job_id: job.id,
            benchmark: job.benchmark,
            seed: job.seed,
            key_seed: job.key_seed,
            sensor_name: job.sensor.name.clone(),
            mitigation: job.mitigation,
            outcome,
        }
    }
}

impl JobKind for ScaCampaignSpec {
    const HEADER_KEY: &'static str = "sca_campaign";
    const LABEL: &'static str = "sca";
    type Job = ScaJob;
    type Record = ScaJobRecord;
    type Context = FlowCache;

    fn to_json(&self) -> Json {
        sca_spec_to_json(self)
    }

    fn from_json(value: &Json) -> Result<Self, DecodeError> {
        sca_spec_from_json(value)
    }

    fn expand(&self) -> Vec<ScaJob> {
        ScaCampaignSpec::expand(self)
    }

    fn job_id(job: &ScaJob) -> u64 {
        job.id
    }

    fn run_seed(job: &ScaJob) -> u64 {
        job.run_seed()
    }

    /// Takes the group's flow (computing it, or waiting for the job that does), then runs
    /// the attack against the job's mitigation state. The flow is a shared product
    /// (other jobs of the same (benchmark, seed) group attack it), so it runs
    /// uncancellable: the attempt's deadline is armed, and `runtime_s` counted, once the
    /// job holds it, and only the attack polls the token (at the `sca-batch`
    /// checkpoint). `runtime_s` covers the work this job actually performed, so it adds
    /// the flow's time only for the job that computed it.
    fn execute(&self, job: &ScaJob, flows: &FlowCache, attempt: &Attempt) -> ScaJobRecord {
        let _span = tsc3d_obs::span!("campaign_sca_job");
        let (product, flow_s) = flows.get(self, job);
        let cancel = attempt.arm();
        let started = Instant::now();
        let outcome = match &product.flow {
            Err(error) => ScaJobOutcome::Failure {
                // An interrupt keeps its own kind, so the retry policy sees the fault.
                kind: match error {
                    FlowError::Interrupted { interrupt, .. } => interrupt.kind().to_string(),
                    error => format!("flow-{}", error.kind()),
                },
                message: display_chain(error),
            },
            Ok(flow) => {
                let mut attack = self.attack;
                attack.sensors = job.sensor.config;
                match run_on_flow_with_cancel(
                    &product.design,
                    flow,
                    &attack,
                    job.trace_seed(),
                    job.key_seed,
                    job.mitigation,
                    None,
                    &cancel,
                ) {
                    Err(error) => ScaJobOutcome::Failure {
                        kind: error.kind().to_string(),
                        message: display_chain(&error),
                    },
                    Ok(outcome) => ScaJobOutcome::Success(ScaJobMetrics::from_outcome(
                        &outcome,
                        flow.dummy_tsvs(),
                        flow_s + started.elapsed().as_secs_f64(),
                    )),
                }
            }
        };
        ScaJobRecord::of(job, outcome)
    }

    fn panic_record(job: &ScaJob, message: String) -> ScaJobRecord {
        let kind = "panic".to_string();
        ScaJobRecord::of(job, ScaJobOutcome::Failure { kind, message })
    }

    fn failure_kind(record: &ScaJobRecord) -> Option<&str> {
        match &record.outcome {
            ScaJobOutcome::Failure { kind, .. } => Some(kind),
            ScaJobOutcome::Success(_) => None,
        }
    }

    fn record_id(record: &ScaJobRecord) -> u64 {
        record.job_id
    }

    fn record_matches(record: &ScaJobRecord, job: &ScaJob) -> bool {
        record.benchmark == job.benchmark
            && record.seed == job.seed
            && record.key_seed == job.key_seed
            && record.sensor_name == job.sensor.name
            && record.mitigation == job.mitigation
    }

    fn record_to_line(record: &ScaJobRecord) -> String {
        record.to_json_line()
    }

    fn record_from_json(value: &Json) -> Result<ScaJobRecord, DecodeError> {
        ScaJobRecord::from_json(value)
    }
}

// --- Aggregation ------------------------------------------------------------------

/// Aggregated results of one (benchmark, sensor, mitigation) group.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaGroupSummary {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// The sensor-set name.
    pub sensor_name: String,
    /// The mitigation state.
    pub mitigation: Mitigation,
    /// Total jobs recorded.
    pub jobs: usize,
    /// Successful jobs.
    pub succeeded: usize,
    /// Jobs whose full key was disclosed within the trace budget.
    pub disclosed: usize,
    /// Failure counts keyed by error kind.
    pub failures: BTreeMap<String, usize>,
    /// MTD statistics over the *disclosed* jobs (traces).
    pub mtd: crate::aggregate::Stat,
    /// Recovered-key-bytes statistics over successful jobs.
    pub recovered_bytes: crate::aggregate::Stat,
    /// Guessing-entropy statistics over successful jobs (bits).
    pub guessing_entropy_bits: crate::aggregate::Stat,
    /// Best-correlation statistics over successful jobs.
    pub best_correlation: crate::aggregate::Stat,
    /// Dummy-TSV counts of the underlying flows.
    pub dummy_tsvs: crate::aggregate::Stat,
    /// Transient grid steps per job.
    pub transient_steps: crate::aggregate::Stat,
    /// Job runtimes in seconds.
    pub runtime_s: crate::aggregate::Stat,
    /// Trace-simulation throughput of the group: total simulated traces over total job
    /// runtime (0 when no successful job recorded runtime). Runtime includes the flow
    /// for the one job per (benchmark, seed) that computed it, so this is a conservative
    /// floor on the trace engine's rate.
    pub traces_per_sec: f64,
}

/// The full sca campaign aggregation, in first-seen job-id group order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScaCampaignSummary {
    /// The group summaries.
    pub groups: Vec<ScaGroupSummary>,
}

impl ScaCampaignSummary {
    /// Looks up a group.
    pub fn group(
        &self,
        benchmark: Benchmark,
        sensor_name: &str,
        mitigation: Mitigation,
    ) -> Option<&ScaGroupSummary> {
        self.groups.iter().find(|g| {
            g.benchmark == benchmark && g.sensor_name == sensor_name && g.mitigation == mitigation
        })
    }

    /// The MTD verdict of a benchmark/sensor pair: `Some(true)` when the mitigated group
    /// measurably hurt the attacker (more undisclosed keys, or a strictly higher mean MTD
    /// over disclosed jobs), `Some(false)` when not, `None` when either side is missing
    /// or has no successful jobs.
    pub fn mitigation_verdict(&self, benchmark: Benchmark, sensor_name: &str) -> Option<bool> {
        let baseline = self.group(benchmark, sensor_name, Mitigation::Baseline)?;
        let mitigated = self.group(benchmark, sensor_name, Mitigation::DummyTsvs)?;
        if baseline.succeeded == 0 || mitigated.succeeded == 0 {
            return None;
        }
        let baseline_undisclosed = baseline.succeeded - baseline.disclosed;
        let mitigated_undisclosed = mitigated.succeeded - mitigated.disclosed;
        if mitigated_undisclosed != baseline_undisclosed {
            return Some(mitigated_undisclosed > baseline_undisclosed);
        }
        if mitigated.disclosed == 0 {
            // Neither side disclosed anything: the mitigation cannot be credited.
            return Some(false);
        }
        Some(mitigated.mtd.mean > baseline.mtd.mean)
    }

    /// Total records aggregated.
    pub fn jobs(&self) -> usize {
        self.groups.iter().map(|g| g.jobs).sum()
    }

    /// Total successful records.
    pub fn succeeded(&self) -> usize {
        self.groups.iter().map(|g| g.succeeded).sum()
    }

    /// Campaign-wide trace-simulation throughput: total simulated traces over total
    /// recorded job runtime (0 without any successful record).
    pub fn traces_per_sec(&self) -> f64 {
        let mut traces = 0.0;
        let mut runtime = 0.0;
        for group in &self.groups {
            // Reconstruct the group sums from the stat means (count × mean).
            let group_runtime = group.runtime_s.mean * group.runtime_s.count as f64;
            runtime += group_runtime;
            traces += group.traces_per_sec * group_runtime;
        }
        if runtime > 0.0 {
            traces / runtime
        } else {
            0.0
        }
    }
}

/// Aggregates sca records into group summaries (input-order independent: records are
/// sorted by job id internally).
pub fn aggregate_sca(records: &[ScaJobRecord]) -> ScaCampaignSummary {
    use crate::aggregate::Stat;
    let mut sorted: Vec<&ScaJobRecord> = records.iter().collect();
    sorted.sort_by_key(|r| r.job_id);

    let mut order: Vec<(Benchmark, String, Mitigation)> = Vec::new();
    let mut buckets: BTreeMap<usize, Vec<&ScaJobRecord>> = BTreeMap::new();
    for record in sorted {
        let key = (
            record.benchmark,
            record.sensor_name.clone(),
            record.mitigation,
        );
        let index = match order.iter().position(|k| *k == key) {
            Some(index) => index,
            None => {
                order.push(key);
                order.len() - 1
            }
        };
        buckets.entry(index).or_default().push(record);
    }

    let groups = order
        .into_iter()
        .enumerate()
        .map(|(index, (benchmark, sensor_name, mitigation))| {
            let records = buckets.remove(&index).unwrap_or_default();
            let mut failures: BTreeMap<String, usize> = BTreeMap::new();
            let metrics: Vec<&ScaJobMetrics> = records
                .iter()
                .filter_map(|r| match &r.outcome {
                    ScaJobOutcome::Success(m) => Some(m),
                    ScaJobOutcome::Failure { kind, .. } => {
                        *failures.entry(kind.clone()).or_insert(0) += 1;
                        None
                    }
                })
                .collect();
            let stat = |extract: fn(&ScaJobMetrics) -> f64| -> Stat {
                let values: Vec<f64> = metrics.iter().map(|m| extract(m)).collect();
                Stat::of(&values)
            };
            let disclosed_mtds: Vec<f64> = metrics
                .iter()
                .filter(|m| m.disclosed())
                .map(|m| m.mtd_traces)
                .collect();
            let total_traces: f64 = metrics.iter().map(|m| m.traces).sum();
            let total_runtime: f64 = metrics.iter().map(|m| m.runtime_s).sum();
            let traces_per_sec = if total_runtime > 0.0 {
                total_traces / total_runtime
            } else {
                0.0
            };
            ScaGroupSummary {
                benchmark,
                sensor_name,
                mitigation,
                jobs: records.len(),
                succeeded: metrics.len(),
                disclosed: disclosed_mtds.len(),
                failures,
                mtd: Stat::of(&disclosed_mtds),
                recovered_bytes: stat(|m| m.recovered_bytes),
                guessing_entropy_bits: stat(|m| m.guessing_entropy_bits),
                best_correlation: stat(|m| m.best_correlation),
                dummy_tsvs: stat(|m| m.dummy_tsvs),
                transient_steps: stat(|m| m.transient_steps),
                runtime_s: stat(|m| m.runtime_s),
                traces_per_sec,
            }
        })
        .collect();
    ScaCampaignSummary { groups }
}

/// Renders the sca campaign report: one block per benchmark/sensor with a line per
/// mitigation state and the MTD verdict.
pub fn render_sca_report(summary: &ScaCampaignSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sca campaign report — {} jobs, {} ok, {} failed, {:.0} traces/s",
        summary.jobs(),
        summary.succeeded(),
        summary.jobs() - summary.succeeded(),
        summary.traces_per_sec()
    );

    let mut blocks: Vec<(Benchmark, String)> = Vec::new();
    for group in &summary.groups {
        let key = (group.benchmark, group.sensor_name.clone());
        if !blocks.contains(&key) {
            blocks.push(key);
        }
    }

    for (benchmark, sensor_name) in blocks {
        let _ = writeln!(out, "\n=== {} · {} ===", benchmark.name(), sensor_name);
        for group in summary
            .groups
            .iter()
            .filter(|g| g.benchmark == benchmark && g.sensor_name == sensor_name)
        {
            let undisclosed = group.succeeded - group.disclosed;
            let _ = writeln!(
                out,
                "  {:<9} n={:<3} MTD {:>8.1} ±{:.1} traces ({} undisclosed) | \
                 bytes {:>4.2}  GE {:>5.2} bit  r {:>5.3} | dTSV {:>6.0}  t {:>6.2} s  \
                 {:>5.0} tr/s",
                group.mitigation.label(),
                group.succeeded,
                group.mtd.mean,
                group.mtd.stddev,
                undisclosed,
                group.recovered_bytes.mean,
                group.guessing_entropy_bits.mean,
                group.best_correlation.mean,
                group.dummy_tsvs.mean,
                group.runtime_s.mean,
                group.traces_per_sec,
            );
            for (kind, count) in &group.failures {
                let _ = writeln!(out, "       [FAILED {kind}×{count}]");
            }
        }
        match summary.mitigation_verdict(benchmark, &sensor_name) {
            Some(true) => {
                let baseline = summary.group(benchmark, &sensor_name, Mitigation::Baseline);
                let mitigated = summary.group(benchmark, &sensor_name, Mitigation::DummyTsvs);
                if let (Some(b), Some(m)) = (baseline, mitigated) {
                    if b.disclosed > 0 && m.disclosed > 0 && b.mtd.mean > 0.0 {
                        let _ = writeln!(
                            out,
                            "  -> mitigation effective: MTD ×{:.2} ({:.1} → {:.1} traces)",
                            m.mtd.mean / b.mtd.mean,
                            b.mtd.mean,
                            m.mtd.mean
                        );
                    } else {
                        let _ =
                            writeln!(out, "  -> mitigation effective: key bytes stay unrecovered");
                    }
                }
            }
            Some(false) => {
                let _ = writeln!(out, "  -> mitigation NOT effective under this sensor");
            }
            None => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics(mtd: f64) -> ScaJobMetrics {
        ScaJobMetrics {
            key_bytes: 2.0,
            recovered_bytes: 2.0,
            mtd_traces: mtd,
            guessing_entropy_bits: 0.0,
            best_correlation: 0.625,
            traces: 192.0,
            transient_steps: 100_000.0,
            dummy_tsvs: 4437.0,
            target_module: 40.0,
            runtime_s: 1.5,
        }
    }

    fn record(job_id: u64, mitigation: Mitigation, mtd: f64) -> ScaJobRecord {
        ScaJobRecord {
            job_id,
            benchmark: Benchmark::N200,
            seed: 1,
            key_seed: 11,
            sensor_name: "sigma-0.5".into(),
            mitigation,
            outcome: ScaJobOutcome::Success(sample_metrics(mtd)),
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ScaCampaignSpec::smoke();
        let encoded = sca_spec_to_json(&spec).render();
        let decoded = sca_spec_from_json(&Json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, spec);

        let custom = {
            let mut spec = ScaCampaignSpec::new(vec![Benchmark::N100], vec![3]);
            spec.attack.target = tsc3d_sca::TargetPolicy::Block(17);
            spec.attack.workload.leakage = LeakageModel::HammingDistance;
            spec.mitigations = vec![Mitigation::DummyTsvs];
            spec
        };
        let encoded = sca_spec_to_json(&custom).render();
        let decoded = sca_spec_from_json(&Json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, custom);
    }

    #[test]
    fn records_round_trip_including_infinite_mtd() {
        let ok = record(3, Mitigation::DummyTsvs, f64::INFINITY);
        let line = ok.to_json_line();
        assert!(line.contains("\"Infinity\""), "{line}");
        let back = ScaJobRecord::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, ok);
        assert!(!back.metrics().unwrap().disclosed());

        let failed = ScaJobRecord {
            job_id: 4,
            benchmark: Benchmark::N100,
            seed: 2,
            key_seed: 12,
            sensor_name: "base".into(),
            mitigation: Mitigation::Baseline,
            outcome: ScaJobOutcome::Failure {
                kind: "flow-solve".into(),
                message: "solver did not converge".into(),
            },
        };
        let back = ScaJobRecord::from_json(&Json::parse(&failed.to_json_line()).unwrap()).unwrap();
        assert_eq!(back, failed);
    }

    #[test]
    fn expansion_is_cartesian_with_adjacent_mitigation_pairs() {
        let spec = ScaCampaignSpec::smoke();
        let jobs = spec.expand();
        assert_eq!(jobs.len(), spec.job_count());
        assert_eq!(jobs.len(), 8); // 1 benchmark x 1 seed x 2 keys x 2 sensors x 2 mitigations
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.id, i as u64);
        }
        // Mitigation is the innermost axis: pairs share everything else.
        assert_eq!(jobs[0].mitigation, Mitigation::Baseline);
        assert_eq!(jobs[1].mitigation, Mitigation::DummyTsvs);
        assert_eq!(jobs[0].key_seed, jobs[1].key_seed);
        assert_eq!(jobs[0].sensor.name, jobs[1].sensor.name);
        // Identical flow and traces across the pair.
        assert_eq!(jobs[0].run_seed(), jobs[1].run_seed());
        assert_eq!(jobs[0].trace_seed(), jobs[1].trace_seed());
        // Different keys get different trace streams.
        assert_ne!(jobs[0].trace_seed(), jobs[4].trace_seed());
    }

    #[test]
    fn aggregation_verdict_compares_mitigation_groups() {
        let records = vec![
            record(0, Mitigation::Baseline, 27.0),
            record(1, Mitigation::DummyTsvs, 33.0),
            record(2, Mitigation::Baseline, 42.0),
            record(3, Mitigation::DummyTsvs, 51.0),
        ];
        let summary = aggregate_sca(&records);
        assert_eq!(summary.groups.len(), 2);
        assert_eq!(summary.jobs(), 4);
        assert_eq!(
            summary.mitigation_verdict(Benchmark::N200, "sigma-0.5"),
            Some(true)
        );
        let report = render_sca_report(&summary);
        assert!(report.contains("mitigation effective"), "{report}");
        assert!(report.contains("MTD ×"), "{report}");

        // Reversed ordering: the verdict flips.
        let records = vec![
            record(0, Mitigation::Baseline, 50.0),
            record(1, Mitigation::DummyTsvs, 30.0),
        ];
        let summary = aggregate_sca(&records);
        assert_eq!(
            summary.mitigation_verdict(Benchmark::N200, "sigma-0.5"),
            Some(false)
        );
        assert!(render_sca_report(&summary).contains("NOT effective"));
    }

    #[test]
    fn undisclosed_keys_count_towards_the_mitigation() {
        let records = vec![
            record(0, Mitigation::Baseline, 40.0),
            record(1, Mitigation::DummyTsvs, f64::INFINITY),
        ];
        let summary = aggregate_sca(&records);
        let mitigated = summary
            .group(Benchmark::N200, "sigma-0.5", Mitigation::DummyTsvs)
            .unwrap();
        assert_eq!(mitigated.disclosed, 0);
        assert_eq!(mitigated.mtd.count, 0);
        assert_eq!(
            summary.mitigation_verdict(Benchmark::N200, "sigma-0.5"),
            Some(true)
        );
        let report = render_sca_report(&summary);
        assert!(report.contains("key bytes stay unrecovered"), "{report}");
    }

    #[test]
    fn aggregation_is_input_order_independent() {
        let mut records = vec![
            record(0, Mitigation::Baseline, 27.0),
            record(1, Mitigation::DummyTsvs, 33.0),
            record(2, Mitigation::Baseline, 42.0),
            record(3, Mitigation::DummyTsvs, 51.0),
        ];
        let forward = aggregate_sca(&records);
        records.reverse();
        let reversed = aggregate_sca(&records);
        assert_eq!(forward, reversed);
        assert_eq!(render_sca_report(&forward), render_sca_report(&reversed));
    }
}
