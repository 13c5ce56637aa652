//! The job-submission payload: parsing, validation and the canonical cache key.
//!
//! A `POST /v1/jobs` body is a single flow run, a full campaign spec, or a trace-level
//! side-channel (sca) evaluation:
//!
//! ```json
//! {"type": "flow", "benchmark": "n100", "setup": "tsc", "seed": 1,
//!  "stages": 4, "moves": 8, "grid_bins": 10, "verification_bins": 10}
//! ```
//!
//! ```json
//! {"type": "campaign", "spec": { ...the campaign file-header format... }}
//! ```
//!
//! ```json
//! {"type": "sca", "benchmark": "n200", "seed": 1, "key_seed": 11,
//!  "traces": 192, "noise": 0.5}
//! ```
//!
//! An sca submission runs the TSC-aware flow once, then mounts the CPA attack of
//! `tsc3d-sca` against both mitigation states of the same flow result and returns the
//! baseline/mitigated metrics plus the MTD verdict.
//!
//! The **cache key** is the canonical JSON of the submitted body — objects recursively
//! key-sorted, rendered without whitespace — so two submissions that differ only in
//! member order (or insignificant whitespace) dedup onto the same job and cache entry.

use tsc3d::{FlowConfig, Setup};
use tsc3d_campaign::codec::spec_from_json;
use tsc3d_campaign::{CampaignJob, CampaignSpec, ScaCampaignSpec, ScaJob, ScaSensorSet};
use tsc3d_netlist::suite::Benchmark;
use tsc3d_obs::json::Json;
use tsc3d_sca::Mitigation;

/// A validated sca submission: the flow/attack configuration plus the job identity,
/// expressed through the campaign sca types so seeds derive exactly like `campaign
/// sca-run`.
#[derive(Debug, Clone)]
pub struct ScaSubmission {
    /// The spec carrying the flow and attack templates (single benchmark/seed/key).
    pub spec: ScaCampaignSpec,
}

impl ScaSubmission {
    /// The baseline/mitigated job pair of the submission.
    pub fn jobs(&self) -> Vec<ScaJob> {
        self.spec.expand()
    }
}

/// A validated job submission.
#[derive(Debug, Clone)]
pub enum Payload {
    /// One fully configured flow run.
    Flow(Box<CampaignJob>),
    /// A campaign over the serve pool.
    Campaign(Box<CampaignSpec>),
    /// One trace-level side-channel evaluation (baseline + mitigated + verdict).
    Sca(Box<ScaSubmission>),
}

impl Payload {
    /// The payload kind, as reported in job-status responses.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::Flow(_) => "flow",
            Payload::Campaign(_) => "campaign",
            Payload::Sca(_) => "sca",
        }
    }
}

/// Recursively sorts object members by key (arrays keep their order), producing the
/// canonical form behind the cache key.
pub fn canonicalize(value: &Json) -> Json {
    match value {
        Json::Obj(members) => {
            let mut sorted: Vec<(String, Json)> = members
                .iter()
                .map(|(k, v)| (k.clone(), canonicalize(v)))
                .collect();
            sorted.sort_by(|(a, _), (b, _)| a.cmp(b));
            Json::Obj(sorted)
        }
        Json::Arr(items) => Json::Arr(items.iter().map(canonicalize).collect()),
        other => other.clone(),
    }
}

/// The canonical cache key of a submission body.
pub fn canonical_key(body: &Json) -> String {
    canonicalize(body).render()
}

/// FNV-1a hash of the canonical key — the short content id shown in API responses.
pub fn key_hash(key: &str) -> String {
    let hash = key.bytes().fold(0xcbf2_9ce4_8422_2325u64, |acc, b| {
        (acc ^ b as u64).wrapping_mul(0x100_0000_01b3)
    });
    format!("{hash:016x}")
}

fn parse_setup(label: &str) -> Result<Setup, String> {
    match label.to_ascii_lowercase().as_str() {
        "pa" | "power-aware" => Ok(Setup::PowerAware),
        "tsc" | "tsc-aware" => Ok(Setup::TscAware),
        other => Err(format!("unknown setup '{other}' (use \"pa\" or \"tsc\")")),
    }
}

fn opt_usize(body: &Json, key: &str) -> Result<Option<usize>, String> {
    match body.get(key) {
        None => Ok(None),
        Some(value) => value
            .as_u64()
            .map(|u| Some(u as usize))
            .ok_or_else(|| format!("field '{key}' must be a non-negative integer")),
    }
}

/// Parses and validates a submission body.
///
/// # Errors
///
/// Returns a human-readable description of the first problem; the API maps it to `400`.
pub fn parse_payload(body: &Json) -> Result<Payload, String> {
    if !matches!(body, Json::Obj(_)) {
        return Err("the request body must be a JSON object".into());
    }
    match body.get("type").and_then(Json::as_str) {
        Some("flow") => parse_flow(body).map(|job| Payload::Flow(Box::new(job))),
        Some("campaign") => {
            // `deadline_ms` is consumed by the server, not the spec — but it stays on
            // the allow-list (and thus inside the canonical cache key: a bounded run
            // and an unbounded run are different requests).
            reject_unknown_keys(body, &["type", "spec", "deadline_ms"])?;
            let spec = body
                .get("spec")
                .ok_or_else(|| "campaign submission is missing 'spec'".to_string())?;
            let spec = spec_from_json(spec).map_err(|e| e.to_string())?;
            if spec.job_count() == 0 {
                return Err("the campaign spec expands to zero jobs".into());
            }
            Ok(Payload::Campaign(Box::new(spec)))
        }
        Some("sca") => parse_sca(body).map(|submission| Payload::Sca(Box::new(submission))),
        Some(other) => Err(format!(
            "unknown job type '{other}' (use \"flow\", \"campaign\" or \"sca\")"
        )),
        None => Err("the submission needs a string field 'type'".into()),
    }
}

/// Parses an sca submission: a single benchmark/seed/key evaluation based on the
/// calibrated smoke templates, with compact overrides for the flow schedule and the
/// attack scale.
fn parse_sca(body: &Json) -> Result<ScaSubmission, String> {
    reject_unknown_keys(
        body,
        &[
            "type",
            "benchmark",
            "seed",
            "key_seed",
            "traces",
            "noise",
            "key_bytes",
            "attack_grid_bins",
            "dwell_ms",
            "stages",
            "moves",
            "grid_bins",
            "verification_bins",
            "deadline_ms",
        ],
    )?;
    let benchmark_name = body
        .get("benchmark")
        .and_then(Json::as_str)
        .ok_or_else(|| "sca submission needs a string field 'benchmark'".to_string())?;
    let benchmark = Benchmark::from_name(benchmark_name)
        .ok_or_else(|| format!("unknown benchmark '{benchmark_name}'"))?;
    let seed = body
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or_else(|| "sca submission needs an integer field 'seed'".to_string())?;
    let key_seed = match body.get("key_seed") {
        None => 11,
        Some(value) => value
            .as_u64()
            .ok_or_else(|| "field 'key_seed' must be a non-negative integer".to_string())?,
    };

    let mut spec = ScaCampaignSpec::smoke();
    spec.benchmarks = vec![benchmark];
    spec.seeds = vec![seed];
    spec.key_seeds = vec![key_seed];
    spec.mitigations = vec![Mitigation::Baseline, Mitigation::DummyTsvs];
    if let Some(traces) = opt_usize(body, "traces")? {
        if traces < 8 {
            return Err("'traces' must be at least 8".into());
        }
        spec.attack.traces = traces;
        spec.attack.mtd_checkpoints = traces;
    }
    if let Some(bins) = opt_usize(body, "attack_grid_bins")? {
        spec.attack.grid_bins = bins;
    }
    if let Some(bytes) = opt_usize(body, "key_bytes")? {
        spec.attack.workload.key_bytes = bytes;
    }
    if let Some(noise) = body.get("noise") {
        let sigma = noise
            .as_f64()
            .filter(|s| s.is_finite() && *s >= 0.0)
            .ok_or_else(|| "field 'noise' must be a non-negative number".to_string())?;
        spec.attack.sensors.sigma_k = sigma;
    }
    if let Some(dwell_ms) = body.get("dwell_ms") {
        let dwell = dwell_ms
            .as_f64()
            .filter(|d| d.is_finite() && *d > 0.0)
            .ok_or_else(|| "field 'dwell_ms' must be a positive number".to_string())?;
        spec.attack.sensors.dwell_s = dwell / 1e3;
    }
    if let Some(stages) = opt_usize(body, "stages")? {
        spec.flow.schedule.stages = stages;
    }
    if let Some(moves) = opt_usize(body, "moves")? {
        spec.flow.schedule.moves_per_stage = moves;
    }
    if let Some(bins) = opt_usize(body, "grid_bins")? {
        spec.flow.schedule.grid_bins = bins;
    }
    if let Some(bins) = opt_usize(body, "verification_bins")? {
        spec.flow.verification_bins = bins;
    }
    // One sensor set named after its noise level keeps records self-describing.
    spec.sensors = vec![ScaSensorSet {
        name: format!("sigma-{}", spec.attack.sensors.sigma_k),
        config: spec.attack.sensors,
    }];
    // Reject invalid attack parameters at submission time (400) — otherwise the job
    // would burn a full flow run before run_verdict's validation fails it.
    spec.attack.validate().map_err(|e| e.to_string())?;
    Ok(ScaSubmission { spec })
}

/// Rejects members outside the whitelist: an unrecognized field is far more likely a
/// client typo than intent, and silently ignoring it would cache the result under a key
/// the ignored field differentiates — serving a config the client never got.
fn reject_unknown_keys(body: &Json, allowed: &[&str]) -> Result<(), String> {
    let Json::Obj(members) = body else {
        return Ok(());
    };
    for (key, _) in members {
        if !allowed.contains(&key.as_str()) {
            return Err(format!(
                "unknown field '{key}' (allowed: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

/// Parses a single-flow submission into a fully configured [`CampaignJob`] (id 0,
/// override name `"serve"`), reusing the campaign job model so the run-seed derivation
/// matches `campaign run` exactly.
fn parse_flow(body: &Json) -> Result<CampaignJob, String> {
    reject_unknown_keys(
        body,
        &[
            "type",
            "benchmark",
            "setup",
            "seed",
            "paper",
            "stages",
            "moves",
            "grid_bins",
            "verification_bins",
            "activity_samples",
            "tsv_budget",
            "deadline_ms",
        ],
    )?;
    let benchmark_name = body
        .get("benchmark")
        .and_then(Json::as_str)
        .ok_or_else(|| "flow submission needs a string field 'benchmark'".to_string())?;
    let benchmark = Benchmark::from_name(benchmark_name)
        .ok_or_else(|| format!("unknown benchmark '{benchmark_name}'"))?;
    let setup = parse_setup(
        body.get("setup")
            .and_then(Json::as_str)
            .ok_or_else(|| "flow submission needs a string field 'setup'".to_string())?,
    )?;
    let seed = body
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or_else(|| "flow submission needs an integer field 'seed'".to_string())?;

    let paper = match body.get("paper") {
        None => false,
        Some(value) => value
            .as_bool()
            .ok_or_else(|| "field 'paper' must be a boolean".to_string())?,
    };
    let mut config = if paper {
        FlowConfig::paper(setup)
    } else {
        FlowConfig::quick(setup)
    };
    if let Some(stages) = opt_usize(body, "stages")? {
        config.schedule.stages = stages;
    }
    if let Some(moves) = opt_usize(body, "moves")? {
        config.schedule.moves_per_stage = moves;
    }
    if let Some(bins) = opt_usize(body, "grid_bins")? {
        config.schedule.grid_bins = bins;
    }
    if let Some(bins) = opt_usize(body, "verification_bins")? {
        config.verification_bins = bins;
    }
    let activity_samples = opt_usize(body, "activity_samples")?;
    let tsv_budget = opt_usize(body, "tsv_budget")?;
    match config.post_process.as_mut() {
        Some(pp) => {
            if let Some(samples) = activity_samples {
                pp.activity_samples = samples;
            }
            if let Some(budget) = tsv_budget {
                pp.max_insertions = budget;
            }
        }
        // Accepting these on a setup without post-processing would cache the default
        // config's result under a key claiming the override applied.
        None if activity_samples.is_some() || tsv_budget.is_some() => {
            return Err(
                "'activity_samples'/'tsv_budget' only apply to post-processing setups \
                 (setup \"tsc\")"
                    .into(),
            );
        }
        None => {}
    }

    Ok(CampaignJob {
        id: 0,
        benchmark,
        setup,
        seed,
        override_name: "serve".to_string(),
        config,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow_body(extra: &str) -> Json {
        Json::parse(&format!(
            "{{\"type\":\"flow\",\"benchmark\":\"n100\",\"setup\":\"tsc\",\"seed\":7{extra}}}"
        ))
        .unwrap()
    }

    #[test]
    fn canonicalization_is_order_insensitive() {
        let a = Json::parse("{\"b\":1,\"a\":{\"y\":2,\"x\":[3,{\"q\":4,\"p\":5}]}}").unwrap();
        let b = Json::parse("{\"a\":{\"x\":[3,{\"p\":5,\"q\":4}],\"y\":2},\"b\":1}").unwrap();
        assert_eq!(canonical_key(&a), canonical_key(&b));
        // Array order is significant.
        let c = Json::parse("{\"a\":{\"x\":[{\"p\":5,\"q\":4},3],\"y\":2},\"b\":1}").unwrap();
        assert_ne!(canonical_key(&a), canonical_key(&c));
        assert_eq!(key_hash(&canonical_key(&a)), key_hash(&canonical_key(&b)));
    }

    #[test]
    fn flow_payloads_parse_with_overrides() {
        let body = flow_body(",\"stages\":4,\"moves\":8,\"tsv_budget\":2");
        let Payload::Flow(job) = parse_payload(&body).unwrap() else {
            panic!("expected a flow payload");
        };
        assert_eq!(job.benchmark, Benchmark::N100);
        assert_eq!(job.setup, Setup::TscAware);
        assert_eq!(job.seed, 7);
        assert_eq!(job.config.schedule.stages, 4);
        assert_eq!(job.config.schedule.moves_per_stage, 8);
        assert_eq!(job.config.post_process.unwrap().max_insertions, 2);
    }

    #[test]
    fn malformed_payloads_fail_with_reasons() {
        for (body, needle) in [
            ("[1,2]", "JSON object"),
            ("{\"type\":\"blob\"}", "unknown job type"),
            ("{\"benchmark\":\"n100\"}", "'type'"),
            (
                "{\"type\":\"flow\",\"benchmark\":\"bogus\",\"setup\":\"pa\",\"seed\":1}",
                "unknown benchmark",
            ),
            (
                "{\"type\":\"flow\",\"benchmark\":\"n100\",\"setup\":\"mid\",\"seed\":1}",
                "unknown setup",
            ),
            (
                "{\"type\":\"flow\",\"benchmark\":\"n100\",\"setup\":\"pa\"}",
                "'seed'",
            ),
            ("{\"type\":\"campaign\"}", "missing 'spec'"),
            // A typo'd field must fail, not silently run a different config than the
            // cache key claims.
            (
                "{\"type\":\"flow\",\"benchmark\":\"n100\",\"setup\":\"pa\",\"seed\":1,\"stagse\":4}",
                "unknown field 'stagse'",
            ),
            ("{\"type\":\"campaign\",\"spec\":{},\"shard\":\"0/2\"}", "unknown field 'shard'"),
            // Post-processing overrides on a setup without post-processing are refused
            // for the same reason.
            (
                "{\"type\":\"flow\",\"benchmark\":\"n100\",\"setup\":\"pa\",\"seed\":1,\"tsv_budget\":5}",
                "only apply to post-processing setups",
            ),
            (
                "{\"type\":\"flow\",\"benchmark\":\"n100\",\"setup\":\"pa\",\"seed\":1,\"activity_samples\":4}",
                "only apply to post-processing setups",
            ),
        ] {
            let err = parse_payload(&Json::parse(body).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn oversized_sca_attacks_are_refused_at_submission() {
        // Each size bound of the attack is enforced before the job is accepted, so a
        // submission cannot make the daemon allocate without limit once its flow ends.
        for (extra, needle) in [
            (",\"traces\":1000000000000", "traces must be in 8..=1000000"),
            (
                ",\"attack_grid_bins\":100000",
                "grid_bins must be in 2..=128",
            ),
        ] {
            let body = format!("{{\"type\":\"sca\",\"benchmark\":\"n100\",\"seed\":7{extra}}}");
            let err = parse_payload(&Json::parse(&body).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
        let body = "{\"type\":\"sca\",\"benchmark\":\"n100\",\"seed\":7,\"traces\":1000000,\
                    \"attack_grid_bins\":128}";
        let Payload::Sca(submission) = parse_payload(&Json::parse(body).unwrap()).unwrap() else {
            panic!("expected an sca payload");
        };
        assert_eq!(submission.spec.attack.traces, 1_000_000);
        assert_eq!(submission.spec.attack.grid_bins, 128);
    }

    #[test]
    fn flow_seed_derivation_matches_the_campaign_engine() {
        let Payload::Flow(job) = parse_payload(&flow_body("")).unwrap() else {
            panic!("expected a flow payload");
        };
        let reference = CampaignJob {
            id: 99,
            benchmark: Benchmark::N100,
            setup: Setup::PowerAware, // the run seed is setup-independent by design
            seed: 7,
            override_name: "base".into(),
            config: job.config,
        };
        assert_eq!(job.run_seed(), reference.run_seed());
    }
}
