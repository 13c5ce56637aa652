//! JSON encoding/decoding of campaign specs and flow configurations.
//!
//! The first line of a campaign results file is a header carrying the full
//! [`CampaignSpec`], which makes the file self-describing: `campaign resume` and
//! `campaign report` rebuild the spec from the file instead of requiring the original
//! command line to be repeated.

use crate::job::{CampaignSpec, OverrideSet};
use tsc3d::postprocess::{PostProcessConfig, ThermalEngine};
use tsc3d::{FlowConfig, OutlinePolicy, RetryPolicy, Setup, SolverSettings};
use tsc3d_floorplan::{ObjectiveWeights, SaSchedule};
use tsc3d_netlist::suite::Benchmark;
use tsc3d_obs::json::Json;

/// Error of a decode: a human-readable description of the first mismatch.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed campaign data: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn field<'a>(value: &'a Json, key: &str) -> Result<&'a Json, DecodeError> {
    value
        .get(key)
        .ok_or_else(|| DecodeError(format!("missing field '{key}'")))
}

/// Strict numeric accessor for spec/config fields: unlike [`Json::as_f64`] (whose
/// null-means-NaN convention exists for the metrics round trip), a `null` here is a
/// malformed config — a NaN cooling factor or objective weight would silently break
/// every annealer cost comparison downstream. For the same reason a number too large for
/// an `f64` (`1e999` parses to +∞) is refused.
pub(crate) fn f64_field(value: &Json, key: &str) -> Result<f64, DecodeError> {
    match field(value, key)? {
        Json::Num(x) if x.is_finite() => Ok(*x),
        Json::Num(_) => Err(DecodeError(format!("field '{key}' is not a finite number"))),
        Json::UInt(u) => Ok(*u as f64),
        _ => Err(DecodeError(format!("field '{key}' is not a number"))),
    }
}

fn u64_field(value: &Json, key: &str) -> Result<u64, DecodeError> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| DecodeError(format!("field '{key}' is not an integer")))
}

pub(crate) fn usize_field(value: &Json, key: &str) -> Result<usize, DecodeError> {
    Ok(u64_field(value, key)? as usize)
}

pub(crate) fn str_field<'a>(value: &'a Json, key: &str) -> Result<&'a str, DecodeError> {
    field(value, key)?
        .as_str()
        .ok_or_else(|| DecodeError(format!("field '{key}' is not a string")))
}

/// Encodes a setup as its table label (`"PA"` / `"TSC"`).
pub fn setup_to_json(setup: Setup) -> Json {
    Json::Str(setup.label().to_string())
}

/// Decodes a setup label.
pub fn setup_from_json(value: &Json) -> Result<Setup, DecodeError> {
    match value.as_str() {
        Some("PA") => Ok(Setup::PowerAware),
        Some("TSC") => Ok(Setup::TscAware),
        other => Err(DecodeError(format!("unknown setup {other:?}"))),
    }
}

/// Decodes a benchmark by its paper name.
pub fn benchmark_from_json(value: &Json) -> Result<Benchmark, DecodeError> {
    let name = value
        .as_str()
        .ok_or_else(|| DecodeError("benchmark is not a string".into()))?;
    Benchmark::from_name(name).ok_or_else(|| DecodeError(format!("unknown benchmark '{name}'")))
}

fn schedule_to_json(schedule: &SaSchedule) -> Json {
    Json::Obj(vec![
        ("stages".into(), Json::UInt(schedule.stages as u64)),
        (
            "moves_per_stage".into(),
            Json::UInt(schedule.moves_per_stage as u64),
        ),
        ("cooling".into(), Json::Num(schedule.cooling)),
        (
            "initial_acceptance".into(),
            Json::Num(schedule.initial_acceptance),
        ),
        ("grid_bins".into(), Json::UInt(schedule.grid_bins as u64)),
    ])
}

fn schedule_from_json(value: &Json) -> Result<SaSchedule, DecodeError> {
    Ok(SaSchedule {
        stages: usize_field(value, "stages")?,
        moves_per_stage: usize_field(value, "moves_per_stage")?,
        cooling: f64_field(value, "cooling")?,
        initial_acceptance: f64_field(value, "initial_acceptance")?,
        grid_bins: usize_field(value, "grid_bins")?,
    })
}

fn solver_to_json(solver: &SolverSettings) -> Json {
    Json::Obj(vec![
        ("tolerance".into(), Json::Num(solver.tolerance)),
        (
            "max_iterations".into(),
            Json::UInt(solver.max_iterations as u64),
        ),
    ])
}

fn solver_from_json(value: &Json) -> Result<SolverSettings, DecodeError> {
    Ok(SolverSettings {
        tolerance: f64_field(value, "tolerance")?,
        max_iterations: usize_field(value, "max_iterations")?,
    })
}

fn weights_to_json(weights: &ObjectiveWeights) -> Json {
    Json::Obj(vec![
        ("packing".into(), Json::Num(weights.packing)),
        ("wirelength".into(), Json::Num(weights.wirelength)),
        ("delay".into(), Json::Num(weights.delay)),
        ("temperature".into(), Json::Num(weights.temperature)),
        ("power".into(), Json::Num(weights.power)),
        ("volumes".into(), Json::Num(weights.volumes)),
        ("correlation".into(), Json::Num(weights.correlation)),
        ("entropy".into(), Json::Num(weights.entropy)),
    ])
}

fn weights_from_json(value: &Json) -> Result<ObjectiveWeights, DecodeError> {
    Ok(ObjectiveWeights {
        packing: f64_field(value, "packing")?,
        wirelength: f64_field(value, "wirelength")?,
        delay: f64_field(value, "delay")?,
        temperature: f64_field(value, "temperature")?,
        power: f64_field(value, "power")?,
        volumes: f64_field(value, "volumes")?,
        correlation: f64_field(value, "correlation")?,
        entropy: f64_field(value, "entropy")?,
    })
}

fn retry_to_json(retry: &RetryPolicy) -> Json {
    match retry {
        RetryPolicy::Fail => Json::Str("fail".into()),
        RetryPolicy::Relaxed(settings) => solver_to_json(settings),
    }
}

fn retry_from_json(value: &Json) -> Result<RetryPolicy, DecodeError> {
    match value {
        Json::Str(s) if s == "fail" => Ok(RetryPolicy::Fail),
        Json::Obj(_) => Ok(RetryPolicy::Relaxed(solver_from_json(value)?)),
        _ => Err(DecodeError("unknown retry policy".into())),
    }
}

fn outline_to_json(outline: &OutlinePolicy) -> Json {
    match outline {
        OutlinePolicy::Fail => Json::Str("fail".into()),
        OutlinePolicy::Repair { max_rounds } => Json::Obj(vec![(
            "max_repair_rounds".into(),
            Json::UInt(*max_rounds as u64),
        )]),
    }
}

fn outline_from_json(value: &Json) -> Result<OutlinePolicy, DecodeError> {
    match value {
        Json::Str(s) if s == "fail" => Ok(OutlinePolicy::Fail),
        Json::Obj(_) => Ok(OutlinePolicy::Repair {
            max_rounds: usize_field(value, "max_repair_rounds")?,
        }),
        _ => Err(DecodeError("unknown outline policy".into())),
    }
}

fn post_process_to_json(pp: &PostProcessConfig) -> Json {
    Json::Obj(vec![
        (
            "activity_samples".into(),
            Json::UInt(pp.activity_samples as u64),
        ),
        ("activity_sigma".into(), Json::Num(pp.activity_sigma)),
        (
            "tsvs_per_island".into(),
            Json::UInt(pp.tsvs_per_island as u64),
        ),
        (
            "max_insertions".into(),
            Json::UInt(pp.max_insertions as u64),
        ),
        (
            "engine".into(),
            Json::Str(
                match pp.engine {
                    ThermalEngine::Fast => "fast",
                    ThermalEngine::Detailed => "detailed",
                }
                .into(),
            ),
        ),
    ])
}

fn post_process_from_json(value: &Json) -> Result<PostProcessConfig, DecodeError> {
    Ok(PostProcessConfig {
        activity_samples: usize_field(value, "activity_samples")?,
        activity_sigma: f64_field(value, "activity_sigma")?,
        tsvs_per_island: usize_field(value, "tsvs_per_island")?,
        max_insertions: usize_field(value, "max_insertions")?,
        engine: match str_field(value, "engine")? {
            "fast" => ThermalEngine::Fast,
            "detailed" => ThermalEngine::Detailed,
            other => return Err(DecodeError(format!("unknown thermal engine '{other}'"))),
        },
    })
}

fn option_to_json<T>(value: &Option<T>, encode: impl Fn(&T) -> Json) -> Json {
    match value {
        Some(inner) => encode(inner),
        None => Json::Null,
    }
}

fn option_from_json<T>(
    value: &Json,
    decode: impl Fn(&Json) -> Result<T, DecodeError>,
) -> Result<Option<T>, DecodeError> {
    if value.is_null() {
        Ok(None)
    } else {
        decode(value).map(Some)
    }
}

/// Encodes a full flow configuration.
pub fn flow_config_to_json(config: &FlowConfig) -> Json {
    Json::Obj(vec![
        ("setup".into(), setup_to_json(config.setup)),
        ("schedule".into(), schedule_to_json(&config.schedule)),
        (
            "verification_bins".into(),
            Json::UInt(config.verification_bins as u64),
        ),
        ("solver".into(), solver_to_json(&config.solver)),
        ("retry".into(), retry_to_json(&config.retry)),
        (
            "weights".into(),
            option_to_json(&config.weights, weights_to_json),
        ),
        ("outline".into(), outline_to_json(&config.outline)),
        (
            "post_process".into(),
            option_to_json(&config.post_process, post_process_to_json),
        ),
    ])
}

/// Decodes a full flow configuration.
pub fn flow_config_from_json(value: &Json) -> Result<FlowConfig, DecodeError> {
    Ok(FlowConfig {
        setup: setup_from_json(field(value, "setup")?)?,
        schedule: schedule_from_json(field(value, "schedule")?)?,
        verification_bins: usize_field(value, "verification_bins")?,
        solver: solver_from_json(field(value, "solver")?)?,
        retry: retry_from_json(field(value, "retry")?)?,
        weights: option_from_json(field(value, "weights")?, weights_from_json)?,
        outline: outline_from_json(field(value, "outline")?)?,
        post_process: option_from_json(field(value, "post_process")?, post_process_from_json)?,
    })
}

fn override_to_json(set: &OverrideSet) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(set.name.clone())),
        (
            "schedule".into(),
            option_to_json(&set.schedule, schedule_to_json),
        ),
        (
            "verification_bins".into(),
            option_to_json(&set.verification_bins, |&b| Json::UInt(b as u64)),
        ),
        ("solver".into(), option_to_json(&set.solver, solver_to_json)),
        (
            "weights".into(),
            option_to_json(&set.weights, weights_to_json),
        ),
        (
            "activity_samples".into(),
            option_to_json(&set.activity_samples, |&s| Json::UInt(s as u64)),
        ),
        (
            "tsv_budget".into(),
            option_to_json(&set.tsv_budget, |&b| Json::UInt(b as u64)),
        ),
    ])
}

fn override_from_json(value: &Json) -> Result<OverrideSet, DecodeError> {
    Ok(OverrideSet {
        name: str_field(value, "name")?.to_string(),
        schedule: option_from_json(field(value, "schedule")?, schedule_from_json)?,
        verification_bins: option_from_json(field(value, "verification_bins")?, |v| {
            v.as_u64()
                .map(|u| u as usize)
                .ok_or_else(|| DecodeError("verification_bins override is not an integer".into()))
        })?,
        solver: option_from_json(field(value, "solver")?, solver_from_json)?,
        weights: option_from_json(field(value, "weights")?, weights_from_json)?,
        activity_samples: option_from_json(field(value, "activity_samples")?, |v| {
            v.as_u64()
                .map(|u| u as usize)
                .ok_or_else(|| DecodeError("activity_samples override is not an integer".into()))
        })?,
        tsv_budget: option_from_json(field(value, "tsv_budget")?, |v| {
            v.as_u64()
                .map(|u| u as usize)
                .ok_or_else(|| DecodeError("tsv_budget override is not an integer".into()))
        })?,
    })
}

/// Encodes a campaign spec (the content of a results-file header).
pub fn spec_to_json(spec: &CampaignSpec) -> Json {
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
            "setups".into(),
            Json::Arr(spec.setups.iter().map(|&s| setup_to_json(s)).collect()),
        ),
        (
            "seeds".into(),
            Json::Arr(spec.seeds.iter().map(|&s| Json::UInt(s)).collect()),
        ),
        (
            "overrides".into(),
            Json::Arr(spec.overrides.iter().map(override_to_json).collect()),
        ),
        ("power_aware".into(), flow_config_to_json(&spec.power_aware)),
        ("tsc_aware".into(), flow_config_to_json(&spec.tsc_aware)),
    ])
}

/// Decodes a campaign spec.
pub fn spec_from_json(value: &Json) -> Result<CampaignSpec, DecodeError> {
    let arr = |key: &str| -> Result<&[Json], DecodeError> {
        field(value, key)?
            .as_array()
            .ok_or_else(|| DecodeError(format!("field '{key}' is not an array")))
    };
    Ok(CampaignSpec {
        benchmarks: arr("benchmarks")?
            .iter()
            .map(benchmark_from_json)
            .collect::<Result<_, _>>()?,
        setups: arr("setups")?
            .iter()
            .map(setup_from_json)
            .collect::<Result<_, _>>()?,
        seeds: arr("seeds")?
            .iter()
            .map(|s| {
                s.as_u64()
                    .ok_or_else(|| DecodeError("seed is not an integer".into()))
            })
            .collect::<Result<_, _>>()?,
        overrides: arr("overrides")?
            .iter()
            .map(override_from_json)
            .collect::<Result<_, _>>()?,
        power_aware: flow_config_from_json(field(value, "power_aware")?)?,
        tsc_aware: flow_config_from_json(field(value, "tsc_aware")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let mut spec = CampaignSpec::new(vec![Benchmark::N100, Benchmark::Ibm01], vec![1, 99]);
        let mut sweep = OverrideSet::base();
        sweep.name = "sweep".into();
        sweep.schedule = Some(SaSchedule::quick());
        sweep.tsv_budget = Some(3);
        sweep.weights = Some(Setup::TscAware.weights());
        sweep.solver = Some(SolverSettings::relaxed());
        spec.overrides.push(sweep);
        spec.power_aware.retry = RetryPolicy::Fail;
        spec.tsc_aware.outline = OutlinePolicy::Fail;
        spec.tsc_aware.weights = Some(Setup::PowerAware.weights());

        let encoded = spec_to_json(&spec).render();
        let decoded = spec_from_json(&Json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, spec);
    }

    #[test]
    fn flow_config_round_trips_through_json() {
        for setup in [Setup::PowerAware, Setup::TscAware] {
            for config in [FlowConfig::quick(setup), FlowConfig::paper(setup)] {
                let encoded = flow_config_to_json(&config).render();
                let decoded = flow_config_from_json(&Json::parse(&encoded).unwrap()).unwrap();
                assert_eq!(decoded, config);
            }
        }
    }

    #[test]
    fn malformed_configs_are_rejected() {
        let err = flow_config_from_json(&Json::parse("{\"setup\":\"PA\"}").unwrap()).unwrap_err();
        assert!(err.to_string().contains("schedule"));
        // A null numeric field is a corrupt config, not a NaN to run with.
        let mut encoded = flow_config_to_json(&FlowConfig::quick(Setup::PowerAware)).render();
        encoded = encoded.replacen("\"cooling\":0.85", "\"cooling\":null", 1);
        let err = flow_config_from_json(&Json::parse(&encoded).unwrap()).unwrap_err();
        assert!(err.to_string().contains("cooling"), "{err}");
        // Nor is a number too large for an f64, which parses to +∞.
        let encoded = encoded.replacen("\"cooling\":null", "\"cooling\":1e999", 1);
        let err = flow_config_from_json(&Json::parse(&encoded).unwrap()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "malformed campaign data: field 'cooling' is not a finite number"
        );
        let err = setup_from_json(&Json::Str("XX".into())).unwrap_err();
        assert!(err.to_string().contains("XX"));
        let err = benchmark_from_json(&Json::Str("n999".into())).unwrap_err();
        assert!(err.to_string().contains("n999"));
    }
}
