//! Per-job result records: the unit streamed to the JSONL results file.

use crate::codec::{benchmark_from_json, setup_from_json, setup_to_json, DecodeError};
use tsc3d::{display_chain, FlowError, FlowResult, Setup};
use tsc3d_netlist::suite::Benchmark;
use tsc3d_obs::json::Json;

/// The scalar metrics of one successful flow run (the campaign analogue of one summand of
/// [`tsc3d::experiment::SetupAverages`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobMetrics {
    /// Spatial entropy of the bottom die.
    pub s1: f64,
    /// Spatial entropy of the top die.
    pub s2: f64,
    /// Final power–temperature correlation of the bottom die.
    pub r1: f64,
    /// Final correlation of the top die.
    pub r2: f64,
    /// Overall voltage-scaled power in watts.
    pub power_w: f64,
    /// Critical delay in ns.
    pub critical_delay_ns: f64,
    /// Total wirelength in metres.
    pub wirelength_m: f64,
    /// Peak temperature (detailed verification) in kelvin.
    pub peak_temperature_k: f64,
    /// Number of signal TSVs.
    pub signal_tsvs: f64,
    /// Number of dummy thermal TSVs.
    pub dummy_tsvs: f64,
    /// Number of voltage volumes.
    pub voltage_volumes: f64,
    /// Flow runtime in seconds.
    pub runtime_s: f64,
    /// Cost evaluations performed by the annealing stage (including outline-repair
    /// re-anneals) — the numerator of the system's evaluations/sec throughput.
    pub evaluations: f64,
    /// Whether any verification needed the relaxed solver retry.
    pub relaxed_solve: bool,
    /// Whether the outline-repair pass ran.
    pub outline_repaired: bool,
}

impl JobMetrics {
    /// Extracts the metrics from a flow result (the summands behind the means of
    /// [`tsc3d::experiment::SetupAverages`]).
    pub fn from_result(result: &FlowResult) -> Self {
        Self {
            s1: result.spatial_entropies.first().copied().unwrap_or(0.0),
            s2: result.spatial_entropies.get(1).copied().unwrap_or(0.0),
            r1: result.final_correlations.first().copied().unwrap_or(0.0),
            r2: result.final_correlations.get(1).copied().unwrap_or(0.0),
            power_w: result.scaled_powers.iter().sum::<f64>(),
            critical_delay_ns: result.sa.breakdown.critical_delay,
            wirelength_m: result.sa.breakdown.wirelength * 1e-6,
            peak_temperature_k: result.verification.peak_temperature,
            signal_tsvs: result.signal_tsvs() as f64,
            dummy_tsvs: result.dummy_tsvs() as f64,
            voltage_volumes: result.assignment.volume_count() as f64,
            runtime_s: result.runtime_seconds,
            evaluations: result.sa.evaluations as f64,
            relaxed_solve: result.used_relaxed_solve(),
            outline_repaired: result.outline_repair.is_some(),
        }
    }

    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("s1".into(), Json::Num(self.s1)),
            ("s2".into(), Json::Num(self.s2)),
            ("r1".into(), Json::Num(self.r1)),
            ("r2".into(), Json::Num(self.r2)),
            ("power_w".into(), Json::Num(self.power_w)),
            (
                "critical_delay_ns".into(),
                Json::Num(self.critical_delay_ns),
            ),
            ("wirelength_m".into(), Json::Num(self.wirelength_m)),
            (
                "peak_temperature_k".into(),
                Json::Num(self.peak_temperature_k),
            ),
            ("signal_tsvs".into(), Json::Num(self.signal_tsvs)),
            ("dummy_tsvs".into(), Json::Num(self.dummy_tsvs)),
            ("voltage_volumes".into(), Json::Num(self.voltage_volumes)),
            ("runtime_s".into(), Json::Num(self.runtime_s)),
            ("evaluations".into(), Json::Num(self.evaluations)),
            ("relaxed_solve".into(), Json::Bool(self.relaxed_solve)),
            ("outline_repaired".into(), Json::Bool(self.outline_repaired)),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, DecodeError> {
        let num = |key: &str| -> Result<f64, DecodeError> {
            value
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| DecodeError(format!("metrics field '{key}' missing")))
        };
        let flag = |key: &str| -> Result<bool, DecodeError> {
            value
                .get(key)
                .and_then(Json::as_bool)
                .ok_or_else(|| DecodeError(format!("metrics flag '{key}' missing")))
        };
        Ok(Self {
            s1: num("s1")?,
            s2: num("s2")?,
            r1: num("r1")?,
            r2: num("r2")?,
            power_w: num("power_w")?,
            critical_delay_ns: num("critical_delay_ns")?,
            wirelength_m: num("wirelength_m")?,
            peak_temperature_k: num("peak_temperature_k")?,
            signal_tsvs: num("signal_tsvs")?,
            dummy_tsvs: num("dummy_tsvs")?,
            voltage_volumes: num("voltage_volumes")?,
            runtime_s: num("runtime_s")?,
            // Records written before PR 4 lack the field; read them as zero evaluations
            // rather than failing resume.
            evaluations: value
                .get("evaluations")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            relaxed_solve: flag("relaxed_solve")?,
            outline_repaired: flag("outline_repaired")?,
        })
    }
}

/// How a job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The flow completed; the metrics are attached.
    Success(JobMetrics),
    /// The flow failed with a typed error.
    Failure {
        /// Stable variant tag ([`FlowError::kind`]), the aggregation key.
        kind: String,
        /// Full error chain (root causes included) for the failure log.
        message: String,
    },
}

impl JobOutcome {
    /// Builds the outcome from a flow result.
    pub fn from_flow(result: &Result<FlowResult, FlowError>) -> Self {
        match result {
            Ok(result) => JobOutcome::Success(JobMetrics::from_result(result)),
            Err(error) => JobOutcome::Failure {
                kind: error.kind().to_string(),
                message: display_chain(error),
            },
        }
    }
}

/// One line of the campaign results file: the identity of a job plus its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The job's stable id within its campaign spec.
    pub job_id: u64,
    /// The benchmark.
    pub benchmark: Benchmark,
    /// The setup.
    pub setup: Setup,
    /// The override-set name.
    pub override_name: String,
    /// The design seed.
    pub seed: u64,
    /// Success metrics or typed failure.
    pub outcome: JobOutcome,
}

impl JobRecord {
    /// `true` for a successful job.
    pub fn is_success(&self) -> bool {
        matches!(self.outcome, JobOutcome::Success(_))
    }

    /// The metrics of a successful job.
    pub fn metrics(&self) -> Option<&JobMetrics> {
        match &self.outcome {
            JobOutcome::Success(metrics) => Some(metrics),
            JobOutcome::Failure { .. } => None,
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
            ("setup".to_string(), setup_to_json(self.setup)),
            (
                "override".to_string(),
                Json::Str(self.override_name.clone()),
            ),
            ("seed".to_string(), Json::UInt(self.seed)),
        ];
        match &self.outcome {
            JobOutcome::Success(metrics) => {
                members.push(("status".into(), Json::Str("ok".into())));
                members.push(("metrics".into(), metrics.to_json()));
            }
            JobOutcome::Failure { kind, message } => {
                members.push(("status".into(), Json::Str("failed".into())));
                members.push(("error_kind".into(), Json::Str(kind.clone())));
                members.push(("error".into(), Json::Str(message.clone())));
            }
        }
        Json::Obj(members).render()
    }

    /// Parses one JSONL line.
    pub fn from_json(value: &Json) -> Result<Self, DecodeError> {
        let job_id = value
            .get("job_id")
            .and_then(Json::as_u64)
            .ok_or_else(|| DecodeError("record is missing 'job_id'".into()))?;
        let benchmark = benchmark_from_json(
            value
                .get("benchmark")
                .ok_or_else(|| DecodeError("record is missing 'benchmark'".into()))?,
        )?;
        let setup = setup_from_json(
            value
                .get("setup")
                .ok_or_else(|| DecodeError("record is missing 'setup'".into()))?,
        )?;
        let override_name = value
            .get("override")
            .and_then(Json::as_str)
            .ok_or_else(|| DecodeError("record is missing 'override'".into()))?
            .to_string();
        let seed = value
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| DecodeError("record is missing 'seed'".into()))?;
        let outcome = match value.get("status").and_then(Json::as_str) {
            Some("ok") => JobOutcome::Success(JobMetrics::from_json(
                value
                    .get("metrics")
                    .ok_or_else(|| DecodeError("ok record is missing 'metrics'".into()))?,
            )?),
            Some("failed") => JobOutcome::Failure {
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
            other => return Err(DecodeError(format!("unknown record status {other:?}"))),
        };
        Ok(Self {
            job_id,
            benchmark,
            setup,
            override_name,
            seed,
            outcome,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc3d::{FlowError, FlowStage};

    fn sample_metrics() -> JobMetrics {
        JobMetrics {
            s1: 5.1,
            s2: 5.05,
            r1: 0.61,
            r2: -0.02,
            power_w: 8.25,
            critical_delay_ns: 1.75,
            wirelength_m: 212.5,
            peak_temperature_k: 341.25,
            signal_tsvs: 900.0,
            dummy_tsvs: 32.0,
            voltage_volumes: 41.0,
            runtime_s: 1.5,
            evaluations: 616.0,
            relaxed_solve: false,
            outline_repaired: true,
        }
    }

    #[test]
    fn success_records_round_trip() {
        let record = JobRecord {
            job_id: 17,
            benchmark: Benchmark::Ibm03,
            setup: Setup::TscAware,
            override_name: "sweep".into(),
            seed: u64::MAX,
            outcome: JobOutcome::Success(sample_metrics()),
        };
        let line = record.to_json_line();
        assert!(!line.contains('\n'));
        let back = JobRecord::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn failure_records_round_trip_with_error_chains() {
        let error = FlowError::Solve {
            stage: FlowStage::Verify,
            attempts: 2,
            source: tsc3d_thermal_error(),
        };
        let record = JobRecord {
            job_id: 3,
            benchmark: Benchmark::N100,
            setup: Setup::PowerAware,
            override_name: "base".into(),
            seed: 9,
            outcome: JobOutcome::from_flow(&Err(error)),
        };
        let line = record.to_json_line();
        let back = JobRecord::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, record);
        match &back.outcome {
            JobOutcome::Failure { kind, message } => {
                assert_eq!(kind, "solve");
                // The failure log carries the root cause of the chain.
                assert!(message.contains("did not converge"));
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    fn tsc3d_thermal_error() -> tsc3d_thermal::SolveError {
        tsc3d_thermal::SolveError::NotConverged {
            residual: 0.25,
            iterations: 100,
        }
    }
}
