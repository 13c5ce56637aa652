//! BENCH_serve.json entries.
//!
//! Schema `tsc3d-bench-serve/v1` ([`tsc3d_obs::bench::SERVE_SCHEMA`]): a
//! top-level `entries` array, one object per labeled run, each with an `http`
//! section of per-endpoint rows; `loadgen --append` writes them through
//! [`tsc3d_obs::bench::append_entry`]. Row fields
//! follow the `obs bench-diff` naming convention — `endpoint`/`mode`/`mix`
//! are identity strings, `p50_ms`/`p95_ms`/`p99_ms`/`max_ms` and `errors`
//! carry lower-is-better polarity, `requests_per_sec` higher-is-better — so
//! latency regressions gate exactly like throughput drops do in
//! `BENCH_flow.json`.

use crate::run::{Mode, RunResult};
use std::sync::atomic::Ordering;
use tsc3d_obs::json::Json;

/// Builds the `entries[]` object for one run: identity (`label`, optional
/// `note`) plus the `http` section. Quantiles of an empty histogram render as
/// `0.0` — a string sentinel would join the row identity key and break
/// label-over-label matching in `bench-diff`.
pub fn render_entry(
    label: &str,
    note: Option<&str>,
    mix: &str,
    mode: Mode,
    result: &RunResult,
) -> Json {
    let mut members = vec![("label".to_string(), Json::Str(label.to_string()))];
    if let Some(note) = note {
        members.push(("note".to_string(), Json::Str(note.to_string())));
    }
    let mut rows = Vec::new();
    let secs = result.elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    for (endpoint, record) in &result.endpoints {
        if record.total() == 0 {
            continue;
        }
        let ms = |q: f64| {
            let v = record.latency.quantile(q) / 1e6;
            if v.is_finite() {
                v
            } else {
                0.0
            }
        };
        let errors =
            record.server_errors.load(Ordering::Relaxed) + record.io_errors.load(Ordering::Relaxed);
        rows.push(Json::Obj(vec![
            ("endpoint".to_string(), Json::Str((*endpoint).to_string())),
            ("mode".to_string(), Json::Str(mode.as_str().to_string())),
            ("mix".to_string(), Json::Str(mix.to_string())),
            ("p50_ms".to_string(), Json::Num(ms(0.5))),
            ("p95_ms".to_string(), Json::Num(ms(0.95))),
            ("p99_ms".to_string(), Json::Num(ms(0.99))),
            (
                "max_ms".to_string(),
                Json::Num(record.latency.max_ns() as f64 / 1e6),
            ),
            (
                "requests_per_sec".to_string(),
                Json::Num(record.total() as f64 / secs),
            ),
            ("errors".to_string(), Json::UInt(errors)),
        ]));
    }
    members.push(("http".to_string(), Json::Arr(rows)));
    Json::Obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Outcome;
    use crate::run::EndpointRecord;
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use std::time::Duration;
    use tsc3d_obs::bench::{parse_bench, BenchFile, SERVE_SCHEMA};

    /// A one-entry `BENCH_serve.json` document holding `entry`, parsed back.
    fn parsed(entry: Json) -> BenchFile {
        let doc = Json::Obj(vec![
            ("schema".to_string(), Json::Str(SERVE_SCHEMA.to_string())),
            ("entries".to_string(), Json::Arr(vec![entry])),
        ]);
        parse_bench(&doc.render()).expect("parses")
    }

    fn sample_result() -> RunResult {
        let record = Arc::new(EndpointRecord::default());
        record.latency.observe(1_000_000);
        record.latency.observe(2_000_000);
        record.ok.fetch_add(2, Ordering::Relaxed);
        let empty = Arc::new(EndpointRecord::default());
        let mut endpoints: BTreeMap<&'static str, Arc<EndpointRecord>> = BTreeMap::new();
        endpoints.insert("/healthz", record);
        endpoints.insert("/v1/stats", empty);
        let server_errors = 0;
        let io_errors = 0;
        RunResult {
            endpoints,
            elapsed: Duration::from_secs(2),
            issued: 2,
            server_errors,
            io_errors,
        }
    }

    #[test]
    fn entry_rows_parse_under_obs_bench_diff() {
        let entry = render_entry(
            "pr10",
            Some("unit"),
            "mixed",
            Mode::Closed,
            &sample_result(),
        );
        let file = parsed(entry);
        assert_eq!(file.schema, SERVE_SCHEMA);
        let (section, rows) = &file.entries[0].sections[0];
        assert_eq!(section, "http");
        // The untouched endpoint is skipped; the healthz row carries identity
        // and all six metric columns.
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].key, "endpoint=/healthz mode=closed mix=mixed");
        let names: Vec<&str> = rows[0].rates.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "p50_ms",
                "p95_ms",
                "p99_ms",
                "max_ms",
                "requests_per_sec",
                "errors"
            ]
        );
        let rps = rows[0]
            .rates
            .iter()
            .find(|(n, _, _)| n == "requests_per_sec")
            .unwrap();
        assert!((rps.1 - 1.0).abs() < 1e-9, "2 requests over 2s");
    }

    #[test]
    fn append_extends_and_bootstraps() {
        // `loadgen --append` entries create a missing file, then extend it, through
        // the shared bench-file writer.
        let dir = std::env::temp_dir().join(format!("tsc3d-loadgen-report-{}", std::process::id()));
        let path = dir.join("BENCH_serve.json");
        let _ = std::fs::remove_file(&path);
        for label in ["a", "b"] {
            let entry = render_entry(label, None, "reads", Mode::Open, &sample_result());
            tsc3d_obs::bench::append_entry(&path, SERVE_SCHEMA, entry).expect("appends");
        }
        let file = parse_bench(&std::fs::read_to_string(&path).unwrap()).expect("parses");
        let labels: Vec<&str> = file.entries.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, ["a", "b"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_outcome_lands_in_errors_column() {
        let mut result = sample_result();
        let record = Arc::get_mut(result.endpoints.get_mut("/healthz").unwrap());
        // Arc has two strong refs only in the real run; here it is unique.
        let record = record.expect("unique in test");
        record.record(&Outcome::Status(503), Duration::from_millis(1));
        result.server_errors = 1;
        let entry = render_entry("x", None, "mixed", Mode::Closed, &result);
        let file = parsed(entry);
        let row = &file.entries[0].sections[0].1[0];
        let errors = row.rates.iter().find(|(n, _, _)| n == "errors").unwrap();
        assert_eq!(errors.1, 1.0);
    }
}
