//! BENCH_serve.json emission.
//!
//! Schema `tsc3d-bench-serve/v1`: a top-level `entries` array, one object per
//! labeled run, each with an `http` section of per-endpoint rows. Row fields
//! follow the `obs bench-diff` naming convention — `endpoint`/`mode`/`mix`
//! are identity strings, `p50_ms`/`p95_ms`/`p99_ms`/`max_ms` and `errors`
//! carry lower-is-better polarity, `requests_per_sec` higher-is-better — so
//! latency regressions gate exactly like throughput drops do in
//! `BENCH_flow.json`.

use crate::run::{Mode, RunResult};
use std::sync::atomic::Ordering;
use tsc3d_obs::json::Json;

/// The schema string written at the top of `BENCH_serve.json`.
pub const SCHEMA: &str = "tsc3d-bench-serve/v1";

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

/// Wraps one entry into a fresh schema-versioned document (the `--json` path).
pub fn fresh_doc(entry: Json) -> Json {
    Json::Obj(vec![
        ("schema".to_string(), Json::Str(SCHEMA.to_string())),
        ("entries".to_string(), Json::Arr(vec![entry])),
    ])
}

/// Pushes `entry` onto an existing document's `entries` array (the `--append`
/// path), or starts a fresh document when `existing` is `None`.
pub fn append_entry(existing: Option<Json>, entry: Json) -> Json {
    let mut doc = existing.unwrap_or_else(|| {
        Json::Obj(vec![
            ("schema".to_string(), Json::Str(SCHEMA.to_string())),
            ("entries".to_string(), Json::Arr(Vec::new())),
        ])
    });
    if let Json::Obj(members) = &mut doc {
        if let Some((_, Json::Arr(entries))) = members.iter_mut().find(|(k, _)| k == "entries") {
            entries.push(entry);
            return doc;
        }
        members.push(("entries".to_string(), Json::Arr(vec![entry])));
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Outcome;
    use crate::run::EndpointRecord;
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use std::time::Duration;

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
        let doc = fresh_doc(entry);
        let file = tsc3d_obs::bench::parse_bench(&doc.render()).expect("parses");
        assert_eq!(file.schema, SCHEMA);
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
        let first = render_entry("a", None, "reads", Mode::Open, &sample_result());
        let doc = append_entry(None, first);
        let second = render_entry("b", None, "reads", Mode::Open, &sample_result());
        let doc = append_entry(Some(doc), second);
        let file = tsc3d_obs::bench::parse_bench(&doc.render()).expect("parses");
        let labels: Vec<&str> = file.entries.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, ["a", "b"]);
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
        let doc = fresh_doc(entry);
        let file = tsc3d_obs::bench::parse_bench(&doc.render()).unwrap();
        let row = &file.entries[0].sections[0].1[0];
        let errors = row.rates.iter().find(|(n, _, _)| n == "errors").unwrap();
        assert_eq!(errors.1, 1.0);
    }
}
