//! Bench-trajectory analytics: parse `BENCH_flow.json` / `BENCH_serve.json`
//! and render label-over-label metric deltas with regression flagging.
//!
//! The workspace records its benchmark history in schema-versioned JSON files
//! (`tsc3d-bench-flow/v1`, `tsc3d-bench-serve/v1`): an `entries` array with
//! one object per PR label, each holding sections (`sa`, `traces`, `http`, …)
//! of measurement rows. This module is deliberately *schema-light*: any entry
//! field whose value is an array of objects is a section, any numeric row
//! field whose name declares a polarity is a metric, and every other primitive
//! row field becomes part of the row's identity key (`benchmark=N100 seed=3`).
//! Metric polarity is by naming convention:
//!
//! * `*_per_sec` — a throughput, higher is better; *drops* beyond the
//!   threshold flag `REGRESSION`.
//! * `*_ms` and `errors` — latencies and error counts, lower is better;
//!   *rises* beyond the threshold flag `REGRESSION` (so `--gate` catches p99
//!   latency regressions in the serve rows the same way it catches
//!   traces/sec drops in the flow rows). An errors count going 0 → N is an
//!   infinite rise and always flags.
//!
//! New sections and new metric columns therefore show up in diffs without
//! code changes — and because seeded costs are identity fields, a
//! bit-identity break surfaces as a removed+added row instead of being
//! silently averaged over.
//!
//! Two renderings back `obs bench-diff`:
//!
//! * [`render_diff`] — one OLD→NEW table between two labels (default: the last
//!   two entries), each rate with its signed percentage delta; drops beyond
//!   the threshold are flagged `REGRESSION`.
//! * [`render_trajectory`] — every label in file order, each rate with its
//!   delta against the *previous* label, the full performance story of the
//!   repo in one table.

use crate::json::Json;
use std::fmt::Write as _;

// --- Bench model -------------------------------------------------------------------

/// Which direction of change is an improvement for a metric column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// Throughputs (`*_per_sec`): a drop beyond the threshold regresses.
    HigherIsBetter,
    /// Latencies (`*_ms`) and `errors`: a rise beyond the threshold regresses.
    LowerIsBetter,
}

/// The polarity a metric field name declares, or `None` for identity fields.
pub fn metric_polarity(name: &str) -> Option<Polarity> {
    if name.ends_with("_per_sec") {
        Some(Polarity::HigherIsBetter)
    } else if name.ends_with("_ms") || name == "errors" || name.ends_with("_errors") {
        Some(Polarity::LowerIsBetter)
    } else {
        None
    }
}

/// One measurement row: an identity key and its metric columns.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Identity, built from the row's non-metric primitive fields in file
    /// order (e.g. `"benchmark=N100 seed=3"`).
    pub key: String,
    /// `(metric field name, value, polarity)` triples, file order.
    pub rates: Vec<(String, f64, Polarity)>,
}

/// One labeled bench entry (typically one PR).
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// The entry label (e.g. `"pr6"`).
    pub label: String,
    /// Sections in file order: `(name, rows)`.
    pub sections: Vec<(String, Vec<BenchRow>)>,
}

/// The parsed bench file.
#[derive(Debug, Clone)]
pub struct BenchFile {
    /// The self-declared schema string.
    pub schema: String,
    /// Entries in file order (oldest label first, by convention).
    pub entries: Vec<BenchEntry>,
}

impl BenchFile {
    /// The entry with `label`, or `None`.
    pub fn entry(&self, label: &str) -> Option<&BenchEntry> {
        self.entries.iter().find(|e| e.label == label)
    }
}

/// Parses a bench file. Any entry field holding an array of objects is treated
/// as a section; within a row, numbers whose names declare a polarity (see
/// [`metric_polarity`]) are metrics and every other primitive field joins the
/// identity key.
///
/// # Errors
///
/// Returns a message on JSON syntax errors or a missing/empty `entries` array.
pub fn parse_bench(text: &str) -> Result<BenchFile, String> {
    let root = Json::parse(text).map_err(|e| e.to_string())?;
    let schema = root
        .get("schema")
        .and_then(Json::as_str)
        .unwrap_or("(unknown)")
        .to_string();
    let Some(raw_entries) = root.get("entries").and_then(Json::as_array) else {
        return Err("no 'entries' array at the top level".into());
    };
    let mut entries = Vec::with_capacity(raw_entries.len());
    for raw in raw_entries {
        let Json::Obj(members) = raw else {
            return Err("an entry is not an object".into());
        };
        let label = raw
            .get("label")
            .and_then(Json::as_str)
            .ok_or("an entry has no 'label'")?
            .to_string();
        let mut sections = Vec::new();
        for (name, value) in members {
            let Some(items) = value.as_array() else {
                continue;
            };
            let rows: Option<Vec<BenchRow>> = items.iter().map(parse_row).collect();
            if let Some(rows) = rows {
                sections.push((name.clone(), rows));
            }
        }
        entries.push(BenchEntry { label, sections });
    }
    if entries.is_empty() {
        return Err("the bench file has no entries".into());
    }
    Ok(BenchFile { schema, entries })
}

/// The row of an object item, `None` for any other value (its array is no section).
fn parse_row(item: &Json) -> Option<BenchRow> {
    let Json::Obj(members) = item else {
        return None;
    };
    let mut key = String::new();
    let mut rates = Vec::new();
    for (name, value) in members {
        let sep = if key.is_empty() { "" } else { " " };
        match value {
            Json::Num(_) | Json::UInt(_) => {
                // Integers widen to f64, so `seed=3` keys the same row as `"seed":3.0`.
                let n = value.as_f64().expect("numbers widen to f64");
                match metric_polarity(name) {
                    Some(polarity) => rates.push((name.clone(), n, polarity)),
                    None => {
                        let _ = write!(key, "{sep}{name}={n}");
                    }
                }
            }
            Json::Str(s) => {
                let _ = write!(key, "{sep}{name}={s}");
            }
            Json::Bool(b) => {
                let _ = write!(key, "{sep}{name}={b}");
            }
            _ => {}
        }
    }
    Some(BenchRow { key, rates })
}

// --- Rendering ---------------------------------------------------------------------

/// The outcome of a diff: the rendered table plus whether any rate dropped
/// beyond the threshold (the `--gate` exit-code hook).
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The rendered table.
    pub text: String,
    /// `true` when at least one rate regressed beyond the threshold.
    pub regressed: bool,
}

/// Renders the OLD→NEW delta table between two labeled entries. `threshold`
/// is the adverse move (in percent, positive — a drop for higher-is-better
/// metrics, a rise for lower-is-better ones) beyond which a metric is flagged
/// `REGRESSION`.
///
/// # Errors
///
/// Returns a message when either label is missing from the file.
pub fn render_diff(
    file: &BenchFile,
    from: &str,
    to: &str,
    threshold: f64,
) -> Result<DiffReport, String> {
    let old = file
        .entry(from)
        .ok_or_else(|| format!("no entry labeled '{from}'"))?;
    let new = file
        .entry(to)
        .ok_or_else(|| format!("no entry labeled '{to}'"))?;

    let mut text = String::new();
    let _ = writeln!(
        text,
        "bench delta {from} -> {to}  (flagging drops beyond {threshold:.0}%)\n"
    );
    let _ = writeln!(
        text,
        "{:<10} {:<28} {:<26} {:>12} {:>12} {:>9}",
        "SECTION", "ROW", "METRIC", from, to, "DELTA"
    );
    let mut regressed = false;
    for (section, new_rows) in &new.sections {
        let old_rows = old
            .sections
            .iter()
            .find(|(name, _)| name == section)
            .map(|(_, rows)| rows.as_slice());
        for row in new_rows {
            let old_row = old_rows.and_then(|rows| rows.iter().find(|r| r.key == row.key));
            for (metric, value, polarity) in &row.rates {
                let old_value = old_row.and_then(|r| {
                    r.rates
                        .iter()
                        .find(|(name, _, _)| name == metric)
                        .map(|(_, v, _)| *v)
                });
                match old_value {
                    None => {
                        let _ = writeln!(
                            text,
                            "{:<10} {:<28} {:<26} {:>12} {:>12} {:>9}",
                            section,
                            row.key,
                            metric,
                            "-",
                            fmt_rate(*value),
                            "new"
                        );
                    }
                    Some(old_value) => {
                        let delta = percent_delta(old_value, *value);
                        let flagged = match polarity {
                            Polarity::HigherIsBetter => delta < -threshold,
                            Polarity::LowerIsBetter => delta > threshold,
                        };
                        regressed |= flagged;
                        let _ = writeln!(
                            text,
                            "{:<10} {:<28} {:<26} {:>12} {:>12} {:>+8.1}%{}",
                            section,
                            row.key,
                            metric,
                            fmt_rate(old_value),
                            fmt_rate(*value),
                            delta,
                            if flagged { "  REGRESSION" } else { "" }
                        );
                    }
                }
            }
        }
        // Rows the new entry lost (a changed identity field — e.g. a seeded
        // cost — lands here as removed+added, which is exactly the alarm).
        if let Some(old_rows) = old_rows {
            for row in old_rows {
                if !new_rows.iter().any(|r| r.key == row.key) {
                    let _ = writeln!(
                        text,
                        "{:<10} {:<28} {:<26} {:>12} {:>12} {:>9}",
                        section, row.key, "(row)", "present", "-", "removed"
                    );
                }
            }
        }
    }
    for (section, _) in &old.sections {
        if !new.sections.iter().any(|(name, _)| name == section) {
            let _ = writeln!(text, "{section:<10} (section absent in {to})");
        }
    }
    Ok(DiffReport { text, regressed })
}

/// Renders every entry in file order, each rate with its delta against the
/// previous label — the full label-over-label trajectory.
pub fn render_trajectory(file: &BenchFile, threshold: f64) -> DiffReport {
    let mut text = String::new();
    let labels: Vec<&str> = file.entries.iter().map(|e| e.label.as_str()).collect();
    let _ = writeln!(
        text,
        "bench trajectory ({}), flagging drops beyond {threshold:.0}%\n",
        labels.join(" -> ")
    );
    let mut regressed = false;
    for pair in file.entries.windows(2) {
        let report = render_diff(file, &pair[0].label, &pair[1].label, threshold)
            .expect("labels come from the file itself");
        regressed |= report.regressed;
        text.push_str(&report.text);
        text.push('\n');
    }
    if file.entries.len() < 2 {
        let _ = writeln!(text, "(only one entry; nothing to compare)");
    }
    DiffReport { text, regressed }
}

fn percent_delta(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        // 0 -> 0 is flat; 0 -> N is an infinite rise (an errors column going
        // from clean to non-zero must flag under lower-is-better polarity).
        return if new == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (new - old) / old * 100.0
}

fn fmt_rate(value: f64) -> String {
    if value >= 1000.0 {
        format!("{value:.0}")
    } else {
        format!("{value:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"schema":"tsc3d-bench-flow/v1","entries":[
      {"label":"a","sa":[{"benchmark":"N100","seed":3,"evals_per_sec":1000.0,"cost":8.5}],
       "solver":[{"grid":32,"sweeps_per_sec":500.0}]},
      {"label":"b","sa":[{"benchmark":"N100","seed":3,"evals_per_sec":700.0,"cost":8.5}],
       "solver":[{"grid":32,"sweeps_per_sec":510.0}],
       "traces":[{"grid":8,"traces_per_sec":42.0}]}
    ]}"#;

    #[test]
    fn parses_sections_rates_and_keys() {
        let file = parse_bench(SAMPLE).unwrap();
        assert_eq!(file.schema, "tsc3d-bench-flow/v1");
        assert_eq!(file.entries.len(), 2);
        let sa = &file.entries[0].sections[0];
        assert_eq!(sa.0, "sa");
        assert_eq!(sa.1[0].key, "benchmark=N100 seed=3 cost=8.5");
        assert_eq!(
            sa.1[0].rates,
            vec![(
                "evals_per_sec".to_string(),
                1000.0,
                Polarity::HigherIsBetter
            )]
        );
    }

    const SERVE_SAMPLE: &str = r#"{"schema":"tsc3d-bench-serve/v1","entries":[
      {"label":"a","http":[{"endpoint":"/healthz","mode":"closed","p99_ms":1.0,"requests_per_sec":900.0,"errors":0}]},
      {"label":"b","http":[{"endpoint":"/healthz","mode":"closed","p99_ms":2.0,"requests_per_sec":910.0,"errors":3}]}
    ]}"#;

    #[test]
    fn latency_and_error_columns_diff_lower_is_better() {
        let file = parse_bench(SERVE_SAMPLE).unwrap();
        assert_eq!(
            file.entries[0].sections[0].1[0].key,
            "endpoint=/healthz mode=closed"
        );
        // p99 doubled (+100%) and errors went 0 -> 3 (+inf): both flag; the
        // small throughput gain does not.
        let report = render_diff(&file, "a", "b", 25.0).unwrap();
        assert!(report.regressed);
        let p99_line = report.text.lines().find(|l| l.contains("p99_ms")).unwrap();
        assert!(p99_line.contains("REGRESSION"), "{p99_line}");
        let err_line = report.text.lines().find(|l| l.contains("errors")).unwrap();
        assert!(err_line.contains("REGRESSION"), "{err_line}");
        let rps_line = report
            .text
            .lines()
            .find(|l| l.contains("requests_per_sec"))
            .unwrap();
        assert!(!rps_line.contains("REGRESSION"), "{rps_line}");
    }

    #[test]
    fn latency_drop_is_an_improvement_not_a_regression() {
        let sample = SERVE_SAMPLE.replace("\"p99_ms\":2.0", "\"p99_ms\":0.2");
        let file = parse_bench(&sample).unwrap();
        let report = render_diff(&file, "a", "b", 25.0).unwrap();
        let p99_line = report.text.lines().find(|l| l.contains("p99_ms")).unwrap();
        assert!(!p99_line.contains("REGRESSION"), "{p99_line}");
    }

    #[test]
    fn diff_flags_regressions_and_new_sections() {
        let file = parse_bench(SAMPLE).unwrap();
        let report = render_diff(&file, "a", "b", 25.0).unwrap();
        assert!(report.regressed, "a 30% drop beyond a 25% threshold flags");
        assert!(report.text.contains("REGRESSION"));
        assert!(report.text.contains("traces"));
        assert!(report.text.contains("new"));
        // The solver gain is within threshold and not flagged.
        let solver_line = report
            .text
            .lines()
            .find(|l| l.starts_with("solver"))
            .unwrap();
        assert!(!solver_line.contains("REGRESSION"));
    }

    #[test]
    fn trajectory_covers_every_consecutive_pair() {
        let file = parse_bench(SAMPLE).unwrap();
        let report = render_trajectory(&file, 50.0);
        assert!(!report.regressed, "30% drop is inside a 50% threshold");
        assert!(report.text.contains("a -> b"));
    }

    #[test]
    fn parses_escapes_and_rejects_trailing_garbage() {
        let escaped = SAMPLE.replace(r#""label":"a""#, r#""label":"a\n\"b\"""#);
        let file = parse_bench(&escaped).unwrap();
        assert_eq!(file.entries[0].label, "a\n\"b\"");
        let err = parse_bench(&format!("{SAMPLE} garbage")).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
    }

    #[test]
    fn missing_label_is_an_error() {
        let file = parse_bench(SAMPLE).unwrap();
        assert!(render_diff(&file, "a", "nope", 25.0).is_err());
    }
}
