//! Bench files: the one reader, writer, differ and gate of `BENCH_flow.json` and
//! `BENCH_serve.json`.
//!
//! The workspace records its benchmark history in schema-versioned JSON files
//! ([`FLOW_SCHEMA`], [`SERVE_SCHEMA`]): an `entries` array with one object per
//! label, each holding sections (`sa`, `traces`, `http`, …) of measurement rows.
//! Every program that touches such a file goes through this module: `bench
//! --append` and `loadgen --append` write with [`append_entry`], and `obs
//! bench-diff` (with `--gate`, CI's only bench gate) reads with [`parse_bench`]
//! and compares with [`render_diff`].
//!
//! The reader is deliberately *schema-light*: any entry field whose value is an
//! array of objects is a section, any numeric row field whose name declares a
//! polarity is a metric, and every other primitive row field becomes part of
//! the row's identity key (`benchmark=N100 seed=3`). Metric polarity is by
//! naming convention:
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
//! The writer never destroys history: it creates a missing file, appends to a
//! bench document of its own schema, and refuses anything else with a typed
//! [`BenchError`], leaving the file's bytes unchanged.
//!
//! Two renderings back `obs bench-diff`:
//!
//! * [`render_diff`] — one OLD→NEW table between two entries, each rate with
//!   its signed percentage delta; adverse moves beyond the threshold are
//!   flagged `REGRESSION`. By default the NEW entry is the newest one and OLD
//!   its baseline, the newest earlier entry that shares a section with it
//!   ([`BenchFile::default_pair`]): a candidate that measured only the
//!   `traces` section is compared with the last entry that has one, however
//!   many entries of other sections sit in between.
//! * [`render_trajectory`] — every label in file order, each rate with its
//!   delta against the *previous* label, the full performance story of the
//!   repo in one table.

use crate::json::Json;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// The schema of `BENCH_flow.json`, the `bench` harness's throughput trajectory.
pub const FLOW_SCHEMA: &str = "tsc3d-bench-flow/v1";

/// The schema of `BENCH_serve.json`, the `loadgen` latency trajectory.
pub const SERVE_SCHEMA: &str = "tsc3d-bench-serve/v1";

/// Why a bench file could not be read, appended to, or looked up.
#[derive(Debug)]
pub enum BenchError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The text is not a bench document: not UTF-8, a JSON syntax error, or no
    /// `entries` array of labeled objects.
    Malformed(String),
    /// The file declares another schema than the entry being appended.
    SchemaMismatch {
        /// The schema of the entry being appended.
        expected: String,
        /// The schema the file declares.
        found: String,
    },
    /// No entry carries the requested label.
    NoSuchLabel(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Io(e) => write!(f, "{e}"),
            BenchError::Malformed(reason) => write!(f, "not a bench file: {reason}"),
            BenchError::SchemaMismatch { expected, found } => {
                write!(f, "the file's schema is '{found}', not '{expected}'")
            }
            BenchError::NoSuchLabel(label) => write!(f, "no entry labeled '{label}'"),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        BenchError::Io(e)
    }
}

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

impl BenchEntry {
    /// The rows of section `name`, or `None` when this entry did not measure it.
    pub fn section(&self, name: &str) -> Option<&[BenchRow]> {
        self.sections
            .iter()
            .find(|(section, _)| section == name)
            .map(|(_, rows)| rows.as_slice())
    }
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
    /// The first entry labeled `label`.
    ///
    /// # Errors
    ///
    /// [`BenchError::NoSuchLabel`] when no entry carries the label.
    pub fn entry(&self, label: &str) -> Result<&BenchEntry, BenchError> {
        self.entries
            .iter()
            .find(|e| e.label == label)
            .ok_or_else(|| BenchError::NoSuchLabel(label.to_string()))
    }

    /// The `(baseline, newest)` pair `bench-diff` compares by default: the newest
    /// entry, and the newest earlier entry that shares at least one section with it.
    ///
    /// `None` when no earlier entry shares a section (a single-entry file, or a
    /// section measured for the first time): the first run of a section establishes
    /// its trajectory rather than failing a gate on its absence.
    pub fn default_pair(&self) -> Option<(&BenchEntry, &BenchEntry)> {
        let (newest, earlier) = self.entries.split_last()?;
        let baseline = earlier.iter().rev().find(|entry| {
            entry
                .sections
                .iter()
                .any(|(name, _)| newest.section(name).is_some())
        })?;
        Some((baseline, newest))
    }
}

/// Parses a bench file. Any entry field holding an array of objects is treated
/// as a section; within a row, numbers whose names declare a polarity (see
/// [`metric_polarity`]) are metrics and every other primitive field joins the
/// identity key.
///
/// # Errors
///
/// [`BenchError::Malformed`] on JSON syntax errors, a missing or empty `entries`
/// array, or an entry that is not a labeled object.
pub fn parse_bench(text: &str) -> Result<BenchFile, BenchError> {
    let root = Json::parse(text).map_err(|e| BenchError::Malformed(e.to_string()))?;
    parse_root(&root)
}

fn parse_root(root: &Json) -> Result<BenchFile, BenchError> {
    let malformed = |reason: &str| BenchError::Malformed(reason.to_string());
    let schema = root
        .get("schema")
        .and_then(Json::as_str)
        .unwrap_or("(unknown)")
        .to_string();
    let Some(raw_entries) = root.get("entries").and_then(Json::as_array) else {
        return Err(malformed("no 'entries' array at the top level"));
    };
    let mut entries = Vec::with_capacity(raw_entries.len());
    for raw in raw_entries {
        let Json::Obj(members) = raw else {
            return Err(malformed("an entry is not an object"));
        };
        let label = raw
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| malformed("an entry has no 'label'"))?
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
        return Err(malformed("the bench file has no entries"));
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

// --- Writing -----------------------------------------------------------------------

/// Appends `entry` to the bench file at `path`, creating the file (and its parent
/// directories) with `schema` when it does not exist.
///
/// An existing file must be a bench document of the same `schema`. Anything else —
/// bytes that do not parse as one, or another schema — is refused and the file is
/// left byte-for-byte unchanged. The new document is written and synced to a
/// sibling `.tmp` file, then renamed over `path`, so an interrupted write cannot
/// truncate the history either.
///
/// # Errors
///
/// [`BenchError::Malformed`] or [`BenchError::SchemaMismatch`] for an existing file
/// the writer refuses; [`BenchError::Io`] when reading or writing fails.
pub fn append_entry(path: &Path, schema: &str, entry: Json) -> Result<(), BenchError> {
    let mut root = match std::fs::read(path) {
        Ok(bytes) => {
            let text = String::from_utf8(bytes)
                .map_err(|_| BenchError::Malformed("the file is not UTF-8".into()))?;
            let root = Json::parse(&text).map_err(|e| BenchError::Malformed(e.to_string()))?;
            let found = parse_root(&root)?.schema;
            if found != schema {
                return Err(BenchError::SchemaMismatch {
                    expected: schema.to_string(),
                    found,
                });
            }
            root
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent)?;
            }
            Json::Obj(vec![
                ("schema".into(), Json::Str(schema.to_string())),
                ("entries".into(), Json::Arr(Vec::new())),
            ])
        }
        Err(e) => return Err(e.into()),
    };
    entries_mut(&mut root)
        .ok_or_else(|| BenchError::Malformed("no 'entries' array at the top level".into()))?
        .push(entry);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(format!("{}\n", root.render()).as_bytes())?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// The `entries` array of a document (the member [`parse_root`] reads).
fn entries_mut(root: &mut Json) -> Option<&mut Vec<Json>> {
    let Json::Obj(members) = root else {
        return None;
    };
    match members.iter_mut().find(|(key, _)| key == "entries") {
        Some((_, Json::Arr(entries))) => Some(entries),
        _ => None,
    }
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

/// Renders the OLD→NEW delta table between two entries. `threshold` is the
/// adverse move (in percent, positive — a drop for higher-is-better metrics, a
/// rise for lower-is-better ones) beyond which a metric is flagged
/// `REGRESSION`. Only rows present in both entries are compared: a row or a
/// section the baseline lacks is listed as `new` and never regresses.
pub fn render_diff(old: &BenchEntry, new: &BenchEntry, threshold: f64) -> DiffReport {
    let (from, to) = (old.label.as_str(), new.label.as_str());
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
        let old_rows = old.section(section);
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
        if new.section(section).is_none() {
            let _ = writeln!(text, "{section:<10} (section absent in {to})");
        }
    }
    DiffReport { text, regressed }
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
        let report = render_diff(&pair[0], &pair[1], threshold);
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

    /// The default diff of a file, as `obs bench-diff PATH` renders it.
    fn default_diff(file: &BenchFile) -> DiffReport {
        let (old, new) = file.default_pair().expect("a baseline shares a section");
        render_diff(old, new, 25.0)
    }

    #[test]
    fn parses_sections_rates_and_keys() {
        let file = parse_bench(SAMPLE).unwrap();
        assert_eq!(file.schema, FLOW_SCHEMA);
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
        let report = default_diff(&file);
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
        let report = default_diff(&file);
        let p99_line = report.text.lines().find(|l| l.contains("p99_ms")).unwrap();
        assert!(!p99_line.contains("REGRESSION"), "{p99_line}");
    }

    #[test]
    fn diff_flags_regressions_and_new_sections() {
        let file = parse_bench(SAMPLE).unwrap();
        let report = default_diff(&file);
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
        assert!(matches!(err, BenchError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn missing_label_is_an_error() {
        let file = parse_bench(SAMPLE).unwrap();
        let err = file.entry("nope").unwrap_err();
        assert!(matches!(&err, BenchError::NoSuchLabel(label) if label == "nope"));
        assert_eq!(file.entry("b").unwrap().label, "b");
    }

    /// A committed trajectory with two traces-bearing entries, a solver-only entry
    /// measured after them, and a traces-only candidate at `rate_8` / `rate_12`
    /// traces/sec for the (grid 8, batch 4) and (grid 12, batch 4) cells.
    fn gated_history(rate_8: f64, rate_12: f64) -> BenchFile {
        parse_bench(&format!(
            r#"{{"schema":"tsc3d-bench-flow/v1","entries":[
              {{"label":"old","traces":[{{"grid":8,"batch":4,"traces_per_sec":1.0}}]}},
              {{"label":"release","sa":[{{"benchmark":"N100","seed":3,"evals_per_sec":900.0}}],
               "traces":[{{"grid":8,"batch":4,"traces_per_sec":1000.0,"reference_traces_per_sec":300.0}},
                         {{"grid":12,"batch":4,"traces_per_sec":400.0,"reference_traces_per_sec":100.0}}]}},
              {{"label":"solver-only","solver":[{{"grid":32,"sweeps_per_sec":5.0}}]}},
              {{"label":"ci","traces":[{{"grid":8,"batch":4,"traces_per_sec":{rate_8},"reference_traces_per_sec":300.0}},
                         {{"grid":12,"batch":4,"traces_per_sec":{rate_12},"reference_traces_per_sec":100.0}}]}}
            ]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn a_traces_only_candidate_is_diffed_against_the_newest_traces_entry() {
        let file = gated_history(1000.0, 400.0);
        let (old, new) = file.default_pair().unwrap();
        assert_eq!((old.label.as_str(), new.label.as_str()), ("release", "ci"));
        let report = render_diff(old, new, 25.0);
        assert!(!report.regressed, "{}", report.text);
        assert!(report.text.contains("bench delta release -> ci"));
        // The baseline's sa section is reported absent, never as a regression.
        assert!(report.text.contains("(section absent in ci)"));
    }

    #[test]
    fn a_traces_drop_beyond_25_percent_regresses() {
        // 30% under release in one cell fails the gate ...
        let file = gated_history(1000.0, 280.0);
        let report = default_diff(&file);
        assert!(report.regressed);
        let line = report
            .text
            .lines()
            .find(|l| l.contains("grid=12 batch=4") && l.contains(" traces_per_sec"))
            .unwrap();
        assert!(
            line.contains("-30.0%") && line.contains("REGRESSION"),
            "{line}"
        );
        // ... and 20% under it does not.
        assert!(!default_diff(&gated_history(800.0, 400.0)).regressed);
    }

    #[test]
    fn cells_missing_from_the_baseline_and_disjoint_entries_never_regress() {
        // A cell release never measured is new, whatever its rate.
        let file = parse_bench(
            r#"{"schema":"tsc3d-bench-flow/v1","entries":[
              {"label":"release","traces":[{"grid":8,"batch":4,"traces_per_sec":1000.0}]},
              {"label":"ci","traces":[{"grid":8,"batch":4,"traces_per_sec":990.0},
                                      {"grid":16,"batch":4,"traces_per_sec":0.5}]}
            ]}"#,
        )
        .unwrap();
        let report = default_diff(&file);
        assert!(!report.regressed, "{}", report.text);
        let line = report.text.lines().find(|l| l.contains("grid=16")).unwrap();
        assert!(line.trim_end().ends_with("new"), "{line}");
        // No earlier entry shares a section with the newest: no default baseline,
        // and an explicit diff of the two finds nothing to flag.
        let file = parse_bench(
            r#"{"schema":"tsc3d-bench-flow/v1","entries":[
              {"label":"a","solver":[{"grid":32,"sweeps_per_sec":500.0}]},
              {"label":"b","traces":[{"grid":8,"batch":4,"traces_per_sec":1.0}]}
            ]}"#,
        )
        .unwrap();
        assert!(file.default_pair().is_none());
        assert!(!render_diff(&file.entries[0], &file.entries[1], 25.0).regressed);
        // A single entry has no baseline either.
        let single = parse_bench(r#"{"entries":[{"label":"only"}]}"#).unwrap();
        assert!(single.default_pair().is_none());
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tsc3d-obs-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn entry(label: &str) -> Json {
        Json::Obj(vec![
            ("label".into(), Json::Str(label.into())),
            (
                "solver".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("grid".into(), Json::UInt(32)),
                    ("sweeps_per_sec".into(), Json::Num(512.5)),
                ])]),
            ),
        ])
    }

    #[test]
    fn append_creates_a_missing_file_and_its_directories() {
        let dir = temp_path("created");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("BENCH_flow.json");
        append_entry(&path, FLOW_SCHEMA, entry("first")).unwrap();
        let file = parse_bench(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(file.schema, FLOW_SCHEMA);
        assert_eq!(file.entries.len(), 1);
        assert_eq!(file.entries[0].label, "first");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_extends_a_file_of_its_own_schema_and_keeps_its_history() {
        let path = temp_path("extended.json");
        // Unknown members (notes, extra top-level keys) survive the rewrite.
        std::fs::write(
            &path,
            r#"{"schema":"tsc3d-bench-flow/v1","origin":"first","entries":[{"label":"a","note":"kept","solver":[{"grid":32,"sweeps_per_sec":1.0}]}]}"#,
        )
        .unwrap();
        append_entry(&path, FLOW_SCHEMA, entry("b")).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let root = Json::parse(&text).unwrap();
        assert_eq!(root.get("origin").and_then(Json::as_str), Some("first"));
        let file = parse_bench(&text).unwrap();
        let labels: Vec<&str> = file.entries.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, ["a", "b"]);
        assert_eq!(
            root.get("entries").and_then(Json::as_array).unwrap()[0]
                .get("note")
                .and_then(Json::as_str),
            Some("kept")
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_refuses_an_unparseable_file_and_leaves_its_bytes() {
        for (name, bytes) in [
            (
                "torn.json",
                &br#"{"schema":"tsc3d-bench-flow/v1","entries":[{"label":"a"#[..],
            ),
            (
                "no-entries.json",
                &br#"{"schema":"tsc3d-bench-flow/v1"}"#[..],
            ),
            ("binary.json", &[0xff, 0xfe, 0x00, 0x7b][..]),
        ] {
            let path = temp_path(name);
            std::fs::write(&path, bytes).unwrap();
            let err = append_entry(&path, FLOW_SCHEMA, entry("b")).unwrap_err();
            assert!(matches!(err, BenchError::Malformed(_)), "{name}: {err}");
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "{name}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn append_refuses_a_file_of_another_schema_and_leaves_its_bytes() {
        let path = temp_path("serve.json");
        let serve = SERVE_SAMPLE.as_bytes();
        std::fs::write(&path, serve).unwrap();
        let err = append_entry(&path, FLOW_SCHEMA, entry("b")).unwrap_err();
        match &err {
            BenchError::SchemaMismatch { expected, found } => {
                assert_eq!(
                    (expected.as_str(), found.as_str()),
                    (FLOW_SCHEMA, SERVE_SCHEMA)
                );
            }
            other => panic!("expected a schema mismatch, got {other:?}"),
        }
        assert!(err.to_string().contains(SERVE_SCHEMA), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), serve);
        std::fs::remove_file(&path).unwrap();
    }
}
