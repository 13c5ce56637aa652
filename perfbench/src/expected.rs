//! Expected outputs and work counters per workload input, recorded once with
//! `--record` into `perfbench/expected/<workload>.jsonl` and checked on every op.
//!
//! Each workload draws its inputs from a fixed catalog, so every input any seed can
//! produce has a recorded expectation. Outputs must match exactly. Work counters must
//! repeat exactly within a run; against the recording they must repeat exactly when
//! the program's sources are unchanged (same source digest) — a difference there is
//! nondeterminism — and are only reported as drift when the code changed.

use crate::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

pub type Work = BTreeMap<String, u64>;

#[derive(Debug, Clone, PartialEq)]
pub struct Expectation {
    pub output: String,
    pub work: Work,
}

#[derive(Debug, Default)]
pub struct Checker {
    recorded_digest: String,
    recorded: BTreeMap<String, Expectation>,
    /// Work counters of the first op seen per input in this run.
    seen: BTreeMap<String, Work>,
    /// When recording, every expectation observed.
    pub record: BTreeMap<String, Expectation>,
    recording: bool,
}

pub fn path(workload: &str) -> PathBuf {
    PathBuf::from("perfbench/expected").join(format!("{workload}.jsonl"))
}

impl Checker {
    pub fn load(workload: &str, recording: bool) -> Result<Checker, String> {
        let mut checker = Checker {
            recording,
            ..Checker::default()
        };
        if recording {
            return Ok(checker);
        }
        let file = path(workload);
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        for (i, line) in text.lines().enumerate() {
            let value =
                Json::parse(line).map_err(|e| format!("{}:{}: {e}", file.display(), i + 1))?;
            if let Some(digest) = value.get("source_digest").and_then(Json::as_str) {
                checker.recorded_digest = digest.to_string();
                continue;
            }
            let input = value
                .get("input")
                .and_then(Json::as_str)
                .unwrap_or_default();
            let output = value
                .get("output")
                .and_then(Json::as_str)
                .unwrap_or_default();
            let work = match value.get("work") {
                Some(Json::Obj(members)) => members
                    .iter()
                    .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(-1.0) as u64))
                    .collect(),
                _ => Work::new(),
            };
            checker.recorded.insert(
                input.to_string(),
                Expectation {
                    output: output.to_string(),
                    work,
                },
            );
        }
        Ok(checker)
    }

    /// Checks one op's output, and its work when the op's work can be attributed to it
    /// (`None` for ops that share the program with concurrent work), against the
    /// recording and against earlier ops on the same input in this run.
    pub fn check(&mut self, input: &str, output: &str, work: Option<Work>) -> Result<(), String> {
        if let Some(work) = &work {
            match self.seen.get(input) {
                Some(first) if first != work => {
                    return Err(format!(
                        "nondeterministic work counters on {input}: {first:?} then {work:?}"
                    ));
                }
                Some(_) => {}
                None => {
                    self.seen.insert(input.to_string(), work.clone());
                }
            }
        }
        if self.recording {
            self.record.insert(
                input.to_string(),
                Expectation {
                    output: output.to_string(),
                    work: work.unwrap_or_default(),
                },
            );
            return Ok(());
        }
        let expected = self
            .recorded
            .get(input)
            .ok_or_else(|| format!("no recorded expectation for input {input}"))?;
        if expected.output != output {
            return Err(format!(
                "output mismatch on {input}: expected {} got {output}",
                expected.output
            ));
        }
        Ok(())
    }

    /// Work counters that differ from the recording: `(input, recorded, observed)`.
    pub fn drift(&self) -> Vec<(String, Work, Work)> {
        self.seen
            .iter()
            .filter_map(|(input, work)| {
                let recorded = &self.recorded.get(input)?.work;
                (recorded != work).then(|| (input.clone(), recorded.clone(), work.clone()))
            })
            .collect()
    }

    /// The inputs whose recorded `counters` are the most common values among the inputs
    /// of their kind (the input name up to its first `/`).
    ///
    /// Work on some inputs comes in discrete levels — a flow needs one outline-repair
    /// round or two, each round quadrupling the SA work, and post-processing inserts dummy
    /// TSVs or stops at once. Drawing only inputs at their kind's modal level makes every
    /// op of a kind cost about the same, so a run's median does not depend on which
    /// inputs its seed drew.
    pub fn modal_inputs(&self, counters: &[&str]) -> BTreeSet<String> {
        let level = |work: &Work| -> Vec<u64> {
            counters
                .iter()
                .map(|c| work.get(*c).copied().unwrap_or(0))
                .collect()
        };
        let kind = |input: &str| input.split('/').next().unwrap_or_default().to_string();
        let mut counts: BTreeMap<(String, Vec<u64>), usize> = BTreeMap::new();
        for (input, e) in &self.recorded {
            *counts.entry((kind(input), level(&e.work))).or_default() += 1;
        }
        let mut modal: BTreeMap<String, (usize, Vec<u64>)> = BTreeMap::new();
        for ((kind, level), count) in counts {
            let best = modal.entry(kind).or_default();
            if count > best.0 {
                *best = (count, level);
            }
        }
        self.recorded
            .iter()
            .filter(|(input, e)| {
                modal
                    .get(&kind(input))
                    .is_some_and(|(_, m)| *m == level(&e.work))
            })
            .map(|(input, _)| input.clone())
            .collect()
    }

    pub fn recorded_digest(&self) -> &str {
        &self.recorded_digest
    }

    /// The work counters seen per input, for the result record.
    pub fn seen_json(&self) -> Json {
        Json::obj(self.seen.iter().map(|(input, work)| {
            (
                input.clone(),
                Json::obj(work.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64)))),
            )
        }))
    }

    pub fn write_record(&self, workload: &str, digest: &str) -> Result<PathBuf, String> {
        let mut text = Json::obj([
            ("workload", Json::str(workload)),
            ("source_digest", Json::str(digest)),
        ])
        .render();
        text.push('\n');
        for (input, expectation) in &self.record {
            let line = Json::obj([
                ("input", Json::str(input.clone())),
                ("output", Json::str(expectation.output.clone())),
                (
                    "work",
                    Json::obj(
                        expectation
                            .work
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::Num(*v as f64))),
                    ),
                ),
            ]);
            text.push_str(&line.render());
            text.push('\n');
        }
        let file = path(workload);
        std::fs::create_dir_all(file.parent().expect("expected dir")).map_err(|e| e.to_string())?;
        std::fs::write(&file, text).map_err(|e| format!("cannot write {}: {e}", file.display()))?;
        Ok(file)
    }
}

/// Exact textual form of an `f64` (its bit pattern), for bit-for-bit output checks.
pub fn bits(value: f64) -> String {
    format!("{:016x}", value.to_bits())
}
