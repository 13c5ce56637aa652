//! Seeded fuzz suites of the hand-rolled readers: the JSON codec (`tsc3d_obs::json`)
//! and the JSONL results file of both campaign job kinds.
//!
//! * Random strings over a JSON-like alphabet parse to a value or a typed `JsonError`,
//!   never a panic.
//! * Random finite `Json` trees survive render → parse unchanged.
//! * A results file of either kind, cut at every byte offset (the torn write of a killed
//!   process) and passed through `repair_torn_tail`, reads back as its header (or none)
//!   plus a prefix of its records — never a panic, never `Corrupt`.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::path::PathBuf;
use tsc3d::Setup;
use tsc3d_campaign::{
    read_results_file, repair_torn_tail, CampaignSpec, JobKind, JobMetrics, JobOutcome, JobRecord,
    OverrideSet, ResultSink, ScaCampaignSpec, ScaJobMetrics, ScaJobOutcome, ScaJobRecord, Shard,
};
use tsc3d_netlist::suite::Benchmark;
use tsc3d_obs::json::Json;
use tsc3d_sca::Mitigation;

/// Tokens the fuzzed strings are built from: structure, string and escape pieces,
/// number pieces, literals, whitespace, control and multi-byte characters.
const ALPHABET: &[&str] = &[
    "[", "]", "{", "}", "\"", "\\", ":", ",", "0", "1", "9", "e", "E", ".", "+", "-", "u", "\\u",
    "\\ud83d", "\\ude00", "\\u00e9", "d8", "ff", "true", "null", "fals", " ", "\n", "\t", "\u{1}",
    "\u{7f}", "é", "∞", "😀", "a", "\"k\":",
];

/// A random string of up to 64 alphabet tokens.
struct JsonLike;

impl Strategy for JsonLike {
    type Value = String;

    fn sample(&self, rng: &mut TestRng) -> String {
        let len = rng.below(65);
        (0..len)
            .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
            .collect()
    }
}

/// A random finite `Json` tree, at most 4 levels deep, in the codec's canonical form
/// (a non-negative integral float is the `UInt` it re-parses as).
struct Tree;

fn string(rng: &mut TestRng) -> String {
    (0..rng.below(12))
        .map(|_| match rng.below(6) {
            0 => ALPHABET[rng.below(ALPHABET.len() as u64) as usize].to_string(),
            1 => char::from_u32(rng.below(0x20) as u32).unwrap().to_string(),
            _ => char::from(b'a' + rng.below(26) as u8).to_string(),
        })
        .collect()
}

fn number(rng: &mut TestRng) -> Json {
    let x = match rng.below(3) {
        0 => f64::from_bits(rng.next_u64()),
        1 => (rng.unit_f64() - 0.5) * 1e6,
        _ => -(rng.below(1000) as f64),
    };
    if !x.is_finite() {
        return Json::Num(0.5);
    }
    if x >= 0.0 && x.fract() == 0.0 && x < u64::MAX as f64 {
        return Json::UInt(x as u64);
    }
    Json::Num(x)
}

fn tree(rng: &mut TestRng, depth: usize) -> Json {
    let leaf = depth == 0 || rng.below(3) == 0;
    match rng.below(if leaf { 5 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 1),
        2 => Json::UInt(rng.next_u64() >> rng.below(64)),
        3 => number(rng),
        4 => Json::Str(string(rng)),
        5 => Json::Arr((0..rng.below(4)).map(|_| tree(rng, depth - 1)).collect()),
        _ => Json::Obj(
            (0..rng.below(4))
                .map(|_| (string(rng), tree(rng, depth - 1)))
                .collect(),
        ),
    }
}

impl Strategy for Tree {
    type Value = Json;

    fn sample(&self, rng: &mut TestRng) -> Json {
        tree(rng, 4)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn json_like_strings_parse_or_fail_typed(text in JsonLike) {
        match Json::parse(&text) {
            // Whatever parses renders to a document whose rendering is a fixed point
            // (`1.0` re-parses as the integer 1, so the trees themselves may differ).
            Ok(value) => {
                let rendered = value.render();
                let again = Json::parse(&rendered).map(|v| v.render());
                prop_assert_eq!(again.ok(), Some(rendered));
            }
            Err(e) => prop_assert!(e.offset <= text.len(), "offset {} past the input", e.offset),
        }
    }

    #[test]
    fn finite_trees_round_trip_through_render_and_parse(value in Tree) {
        let text = value.render();
        prop_assert_eq!(Json::parse(&text).ok(), Some(value));
    }
}

fn temp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tsc3d-campaign-fuzz");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.jsonl", std::process::id()))
}

/// Writes a results file of `spec`'s kind, then checks every byte-offset cut of it.
fn every_cut_reads_a_prefix<K: JobKind>(name: &str, spec: &K, records: &[K::Record]) {
    let path = temp_file(name);
    let _ = std::fs::remove_file(&path);
    let sink = ResultSink::create(&path, spec, Shard { index: 1, count: 3 }, false).unwrap();
    for record in records {
        sink.append_line(&K::record_to_line(record)).unwrap();
    }
    drop(sink);
    let full = std::fs::read(&path).unwrap();
    let cut_path = temp_file(&format!("{name}-cut"));
    for cut in 0..=full.len() {
        let content = &full[..cut];
        std::fs::write(&cut_path, content).unwrap();
        let complete_lines = content.iter().filter(|&&b| b == b'\n').count();

        // Unrepaired, a torn tail is tolerated (an unrepaired cut inside a multi-byte
        // character is not UTF-8 at all, which is an I/O error, not corruption).
        if std::str::from_utf8(content).is_ok() {
            let file = read_results_file::<K>(&cut_path)
                .unwrap_or_else(|e| panic!("{name}: cut at byte {cut}: {e}"));
            assert!(records.starts_with(&file.records), "{name}: cut at {cut}");
        }

        repair_torn_tail(&cut_path).unwrap();
        let file = read_results_file::<K>(&cut_path)
            .unwrap_or_else(|e| panic!("{name}: repaired cut at byte {cut}: {e}"));
        assert!(!file.truncated_tail);
        let expected_records = complete_lines.saturating_sub(1);
        assert_eq!(file.spec.as_ref(), (complete_lines > 0).then_some(spec));
        assert_eq!(
            file.records,
            records[..expected_records],
            "{name}: cut at {cut}"
        );
    }
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&cut_path).unwrap();
}

#[test]
fn flow_results_files_cut_at_every_byte_read_a_prefix() {
    let mut spec = CampaignSpec::new(vec![Benchmark::N100], vec![1, 2]);
    let mut sweep = OverrideSet::base();
    sweep.name = "tsv-budget-2 ∞".into();
    sweep.tsv_budget = Some(2);
    sweep.schedule = Some(spec.tsc_aware.schedule);
    spec.overrides.push(sweep);
    let metrics = JobMetrics {
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
    };
    let record = |job_id: u64, outcome: JobOutcome| JobRecord {
        job_id,
        benchmark: Benchmark::N100,
        setup: Setup::TscAware,
        override_name: "base".into(),
        seed: 1,
        outcome,
    };
    let records = [
        record(0, JobOutcome::Success(metrics)),
        record(
            1,
            JobOutcome::Failure {
                kind: "solve".into(),
                message: "résidu 😀 \"did not converge\"\n".into(),
            },
        ),
        record(2, JobOutcome::Success(metrics)),
    ];
    every_cut_reads_a_prefix("flow", &spec, &records);
}

#[test]
fn sca_results_files_cut_at_every_byte_read_a_prefix() {
    let spec = ScaCampaignSpec::smoke();
    let metrics = ScaJobMetrics {
        key_bytes: 2.0,
        recovered_bytes: 1.0,
        mtd_traces: f64::INFINITY,
        guessing_entropy_bits: 3.5,
        best_correlation: 0.625,
        traces: 192.0,
        transient_steps: 100_000.0,
        dummy_tsvs: 4437.0,
        target_module: 40.0,
        runtime_s: 1.5,
    };
    let record = |job_id: u64, mitigation: Mitigation, outcome: ScaJobOutcome| ScaJobRecord {
        job_id,
        benchmark: Benchmark::N100,
        seed: 5,
        key_seed: 11,
        sensor_name: "sigma-0.5".into(),
        mitigation,
        outcome,
    };
    let records = [
        record(0, Mitigation::Baseline, ScaJobOutcome::Success(metrics)),
        record(
            1,
            Mitigation::DummyTsvs,
            ScaJobOutcome::Failure {
                kind: "sca-cancelled".into(),
                message: "arrêt ∞ \\ 😀".into(),
            },
        ),
        record(2, Mitigation::Baseline, ScaJobOutcome::Success(metrics)),
    ];
    every_cut_reads_a_prefix("sca", &spec, &records);
}
