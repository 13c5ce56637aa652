//! Integration tests of the campaign engine: scheduler determinism, shard partitioning,
//! crash/resume equivalence, and the job-expansion contract.
//!
//! Flow metrics are bit-deterministic per job, but wall-clock runtimes are not; the
//! comparisons therefore zero out `runtime_s` before asserting byte-identical records and
//! reports.

use std::path::PathBuf;
use tsc3d_campaign::{
    aggregate, read_results_file, render_report, run_campaign, run_campaign_on, CampaignOptions,
    CampaignSpec, JobOutcome, JobRecord, OverrideSet, Shard,
};
use tsc3d_netlist::suite::Benchmark;

/// A fast spec: 1 benchmark × 2 setups × 2 seeds × 2 overrides = 8 jobs.
fn test_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new(vec![Benchmark::N100], vec![1, 2]);
    for template in [&mut spec.power_aware, &mut spec.tsc_aware] {
        template.schedule.stages = 4;
        template.schedule.moves_per_stage = 8;
        template.schedule.grid_bins = 10;
        template.verification_bins = 10;
        // Bound the repair rounds: keeps the suite fast, and failed jobs are themselves
        // test data (the engine records them instead of aborting). Also exercises the
        // codec round trip of a non-default outline policy through the file header.
        template.outline = tsc3d::OutlinePolicy::Repair { max_rounds: 2 };
    }
    if let Some(pp) = spec.tsc_aware.post_process.as_mut() {
        pp.activity_samples = 6;
        pp.max_insertions = 3;
    }
    let mut sweep = OverrideSet::base();
    sweep.name = "tight-tsv".into();
    sweep.tsv_budget = Some(1);
    spec.overrides.push(sweep);
    spec
}

/// Clears the wall-clock field so deterministic records compare bit-identically.
fn normalized(records: &[JobRecord]) -> Vec<JobRecord> {
    records
        .iter()
        .cloned()
        .map(|mut record| {
            if let JobOutcome::Success(metrics) = &mut record.outcome {
                metrics.runtime_s = 0.0;
            }
            record
        })
        .collect()
}

fn temp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tsc3d-campaign-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn one_and_many_workers_produce_identical_campaigns() {
    let spec = test_spec();
    let single = run_campaign(&spec, &CampaignOptions::in_memory(1)).unwrap();
    let pooled = run_campaign(&spec, &CampaignOptions::in_memory(4)).unwrap();
    assert_eq!(single.records.len(), spec.job_count());
    assert_eq!(normalized(&single.records), normalized(&pooled.records));
    // The rendered aggregate is byte-identical too.
    assert_eq!(
        render_report(&aggregate(&normalized(&single.records))),
        render_report(&aggregate(&normalized(&pooled.records)))
    );
}

/// The PA-vs-TSC comparison of Table 2, built from a campaign's aggregate.
#[test]
fn benchmark_comparison_produces_both_setups() {
    let mut spec = CampaignSpec::new(vec![Benchmark::N100], vec![9, 10]);
    for template in [&mut spec.power_aware, &mut spec.tsc_aware] {
        template.schedule.stages = 4;
        template.schedule.moves_per_stage = 8;
        template.schedule.cooling = 0.8;
        template.schedule.initial_acceptance = 0.8;
        template.schedule.grid_bins = 10;
        template.verification_bins = 10;
    }
    let outcome = run_campaign(&spec, &CampaignOptions::in_memory(2)).unwrap();
    let summary = aggregate(&outcome.records);
    assert!(summary.failures().is_empty(), "{:?}", summary.failures());
    let comparison = summary
        .comparison(Benchmark::N100, "base")
        .expect("both setups succeeded");
    assert_eq!(comparison.runs, 2);
    assert!(comparison.power_aware.power_w > 0.0);
    assert!(comparison.tsc_aware.power_w > 0.0);
    assert!(comparison.power_aware.r1.abs() <= 1.0);
    assert!(comparison.tsc_aware.r1.abs() <= 1.0);
    assert!(comparison.power_aware.signal_tsvs > 0.0);
    // Only the TSC-aware setup may insert dummy TSVs.
    assert_eq!(comparison.power_aware.dummy_tsvs, 0.0);
    // Derived percentages are finite.
    assert!(comparison.r1_reduction_percent().is_finite());
    assert!(comparison.power_increase_percent().is_finite());
    assert!(comparison.peak_temperature_reduction_percent().is_finite());
    assert!(comparison.voltage_volume_increase_percent().is_finite());
}

#[test]
fn a_shared_long_lived_pool_matches_ephemeral_pools() {
    // The serve daemon runs campaigns on one persistent pool (`run_campaign_on`); records
    // must be identical to `run_campaign`'s ephemeral-pool path, including across several
    // campaigns reusing the same pool.
    let spec = test_spec();
    let reference = run_campaign(&spec, &CampaignOptions::in_memory(2)).unwrap();
    let pool = tsc3d::exec::Pool::new(3);
    for _ in 0..2 {
        let shared =
            run_campaign_on(&pool, &spec, &CampaignOptions::in_memory(usize::MAX)).unwrap();
        assert_eq!(normalized(&reference.records), normalized(&shared.records));
    }
    pool.shutdown();
}

#[test]
fn any_shard_partition_reassembles_the_full_campaign() {
    let spec = test_spec();
    let full = run_campaign(&spec, &CampaignOptions::in_memory(2)).unwrap();

    let shard_count = 3;
    let mut reassembled: Vec<JobRecord> = Vec::new();
    for index in 0..shard_count {
        let mut options = CampaignOptions::in_memory(2);
        options.shard = Shard {
            index,
            count: shard_count,
        };
        let outcome = run_campaign(&spec, &options).unwrap();
        assert_eq!(
            outcome.executed + outcome.out_of_shard,
            spec.job_count(),
            "shard {index}/{shard_count} accounts for every job"
        );
        // Shards own disjoint id sets.
        for record in &outcome.records {
            assert!(reassembled.iter().all(|r| r.job_id != record.job_id));
        }
        reassembled.extend(outcome.records);
    }
    reassembled.sort_by_key(|r| r.job_id);
    assert_eq!(normalized(&reassembled), normalized(&full.records));
    assert_eq!(
        render_report(&aggregate(&normalized(&reassembled))),
        render_report(&aggregate(&normalized(&full.records)))
    );
}

#[test]
fn killed_campaigns_resume_to_identical_aggregates() {
    let spec = test_spec();
    let path = temp_file("resume");

    // Reference: the full campaign in one go, streamed to a file.
    let mut options = CampaignOptions::in_memory(2);
    options.results_path = Some(path.clone());
    let full = run_campaign(&spec, &options).unwrap();
    assert_eq!(full.executed, spec.job_count());

    // Simulate a campaign killed after k jobs: keep the header and the first k record
    // lines, plus a torn partial line (the in-flight write at kill time).
    let content = std::fs::read_to_string(&path).unwrap();
    let mut lines = content.lines();
    let header = lines.next().unwrap().to_string();
    let k = 3;
    let mut truncated: Vec<String> = vec![header];
    truncated.extend(lines.take(k).map(str::to_string));
    let kept: Vec<JobRecord> = truncated[1..]
        .iter()
        .map(|l| JobRecord::from_json(&tsc3d_obs::json::Json::parse(l).unwrap()).unwrap())
        .collect();
    let mut torn = truncated.join("\n");
    torn.push_str("\n{\"job_id\":99,\"bench");
    let resume_path = temp_file("resume-killed");
    std::fs::write(&resume_path, &torn).unwrap();

    // Resume: the spec comes from the file header, exactly as the CLI does it (one read,
    // torn tail repaired, completed jobs skipped).
    let file = read_results_file::<CampaignSpec>(&resume_path).unwrap();
    assert!(file.truncated_tail);
    let (resumed_spec, resumed) = tsc3d_campaign::resume_from_file(&resume_path, 4, None).unwrap();
    assert_eq!(resumed_spec, spec);

    // The k prior records were reused verbatim (runtime included), the rest re-ran.
    assert_eq!(resumed.resumed, k);
    assert_eq!(resumed.executed, spec.job_count() - k);
    for prior in &kept {
        assert!(resumed.records.contains(prior));
    }

    // The resumed campaign's aggregate is byte-identical to the uninterrupted one.
    assert_eq!(normalized(&resumed.records), normalized(&full.records));
    assert_eq!(
        render_report(&aggregate(&normalized(&resumed.records))),
        render_report(&aggregate(&normalized(&full.records)))
    );

    // And the resumed *file* now contains every record: a plain `report` run sees the
    // full campaign.
    let final_file = read_results_file::<CampaignSpec>(&resume_path).unwrap();
    assert_eq!(final_file.records.len(), spec.job_count());
    assert!(!final_file.truncated_tail, "resume repaired the torn tail");

    // Resuming a complete campaign executes nothing (via the spec-supplying path too).
    let mut resume_options = CampaignOptions::in_memory(2);
    resume_options.results_path = Some(resume_path.clone());
    resume_options.resume = true;
    let idle = run_campaign(&resumed_spec, &resume_options).unwrap();
    assert_eq!(idle.executed, 0);
    assert_eq!(idle.resumed, spec.job_count());

    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&resume_path).unwrap();
}

#[test]
fn bare_resume_restores_the_shard_from_the_header() {
    let spec = test_spec();
    let path = temp_file("shard-resume");
    let mut options = CampaignOptions::in_memory(2);
    options.results_path = Some(path.clone());
    options.shard = Shard { index: 0, count: 2 };
    let first = run_campaign(&spec, &options).unwrap();
    assert_eq!(first.executed, spec.job_count() / 2);

    // A bare resume (no shard argument) stays within the file's shard instead of
    // executing the other shard's jobs.
    let (_, resumed) = tsc3d_campaign::resume_from_file(&path, 2, None).unwrap();
    assert_eq!(resumed.shard, options.shard);
    assert_eq!(resumed.executed, 0);
    assert_eq!(resumed.resumed, first.records.len());
    assert_eq!(resumed.out_of_shard, spec.job_count() - first.records.len());

    // An explicit override still wins.
    let (_, overridden) =
        tsc3d_campaign::resume_from_file(&path, 2, Some(Shard { index: 0, count: 4 })).unwrap();
    assert_eq!(overridden.shard, Shard { index: 0, count: 4 });
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn resume_with_a_different_spec_is_rejected() {
    let spec = test_spec();
    let path = temp_file("mismatch");
    let mut options = CampaignOptions::in_memory(2);
    options.results_path = Some(path.clone());
    run_campaign(&spec, &options).unwrap();

    let mut other = spec.clone();
    other.seeds = vec![5, 6];
    let mut resume_options = options.clone();
    resume_options.resume = true;
    let err = run_campaign(&other, &resume_options).unwrap_err();
    assert!(err.to_string().contains("does not match"), "{err}");
    std::fs::remove_file(&path).unwrap();
}

mod expansion_properties {
    use super::*;
    use proptest::prelude::*;
    use tsc3d::Setup;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Job expansion is duplicate-free, covers the full cartesian product, and
        /// assigns ids 0..n in order.
        #[test]
        fn expansion_is_a_duplicate_free_cartesian_product(
            benchmark_mask in 1usize..64,
            setup_choice in 0usize..3,
            seed_list in proptest::collection::vec(0u64..1000, 1..5),
            override_count in 1usize..4,
        ) {
            let benchmarks: Vec<Benchmark> = Benchmark::ALL
                .into_iter()
                .enumerate()
                .filter(|(i, _)| benchmark_mask & (1 << i) != 0)
                .map(|(_, b)| b)
                .collect();
            let mut seeds = seed_list.clone();
            seeds.sort_unstable();
            seeds.dedup();
            let mut spec = CampaignSpec::new(benchmarks.clone(), seeds.clone());
            spec.setups = match setup_choice {
                0 => vec![Setup::PowerAware],
                1 => vec![Setup::TscAware],
                _ => vec![Setup::PowerAware, Setup::TscAware],
            };
            spec.overrides = (0..override_count)
                .map(|i| {
                    let mut set = OverrideSet::base();
                    set.name = format!("o{i}");
                    set.tsv_budget = Some(i + 1);
                    set
                })
                .collect();

            let jobs = spec.expand();
            prop_assert_eq!(jobs.len(), spec.job_count());
            prop_assert_eq!(
                jobs.len(),
                benchmarks.len() * spec.setups.len() * seeds.len() * override_count
            );

            // Ids are dense and ordered.
            for (i, job) in jobs.iter().enumerate() {
                prop_assert_eq!(job.id, i as u64);
            }

            // Every combination appears exactly once (duplicate-free + full coverage).
            let mut combos: Vec<(Benchmark, Setup, u64, String)> = jobs
                .iter()
                .map(|j| (j.benchmark, j.setup, j.seed, j.override_name.clone()))
                .collect();
            let before = combos.len();
            combos.sort_by(|a, b| {
                (a.0.name(), a.1.label(), a.2, &a.3).cmp(&(b.0.name(), b.1.label(), b.2, &b.3))
            });
            combos.dedup();
            prop_assert_eq!(combos.len(), before);
            for &benchmark in &benchmarks {
                for &setup in &spec.setups {
                    for &seed in &seeds {
                        for override_set in &spec.overrides {
                            let hits = jobs.iter().filter(|j| {
                                j.benchmark == benchmark
                                    && j.setup == setup
                                    && j.seed == seed
                                    && j.override_name == override_set.name
                            });
                            prop_assert_eq!(hits.count(), 1);
                        }
                    }
                }
            }

            // Expansion is deterministic.
            prop_assert_eq!(spec.expand(), jobs);
        }
    }
}

mod json_properties {
    use proptest::prelude::*;
    use tsc3d_campaign::{JobMetrics, JobOutcome};
    use tsc3d_netlist::suite::Benchmark;
    use tsc3d_obs::json::Json;

    /// `true` when the two floats are the same number for round-trip purposes: bitwise
    /// identical for finite values and infinities, NaN-for-NaN otherwise (the sentinel
    /// encoding does not preserve NaN payload bits).
    fn same_number(a: f64, b: f64) -> bool {
        (a.is_nan() && b.is_nan()) || a.to_bits() == b.to_bits()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every `f64` bit pattern — finite, subnormal, ±inf and all NaN payloads —
        /// renders to valid JSON (never a bare `NaN`/`Infinity` token) and reads back as
        /// the same number.
        #[test]
        fn every_f64_bit_pattern_round_trips(bits in 0u64..u64::MAX) {
            let x = f64::from_bits(bits);
            let text = Json::Num(x).render();
            prop_assert!(!text.starts_with('N') && !text.starts_with('I'),
                "bare non-finite token: {text}");
            let parsed = Json::parse(&text);
            prop_assert!(parsed.is_ok(), "{text} does not re-parse");
            let back = parsed.unwrap().as_f64();
            prop_assert!(back.is_some(), "{text} is not numeric");
            prop_assert!(same_number(back.unwrap(), x),
                "{x:?} -> {text} -> {:?}", back.unwrap());
        }

        /// A metrics record whose fields carry non-finite values still round-trips
        /// through the JSONL line format field by field.
        #[test]
        fn records_with_non_finite_metrics_round_trip(
            bits in proptest::collection::vec(0u64..u64::MAX, 3..4),
            selector in 0usize..4,
        ) {
            let special = match selector {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => f64::from_bits(bits[0]),
            };
            let metrics = JobMetrics {
                s1: special,
                s2: f64::from_bits(bits[1]),
                r1: f64::from_bits(bits[2]),
                r2: -0.25,
                power_w: special,
                critical_delay_ns: 1.5,
                wirelength_m: 100.0,
                peak_temperature_k: special,
                signal_tsvs: 800.0,
                dummy_tsvs: 0.0,
                voltage_volumes: 40.0,
                runtime_s: 0.5,
                evaluations: 616.0,
                relaxed_solve: false,
                outline_repaired: true,
            };
            let record = tsc3d_campaign::JobRecord {
                job_id: 11,
                benchmark: Benchmark::N100,
                setup: tsc3d::Setup::TscAware,
                override_name: "specials".into(),
                seed: 5,
                outcome: JobOutcome::Success(metrics),
            };
            let line = record.to_json_line();
            let back = tsc3d_campaign::JobRecord::from_json(&Json::parse(&line).unwrap());
            prop_assert!(back.is_ok(), "{line} does not decode");
            let back = back.unwrap();
            let JobOutcome::Success(decoded) = &back.outcome else {
                return Err("decoded record lost its success outcome".into());
            };
            for (name, wrote, read) in [
                ("s1", metrics.s1, decoded.s1),
                ("s2", metrics.s2, decoded.s2),
                ("r1", metrics.r1, decoded.r1),
                ("power_w", metrics.power_w, decoded.power_w),
                ("peak_temperature_k", metrics.peak_temperature_k, decoded.peak_temperature_k),
            ] {
                prop_assert!(same_number(wrote, read),
                    "{name}: {wrote:?} -> {read:?} via {line}");
            }
        }
    }
}
