//! Regenerates **Table 2** and **Figure 5** of the paper: average spatial entropies,
//! correlation coefficients and design cost of power-aware vs TSC-aware floorplanning over
//! the benchmark suite.
//!
//! The paper averages 50 floorplanning runs per benchmark and setup; that takes hours, so
//! the run count, the annealing effort and the benchmark list are configurable:
//!
//! ```text
//! cargo run --release -p tsc3d-bench --bin table2 -- --runs 4 --benchmarks n100,ibm01
//! cargo run --release -p tsc3d-bench --bin table2 -- --paper          # full 50-run setup
//! cargo run --release -p tsc3d-bench --bin table2 -- --out t2.jsonl   # persist + resumable
//! cargo run --release -p tsc3d-bench --bin table2 -- --workers 8      # pool width
//! ```
//!
//! The runs execute through the campaign engine (`tsc3d-campaign`) and its aggregator, so
//! this binary shares the execution core, per-job records and summary statistics with
//! `campaign run`; pass `--out FILE` to stream the per-job JSONL records (the file can
//! then be resumed or re-reported with the `campaign` CLI). CSV output lands in
//! `target/experiments/table2.csv` (one row per benchmark and setup, which is also
//! exactly the data plotted in Figure 5).

use std::process::ExitCode;
use tsc3d::experiment::{default_workers, ExperimentConfig, SetupAverages};
use tsc3d::{FlowConfig, Setup};
use tsc3d_bench::{arg_present, arg_usize, arg_value, write_csv};
use tsc3d_campaign::{
    aggregate, run_campaign, CampaignOptions, CampaignSpec, CampaignSummary, OverrideSet,
};
use tsc3d_floorplan::SaSchedule;
use tsc3d_netlist::suite::Benchmark;

fn selected_benchmarks() -> Vec<Benchmark> {
    match arg_value("--benchmarks") {
        Some(spec) => spec
            .split(',')
            .filter_map(|name| Benchmark::from_name(name.trim()))
            .collect(),
        None => vec![Benchmark::N100, Benchmark::N200, Benchmark::Ibm01],
    }
}

fn config() -> ExperimentConfig {
    if arg_present("--paper") {
        return ExperimentConfig::paper();
    }
    let runs = arg_usize("--runs", 3);
    let stages = arg_usize("--stages", 25);
    let moves = arg_usize("--moves", 40);
    let schedule = SaSchedule {
        stages,
        moves_per_stage: moves,
        cooling: 0.9,
        initial_acceptance: 0.8,
        grid_bins: 24,
    };
    let mut power_aware = FlowConfig::quick(Setup::PowerAware);
    let mut tsc_aware = FlowConfig::quick(Setup::TscAware);
    power_aware.schedule = schedule;
    tsc_aware.schedule = schedule;
    power_aware.verification_bins = 32;
    tsc_aware.verification_bins = 32;
    if let Some(pp) = tsc_aware.post_process.as_mut() {
        pp.activity_samples = 20;
    }
    ExperimentConfig {
        runs,
        power_aware,
        tsc_aware,
    }
}

fn print_setup(label: &str, avg: &SetupAverages) {
    println!(
        "  {label:<4} S1 {:>6.3}  r1 {:>6.3}  S2 {:>6.3}  r2 {:>6.3} | P {:>7.3} W  delay {:>6.3} ns  WL {:>7.3} m  Tpeak {:>8.3} K | sTSV {:>7.0}  dTSV {:>5.0}  volumes {:>7.1}  runtime {:>6.1} s",
        avg.s1, avg.r1, avg.s2, avg.r2, avg.power_w, avg.critical_delay_ns, avg.wirelength_m,
        avg.peak_temperature_k, avg.signal_tsvs, avg.dummy_tsvs, avg.voltage_volumes, avg.runtime_s
    );
}

fn csv_row(benchmark: Benchmark, label: &str, avg: &SetupAverages) -> String {
    format!(
        "{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.3},{:.1},{:.1},{:.2},{:.2}",
        benchmark.name(),
        label,
        avg.s1,
        avg.r1,
        avg.s2,
        avg.r2,
        avg.power_w,
        avg.critical_delay_ns,
        avg.wirelength_m,
        avg.peak_temperature_k,
        avg.signal_tsvs,
        avg.dummy_tsvs,
        avg.voltage_volumes,
        avg.runtime_s
    )
}

fn print_benchmark(summary: &CampaignSummary, benchmark: Benchmark, rows: &mut Vec<String>) {
    println!("=== {} ===", benchmark.name());
    for setup in [Setup::PowerAware, Setup::TscAware] {
        if let Some(group) = summary.group(benchmark, setup, "base") {
            let avg = group.setup_averages();
            print_setup(setup.label(), &avg);
            if group.failed() > 0 || group.outline_repairs > 0 || group.relaxed_solves > 0 {
                println!(
                    "       [ok {}/{}  outline-repairs {}  relaxed-solves {}  failures {:?}]",
                    group.succeeded,
                    group.jobs,
                    group.outline_repairs,
                    group.relaxed_solves,
                    group.failures
                );
            }
            rows.push(csv_row(benchmark, setup.label(), &avg));
        }
    }
    if let Some(comparison) = summary.comparison(benchmark, "base") {
        println!(
            "  -> r1 reduction {:+.2}%   power {:+.2}%   peak-temp rise {:+.2}% (reduction)   voltage volumes {:+.2}%",
            comparison.r1_reduction_percent(),
            comparison.power_increase_percent(),
            comparison.peak_temperature_reduction_percent(),
            comparison.voltage_volume_increase_percent()
        );
    }
}

fn main() -> ExitCode {
    let benchmarks = selected_benchmarks();
    let config = config();
    println!(
        "Table 2 / Figure 5: PA vs TSC floorplanning, {} runs per benchmark and setup\n",
        config.runs
    );

    // The same job model `campaign run` uses: every benchmark runs the identical seed
    // list, and run `i` of both setups floorplans the same design instance.
    let spec = CampaignSpec {
        benchmarks: benchmarks.clone(),
        setups: vec![Setup::PowerAware, Setup::TscAware],
        seeds: (0..config.runs as u64).map(|r| 1000 + r).collect(),
        overrides: vec![OverrideSet::base()],
        power_aware: config.power_aware,
        tsc_aware: config.tsc_aware,
    };
    // Worker count: `--workers N` wins, otherwise the machine's available parallelism
    // (threaded through to the shared execution pool, like `campaign run --workers`).
    let mut options = CampaignOptions::in_memory(arg_usize("--workers", default_workers()));
    options.results_path = arg_value("--out").map(std::path::PathBuf::from);

    let outcome = match run_campaign(&spec, &options) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let summary = aggregate(&outcome.records);

    let mut rows = Vec::new();
    for &benchmark in &benchmarks {
        print_benchmark(&summary, benchmark, &mut rows);
    }

    // Averages over the selected benchmarks (the paper's "Avg" column).
    let comparisons: Vec<_> = benchmarks
        .iter()
        .filter_map(|&b| summary.comparison(b, "base"))
        .collect();
    if !comparisons.is_empty() {
        let n = comparisons.len() as f64;
        let avg_r1_reduction = comparisons
            .iter()
            .map(|c| c.r1_reduction_percent())
            .sum::<f64>()
            / n;
        let avg_power_increase = comparisons
            .iter()
            .map(|c| c.power_increase_percent())
            .sum::<f64>()
            / n;
        let avg_peak_reduction = comparisons
            .iter()
            .map(|c| c.peak_temperature_reduction_percent())
            .sum::<f64>()
            / n;
        let avg_volume_increase = comparisons
            .iter()
            .map(|c| c.voltage_volume_increase_percent())
            .sum::<f64>()
            / n;
        println!("\n=== averages over selected benchmarks ===");
        println!("  r1 reduction          : {avg_r1_reduction:+.2}%   (paper: 7.71% avg, 16.79% n300, 15.25% ibm03)");
        println!("  overall power         : {avg_power_increase:+.2}%   (paper: +5.38%)");
        println!("  peak-temp rise change : {avg_peak_reduction:+.2}% reduction (paper: 13.22% reduction)");
        println!("  voltage volumes       : {avg_volume_increase:+.2}%   (paper: +87.17%)");
    }

    let path = write_csv(
        "table2",
        "benchmark,setup,s1,r1,s2,r2,power_w,critical_delay_ns,wirelength_m,peak_temperature_k,\
         signal_tsvs,dummy_tsvs,voltage_volumes,runtime_s",
        &rows,
    );
    println!(
        "\nCSV (also the Figure 5 series) written to {}",
        path.display()
    );

    // Per-job failures are aggregated, not fatal mid-campaign — but a table built from
    // partial averages should not exit 0 silently.
    let failures = summary.failures();
    if !failures.is_empty() {
        tsc3d_obs::log_warn!(
            "bench",
            "{failures:?} job failure(s); the averages above cover the successful runs only"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
