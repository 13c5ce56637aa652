//! Same-host end-to-end benchmark of the TSC-3D system.
//!
//! ```text
//! perfbench --workload <flow|verdict|campaign|serve|all> --seed N --seconds S --trace 0|1
//! perfbench --workload <name> --record
//! ```
//!
//! Each workload draws its inputs from `--seed`, sets up several times (median
//! `setup_s`), then runs closed-loop ops for `--seconds` with tracing off and checks
//! every output against `perfbench/expected/<workload>.jsonl`. With `--trace 1` a
//! second, traced phase follows; it reports the per-layer metrics from the public
//! outputs of each call and writes the benchmark's spans as JSONL for `obs report` /
//! `obs flamegraph`. The last stdout line is the result object; a failed output check
//! makes the exit code non-zero. `--workload all` runs the four workloads one after
//! another, each in its own process. `--record` re-records the expected outputs of a
//! workload's whole input catalog. See `perfbench/README.md`.

mod bench;
mod campaign;
mod expected;
mod flow;
mod host;
mod http;
mod json;
mod serve;
mod stats;
mod verdict;

use bench::Bench;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match bench::parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", bench::USAGE);
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    let mut bench = match Bench::new(args, started) {
        Ok(bench) => bench,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::create_dir_all(bench::out_dir());
    let result = match bench.args.workload.as_str() {
        "flow" => flow::run(&mut bench),
        "verdict" => verdict::run(&mut bench),
        "campaign" => campaign::run(&mut bench),
        _ => serve::run(&mut bench),
    };
    if let Err(e) = result {
        eprintln!("{} workload aborted: {e}", bench.args.workload);
        return ExitCode::FAILURE;
    }
    bench.finish()
}

/// Runs every workload in its own child process (so each reports its own peak RSS),
/// waits for each, and fails if any failed.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in bench::WORKLOADS {
        let mut args: Vec<String> = argv.to_vec();
        if let Some(i) = args.iter().position(|a| a == "--workload") {
            args[i + 1] = workload.to_string();
        }
        match std::process::Command::new(&exe).args(&args).status() {
            Ok(status) if status.success() => {}
            Ok(_) | Err(_) => ok = false,
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The per-layer work counters every workload reports from the traced phase's deltas
/// of the program's global counters: floorplan evaluations, thermal solves and sweeps,
/// and the sca trace work.
fn counter_layers(bench: &mut Bench) {
    let counters = bench.traced.counters;
    let wall = bench.traced.wall_s;
    let (solves, sweeps) = (counters.solves() as f64, counters.sweeps() as f64);
    let steps = counters.transient_steps() as f64;
    bench.layer("floorplan.evaluations", counters.evaluations() as f64);
    bench.layer("thermal.solves", solves);
    bench.layer("thermal.sweeps", sweeps);
    bench.layer(
        "thermal.sweeps_per_solve",
        if solves > 0.0 { sweeps / solves } else { 0.0 },
    );
    bench.layer("thermal.sweeps_per_s", sweeps / wall);
    bench.layer("sca.traces", counters.traces() as f64);
    bench.layer("sca.transient_steps", steps);
    bench.layer("sca.cpa_checkpoints", counters.cpa_checkpoints() as f64);
    bench.layer("sca.steps_per_s", steps / wall);
}

/// The exec layer's metrics from two snapshots of the pool the benchmark passed in;
/// `threads` counts every thread that executes the pool's work (workers plus the
/// helping caller).
fn exec_layers(
    bench: &mut Bench,
    before: &tsc3d_exec::PoolStats,
    after: &tsc3d_exec::PoolStats,
    threads: usize,
) {
    let busy_s = after.busy_ns_total().saturating_sub(before.busy_ns_total()) as f64 / 1e9;
    bench.layer("exec.busy_s", busy_s);
    bench.layer(
        "exec.utilization",
        busy_s / (threads as f64 * bench.traced.wall_s),
    );
    bench.layer(
        "exec.steals",
        after.steals.saturating_sub(before.steals) as f64,
    );
    bench.layer(
        "exec.parks",
        after.parks.saturating_sub(before.parks) as f64,
    );
}
