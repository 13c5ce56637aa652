//! Regenerates **Figure 1** of the paper: the time-scale gap between switching activity /
//! power (nanoseconds) and the thermal response (milliseconds to seconds).
//!
//! The binary simulates a module whose power toggles rapidly between a low and a high
//! level and prints/downsamples both waveforms: the power flips thousands of times before
//! the temperature has moved appreciably — the low-bandwidth property of the thermal side
//! channel. The simulation runs on the transient engine ([`TransientSolver`]) in its
//! lumped (per-die) configuration — the bit-tested special case of the spatial grid
//! engine behind `tsc3d-sca`.
//!
//! Output: CSV in `target/experiments/figure1.csv`, and with `--json PATH` a
//! machine-readable document (waveform plus the quantified time-scale-gap summary) so CI
//! can archive the figure's data as an artifact.

use tsc3d_bench::{arg_value, write_csv};
use tsc3d_geometry::{GridPos, Outline, Stack};
use tsc3d_obs::json::Json;
use tsc3d_thermal::{transient::TransientSolver, LumpedTransient, ThermalConfig};

fn main() {
    let stack = Stack::two_die(Outline::square(16.0e6));
    let config = ThermalConfig::default_for(stack);
    // The lumped RC parameters (time constants) come from the lumped model; the
    // simulation itself steps the transient engine's lumped network — bit-identical by
    // the engine's special-case contract, and the same API the sca trace simulations use.
    let lumped = LumpedTransient::new(&config);
    let solver = TransientSolver::lumped(&config);

    let die = 1; // top die, adjacent to the heatsink
    let tau = lumped.time_constant(die);
    let period = tau / 5_000.0;
    println!("Figure 1: activity/power vs temperature time scales");
    println!("thermal time constant of the top die: {tau:.3} s");
    println!("power toggling period              : {period:.3e} s (activity-rate proxy)");

    let (p_low, p_high) = (0.5, 3.5);
    let duration = 3.0 * tau;
    let samples = 60_000usize;
    let dt = duration / samples as f64;
    let power_at = |t: f64| {
        if ((t / period) as u64) % 2 == 0 {
            p_high
        } else {
            p_low
        }
    };

    let mut state = solver.state();
    let mut watts = vec![0.0; solver.dies()];
    let mut series: Vec<(f64, f64, f64)> = Vec::with_capacity(samples + 1);
    for step in 0..=samples {
        let time = step as f64 * dt;
        let p = power_at(time);
        series.push((
            time,
            p,
            solver.temperature_at(&state, die, GridPos::new(0, 0)),
        ));
        watts[die] = p;
        solver.set_uniform_power(&mut state, &watts);
        solver.step(&mut state, dt);
    }

    // Print a coarse view: 20 rows spanning the simulation.
    println!(
        "\n{:>12} {:>10} {:>14}",
        "time [s]", "power [W]", "temperature [K]"
    );
    let step = series.len() / 20;
    for &(time, power, temperature) in series.iter().step_by(step.max(1)) {
        println!("{time:>12.4} {power:>10.2} {temperature:>14.4}");
    }

    let rows: Vec<String> = series
        .iter()
        .step_by(10)
        .map(|&(t, p, k)| format!("{t:.6},{p:.3},{k:.4}"))
        .collect();
    let path = write_csv("figure1", "time_s,power_w,temperature_k", &rows);

    // Quantify the figure's message.
    let tail = &series[series.len() - series.len() / 20..];
    let mean_t = tail.iter().map(|&(_, _, k)| k).sum::<f64>() / tail.len() as f64;
    let ripple = tail.iter().map(|&(_, _, k)| k).fold(f64::MIN, f64::max)
        - tail.iter().map(|&(_, _, k)| k).fold(f64::MAX, f64::min);
    let ripple_percent = 100.0 * ripple / (mean_t - solver.ambient()).max(1e-9);
    println!(
        "\nsteady-state: mean temperature {mean_t:.3} K, ripple {ripple:.4} K — the fast power \
         toggling is filtered to < {ripple_percent:.2}% of the thermal rise, as sketched in \
         Figure 1."
    );
    println!("CSV written to {}", path.display());

    if let Some(json_path) = arg_value("--json") {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str("tsc3d-figure1/v1".into())),
            ("die".into(), Json::UInt(die as u64)),
            ("time_constant_s".into(), Json::Num(tau)),
            ("toggle_period_s".into(), Json::Num(period)),
            ("power_low_w".into(), Json::Num(p_low)),
            ("power_high_w".into(), Json::Num(p_high)),
            ("duration_s".into(), Json::Num(duration)),
            ("ambient_k".into(), Json::Num(solver.ambient())),
            ("tail_mean_temperature_k".into(), Json::Num(mean_t)),
            ("tail_ripple_k".into(), Json::Num(ripple)),
            (
                "tail_ripple_percent_of_rise".into(),
                Json::Num(ripple_percent),
            ),
            (
                "series".into(),
                Json::Arr(
                    series
                        .iter()
                        .step_by(10)
                        .map(|&(t, p, k)| {
                            Json::Obj(vec![
                                ("time_s".into(), Json::Num(t)),
                                ("power_w".into(), Json::Num(p)),
                                ("temperature_k".into(), Json::Num(k)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        if let Some(parent) = std::path::Path::new(&json_path).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(&json_path, format!("{}\n", doc.render())) {
            Ok(()) => println!("JSON written to {json_path}"),
            Err(err) => {
                tsc3d_obs::log_error!("bench", "could not write {json_path}: {err}");
                std::process::exit(1);
            }
        }
    }
}
