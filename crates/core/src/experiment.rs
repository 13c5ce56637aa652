//! The paper's main evaluation: power-aware vs TSC-aware floorplanning over the benchmark
//! suite (Figure 5 and Table 2).
//!
//! The types here describe one comparison; the runs themselves execute as a campaign
//! (`tsc3d-campaign`), whose aggregate bridges back into [`SetupAverages`] and
//! [`BenchmarkComparison`].

use tsc3d_netlist::suite::Benchmark;

use crate::{FlowConfig, Setup};

/// Configuration of one benchmark comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Number of independent floorplanning runs per setup (the paper uses 50).
    pub runs: usize,
    /// Flow configuration template for the power-aware setup.
    pub power_aware: FlowConfig,
    /// Flow configuration template for the TSC-aware setup.
    pub tsc_aware: FlowConfig,
}

impl ExperimentConfig {
    /// The paper-style configuration (50 runs, standard schedules).
    pub fn paper() -> Self {
        Self {
            runs: 50,
            power_aware: FlowConfig::paper(Setup::PowerAware),
            tsc_aware: FlowConfig::paper(Setup::TscAware),
        }
    }
}

/// Averages of one setup over all runs — one half of a Table 2 column pair.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SetupAverages {
    /// Average spatial entropy of the bottom die (S1).
    pub s1: f64,
    /// Average spatial entropy of the top die (S2).
    pub s2: f64,
    /// Average power–temperature correlation of the bottom die (r1), detailed verification.
    pub r1: f64,
    /// Average correlation of the top die (r2).
    pub r2: f64,
    /// Average overall (voltage-scaled) power in watts.
    pub power_w: f64,
    /// Average critical delay in ns.
    pub critical_delay_ns: f64,
    /// Average total wirelength in metres.
    pub wirelength_m: f64,
    /// Average peak temperature (detailed verification) in kelvin.
    pub peak_temperature_k: f64,
    /// Average number of signal TSVs.
    pub signal_tsvs: f64,
    /// Average number of dummy thermal TSVs.
    pub dummy_tsvs: f64,
    /// Average number of voltage volumes.
    pub voltage_volumes: f64,
    /// Average flow runtime in seconds.
    pub runtime_s: f64,
}

impl SetupAverages {
    /// Divides every accumulated sum by the run count.
    pub fn finalize(&mut self, runs: usize) {
        let n = runs.max(1) as f64;
        self.s1 /= n;
        self.s2 /= n;
        self.r1 /= n;
        self.r2 /= n;
        self.power_w /= n;
        self.critical_delay_ns /= n;
        self.wirelength_m /= n;
        self.peak_temperature_k /= n;
        self.signal_tsvs /= n;
        self.dummy_tsvs /= n;
        self.voltage_volumes /= n;
        self.runtime_s /= n;
    }
}

/// A full PA-vs-TSC comparison for one benchmark: one row group of Table 2 / Figure 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkComparison {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Number of runs averaged per setup.
    pub runs: usize,
    /// Averages of the power-aware setup.
    pub power_aware: SetupAverages,
    /// Averages of the TSC-aware setup.
    pub tsc_aware: SetupAverages,
}

impl BenchmarkComparison {
    /// Relative reduction of the bottom-die correlation achieved by the TSC-aware setup, in
    /// percent (the paper reports 16.79 % for n300, 15.25 % for ibm03, 7.71 % on average).
    pub fn r1_reduction_percent(&self) -> f64 {
        if self.power_aware.r1.abs() < 1e-12 {
            0.0
        } else {
            (self.power_aware.r1 - self.tsc_aware.r1) / self.power_aware.r1.abs() * 100.0
        }
    }

    /// Relative increase of overall power of the TSC-aware setup, in percent (paper: 5.38 %
    /// on average).
    pub fn power_increase_percent(&self) -> f64 {
        if self.power_aware.power_w.abs() < 1e-12 {
            0.0
        } else {
            (self.tsc_aware.power_w - self.power_aware.power_w) / self.power_aware.power_w * 100.0
        }
    }

    /// Relative reduction of the peak temperature rise above the 293 K ambient, in percent
    /// (paper: 13.22 % on average).
    pub fn peak_temperature_reduction_percent(&self) -> f64 {
        let ambient = 293.0;
        let pa = self.power_aware.peak_temperature_k - ambient;
        let tsc = self.tsc_aware.peak_temperature_k - ambient;
        if pa.abs() < 1e-12 {
            0.0
        } else {
            (pa - tsc) / pa * 100.0
        }
    }

    /// Relative increase of the voltage-volume count, in percent (paper: 87.17 % on
    /// average).
    pub fn voltage_volume_increase_percent(&self) -> f64 {
        if self.power_aware.voltage_volumes.abs() < 1e-12 {
            0.0
        } else {
            (self.tsc_aware.voltage_volumes - self.power_aware.voltage_volumes)
                / self.power_aware.voltage_volumes
                * 100.0
        }
    }
}

/// Worker count used by parallel experiment runs: the machine's available parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_accumulate_and_finalize() {
        let mut avg = SetupAverages {
            s1: 4.0,
            power_w: 10.0,
            ..SetupAverages::default()
        };
        avg.finalize(2);
        assert_eq!(avg.s1, 2.0);
        assert_eq!(avg.power_w, 5.0);
    }
}
