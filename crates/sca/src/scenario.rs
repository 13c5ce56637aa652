//! End-to-end trace-level attack scenarios on flow-produced floorplans.
//!
//! A scenario takes the outputs of the TSC-aware flow — the floorplan, the
//! voltage-scaled block powers and the final TSV plan — and evaluates the CPA attack
//! twice out of the same [`FlowResult`]: once against the unmitigated baseline (signal
//! TSVs only) and once against the decorrelated floorplan (signal *plus* dummy TSVs),
//! reporting the [`ScaVerdict`]: did the mitigation raise the attacker's
//! measurements-to-disclosure? Both attacks observe one trace stream: each trace is
//! drawn once and read through both states' thermal responses.
//!
//! # Trace simulation: the reciprocity kernel
//!
//! An attack reads every trace's true sensor temperatures off one response kernel per
//! mitigation state. Extracting it steps one lane per *sensor*, not per trace: 1 W
//! injected at the sensor's node on the sensor die's active layer of an ambient-0 copy of
//! the network, through the attack's exact `advance(sample_dt)` substeps. At each sample
//! time every lane's field is folded through the floorplan's power stamps into a
//! `samples × sensors × modules` kernel `K`. Trace `t` then reads
//! `ambient + Σ_m p_m·K[j][s][m]` at sample `j` and sensor `s`, summed in module-index
//! order. The sensor lanes are split over the pool in parts padded to a specialised lane
//! width, and extraction polls the cancel token at least every 512 substeps.
//!
//! **Why the kernel is exact.** For one (floorplan, mitigation state) the RC network is
//! linear and time-invariant, every trace starts from ambient, and its power is constant
//! over the dwell. Conductances are symmetric and capacities diagonal, so the
//! explicit-Euler operator `A = I − dt·C⁻¹G` satisfies `Aᵏ·C⁻¹ = (Aᵏ·C⁻¹)ᵀ`
//! (reciprocity). The stepped rise at sensor `s` under a power vector `P` therefore
//! equals `⟨θ_s, P⟩`, where `θ_s` is the field that 1 W injected at `s` produces on an
//! ambient-0 copy of the network after the same substeps.
//!
//! **How closely it agrees with stepping every trace.** The crate's tests keep a stepped
//! reference: the same set-up and trace stream, with every trace advanced through the
//! network at the stack's ambient in lockstep [`BatchTransientSolver`] lanes, each
//! bit-identical to the scalar [`TransientSolver`]. Its true temperatures differ from the
//! kernel's only by rounding (summation order). The tests bound the difference by
//! 1e-10 K at every trace, sample and sensor; measured, it stays below 4e-13 K (7 ULP at
//! 293 K). An ADC code changes only when the noisy reading lies within that distance of a
//! quantisation boundary, so with quantised sensors every acquired sample, and with them
//! the whole [`ScaOutcome`], is identical. The tests check this on the quick
//! configuration at attack grids 8 and 12 and on the smoke configuration, in both
//! mitigation states. Unquantised sensors (`quantization_k = 0`) agree to the 1e-10 K
//! bound only.
//!
//! **The kernel memo.** A kernel depends only on what extraction reads, so one
//! process-wide memo keeps it across attacks. Its key is the exact bits of the stack and
//! outline, the attack grid's bin count, every placement's block, die and rectangle,
//! every TSV field's grid and density map, and the sensor die, array size, samples per
//! trace and dwell. Keys compare in full; the hash only picks the bucket. The key leaves
//! out what never reaches the kernel: sensor noise and quantisation, the workload, the
//! key and trace seeds, the trace count, the checkpoints, the target policy, the nominal
//! powers and the pool. A hit needs no network: the entry keeps the kernel with its
//! trace-equivalent steps per trace. A miss extracts as described above (pool fan-out,
//! cancel polls, the `sca_kernel` span and `tsc3d_sca_kernel_steps_total`) and memoizes
//! the result; an interrupted or failed extraction memoizes nothing. Two concurrent
//! misses on one key may both extract; their kernels are bit-identical and the first
//! inserted is kept. Entries weigh their key and kernel bytes against a fixed 4 MiB
//! budget, least recently used first out, and a kernel larger than the budget is never
//! kept. Each attack counts one lookup in
//! `tsc3d_sca_kernel_cache_total{outcome="hit"|"miss"}`.

use crate::cpa::{CpaAccumulator, CpaResult};
use crate::memo::{self, Kernel, KernelKey};
use crate::sensor::SensorConfig;
use crate::workload::{derive_key, LeakageModel, TraceActivity, Workload, WorkloadConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use tsc3d::FlowResult;
use tsc3d_exec::{CancelReason, CancelToken, Interrupt, Pool};
use tsc3d_floorplan::{plan_signal_tsvs, Floorplan, PowerStamps};
use tsc3d_geometry::{DieId, Grid, GridMap, GridPos};
use tsc3d_netlist::Design;
use tsc3d_obs::Metric;
use tsc3d_thermal::{BatchTransientSolver, SolveError, ThermalConfig, TransientSolver, TsvField};

/// How the attacked module (the "crypto core") is chosen on the instrumented die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetPolicy {
    /// The highest-powered block on the sensor die.
    HighestPower,
    /// The block nearest the die's power-density hotspot (argmax of the power map).
    Hotspot,
    /// The block nearest the flow's correlation-stability argmax — the most *stably*
    /// leaking location, i.e. the paper's own exploitability criterion (and the spot the
    /// dummy-TSV defense flattens first). Falls back to [`TargetPolicy::Hotspot`] when
    /// the flow ran without post-processing (no stability map).
    MostStable,
    /// An explicit module index (reproducing a known scenario).
    Block(usize),
}

impl TargetPolicy {
    /// Stable label used in records and submissions (`block:N` for explicit targets).
    pub fn label(self) -> String {
        match self {
            TargetPolicy::HighestPower => "highest-power".into(),
            TargetPolicy::Hotspot => "hotspot".into(),
            TargetPolicy::MostStable => "most-stable".into(),
            TargetPolicy::Block(index) => format!("block:{index}"),
        }
    }

    /// Parses [`TargetPolicy::label`].
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "highest-power" => Some(TargetPolicy::HighestPower),
            "hotspot" => Some(TargetPolicy::Hotspot),
            "most-stable" => Some(TargetPolicy::MostStable),
            other => other
                .strip_prefix("block:")
                .and_then(|index| index.parse().ok())
                .map(TargetPolicy::Block),
        }
    }
}

/// The full configuration of one trace-level attack evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackConfig {
    /// Analysis-grid resolution (bins per axis) of the transient simulation.
    pub grid_bins: usize,
    /// Number of traces (encryptions) the attacker observes.
    pub traces: usize,
    /// How the attacked module is chosen.
    pub target: TargetPolicy,
    /// The key-dependent workload.
    pub workload: WorkloadConfig,
    /// The attacker's sensor array and acquisition chain.
    pub sensors: SensorConfig,
    /// Trace-count checkpoints at which disclosure is evaluated.
    pub mtd_checkpoints: usize,
}

impl AttackConfig {
    /// A fast configuration for tests and demos: a coarse grid, few traces, two key
    /// bytes.
    pub fn quick() -> Self {
        Self {
            grid_bins: 10,
            traces: 96,
            target: TargetPolicy::MostStable,
            workload: WorkloadConfig {
                key_bytes: 2,
                leakage: LeakageModel::HammingWeight,
                watts_per_hw: 0.08,
                background_sigma: 0.02,
            },
            sensors: SensorConfig {
                die: 0,
                sensors_per_axis: 3,
                samples_per_trace: 2,
                dwell_s: 0.01,
                sigma_k: 0.004,
                quantization_k: 0.002,
            },
            mtd_checkpoints: 12,
        }
    }

    /// The calibrated smoke configuration used by the campaign/serve sca smokes: a
    /// noise-limited sensing regime (long dwell into the conductance-dominated response,
    /// ~0.5 K sensor noise) with per-trace disclosure checkpoints, so the dummy-TSV
    /// mitigation's SNR reduction is resolvable as a strictly higher MTD.
    pub fn smoke() -> Self {
        Self {
            grid_bins: 10,
            traces: 192,
            target: TargetPolicy::MostStable,
            workload: WorkloadConfig {
                key_bytes: 2,
                leakage: LeakageModel::HammingWeight,
                watts_per_hw: 0.04,
                background_sigma: 0.02,
            },
            sensors: SensorConfig {
                die: 0,
                sensors_per_axis: 3,
                samples_per_trace: 1,
                dwell_s: 0.08,
                sigma_k: 0.5,
                quantization_k: 0.01,
            },
            mtd_checkpoints: 192,
        }
    }

    /// The largest trace count an attack accepts.
    pub const MAX_TRACES: usize = 1_000_000;

    /// The most observation points per trace ([`SensorConfig::points`]) an attack
    /// accepts; the presets use 9 and 18. Memory grows with it three ways: the CPA sums
    /// hold `256 × points` floats per key byte (2 MiB at the cap), a trace chunk
    /// `8 × points`, and the kernel `points × modules`.
    pub const MAX_POINTS: usize = 1024;

    /// The finest analysis grid (bins per axis) an attack accepts; the transient network
    /// holds `layers × grid_bins²` nodes. The flow's own grids share the bound.
    pub const MAX_GRID_BINS: usize = tsc3d::FlowConfig::MAX_GRID_BINS;

    /// Validates the configuration, including the size bounds that keep one submission
    /// from allocating without limit.
    ///
    /// # Errors
    ///
    /// Returns [`ScaError::InvalidConfig`] describing the first problem.
    pub fn validate(&self) -> Result<(), ScaError> {
        let fail = |reason: String| Err(ScaError::InvalidConfig { reason });
        if !(2..=Self::MAX_GRID_BINS).contains(&self.grid_bins) {
            return fail(format!(
                "grid_bins must be in 2..={}, got {}",
                Self::MAX_GRID_BINS,
                self.grid_bins
            ));
        }
        if !(8..=Self::MAX_TRACES).contains(&self.traces) {
            return fail(format!(
                "traces must be in 8..={}, got {}",
                Self::MAX_TRACES,
                self.traces
            ));
        }
        if !(1..=16).contains(&self.workload.key_bytes) {
            return fail(format!(
                "key_bytes must be in 1..=16, got {}",
                self.workload.key_bytes
            ));
        }
        if !(self.workload.watts_per_hw > 0.0 && self.workload.watts_per_hw.is_finite()) {
            return fail(format!(
                "watts_per_hw must be positive and finite, got {}",
                self.workload.watts_per_hw
            ));
        }
        if !(self.workload.background_sigma >= 0.0 && self.workload.background_sigma.is_finite()) {
            return fail(format!(
                "background_sigma must be non-negative and finite, got {}",
                self.workload.background_sigma
            ));
        }
        let sensors = &self.sensors;
        if sensors.sensors_per_axis == 0 || sensors.samples_per_trace == 0 {
            return fail("the sensor array and sampling must be non-empty".into());
        }
        if sensors.sensors_per_axis > self.grid_bins {
            return fail(format!(
                "sensors_per_axis must be at most grid_bins ({}), got {}",
                self.grid_bins, sensors.sensors_per_axis
            ));
        }
        let points = sensors
            .sensors_per_axis
            .checked_mul(sensors.sensors_per_axis)
            .and_then(|sensors_total| sensors_total.checked_mul(sensors.samples_per_trace));
        if !points.is_some_and(|points| points <= Self::MAX_POINTS) {
            return fail(format!(
                "points (sensors_per_axis² × samples_per_trace) must be at most {}, got {}² × {}",
                Self::MAX_POINTS,
                sensors.sensors_per_axis,
                sensors.samples_per_trace
            ));
        }
        if !(self.sensors.dwell_s > 0.0 && self.sensors.dwell_s.is_finite()) {
            return fail(format!(
                "dwell_s must be positive and finite, got {}",
                self.sensors.dwell_s
            ));
        }
        for (field, value) in [
            ("sigma_k", self.sensors.sigma_k),
            ("quantization_k", self.sensors.quantization_k),
        ] {
            if !(value >= 0.0 && value.is_finite()) {
                return fail(format!(
                    "{field} must be non-negative and finite, got {value}"
                ));
            }
        }
        if !(1..=self.traces).contains(&self.mtd_checkpoints) {
            return fail(format!(
                "mtd_checkpoints must be in 1..=traces ({}), got {}",
                self.traces, self.mtd_checkpoints
            ));
        }
        Ok(())
    }
}

/// Errors of a scenario run.
///
/// An attack stopped by its cancel token or by an injected fault is one variant,
/// [`ScaError::Interrupted`], carrying the [`Interrupt`] its checkpoint returned, as
/// [`tsc3d::FlowError::Interrupted`] does for the flow.
#[derive(Debug, Clone, PartialEq)]
pub enum ScaError {
    /// The attack configuration is invalid.
    InvalidConfig {
        /// What is wrong.
        reason: String,
    },
    /// The transient engine rejected its inputs.
    Solve(SolveError),
    /// The attacker's die hosts no modules (no target to monitor).
    NoTargetModule {
        /// The instrumented die.
        die: usize,
    },
    /// A checkpoint stopped the attack: its cancel token fired (user request, shutdown
    /// or deadline), or an armed chaos plan injected an error.
    Interrupted(Interrupt),
}

impl std::fmt::Display for ScaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScaError::InvalidConfig { reason } => write!(f, "invalid sca config: {reason}"),
            ScaError::Solve(e) => write!(f, "transient setup failed: {e}"),
            ScaError::NoTargetModule { die } => {
                write!(f, "no module placed on the instrumented die {die}")
            }
            ScaError::Interrupted(Interrupt::Cancelled(CancelReason::Deadline)) => {
                write!(f, "sca attack deadline exceeded")
            }
            ScaError::Interrupted(Interrupt::Cancelled(reason)) => {
                write!(f, "sca attack cancelled ({reason})")
            }
            ScaError::Interrupted(Interrupt::Fault(fault)) => {
                write!(f, "injected fault at {}", fault.site)
            }
        }
    }
}

impl std::error::Error for ScaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScaError::Solve(e) => Some(e),
            // Not the interrupt: its text is not in ours, so `display_chain` would
            // append it and change every recorded failure message.
            _ => None,
        }
    }
}

impl From<SolveError> for ScaError {
    fn from(e: SolveError) -> Self {
        match e {
            SolveError::Interrupted { interrupt, .. } => ScaError::Interrupted(interrupt),
            other => ScaError::Solve(other),
        }
    }
}

impl ScaError {
    /// Stable variant tag for failure aggregation.
    ///
    /// An interrupt is tagged [`Interrupt::kind`], as in the flow: `cancelled`,
    /// `shutdown`, `deadline` or `fault-injected`.
    pub fn kind(&self) -> &'static str {
        match self {
            ScaError::InvalidConfig { .. } => "sca-invalid-config",
            ScaError::Solve(_) => "sca-solve",
            ScaError::NoTargetModule { .. } => "sca-no-target",
            ScaError::Interrupted(interrupt) => interrupt.kind(),
        }
    }
}

/// The outcome of one attack evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaOutcome {
    /// The full CPA result.
    pub cpa: CpaResult,
    /// The module the workload keyed (index into the design's blocks).
    pub target_module: usize,
    /// Trace-equivalent transient steps: `traces × samples_per_trace ×
    /// steps_for(sample_dt)`, the explicit-Euler steps each trace's response spans, which
    /// the kernel evaluates as one dot product per point. The same for a kernel memo hit
    /// or miss. What is actually stepped is `sensors × samples_per_trace ×
    /// steps_for(sample_dt)` lane-steps per extraction (memo misses only), counted by
    /// `tsc3d_sca_kernel_steps_total` and the `sca_kernel` span.
    pub transient_steps: u64,
}

impl ScaOutcome {
    /// Recovered key bytes.
    pub fn recovered_bytes(&self) -> usize {
        self.cpa.recovered_bytes()
    }

    /// Attacked key bytes.
    pub fn key_bytes(&self) -> usize {
        self.cpa.bytes.len()
    }

    /// Guessing entropy in bits.
    pub fn guessing_entropy_bits(&self) -> f64 {
        self.cpa.guessing_entropy_bits()
    }

    /// Measurements to full-key disclosure (`None` = key not recovered).
    pub fn mtd_traces(&self) -> Option<usize> {
        self.cpa.mtd_traces()
    }

    /// Best absolute correlation of any guess.
    pub fn best_correlation(&self) -> f64 {
        self.cpa.best_correlation()
    }
}

/// Whether to evaluate the attack against the mitigated or the unmitigated floorplan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mitigation {
    /// Signal TSVs only — the floorplan before the decorrelation post-process.
    Baseline,
    /// Signal plus the flow's dummy thermal TSVs.
    DummyTsvs,
}

impl Mitigation {
    /// Stable label ("baseline" / "mitigated").
    pub fn label(self) -> &'static str {
        match self {
            Mitigation::Baseline => "baseline",
            Mitigation::DummyTsvs => "mitigated",
        }
    }

    /// Parses [`Mitigation::label`].
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "baseline" => Some(Mitigation::Baseline),
            "mitigated" => Some(Mitigation::DummyTsvs),
            _ => None,
        }
    }
}

/// The side-by-side evaluation out of one [`FlowResult`].
///
/// Both states are attacked with the same traces: one key, and per trace one draw of
/// plaintexts, background traffic and sensor noise. Only the thermal response differs,
/// so the two outcomes are a paired comparison of the floorplan with and without its
/// dummy TSVs.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaVerdict {
    /// The attack against the signal-TSV-only floorplan.
    pub baseline: ScaOutcome,
    /// The attack against the dummy-TSV-decorrelated floorplan.
    pub mitigated: ScaOutcome,
}

impl ScaVerdict {
    /// `true` when the mitigation measurably hurt the attacker: strictly higher MTD, or
    /// the key (or more of it) stays unrecovered.
    ///
    /// This reads one realization: one key and one draw of traces and sensor noise. Over
    /// other keys or noise draws the two MTDs may tie or change order, so a statement
    /// about the mitigation needs many verdicts compared pair by pair.
    pub fn mitigation_effective(&self) -> bool {
        match (self.baseline.mtd_traces(), self.mitigated.mtd_traces()) {
            (Some(base), Some(mitigated)) => mitigated > base,
            (Some(_), None) => true,
            (None, None) => self.mitigated.recovered_bytes() < self.baseline.recovered_bytes(),
            (None, Some(_)) => false,
        }
    }

    /// The MTD gain factor (`mitigated / baseline`), `None` when either side lacks a
    /// finite MTD.
    pub fn mtd_gain(&self) -> Option<f64> {
        match (self.baseline.mtd_traces(), self.mitigated.mtd_traces()) {
            (Some(base), Some(mitigated)) if base > 0 => Some(mitigated as f64 / base as f64),
            _ => None,
        }
    }
}

/// The TSV fields the attack sees on its own analysis grid: the signal TSVs re-planned
/// for the grid, plus (for [`Mitigation::DummyTsvs`]) the flow's dummy sites re-splatted
/// onto it.
pub fn attack_tsv_fields(
    design: &Design,
    flow: &FlowResult,
    grid: Grid,
    mitigation: Mitigation,
) -> Vec<TsvField> {
    let mut plan = plan_signal_tsvs(design, flow.floorplan(), grid);
    if mitigation == Mitigation::DummyTsvs {
        for (interface, field) in flow.final_tsv_plan.dummy().iter().enumerate() {
            for site in field.sites() {
                plan.add_dummy(interface, *site);
            }
        }
    }
    plan.combined()
}

/// The block on `die` whose centre lies nearest `point` (ties towards the lowest id).
fn nearest_block_on_die(
    floorplan: &Floorplan,
    die: usize,
    point: tsc3d_geometry::Point,
) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for placement in floorplan.placements() {
        if placement.die != DieId(die) {
            continue;
        }
        let index = placement.block.index();
        let distance = placement.rect.center().distance(point);
        let better = match best {
            None => true,
            Some((best_distance, _)) => distance < best_distance,
        };
        if better {
            best = Some((distance, index));
        }
    }
    best.map(|(_, index)| index)
}

/// Resolves the attacked module under a [`TargetPolicy`].
///
/// `grid` is the attack's analysis grid (hotspot policies), `stability` the flow's
/// correlation-stability map when available (its own grid may differ from `grid`).
///
/// # Errors
///
/// Returns [`ScaError::NoTargetModule`] when the die hosts no blocks, or
/// [`ScaError::InvalidConfig`] for an out-of-range explicit block.
pub fn resolve_target(
    policy: TargetPolicy,
    floorplan: &Floorplan,
    powers: &[f64],
    die: usize,
    grid: Grid,
    stability: Option<&tsc3d_leakage::StabilityMap>,
) -> Result<usize, ScaError> {
    match policy {
        TargetPolicy::Block(index) => {
            if index >= powers.len() {
                return Err(ScaError::InvalidConfig {
                    reason: format!(
                        "explicit target block {index} outside the {}-module design",
                        powers.len()
                    ),
                });
            }
            Ok(index)
        }
        TargetPolicy::HighestPower => {
            let mut best: Option<(f64, usize)> = None;
            for placement in floorplan.placements() {
                if placement.die != DieId(die) {
                    continue;
                }
                let index = placement.block.index();
                let power = powers[index];
                let better = match best {
                    None => true,
                    Some((best_power, _)) => power > best_power,
                };
                if better {
                    best = Some((power, index));
                }
            }
            best.map(|(_, index)| index)
                .ok_or(ScaError::NoTargetModule { die })
        }
        TargetPolicy::Hotspot => {
            let map = &floorplan.power_maps(grid, powers)[die];
            let centre = grid.bin_center(map.argmax());
            nearest_block_on_die(floorplan, die, centre).ok_or(ScaError::NoTargetModule { die })
        }
        TargetPolicy::MostStable => match stability {
            Some(stability) => {
                let (pos, _) = stability.most_stable();
                let centre = stability.map().grid().bin_center(pos);
                nearest_block_on_die(floorplan, die, centre).ok_or(ScaError::NoTargetModule { die })
            }
            None => resolve_target(TargetPolicy::Hotspot, floorplan, powers, die, grid, None),
        },
    }
}

/// Traces per chunk: the unit in which traces are drawn, evaluated, folded into the CPA
/// sums and polled at the `sca-batch` checkpoint.
const CHUNK_TRACES: usize = 8;

/// Kernel extraction polls the cancel token at least once per this many substeps.
const KERNEL_POLL_STEPS: usize = 512;

/// The widest part of sensor lanes one kernel extraction batch steps: a lane count
/// [`BatchTransientSolver`] steps with a specialised kernel, and one AVX-512 vector of
/// `f64`. On a 2-vCPU AVX-512 Xeon, interleaved `verdict` benchmark runs (9 sensors)
/// read 5–9% fewer ops/s with parts of 4 lanes and ~30% fewer with one part padded to 16.
const MAX_KERNEL_LANES: usize = 8;

/// Attack evaluations completed (one per mitigation state).
static ATTACKS: Metric = Metric::new(
    "tsc3d_sca_attacks_total",
    "Trace-level attack evaluations completed",
);
static TRACES: Metric = Metric::new(
    "tsc3d_sca_traces_total",
    "Thermal traces simulated (one per observed encryption)",
)
.on_span("traces");
/// The steps each trace's response spans (trace-equivalent: the kernel evaluates them as
/// one dot product per point).
static TRANSIENT_STEPS: Metric = Metric::new(
    "tsc3d_sca_transient_steps_total",
    "Explicit-Euler transient steps spanned by simulated traces",
)
.on_span("transient_steps");
static KERNEL_STEPS: Metric = Metric::new(
    "tsc3d_sca_kernel_steps_total",
    "Lane-steps stepped by reciprocity-kernel extractions (one lane per sensor; kernel \
     memo misses only, hits step nothing)",
)
.on_span("kernel_steps");

/// The per-trace seed: decorrelates consecutive trace indices (SplitMix64 finalizer).
fn trace_seed(seed: u64, trace: u64) -> u64 {
    let mut z = seed
        .wrapping_add(trace.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Consecutive `(lo, hi)` ranges of `width` covering `0..total` (the last may be short).
fn ranges(total: usize, width: usize) -> Vec<(usize, usize)> {
    (0..total)
        .step_by(width)
        .map(|lo| (lo, (lo + width).min(total)))
        .collect()
}

/// The physics of one mitigation state: the true (pre-acquisition) sensor temperatures
/// of given traces. Attacks read them off the state's kernel; the crate's tests also step
/// every trace through the state's network, as the reference the kernel is checked
/// against.
trait ThermalResponse {
    /// The span wrapping one chunk's evaluation.
    const SPAN: &'static str;

    /// Appends the true sensor temperatures of every trace to `out`, laid out
    /// `trace × sample × sensor`.
    fn temperatures(&self, activities: &[TraceActivity], out: &mut Vec<f64>);

    /// Trace-equivalent transient steps per trace.
    fn steps_per_trace(&self) -> u64;
}

/// The transient network of one mitigation state: one shared [`BatchTransientSolver`]
/// (network and capacities built once), the floorplan's precomputed [`PowerStamps`] on
/// its grid, and the sensor array. Kernel extraction steps one lane per sensor through it
/// at ambient 0; the tests' stepped reference steps one lane per trace at the stack's
/// ambient.
struct AttackNetwork {
    solver: BatchTransientSolver,
    stamps: PowerStamps,
    sensors: SensorConfig,
    positions: Vec<GridPos>,
    sample_dt: f64,
}

impl AttackNetwork {
    /// Trace-equivalent transient steps per trace: every sample's `advance(sample_dt)`
    /// substeps.
    fn steps_per_trace(&self) -> u64 {
        (self.sensors.samples_per_trace * self.solver.steps_for(self.sample_dt)) as u64
    }

    /// Extracts the kernel rows of sensors `lo..hi`, laid out
    /// `samples × (hi − lo) × modules`, stepping them as one batch padded to a
    /// power-of-two lane count. Padding lanes carry no power and stay at 0 K.
    fn kernel_part(
        &self,
        (lo, hi): (usize, usize),
        cancel: &CancelToken,
    ) -> Result<Vec<f64>, ScaError> {
        let solver = &self.solver;
        let grid = solver.inner().grid();
        let die = self.sensors.die;
        let modules = self.stamps.blocks();
        let lanes = hi - lo;
        let mut state = solver.state(lanes.next_power_of_two());
        let mut maps = vec![GridMap::zeros(grid); solver.inner().dies()];
        for (lane, &pos) in self.positions[lo..hi].iter().enumerate() {
            maps[die].set(pos, 1.0);
            solver
                .set_power(&mut state, lane, &maps)
                .expect("unit maps are built on the solver grid");
            maps[die].set(pos, 0.0);
        }
        // The substeps of `BatchTransientSolver::advance(sample_dt)`, polling the token.
        let steps = solver.steps_for(self.sample_dt);
        let dt = self.sample_dt / steps as f64;
        let mut rows = vec![0.0; self.sensors.samples_per_trace * lanes * modules];
        for sample in 0..self.sensors.samples_per_trace {
            for step in 0..steps {
                if step % KERNEL_POLL_STEPS == 0 {
                    cancel
                        .check()
                        .map_err(|reason| ScaError::Interrupted(Interrupt::Cancelled(reason)))?;
                }
                solver.step(&mut state, dt);
            }
            for lane in 0..lanes {
                for (die, map) in maps.iter_mut().enumerate() {
                    for (bin, value) in map.values_mut().iter_mut().enumerate() {
                        *value = solver.temperature_at(&state, lane, die, grid.pos_of(bin));
                    }
                }
                let row = (sample * lanes + lane) * modules;
                self.stamps.fold_maps(&maps, &mut rows[row..row + modules]);
            }
        }
        Ok(rows)
    }
}

/// The stepped reference: every trace advanced through the network, one lockstep lane
/// per trace.
#[cfg(test)]
impl ThermalResponse for AttackNetwork {
    const SPAN: &'static str = "trace_window";

    /// Every lane is stepped with the scalar per-node operation order, so its samples
    /// are bit-identical to a scalar simulation of that trace.
    fn temperatures(&self, activities: &[TraceActivity], out: &mut Vec<f64>) {
        let lanes = activities.len();
        let sensors = self.positions.len();
        let points = self.sensors.points();
        let start = out.len();
        out.resize(start + lanes * points, 0.0);
        let mut state = self.solver.state(lanes);
        let mut maps: Vec<GridMap> = Vec::new();
        for (lane, activity) in activities.iter().enumerate() {
            self.stamps.power_maps_into(&activity.powers, &mut maps);
            self.solver
                .set_power(&mut state, lane, &maps)
                .expect("power stamps are built on the solver grid");
        }
        for sample in 0..self.sensors.samples_per_trace {
            self.solver.advance(&mut state, self.sample_dt);
            for lane in 0..lanes {
                let row = start + lane * points + sample * sensors;
                for (slot, &pos) in out[row..row + sensors].iter_mut().zip(&self.positions) {
                    *slot = self
                        .solver
                        .temperature_at(&state, lane, self.sensors.die, pos);
                }
            }
        }
    }

    fn steps_per_trace(&self) -> u64 {
        AttackNetwork::steps_per_trace(self)
    }
}

/// The response attacks read: each temperature is a dot product of the trace's module
/// powers with one row of the extracted kernel.
struct KernelResponse {
    kernel: Arc<Kernel>,
    ambient: f64,
}

impl ThermalResponse for KernelResponse {
    const SPAN: &'static str = "trace_eval";

    fn temperatures(&self, activities: &[TraceActivity], out: &mut Vec<f64>) {
        for activity in activities {
            // One kernel row per (sample, sensor), sample-major: the trace's point order.
            for taps in self.kernel.values.chunks_exact(self.kernel.modules) {
                let rise = activity
                    .powers
                    .iter()
                    .zip(taps)
                    .fold(0.0, |sum, (p, k)| sum + p * k);
                out.push(self.ambient + rise);
            }
        }
    }

    fn steps_per_trace(&self) -> u64 {
        self.kernel.steps_per_trace
    }
}

/// The seeded trace stream of one attack, shared by every mitigation state it observes.
///
/// Trace `t` draws from its own rng, seeded with `trace_seed(seed, t)`: its workload
/// (plaintexts, then background), then one sensor-noise Gaussian per point, sample-major
/// and sensor-minor. No thermal response reads the rng, so the states differ only in
/// their true temperatures, and one draw serves them all.
struct TraceDraws {
    workload: Workload,
    sensors: SensorConfig,
    seed: u64,
}

/// One chunk of drawn traces, in trace order.
struct DrawnChunk {
    activities: Vec<TraceActivity>,
    /// Sensor noise in kelvin, `trace × point`.
    noise: Vec<f64>,
}

impl TraceDraws {
    /// Draws the traces `range.0..range.1`.
    fn draw(&self, (lo, hi): (usize, usize)) -> DrawnChunk {
        let _span = tsc3d_obs::span!("trace_draw");
        let points = self.sensors.points();
        let mut noise = Vec::with_capacity((hi - lo) * points);
        let activities: Vec<TraceActivity> = (lo..hi)
            .map(|trace| {
                let mut rng = ChaCha8Rng::seed_from_u64(trace_seed(self.seed, trace as u64));
                let activity = self.workload.draw_trace(&mut rng);
                noise.extend((0..points).map(|_| self.sensors.noise(&mut rng)));
                activity
            })
            .collect();
        tsc3d_obs::add_to_span("traces", activities.len() as u64);
        DrawnChunk { activities, noise }
    }
}

/// One mitigation state of a trace stream: its thermal response and its CPA sums.
struct StateStream<R> {
    response: R,
    cpa: CpaAccumulator,
}

impl<R: ThermalResponse> StateStream<R> {
    /// Reads a drawn chunk through this state's response and the acquisition chain, then
    /// folds it into the CPA sums in trace order. `samples` is a reused buffer.
    fn observe(&mut self, chunk: &DrawnChunk, sensors: &SensorConfig, samples: &mut Vec<f64>) {
        {
            let _span = tsc3d_obs::span!(R::SPAN);
            samples.clear();
            self.response.temperatures(&chunk.activities, samples);
            for (sample, &noise) in samples.iter_mut().zip(&chunk.noise) {
                *sample = sensors.read(*sample, noise);
            }
            let traces = chunk.activities.len() as u64;
            tsc3d_obs::add_to_span("traces", traces);
            tsc3d_obs::add_to_span("transient_steps", traces * self.response.steps_per_trace());
        }
        let _span = tsc3d_obs::span!("cpa_fold");
        for (activity, samples) in chunk
            .activities
            .iter()
            .zip(samples.chunks_exact(sensors.points()))
        {
            self.cpa.push(&activity.plaintexts, samples);
        }
    }
}

/// Splits `sensors` lanes over `workers` threads: contiguous parts of one power-of-two
/// width, at most [`MAX_KERNEL_LANES`], wide enough that `workers` parts cover the
/// sensors when the cap allows. Only the last part can be narrower; it is padded up to a
/// power of two when stepped, since other lane counts take the stepper's slower generic
/// loop.
fn kernel_parts(sensors: usize, workers: usize) -> Vec<(usize, usize)> {
    let width = ((sensors + workers - 1) / workers)
        .next_power_of_two()
        .min(MAX_KERNEL_LANES);
    ranges(sensors, width)
}

/// Extracts the attack's `samples × sensors × modules` kernel, its sensor lanes split
/// over the pool's threads plus the helping caller. This is the one extraction path; it
/// never reads or fills the memo.
fn extract_kernel(
    network: Arc<AttackNetwork>,
    pool: Option<&Pool>,
    cancel: &CancelToken,
) -> Result<Kernel, ScaError> {
    let _span = tsc3d_obs::span!("sca_kernel");
    let sensors = network.positions.len();
    let parts = kernel_parts(sensors, pool.map_or(1, |pool| pool.threads() + 1));
    let results = match pool {
        Some(pool) => {
            let job = Arc::clone(&network);
            let cancel = cancel.clone();
            pool.run_batch(parts.clone(), move |_, part| job.kernel_part(part, &cancel))
        }
        None => parts
            .iter()
            .map(|&part| network.kernel_part(part, cancel))
            .collect(),
    };
    let modules = network.stamps.blocks();
    let samples = network.sensors.samples_per_trace;
    let mut kernel = vec![0.0; samples * sensors * modules];
    for (&(lo, hi), rows) in parts.iter().zip(results) {
        let rows = rows?;
        let len = (hi - lo) * modules;
        for (sample, rows) in rows.chunks_exact(len).enumerate() {
            let at = (sample * sensors + lo) * modules;
            kernel[at..at + len].copy_from_slice(rows);
        }
    }
    let steps_per_trace = network.steps_per_trace();
    KERNEL_STEPS.add(sensors as u64 * steps_per_trace);
    Ok(Kernel {
        values: kernel,
        modules,
        steps_per_trace,
    })
}

/// Streams the attack's traces into fresh CPA sums, one per state (one per response, in
/// order), returning each state's sums with its trace-equivalent transient steps.
///
/// Each chunk is drawn once, then every state in turn reads it through its own response
/// and folds it (memory `O(chunk × points)` besides the sums). `cancel` is polled at the
/// `sca-batch` checkpoint before each state's part of a chunk, so the hit count of that
/// fault site on a fault-free run is chunks × states, chunk-major. An interrupt abandons
/// the rest of the stream.
fn stream_traces<R: ThermalResponse>(
    setup: &AttackSetup,
    responses: impl IntoIterator<Item = R>,
    chunk_traces: usize,
    config: &AttackConfig,
    cancel: &CancelToken,
) -> Result<Vec<(CpaAccumulator, u64)>, ScaError> {
    let draws = &setup.draws;
    let mut states: Vec<StateStream<R>> = responses
        .into_iter()
        .map(|response| StateStream {
            response,
            cpa: CpaAccumulator::new(
                draws.workload.key(),
                config.workload.leakage,
                config.sensors.points(),
                config.traces,
                config.mtd_checkpoints,
            ),
        })
        .collect();
    let mut samples = Vec::new();
    for range in ranges(config.traces, chunk_traces) {
        let mut chunk = None;
        for state in &mut states {
            tsc3d_exec::checkpoint("sca-batch", cancel).map_err(ScaError::Interrupted)?;
            let chunk = chunk.get_or_insert_with(|| draws.draw(range));
            state.observe(chunk, &draws.sensors, &mut samples);
        }
    }
    let traces = config.traces as u64;
    Ok(states
        .into_iter()
        .map(|state| (state.cpa, traces * state.response.steps_per_trace()))
        .collect())
}

/// What every mitigation state of one attack shares: the validated, target-resolved
/// inputs and the seeded trace stream.
struct AttackSetup {
    /// The stack's ambient temperature, which every trace starts from.
    ambient: f64,
    /// The attack's analysis grid.
    grid: Grid,
    target: usize,
    draws: TraceDraws,
}

/// The transient network of one mitigation state at `thermal_config`'s ambient, the
/// expensive part of an attack's set-up: only a kernel memo miss builds it.
fn attack_network(
    floorplan: &Floorplan,
    tsv_fields: &[TsvField],
    config: &AttackConfig,
    grid: Grid,
    thermal_config: &ThermalConfig,
) -> Result<AttackNetwork, ScaError> {
    let solver = TransientSolver::new(thermal_config, grid, tsv_fields)?;
    Ok(AttackNetwork {
        solver: BatchTransientSolver::new(Arc::new(solver)),
        stamps: floorplan.power_stamps(grid),
        sensors: config.sensors,
        positions: config.sensors.positions(grid),
        sample_dt: config.sensors.dwell_s / config.sensors.samples_per_trace as f64,
    })
}

/// One state's physics: its memoized kernel, or on a miss one extracted from an
/// ambient-0 network (over the pool, polling `cancel`) and memoized. An interrupted or
/// failed extraction memoizes nothing.
fn state_kernel(
    floorplan: &Floorplan,
    tsv_fields: &[TsvField],
    config: &AttackConfig,
    grid: Grid,
    pool: Option<&Pool>,
    cancel: &CancelToken,
) -> Result<Arc<Kernel>, ScaError> {
    let key = KernelKey::new(floorplan, tsv_fields, config);
    if let Some(kernel) = memo::lookup(&key) {
        return Ok(kernel);
    }
    // Extraction steps unit-power responses: rises over ambient.
    let unit = ThermalConfig::default_for(floorplan.stack()).with_ambient(0.0);
    let network = attack_network(floorplan, tsv_fields, config, grid, &unit)?;
    Ok(memo::memoize(
        key,
        extract_kernel(Arc::new(network), pool, cancel)?,
    ))
}

/// Validates the configuration and resolves what the states share once: the analysis
/// grid, the attacked module, the key and the trace stream.
fn prepare_attack(
    floorplan: &Floorplan,
    nominal_powers: &[f64],
    stability: Option<&tsc3d_leakage::StabilityMap>,
    config: &AttackConfig,
    seed: u64,
    key_seed: u64,
) -> Result<AttackSetup, ScaError> {
    config.validate()?;
    if config.sensors.die >= floorplan.stack().dies() {
        return Err(ScaError::InvalidConfig {
            reason: format!(
                "sensor die {} outside the {}-die stack",
                config.sensors.die,
                floorplan.stack().dies()
            ),
        });
    }
    if nominal_powers.len() != floorplan.placements().len() {
        return Err(ScaError::InvalidConfig {
            reason: format!(
                "{} nominal powers for a {}-module floorplan",
                nominal_powers.len(),
                floorplan.placements().len()
            ),
        });
    }
    let grid = floorplan.analysis_grid(config.grid_bins);
    let target = resolve_target(
        config.target,
        floorplan,
        nominal_powers,
        config.sensors.die,
        grid,
        stability,
    )?;
    let workload = Workload::new(
        config.workload,
        derive_key(key_seed, config.workload.key_bytes),
        nominal_powers.to_vec(),
        target,
    );
    Ok(AttackSetup {
        ambient: ThermalConfig::default_for(floorplan.stack()).ambient,
        grid,
        target,
        draws: TraceDraws {
            workload,
            sensors: config.sensors,
            seed,
        },
    })
}

/// The cancellable core behind every attack entry point: one attack per TSV-field set
/// (mitigation state), all observing one trace stream under one `sca_attack` span.
///
/// `nominal_powers` are the per-block baseline powers (voltage-scaled), one per placed
/// module; `stability` is the flow's correlation-stability map when available (the
/// [`TargetPolicy::MostStable`] input). Each state's kernel is looked up or extracted, in
/// state order, before any trace is drawn. Polls `cancel` at the `sca-batch` checkpoint
/// once per state and trace chunk of [`CHUNK_TRACES`], and during kernel extraction
/// directly at least every [`KERNEL_POLL_STEPS`] substeps.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_attack_impl<const N: usize>(
    floorplan: &Floorplan,
    nominal_powers: &[f64],
    state_fields: [&[TsvField]; N],
    stability: Option<&tsc3d_leakage::StabilityMap>,
    config: &AttackConfig,
    seed: u64,
    key_seed: u64,
    pool: Option<&Pool>,
    cancel: &CancelToken,
) -> Result<[ScaOutcome; N], ScaError> {
    let _span = tsc3d_obs::span!("sca_attack");
    let setup = prepare_attack(floorplan, nominal_powers, stability, config, seed, key_seed)?;
    let responses = state_fields
        .iter()
        .map(|fields| {
            let kernel = state_kernel(floorplan, fields, config, setup.grid, pool, cancel)?;
            Ok(KernelResponse {
                kernel,
                ambient: setup.ambient,
            })
        })
        .collect::<Result<Vec<_>, ScaError>>()?;
    let outcomes: Vec<ScaOutcome> = stream_traces(&setup, responses, CHUNK_TRACES, config, cancel)?
        .into_iter()
        .map(|(cpa, transient_steps)| {
            ATTACKS.inc();
            TRACES.add(config.traces as u64);
            TRANSIENT_STEPS.add(transient_steps);
            ScaOutcome {
                cpa: cpa.finish(),
                target_module: setup.target,
                transient_steps,
            }
        })
        .collect();
    Ok(outcomes.try_into().expect("one outcome per state"))
}

/// Runs one attack evaluation out of a [`FlowResult`], against the chosen mitigation
/// state of the *same* floorplan.
///
/// The attack keys the module [`AttackConfig::target`] picks, under the flow's
/// voltage-scaled block powers (its correlation-stability map is the
/// [`TargetPolicy::MostStable`] input). `seed` drives the traces (plaintexts, background
/// traffic, sensor noise) and `key_seed` the secret key. With a pool, kernel extraction
/// fans out over the workers; the per-trace seeding makes the result **bit-identical**
/// for any worker count (including none).
///
/// # Errors
///
/// Returns a [`ScaError`] for an invalid configuration, a transient network the thermal
/// engine rejects, or a die without modules.
pub fn run_on_flow(
    design: &Design,
    flow: &FlowResult,
    config: &AttackConfig,
    seed: u64,
    key_seed: u64,
    mitigation: Mitigation,
    pool: Option<&Pool>,
) -> Result<ScaOutcome, ScaError> {
    run_on_flow_with_cancel(
        design,
        flow,
        config,
        seed,
        key_seed,
        mitigation,
        pool,
        &CancelToken::new(),
    )
}

/// [`run_on_flow`] polling `cancel` at the `sca-batch` checkpoint (once per consumed
/// trace chunk) and, during kernel extraction, directly at least every 512 substeps, so
/// a running attack can be stopped — or bounded by a deadline — within one chunk's or
/// 512 substeps' worth of work. A run that completes is bit-identical to an uncancelled
/// [`run_on_flow`].
///
/// # Errors
///
/// See [`run_on_flow`], plus [`ScaError::Interrupted`] when the token (or an armed fault
/// plan) fires mid-attack.
#[allow(clippy::too_many_arguments)]
pub fn run_on_flow_with_cancel(
    design: &Design,
    flow: &FlowResult,
    config: &AttackConfig,
    seed: u64,
    key_seed: u64,
    mitigation: Mitigation,
    pool: Option<&Pool>,
    cancel: &CancelToken,
) -> Result<ScaOutcome, ScaError> {
    let [outcome] = run_on_flow_impl(
        design,
        flow,
        config,
        seed,
        key_seed,
        [mitigation],
        pool,
        cancel,
    )?;
    Ok(outcome)
}

/// One attack per mitigation state of `flow`, all observing one trace stream.
#[allow(clippy::too_many_arguments)]
fn run_on_flow_impl<const N: usize>(
    design: &Design,
    flow: &FlowResult,
    config: &AttackConfig,
    seed: u64,
    key_seed: u64,
    mitigations: [Mitigation; N],
    pool: Option<&Pool>,
    cancel: &CancelToken,
) -> Result<[ScaOutcome; N], ScaError> {
    config.validate()?;
    let grid = flow.floorplan().analysis_grid(config.grid_bins);
    let fields = mitigations.map(|mitigation| attack_tsv_fields(design, flow, grid, mitigation));
    run_attack_impl(
        flow.floorplan(),
        &flow.scaled_powers,
        std::array::from_fn(|state| fields[state].as_slice()),
        flow.post_process.as_ref().map(|pp| &pp.stability),
        config,
        seed,
        key_seed,
        pool,
        cancel,
    )
}

/// Evaluates the attack against both mitigation states of one [`FlowResult`] — identical
/// traces (same seeds), identical sensors, only the dummy TSVs differ — and returns the
/// [`ScaVerdict`].
///
/// Each trace is drawn once (its workload and sensor noise) and read through both states'
/// thermal responses, each folding into its own CPA sums; the verdict equals
/// `ScaVerdict { baseline: run_on_flow(.., Baseline, ..), mitigated: run_on_flow(..,
/// DummyTsvs, ..) }` bit for bit.
///
/// # Errors
///
/// See [`run_on_flow`]. Both states are set up (the baseline first: kernel lookup or
/// extraction) before any trace is drawn, so a set-up error of either state fails the
/// verdict before the stream starts.
pub fn run_verdict(
    design: &Design,
    flow: &FlowResult,
    config: &AttackConfig,
    seed: u64,
    key_seed: u64,
    pool: Option<&Pool>,
) -> Result<ScaVerdict, ScaError> {
    run_verdict_with_cancel(
        design,
        flow,
        config,
        seed,
        key_seed,
        pool,
        &CancelToken::new(),
    )
}

/// [`run_verdict`] polling `cancel` during kernel extraction and at the `sca-batch`
/// checkpoint once per trace chunk and mitigation state, chunk-major (baseline,
/// mitigated, baseline, …): the serve daemon's cancellation and deadline path. A
/// fault-free verdict hits `sca-batch` twice per chunk, as two separate attacks did.
///
/// A run that completes is bit-identical to an uncancelled [`run_verdict`]: the token is
/// only *read* at checkpoints and never touches the seeded trace streams.
///
/// # Errors
///
/// See [`run_verdict`]; additionally [`ScaError::Interrupted`] when the token (or an
/// armed fault plan) fires during either state's set-up or the stream.
pub fn run_verdict_with_cancel(
    design: &Design,
    flow: &FlowResult,
    config: &AttackConfig,
    seed: u64,
    key_seed: u64,
    pool: Option<&Pool>,
    cancel: &CancelToken,
) -> Result<ScaVerdict, ScaError> {
    let [baseline, mitigated] = run_on_flow_impl(
        design,
        flow,
        config,
        seed,
        key_seed,
        [Mitigation::Baseline, Mitigation::DummyTsvs],
        pool,
        cancel,
    )?;
    Ok(ScaVerdict {
        baseline,
        mitigated,
    })
}

/// [`run_on_flow`] on the stepped reference: the same set-up and trace stream, with each
/// trace stepped through the state's network at the stack's ambient, `batch_traces`
/// (at least 1) traces per lockstep batch, instead of read off the kernel. The batch size
/// sets only the lane width, never a value. Serial, uncancellable, and it neither reads
/// nor fills the kernel memo.
#[cfg(test)]
pub(crate) fn run_on_flow_stepped(
    design: &Design,
    flow: &FlowResult,
    config: &AttackConfig,
    seed: u64,
    key_seed: u64,
    mitigation: Mitigation,
    batch_traces: usize,
) -> Result<ScaOutcome, ScaError> {
    let floorplan = flow.floorplan();
    let setup = prepare_attack(
        floorplan,
        &flow.scaled_powers,
        flow.post_process.as_ref().map(|pp| &pp.stability),
        config,
        seed,
        key_seed,
    )?;
    let fields = attack_tsv_fields(design, flow, setup.grid, mitigation);
    let thermal = ThermalConfig::default_for(floorplan.stack());
    let network = attack_network(floorplan, &fields, config, setup.grid, &thermal)?;
    let (cpa, transient_steps) =
        stream_traces(&setup, [network], batch_traces, config, &CancelToken::new())?
            .pop()
            .expect("one state");
    Ok(ScaOutcome {
        cpa: cpa.finish(),
        target_module: setup.target,
        transient_steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{flow_fixture, test_config};
    use crate::CpaResult;

    /// The ambient-0 network kernel extraction steps, built without the memo.
    fn unit_network(
        floorplan: &Floorplan,
        fields: &[TsvField],
        config: &AttackConfig,
    ) -> AttackNetwork {
        let thermal = ThermalConfig::default_for(floorplan.stack()).with_ambient(0.0);
        let grid = floorplan.analysis_grid(config.grid_bins);
        attack_network(floorplan, fields, config, grid, &thermal).unwrap()
    }

    fn bits(kernel: &Kernel) -> Vec<u64> {
        kernel.values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn kernel_temperatures_match_the_stepped_reference() {
        let (design, flow) = flow_fixture();
        let floorplan = flow.floorplan();
        let stability = flow.post_process.as_ref().map(|pp| &pp.stability);
        for config in [test_config(), AttackConfig::smoke()] {
            for mitigation in [Mitigation::Baseline, Mitigation::DummyTsvs] {
                let setup =
                    prepare_attack(floorplan, &flow.scaled_powers, stability, &config, 5, 11)
                        .unwrap();
                let fields = attack_tsv_fields(design, flow, setup.grid, mitigation);
                let thermal = ThermalConfig::default_for(floorplan.stack());
                let network =
                    attack_network(floorplan, &fields, &config, setup.grid, &thermal).unwrap();
                let kernel = extract_kernel(
                    Arc::new(unit_network(floorplan, &fields, &config)),
                    None,
                    &CancelToken::new(),
                )
                .unwrap();
                assert_eq!(kernel.steps_per_trace, network.steps_per_trace());
                let kernel = KernelResponse {
                    kernel: Arc::new(kernel),
                    ambient: setup.ambient,
                };
                let mut worst = 0.0f64;
                for (lo, hi) in ranges(config.traces, CHUNK_TRACES) {
                    let activities: Vec<TraceActivity> = (lo..hi)
                        .map(|trace| {
                            let mut rng = ChaCha8Rng::seed_from_u64(trace_seed(5, trace as u64));
                            setup.draws.workload.draw_trace(&mut rng)
                        })
                        .collect();
                    let (mut fast, mut reference) = (Vec::new(), Vec::new());
                    kernel.temperatures(&activities, &mut fast);
                    network.temperatures(&activities, &mut reference);
                    assert_eq!(fast.len(), (hi - lo) * config.sensors.points());
                    assert_eq!(fast.len(), reference.len());
                    for (a, b) in fast.iter().zip(&reference) {
                        worst = worst.max((a - b).abs());
                    }
                }
                assert!(
                    worst <= 1e-10,
                    "{} traces, {mitigation:?}: |T_kernel - T_stepped| reached {worst:e} K",
                    config.traces
                );
            }
        }
    }

    /// Repeated attacks hit the memo, so the engine comparisons over pools no longer
    /// exercise multi-worker extraction; this compares the uncached extraction itself.
    #[test]
    fn uncached_extraction_is_bit_identical_across_worker_counts() {
        let (design, flow) = flow_fixture();
        let floorplan = flow.floorplan();
        let pools = [Pool::new(1), Pool::new(2), Pool::new(4)];
        for config in [test_config(), AttackConfig::smoke()] {
            for mitigation in [Mitigation::Baseline, Mitigation::DummyTsvs] {
                let grid = floorplan.analysis_grid(config.grid_bins);
                let fields = attack_tsv_fields(design, flow, grid, mitigation);
                let network = Arc::new(unit_network(floorplan, &fields, &config));
                let extract =
                    |pool| extract_kernel(Arc::clone(&network), pool, &CancelToken::new()).unwrap();
                let serial = extract(None);
                assert_eq!(
                    serial.values.len(),
                    config.sensors.points() * floorplan.placements().len()
                );
                for pool in &pools {
                    let pooled = extract(Some(pool));
                    let label = format!("{mitigation:?}, {} workers", pool.threads());
                    assert_eq!(bits(&pooled), bits(&serial), "{label}");
                    assert_eq!(
                        (pooled.modules, pooled.steps_per_trace),
                        (serial.modules, serial.steps_per_trace),
                        "{label}"
                    );
                }
            }
        }
        for pool in &pools {
            pool.shutdown();
        }
    }

    /// A config whose dwell no other test uses, so its kernel's memo entry is this
    /// test's alone (the memo is process-wide and tests run in parallel).
    fn private_config(dwell_s: f64) -> AttackConfig {
        let mut config = test_config();
        config.sensors.dwell_s = dwell_s;
        config
    }

    #[test]
    fn a_memo_hit_returns_the_fresh_extraction_bit_for_bit() {
        let (design, flow) = flow_fixture();
        let config = private_config(0.0071);
        let mitigation = Mitigation::DummyTsvs;
        let grid = flow.floorplan().analysis_grid(config.grid_bins);
        let fields = attack_tsv_fields(design, flow, grid, mitigation);
        let key = KernelKey::new(flow.floorplan(), &fields, &config);
        assert!(memo::peek(&key).is_none());
        let attack = || run_on_flow(design, flow, &config, 5, 11, mitigation, None).unwrap();

        let missed = attack();
        let memoized = memo::peek(&key).expect("a completed miss memoizes its kernel");
        let fresh = extract_kernel(
            Arc::new(unit_network(flow.floorplan(), &fields, &config)),
            None,
            &CancelToken::new(),
        )
        .unwrap();
        assert_eq!(bits(&memoized), bits(&fresh));
        assert_eq!(
            (memoized.modules, memoized.steps_per_trace),
            (fresh.modules, fresh.steps_per_trace)
        );

        let hit = attack();
        assert_eq!(hit, missed);
        assert!(Arc::ptr_eq(&memo::peek(&key).unwrap(), &memoized));
        let reference = run_on_flow_stepped(design, flow, &config, 5, 11, mitigation, 8).unwrap();
        assert_eq!(hit, reference);
    }

    #[test]
    fn a_cancelled_extraction_memoizes_nothing() {
        let (design, flow) = flow_fixture();
        let config = private_config(0.0073);
        let mitigation = Mitigation::Baseline;
        let grid = flow.floorplan().analysis_grid(config.grid_bins);
        let fields = attack_tsv_fields(design, flow, grid, mitigation);
        let key = KernelKey::new(flow.floorplan(), &fields, &config);

        let cancel = CancelToken::new();
        cancel.cancel(tsc3d_exec::CancelReason::User);
        let pool = Pool::new(2);
        let err = run_on_flow_with_cancel(
            design,
            flow,
            &config,
            5,
            11,
            mitigation,
            Some(&pool),
            &cancel,
        )
        .unwrap_err();
        pool.shutdown();
        assert_eq!(err.kind(), "cancelled");
        assert!(
            memo::peek(&key).is_none(),
            "an interrupted extraction is not memoized"
        );

        let outcome = run_on_flow(design, flow, &config, 5, 11, mitigation, None).unwrap();
        let fresh = extract_kernel(
            Arc::new(unit_network(flow.floorplan(), &fields, &config)),
            None,
            &CancelToken::new(),
        )
        .unwrap();
        assert_eq!(bits(&memo::peek(&key).unwrap()), bits(&fresh));
        let reference = run_on_flow_stepped(design, flow, &config, 5, 11, mitigation, 8).unwrap();
        assert_eq!(outcome, reference);
    }

    /// One smoke verdict on the fixture floorplan (trace seed 5, key seed 11), recorded
    /// when `run_verdict` still ran two separate attacks, each drawing its own traces:
    /// per state, each byte's checkpoint verdicts (run-length), rank, MTD and
    /// correlation bit patterns, and the state's transient steps.
    #[test]
    fn smoke_verdict_matches_its_recorded_outputs() {
        let (design, flow) = flow_fixture();
        let config = AttackConfig::smoke();
        let verdict = run_verdict(design, flow, &config, 5, 11, None).unwrap();

        // The checkpoint verdicts come from the set-up and stream `run_verdict` runs.
        let grid = flow.floorplan().analysis_grid(config.grid_bins);
        let fields = [Mitigation::Baseline, Mitigation::DummyTsvs]
            .map(|mitigation| attack_tsv_fields(design, flow, grid, mitigation));
        let floorplan = flow.floorplan();
        let stability = flow.post_process.as_ref().map(|pp| &pp.stability);
        let setup =
            prepare_attack(floorplan, &flow.scaled_powers, stability, &config, 5, 11).unwrap();
        let responses = fields.iter().map(|fields| {
            let kernel = state_kernel(floorplan, fields, &config, grid, None, &CancelToken::new());
            KernelResponse {
                kernel: kernel.unwrap(),
                ambient: setup.ambient,
            }
        });
        let streamed = stream_traces(
            &setup,
            responses,
            CHUNK_TRACES,
            &config,
            &CancelToken::new(),
        )
        .unwrap();
        let runs: Vec<Vec<String>> = streamed.iter().map(|(cpa, _)| cpa.verdict_runs()).collect();
        assert_eq!(
            runs,
            [
                [
                    "0*2 89*1 228*1 164*3 136*1 216*1 184*1 97*1 117*1 56*2 215*7 132*2 66*1 \
                     187*168",
                    "0*2 15*1 167*1 191*2 169*1 0*1 169*1 44*1 0*1 53*181",
                ],
                [
                    "0*1 70*2 228*1 164*3 136*1 216*1 184*1 97*1 117*1 56*2 215*7 132*2 66*1 \
                     187*168",
                    "0*1 4*1 88*1 167*1 191*2 169*1 0*1 169*1 44*1 117*1 53*181",
                ],
            ]
        );
        let finished: Vec<CpaResult> = streamed.into_iter().map(|(cpa, _)| cpa.finish()).collect();
        assert_eq!(
            finished,
            [verdict.baseline.cpa.clone(), verdict.mitigated.cpa.clone()]
        );

        // Per byte: (true byte, MTD, correlation bits); every byte is recovered, so its
        // true and best correlations are one value.
        let pinned = [
            (
                &verdict.baseline,
                623_424,
                [
                    (187, Some(25), 0x3fe5_2060_33a2_69ec_u64),
                    (53, Some(12), 0x3fe6_054f_9377_fa30),
                ],
            ),
            (
                &verdict.mitigated,
                1_864_896,
                [
                    (187, Some(25), 0x3fe4_f69f_f3a5_ec9c),
                    (53, Some(12), 0x3fe5_ea24_47a9_d33e),
                ],
            ),
        ];
        for (outcome, steps, bytes) in pinned {
            assert_eq!(outcome.target_module, 55);
            assert_eq!(outcome.transient_steps, steps);
            assert_eq!(outcome.mtd_traces(), Some(25));
            assert_eq!(outcome.cpa.traces, 192);
            assert_eq!(outcome.cpa.checkpoints.len(), 192);
            assert_eq!(outcome.cpa.bytes.len(), bytes.len());
            for (byte, (true_byte, mtd, correlation)) in outcome.cpa.bytes.iter().zip(bytes) {
                assert_eq!(
                    (byte.true_byte, byte.best_guess, byte.rank, byte.mtd_traces),
                    (true_byte, true_byte, 1, mtd)
                );
                assert_eq!(byte.true_correlation.to_bits(), correlation);
                assert_eq!(byte.best_correlation.to_bits(), correlation);
            }
        }
    }

    /// Asserts two verdicts equal bit for bit: `==` on every field, and the correlation
    /// bit patterns, which `==` would let differ by the sign of a zero.
    fn assert_bitwise(fused: &ScaVerdict, separate: &ScaVerdict, label: &str) {
        assert_eq!(fused, separate, "{label}");
        let bits = |verdict: &ScaVerdict| -> Vec<u64> {
            [&verdict.baseline, &verdict.mitigated]
                .iter()
                .flat_map(|outcome| &outcome.cpa.bytes)
                .flat_map(|byte| [byte.true_correlation, byte.best_correlation])
                .map(f64::to_bits)
                .collect()
        };
        assert_eq!(bits(fused), bits(separate), "{label}");
    }

    /// `run_verdict` streams one trace sequence into both states; it must equal one
    /// separate attack per state bit for bit. Covered: both presets, 1 and 3 key bytes,
    /// both leakage models, unquantized and noise-free sensors, 18 points, 13 traces (a
    /// short last chunk), pools of 0 and 4 workers, and a cold kernel memo on either side.
    #[test]
    fn a_verdict_equals_one_attack_per_state_bit_for_bit() {
        let (design, flow) = flow_fixture();
        let pool = Pool::new(4);
        let edit = |mut config: AttackConfig, change: fn(&mut AttackConfig)| {
            change(&mut config);
            config
        };
        let configs = [
            ("quick", test_config()),
            ("smoke", AttackConfig::smoke()),
            ("1 byte", edit(test_config(), |c| c.workload.key_bytes = 1)),
            (
                "smoke, 3 bytes, hd",
                edit(AttackConfig::smoke(), |c| {
                    c.workload.key_bytes = 3;
                    c.workload.leakage = LeakageModel::HammingDistance;
                }),
            ),
            (
                "hd",
                edit(test_config(), |c| {
                    c.workload.leakage = LeakageModel::HammingDistance
                }),
            ),
            (
                "unquantized",
                edit(test_config(), |c| c.sensors.quantization_k = 0.0),
            ),
            (
                "smoke, noise-free",
                edit(AttackConfig::smoke(), |c| c.sensors.sigma_k = 0.0),
            ),
            (
                "18 points",
                edit(test_config(), |c| c.sensors.samples_per_trace = 2),
            ),
            (
                "13 traces",
                edit(test_config(), |c| {
                    c.traces = 13;
                    c.mtd_checkpoints = 13;
                }),
            ),
        ];
        let separate = |config: &AttackConfig, (seed, key_seed), pool: Option<&Pool>| {
            let attack = |mitigation| {
                run_on_flow(design, flow, config, seed, key_seed, mitigation, pool).unwrap()
            };
            ScaVerdict {
                baseline: attack(Mitigation::Baseline),
                mitigated: attack(Mitigation::DummyTsvs),
            }
        };
        let fused = |config: &AttackConfig, (seed, key_seed), pool: Option<&Pool>| {
            run_verdict(design, flow, config, seed, key_seed, pool).unwrap()
        };
        let seeds = [(5, 11), (9, 2)];
        for (name, config) in &configs {
            for pool in [None, Some(&pool)] {
                for seeds in seeds {
                    let workers = pool.map_or(0, Pool::threads);
                    let label = format!("{name}, seeds {seeds:?}, {workers} workers");
                    assert_bitwise(
                        &fused(config, seeds, pool),
                        &separate(config, seeds, pool),
                        &label,
                    );
                }
            }
        }

        // Cold kernel memos: geometries no other test uses, so the first call extracts.
        let cold = |dwell_s| {
            let config = private_config(dwell_s);
            let grid = flow.floorplan().analysis_grid(config.grid_bins);
            for mitigation in [Mitigation::Baseline, Mitigation::DummyTsvs] {
                let fields = attack_tsv_fields(design, flow, grid, mitigation);
                assert!(memo::peek(&KernelKey::new(flow.floorplan(), &fields, &config)).is_none());
            }
            config
        };
        let config = cold(0.0077);
        let first = fused(&config, seeds[0], Some(&pool));
        assert_bitwise(&first, &separate(&config, seeds[0], None), "cold verdict");
        let config = cold(0.0079);
        let first = separate(&config, seeds[1], Some(&pool));
        assert_bitwise(&fused(&config, seeds[1], None), &first, "cold attacks");
        pool.shutdown();
    }

    #[test]
    fn kernel_parts_use_specialised_widths() {
        // The 3×3 array alone or on a one-worker pool (plus the helping caller): an
        // 8-lane part and a 1-lane part.
        assert_eq!(kernel_parts(9, 1), vec![(0, 8), (8, 9)]);
        assert_eq!(kernel_parts(9, 2), vec![(0, 8), (8, 9)]);
        assert_eq!(kernel_parts(16, 2), vec![(0, 8), (8, 16)]);
        assert_eq!(kernel_parts(4, 2), vec![(0, 2), (2, 4)]);
        assert_eq!(
            kernel_parts(9, 5),
            vec![(0, 2), (2, 4), (4, 6), (6, 8), (8, 9)]
        );
        assert_eq!(kernel_parts(1, 4), vec![(0, 1)]);
    }
}
