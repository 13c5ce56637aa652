//! End-to-end trace-level attack scenarios on flow-produced floorplans.
//!
//! A scenario takes the outputs of the TSC-aware flow — the floorplan, the
//! voltage-scaled block powers and the final TSV plan — and evaluates the CPA attack
//! twice out of the same [`FlowResult`]: once against the unmitigated baseline (signal
//! TSVs only) and once against the decorrelated floorplan (signal *plus* dummy TSVs),
//! reporting the [`ScaVerdict`]: did the mitigation raise the attacker's
//! measurements-to-disclosure?

use crate::cpa::{CpaAccumulator, CpaResult};
use crate::memo::{self, Kernel, KernelKey};
use crate::sensor::SensorConfig;
use crate::workload::{derive_key, LeakageModel, TraceActivity, Workload, WorkloadConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use tsc3d::FlowResult;
use tsc3d_exec::{CancelToken, Interrupt, Pool};
use tsc3d_floorplan::{plan_signal_tsvs, Floorplan, PowerStamps};
use tsc3d_geometry::{DieId, Grid, GridMap, GridPos};
use tsc3d_netlist::Design;
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
        if self.workload.background_sigma < 0.0 {
            return fail("background_sigma must be non-negative".into());
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
        if self.sensors.sigma_k < 0.0 || self.sensors.quantization_k < 0.0 {
            return fail("sensor sigma and quantization must be non-negative".into());
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
    /// The attack was cancelled at a trace-batch checkpoint.
    Cancelled {
        /// Why the token fired.
        reason: tsc3d_exec::CancelReason,
    },
    /// The attack's deadline expired at a trace-batch checkpoint.
    DeadlineExceeded,
    /// A fault-injection hook fired at a checkpoint (chaos testing only).
    Fault {
        /// The fault site that fired.
        site: &'static str,
    },
}

impl std::fmt::Display for ScaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScaError::InvalidConfig { reason } => write!(f, "invalid sca config: {reason}"),
            ScaError::Solve(e) => write!(f, "transient setup failed: {e}"),
            ScaError::NoTargetModule { die } => {
                write!(f, "no module placed on the instrumented die {die}")
            }
            ScaError::Cancelled { reason } => write!(f, "sca attack cancelled ({reason})"),
            ScaError::DeadlineExceeded => write!(f, "sca attack deadline exceeded"),
            ScaError::Fault { site } => write!(f, "injected fault at {site}"),
        }
    }
}

impl std::error::Error for ScaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScaError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolveError> for ScaError {
    fn from(e: SolveError) -> Self {
        match e {
            SolveError::Interrupted { interrupt, .. } => ScaError::from_interrupt(interrupt),
            other => ScaError::Solve(other),
        }
    }
}

impl ScaError {
    /// Stable variant tag for failure aggregation.
    ///
    /// Cancellation kinds match the flow's: `cancelled`, `shutdown`, `deadline`,
    /// `fault-injected`.
    pub fn kind(&self) -> &'static str {
        match self {
            ScaError::InvalidConfig { .. } => "sca-invalid-config",
            ScaError::Solve(_) => "sca-solve",
            ScaError::NoTargetModule { .. } => "sca-no-target",
            ScaError::Cancelled { reason } => reason.kind(),
            ScaError::DeadlineExceeded => "deadline",
            ScaError::Fault { .. } => "fault-injected",
        }
    }

    /// Maps a checkpoint [`Interrupt`] to the matching typed variant (deadline
    /// cancellations become [`ScaError::DeadlineExceeded`]).
    pub fn from_interrupt(interrupt: Interrupt) -> ScaError {
        match interrupt {
            Interrupt::Cancelled(tsc3d_exec::CancelReason::Deadline) => ScaError::DeadlineExceeded,
            Interrupt::Cancelled(reason) => ScaError::Cancelled { reason },
            Interrupt::Fault(fault) => ScaError::Fault { site: fault.site },
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
    /// steps_for(sample_dt)`, the explicit-Euler steps each trace's response spans. The
    /// same for both engines, and for a kernel memo hit or miss; only
    /// [`TraceEngine::Batched`] steps them all. The kernel engine steps `sensors ×
    /// samples_per_trace × steps_for(sample_dt)` lane-steps per extraction (memo misses
    /// only), counted by `tsc3d_sca_kernel_steps_total` and the `sca_kernel` span.
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

/// Traces per chunk of the kernel engine: the unit in which traces are evaluated, folded
/// into the CPA sums and polled at the `sca-batch` checkpoint.
const CHUNK_TRACES: usize = 8;

/// Kernel extraction polls the cancel token at least once per this many substeps.
const KERNEL_POLL_STEPS: usize = 512;

/// The widest part of sensor lanes one kernel extraction batch steps: a lane count
/// [`BatchTransientSolver`] steps with a specialised kernel, and one AVX-512 vector of
/// `f64`. On a 2-vCPU AVX-512 Xeon, interleaved `verdict` benchmark runs (9 sensors)
/// read 5–9% fewer ops/s with parts of 4 lanes and ~30% fewer with one part padded to 16.
const MAX_KERNEL_LANES: usize = 8;

/// Which trace-simulation engine evaluates the attack.
///
/// Both engines draw the same seeded traces, step the same network through the same
/// substeps, and run the same acquisition chain. They differ only in how a trace's true
/// sensor temperatures are computed.
///
/// **Why the kernel is exact.** For one (floorplan, mitigation state) the RC network is
/// linear and time-invariant, every trace starts from ambient, and its power is constant
/// over the dwell. Conductances are symmetric and capacities diagonal, so the
/// explicit-Euler operator `A = I − dt·C⁻¹G` satisfies `Aᵏ·C⁻¹ = (Aᵏ·C⁻¹)ᵀ`
/// (reciprocity). The stepped rise at sensor `s` under a power vector `P` therefore
/// equals `⟨θ_s, P⟩`, where `θ_s` is the field that 1 W injected at `s` produces on an
/// ambient-0 copy of the network after the same substeps.
///
/// **How closely the engines agree.** Their true temperatures differ only by rounding
/// (summation order). The equivalence tests bound the difference by 1e-10 K at every
/// trace, sample and sensor; measured, it stays below 4e-13 K (7 ULP at 293 K). An ADC
/// code changes only when the noisy reading lies within that distance of a quantisation
/// boundary, so with quantised sensors every acquired sample, and with them the whole
/// [`ScaOutcome`], is identical. The tests check this on the quick and smoke
/// configurations in both mitigation states. Unquantised sensors (`quantization_k = 0`)
/// agree to the 1e-10 K bound only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceEngine {
    /// The reciprocity-kernel engine (default). Each attack steps one lane per *sensor*,
    /// not per trace: 1 W injected at the sensor's node on the sensor die's active
    /// layer, through the attack's exact `advance(sample_dt)` substeps. At each sample
    /// time every lane's field is folded through the floorplan's power stamps into a
    /// `samples × sensors × modules` kernel `K`. Trace `t` then reads
    /// `ambient + Σ_m p_m·K[j][s][m]` at sample `j` and sensor `s`, summed in
    /// module-index order.
    ///
    /// The sensor lanes are split over the pool in parts padded to a specialised lane
    /// width. Extraction polls the cancel token at least every 512 substeps.
    ///
    /// **The kernel memo.** A kernel depends only on what extraction reads, so one
    /// process-wide memo keeps it across attacks. Its key is the exact bits of the
    /// stack and outline, the attack grid's bin count, every placement's block, die and
    /// rectangle, every TSV field's grid and density map, and the sensor die, array size,
    /// samples per trace and dwell. Keys compare in full; the hash only picks the bucket.
    /// The key leaves out what never reaches the kernel: sensor noise and quantisation,
    /// the workload, the key and trace seeds, the trace count, the checkpoints, the target
    /// policy, the nominal powers and the pool. A hit needs no network: the entry keeps
    /// the kernel with its trace-equivalent steps per trace. A miss extracts as described
    /// above (pool fan-out, cancel polls, the `sca_kernel` span and
    /// `tsc3d_sca_kernel_steps_total`) and memoizes the result; an interrupted or failed
    /// extraction memoizes nothing. Two concurrent misses on one key may both extract;
    /// their kernels are bit-identical and the first inserted is kept. Entries weigh
    /// their key and kernel bytes against a fixed 4 MiB budget, least recently used first
    /// out, and a kernel larger than the budget is never kept. Each attack counts one
    /// lookup in `tsc3d_sca_kernel_cache_total{outcome="hit"|"miss"}`.
    #[default]
    Kernel,
    /// The reference engine: lockstep SoA stepping of every trace, `batch_traces`
    /// traces sharing one conductance network and advancing through every substep
    /// together. Each lane is bit-identical to the scalar [`TransientSolver`]. It runs
    /// on the calling thread; a pool passed alongside it goes unused.
    Batched {
        /// Traces per lockstep batch (at least 1).
        batch_traces: usize,
    },
}

/// One chunk's simulated traces, in trace order.
struct ChunkTraces {
    plaintexts: Vec<u8>,
    samples: Vec<f64>,
    steps: u64,
}

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

/// The physics of one trace engine: the true (pre-acquisition) sensor temperatures of
/// given traces.
trait ThermalResponse {
    /// The span wrapping one chunk's simulation.
    const SPAN: &'static str;

    /// Appends the true sensor temperatures of every trace to `out`, laid out
    /// `trace × sample × sensor`.
    fn temperatures(&self, activities: &[TraceActivity], out: &mut Vec<f64>);
}

/// What both engines step: one shared [`BatchTransientSolver`] (network and capacities
/// built once per mitigation state), the floorplan's precomputed [`PowerStamps`] on its
/// grid, and the sensor array. As the [`TraceEngine::Batched`] response it steps one lane
/// per trace; the kernel engine steps one lane per sensor through it.
struct AttackNetwork {
    solver: BatchTransientSolver,
    stamps: PowerStamps,
    sensors: SensorConfig,
    positions: Vec<GridPos>,
    sample_dt: f64,
}

impl AttackNetwork {
    /// Trace-equivalent transient steps per trace.
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
                        .map_err(|reason| ScaError::from_interrupt(Interrupt::Cancelled(reason)))?;
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
}

/// The evaluator behind [`TraceEngine::Kernel`]: each temperature is a dot product of
/// the trace's module powers with one row of the extracted kernel.
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
}

/// Trace generation around a [`ThermalResponse`]. Each trace draws its workload from its
/// own seeded rng, takes its true temperatures from the engine, then feeds them through
/// the acquisition chain on the same rng (sample-major, sensor-minor).
struct TraceSource<R> {
    response: R,
    workload: Workload,
    sensors: SensorConfig,
    seed: u64,
    /// Trace-equivalent transient steps per trace.
    steps_per_trace: u64,
}

impl<R: ThermalResponse> TraceSource<R> {
    /// Simulates the traces `range.0..range.1`.
    fn simulate(&self, range: (usize, usize)) -> ChunkTraces {
        let _span = tsc3d_obs::span!(R::SPAN);
        let (lo, hi) = range;
        let (mut rngs, activities): (Vec<ChaCha8Rng>, Vec<TraceActivity>) = (lo..hi)
            .map(|trace| {
                let mut rng = ChaCha8Rng::seed_from_u64(trace_seed(self.seed, trace as u64));
                let activity = self.workload.draw_trace(&mut rng);
                (rng, activity)
            })
            .unzip();
        let points = self.sensors.points();
        let mut samples = Vec::with_capacity(activities.len() * points);
        self.response.temperatures(&activities, &mut samples);
        for (rng, row) in rngs.iter_mut().zip(samples.chunks_exact_mut(points)) {
            for sample in row {
                *sample = self.sensors.acquire(*sample, rng);
            }
        }
        let traces = activities.len() as u64;
        let steps = traces * self.steps_per_trace;
        tsc3d_obs::add_to_span("traces", traces);
        tsc3d_obs::add_to_span("transient_steps", steps);
        ChunkTraces {
            plaintexts: activities
                .iter()
                .flat_map(|activity| activity.plaintexts.iter().copied())
                .collect(),
            samples,
            steps,
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
    let kernel_steps = sensors as u64 * steps_per_trace;
    tsc3d_obs::add_to_span("kernel_steps", kernel_steps);
    crate::obs_metrics::get().kernel_steps.add(kernel_steps);
    Ok(Kernel {
        values: kernel,
        modules,
        steps_per_trace,
    })
}

/// Folds one chunk's traces into the CPA sums, in trace order.
fn consume_chunk(cpa: &mut CpaAccumulator, chunk: &ChunkTraces, key_bytes: usize, points: usize) {
    let _span = tsc3d_obs::span!("cpa_fold");
    for (plaintexts, samples) in chunk
        .plaintexts
        .chunks_exact(key_bytes)
        .zip(chunk.samples.chunks_exact(points))
    {
        cpa.push(plaintexts, samples);
    }
}

/// Simulates the trace chunks one at a time and folds each into the CPA sums in trace
/// order (memory `O(chunk × points)`), returning the total (trace-equivalent) transient
/// step count.
///
/// `cancel` is polled at the `sca-batch` checkpoint once per chunk, so the hit count of
/// that fault site is exactly the chunk count on a fault-free run. An interrupt abandons
/// the remaining chunks.
fn stream_batches<R: ThermalResponse>(
    source: &TraceSource<R>,
    chunks: Vec<(usize, usize)>,
    cpa: &mut CpaAccumulator,
    cancel: &CancelToken,
) -> Result<u64, ScaError> {
    let key_bytes = source.workload.config().key_bytes;
    let points = source.sensors.points();
    let mut steps = 0u64;
    for range in chunks {
        tsc3d_exec::checkpoint("sca-batch", cancel).map_err(ScaError::from_interrupt)?;
        let chunk = source.simulate(range);
        steps += chunk.steps;
        consume_chunk(cpa, &chunk, key_bytes, points);
    }
    Ok(steps)
}

/// Runs one attack evaluation against explicit TSV fields.
///
/// `nominal_powers` are the per-block baseline powers (voltage-scaled); `stability` is
/// the flow's correlation-stability map when available (the
/// [`TargetPolicy::MostStable`] input); `seed` drives the traces (plaintexts, background
/// traffic, sensor noise) and `key_seed` the secret key. With a pool, kernel extraction
/// fans out over the workers; the per-trace seeding makes the result **bit-identical**
/// for any worker count (including none).
///
/// # Errors
///
/// Returns a [`ScaError`] for invalid configurations, mismatched TSV fields, or a die
/// without modules.
#[allow(clippy::too_many_arguments)]
pub fn run_attack(
    floorplan: &Floorplan,
    nominal_powers: &[f64],
    tsv_fields: &[TsvField],
    stability: Option<&tsc3d_leakage::StabilityMap>,
    config: &AttackConfig,
    seed: u64,
    key_seed: u64,
    pool: Option<&Pool>,
) -> Result<ScaOutcome, ScaError> {
    run_attack_impl(
        floorplan,
        nominal_powers,
        tsv_fields,
        stability,
        config,
        seed,
        key_seed,
        TraceEngine::default(),
        pool,
        &CancelToken::new(),
    )
}

/// The validated, target-resolved inputs shared by both trace engines.
struct AttackSetup {
    /// The stack's ambient temperature, which every trace starts from.
    ambient: f64,
    target: usize,
    workload: Workload,
    sensors: SensorConfig,
}

/// [`TraceEngine::Kernel`]'s kernel as the memo lookup found it.
enum KernelLookup {
    /// A hit: the memoized kernel; no network is built.
    Hit(Arc<Kernel>),
    /// A miss: the ambient-0 network to extract the kernel from, and the key to memoize
    /// it under.
    Miss(KernelKey, Arc<AttackNetwork>),
}

/// How an attack computes its true sensor temperatures.
enum Physics {
    /// [`TraceEngine::Kernel`].
    Kernel(KernelLookup),
    /// [`TraceEngine::Batched`]: the network every trace steps through.
    Stepped {
        network: Box<AttackNetwork>,
        batch_traces: usize,
    },
}

/// The transient network an attack steps, the expensive part of its set-up: the batched
/// engine builds it for every attack, the kernel engine only on a memo miss.
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

/// Validates the configuration and resolves everything the engines share: the attacked
/// module, the key, and the engine's physics. The kernel engine looks its kernel up in
/// the memo and builds the network only on a miss.
fn prepare_attack(
    floorplan: &Floorplan,
    nominal_powers: &[f64],
    tsv_fields: &[TsvField],
    stability: Option<&tsc3d_leakage::StabilityMap>,
    config: &AttackConfig,
    key_seed: u64,
    engine: TraceEngine,
) -> Result<(AttackSetup, Physics), ScaError> {
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
    let thermal_config = ThermalConfig::default_for(floorplan.stack());
    let ambient = thermal_config.ambient;
    let physics = match engine {
        TraceEngine::Kernel => {
            let key = KernelKey::new(floorplan, tsv_fields, config);
            Physics::Kernel(match memo::lookup(&key) {
                Some(kernel) => KernelLookup::Hit(kernel),
                // The kernel engine steps unit-power responses: rises over ambient.
                None => {
                    let unit = thermal_config.with_ambient(0.0);
                    let network = attack_network(floorplan, tsv_fields, config, grid, &unit)?;
                    KernelLookup::Miss(key, Arc::new(network))
                }
            })
        }
        TraceEngine::Batched { batch_traces } => Physics::Stepped {
            network: Box::new(attack_network(
                floorplan,
                tsv_fields,
                config,
                grid,
                &thermal_config,
            )?),
            batch_traces,
        },
    };
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
    let setup = AttackSetup {
        ambient,
        target,
        workload,
        sensors: config.sensors,
    };
    Ok((setup, physics))
}

/// The cancellable core behind every attack entry point: polls `cancel` at the
/// `sca-batch` checkpoint once per consumed trace chunk, and during kernel extraction
/// directly at least every [`KERNEL_POLL_STEPS`] substeps.
#[allow(clippy::too_many_arguments)]
fn run_attack_impl(
    floorplan: &Floorplan,
    nominal_powers: &[f64],
    tsv_fields: &[TsvField],
    stability: Option<&tsc3d_leakage::StabilityMap>,
    config: &AttackConfig,
    seed: u64,
    key_seed: u64,
    engine: TraceEngine,
    pool: Option<&Pool>,
    cancel: &CancelToken,
) -> Result<ScaOutcome, ScaError> {
    let _span = tsc3d_obs::span!("sca_attack");
    if let TraceEngine::Batched { batch_traces: 0 } = engine {
        return Err(ScaError::InvalidConfig {
            reason: "batch_traces must be >= 1".into(),
        });
    }
    let (setup, physics) = prepare_attack(
        floorplan,
        nominal_powers,
        tsv_fields,
        stability,
        config,
        key_seed,
        engine,
    )?;
    let mut cpa = CpaAccumulator::new(
        setup.workload.key(),
        config.workload.leakage,
        config.sensors.points(),
        config.traces,
        config.mtd_checkpoints,
    );
    let target = setup.target;
    let transient_steps = match physics {
        Physics::Kernel(lookup) => {
            let source = kernel_source(lookup, setup, seed, pool, cancel)?;
            let chunks = ranges(config.traces, CHUNK_TRACES);
            stream_batches(&source, chunks, &mut cpa, cancel)?
        }
        Physics::Stepped {
            network,
            batch_traces,
        } => {
            // Fixed-size lockstep batches (the last one may be short); the batch
            // boundary only affects the SoA lane width, never values.
            let chunks = ranges(config.traces, batch_traces);
            let source = stepped_source(*network, setup, seed);
            stream_batches(&source, chunks, &mut cpa, cancel)?
        }
    };
    let outcome = ScaOutcome {
        cpa: cpa.finish(),
        target_module: target,
        transient_steps,
    };
    let metrics = crate::obs_metrics::get();
    metrics.attacks.inc();
    metrics.traces.add(config.traces as u64);
    metrics.transient_steps.add(outcome.transient_steps);
    tsc3d_obs::add_to_span("traces", config.traces as u64);
    tsc3d_obs::add_to_span("transient_steps", outcome.transient_steps);
    Ok(outcome)
}

/// [`TraceEngine::Kernel`]'s trace source: takes the memoized kernel, or on a miss
/// extracts it (over the pool, polling `cancel`) and memoizes it, then evaluates traces
/// against it. An interrupted extraction memoizes nothing.
fn kernel_source(
    lookup: KernelLookup,
    setup: AttackSetup,
    seed: u64,
    pool: Option<&Pool>,
    cancel: &CancelToken,
) -> Result<TraceSource<KernelResponse>, ScaError> {
    let kernel = match lookup {
        KernelLookup::Hit(kernel) => kernel,
        KernelLookup::Miss(key, network) => {
            memo::memoize(key, extract_kernel(network, pool, cancel)?)
        }
    };
    Ok(TraceSource {
        steps_per_trace: kernel.steps_per_trace,
        response: KernelResponse {
            kernel,
            ambient: setup.ambient,
        },
        workload: setup.workload,
        sensors: setup.sensors,
        seed,
    })
}

/// [`TraceEngine::Batched`]'s trace source: steps every trace.
fn stepped_source(
    network: AttackNetwork,
    setup: AttackSetup,
    seed: u64,
) -> TraceSource<AttackNetwork> {
    TraceSource {
        steps_per_trace: network.steps_per_trace(),
        response: network,
        workload: setup.workload,
        sensors: setup.sensors,
        seed,
    }
}

/// Runs one attack evaluation out of a [`FlowResult`], against the chosen mitigation
/// state of the *same* floorplan.
///
/// # Errors
///
/// See [`run_attack`].
pub fn run_on_flow(
    design: &Design,
    flow: &FlowResult,
    config: &AttackConfig,
    seed: u64,
    key_seed: u64,
    mitigation: Mitigation,
    pool: Option<&Pool>,
) -> Result<ScaOutcome, ScaError> {
    run_on_flow_with(
        design,
        flow,
        config,
        seed,
        key_seed,
        mitigation,
        TraceEngine::default(),
        pool,
    )
}

/// [`run_on_flow`] with an explicit [`TraceEngine`] — the extension point the bench
/// harness and the equivalence tests use to select the batched reference engine and pin
/// its batch size.
///
/// # Errors
///
/// See [`run_attack`]; additionally rejects a zero batch size.
#[allow(clippy::too_many_arguments)]
pub fn run_on_flow_with(
    design: &Design,
    flow: &FlowResult,
    config: &AttackConfig,
    seed: u64,
    key_seed: u64,
    mitigation: Mitigation,
    engine: TraceEngine,
    pool: Option<&Pool>,
) -> Result<ScaOutcome, ScaError> {
    run_on_flow_impl(
        design,
        flow,
        config,
        seed,
        key_seed,
        mitigation,
        engine,
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
/// See [`run_attack`], plus [`ScaError::Cancelled`]/[`ScaError::DeadlineExceeded`] when
/// the token fires mid-attack.
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
    run_on_flow_impl(
        design,
        flow,
        config,
        seed,
        key_seed,
        mitigation,
        TraceEngine::default(),
        pool,
        cancel,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_on_flow_impl(
    design: &Design,
    flow: &FlowResult,
    config: &AttackConfig,
    seed: u64,
    key_seed: u64,
    mitigation: Mitigation,
    engine: TraceEngine,
    pool: Option<&Pool>,
    cancel: &CancelToken,
) -> Result<ScaOutcome, ScaError> {
    config.validate()?;
    let grid = flow.floorplan().analysis_grid(config.grid_bins);
    let fields = attack_tsv_fields(design, flow, grid, mitigation);
    run_attack_impl(
        flow.floorplan(),
        &flow.scaled_powers,
        &fields,
        flow.post_process.as_ref().map(|pp| &pp.stability),
        config,
        seed,
        key_seed,
        engine,
        pool,
        cancel,
    )
}

/// Evaluates the attack against both mitigation states of one [`FlowResult`] — identical
/// traces (same seeds), identical sensors, only the dummy TSVs differ — and returns the
/// [`ScaVerdict`].
///
/// # Errors
///
/// See [`run_attack`].
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

/// [`run_verdict`] polling `cancel` at the `sca-batch` checkpoint (once per consumed
/// trace chunk of either mitigation state) and during kernel extraction — the serve
/// daemon's cancellation and deadline path.
///
/// A run that completes is bit-identical to an uncancelled [`run_verdict`]: the token is
/// only *read* at checkpoints and never touches the seeded trace streams.
///
/// # Errors
///
/// See [`run_attack`]; additionally [`ScaError::Cancelled`],
/// [`ScaError::DeadlineExceeded`] or [`ScaError::Fault`] when the token (or an armed
/// fault plan) fires mid-attack.
pub fn run_verdict_with_cancel(
    design: &Design,
    flow: &FlowResult,
    config: &AttackConfig,
    seed: u64,
    key_seed: u64,
    pool: Option<&Pool>,
    cancel: &CancelToken,
) -> Result<ScaVerdict, ScaError> {
    let baseline = run_on_flow_impl(
        design,
        flow,
        config,
        seed,
        key_seed,
        Mitigation::Baseline,
        TraceEngine::default(),
        pool,
        cancel,
    )?;
    let mitigated = run_on_flow_impl(
        design,
        flow,
        config,
        seed,
        key_seed,
        Mitigation::DummyTsvs,
        TraceEngine::default(),
        pool,
        cancel,
    )?;
    Ok(ScaVerdict {
        baseline,
        mitigated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{flow_fixture, test_config};

    /// The ambient-0 network the kernel engine extracts from, built without the memo.
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
                let grid = floorplan.analysis_grid(config.grid_bins);
                let fields = attack_tsv_fields(design, flow, grid, mitigation);
                let (setup, physics) = prepare_attack(
                    floorplan,
                    &flow.scaled_powers,
                    &fields,
                    stability,
                    &config,
                    11,
                    TraceEngine::Batched { batch_traces: 8 },
                )
                .unwrap();
                let Physics::Stepped { network, .. } = physics else {
                    panic!("the batched engine steps its network");
                };
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
                            setup.workload.draw_trace(&mut rng)
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
        let stepped = TraceEngine::Batched { batch_traces: 8 };
        let reference =
            run_on_flow_with(design, flow, &config, 5, 11, mitigation, stepped, None).unwrap();
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
        let stepped = TraceEngine::Batched { batch_traces: 8 };
        let reference =
            run_on_flow_with(design, flow, &config, 5, 11, mitigation, stepped, None).unwrap();
        assert_eq!(outcome, reference);
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
