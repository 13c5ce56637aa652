//! Trace-level thermal side-channel analysis (`tsc3d-sca`).
//!
//! The rest of the workspace scores *steady-state* thermal maps with correlation and
//! entropy statistics — defender-side metrics. This crate states the mitigation's value
//! in the **attacker's own currency**: it simulates a key-dependent workload over time,
//! reads the stack through a realistic sensor model, mounts a CPA attack, and reports
//! **measurements-to-disclosure (MTD)** — how many traces until the key falls — for the
//! dummy-TSV-decorrelated floorplan vs. the unmitigated baseline, both derived from the
//! *same* [`tsc3d::FlowResult`]. The approach follows the trace-based thermal attacks of
//! Gu et al. ("Thermal-Aware 3D Design for Side-Channel Information Leakage") layered on
//! this repo's flow.
//!
//! The pipeline has four layers:
//!
//! 1. **Workload** ([`workload`]): a toy AES-128 first-round S-box target. Each trace is
//!    one encryption of a random plaintext dwelt on long enough for the thermal response
//!    to integrate the data-dependent power (Hamming-weight or Hamming-distance model),
//!    plus Gaussian background traffic on every module (the
//!    [`tsc3d_power::ActivitySampler`] convention).
//! 2. **Transient thermal simulation** ([`scenario`]): the spatial engine
//!    [`tsc3d_thermal::TransientSolver`] models the flow's floorplan (power maps, signal
//!    and dummy TSVs) through each trace's dwell. Its network is linear, time-invariant
//!    and reciprocal, and every trace starts from ambient under constant power, so an
//!    attack steps one lane *per sensor* (1 W at the sensor) through the dwell's
//!    substeps and evaluates every trace as a dot product of its module powers with that
//!    response kernel. The crate's tests keep a stepper that advances every trace as the
//!    reference: the two agree within 1e-10 K before acquisition, and identically after
//!    quantised acquisition. The kernel depends only on the floorplan, its TSV fields and
//!    the sensor geometry, so a bounded process-wide memo keeps it: every later attack on
//!    the same floorplan, mitigation state and sensor geometry (any key, noise level or
//!    trace count) skips the stepping and goes straight to trace evaluation and CPA (see
//!    the [`scenario`] module).
//! 3. **Sensors** ([`sensor`]): an `s × s` array on the exposed die, sampled at a finite
//!    period, quantized and noisy (the [`tsc3d_attack::NoisyOracle`] noise conventions).
//! 4. **CPA + MTD** ([`cpa`]): Pearson correlation of hypothetical leakage against the
//!    sensor traces per key-byte guess — recovered bytes, guessing entropy and MTD, with
//!    disclosure evaluated at checkpoints so MTD is a first-class number. The running
//!    sums are point-major and each checkpoint's winner comes from an exact screen, both
//!    bit-identical to a per-guess loop.
//!
//! [`scenario::run_verdict`] ties it together: one trace stream, drawn once, read through
//! both mitigation states of one flow, returning a [`ScaVerdict`]. Every stage is
//! deterministic under a seed, with per-trace rng streams, so results are bit-identical
//! for any [`tsc3d_exec::Pool`] worker count — the property the campaign layer's
//! resumable, sharded sca jobs rely on.
//!
//! # Example
//!
//! ```no_run
//! use tsc3d::{FlowConfig, Setup, TscFlow};
//! use tsc3d_netlist::suite::{generate, Benchmark};
//! use tsc3d_sca::{run_verdict, AttackConfig};
//!
//! let design = generate(Benchmark::N100, 1);
//! let flow = TscFlow::new(FlowConfig::quick(Setup::TscAware))
//!     .run(&design, 3)
//!     .unwrap();
//! let verdict = run_verdict(&design, &flow, &AttackConfig::quick(), 7, 11, None).unwrap();
//! println!(
//!     "baseline MTD {:?}, mitigated MTD {:?}",
//!     verdict.baseline.mtd_traces(),
//!     verdict.mitigated.mtd_traces()
//! );
//! ```

#![warn(missing_docs)]

pub mod cpa;
mod memo;
pub mod scenario;
pub mod sensor;
pub mod workload;

pub use cpa::{ByteResult, CpaAccumulator, CpaResult};
pub use scenario::{
    attack_tsv_fields, resolve_target, run_on_flow, run_on_flow_with_cancel, run_verdict,
    run_verdict_with_cancel, AttackConfig, Mitigation, ScaError, ScaOutcome, ScaVerdict,
    TargetPolicy,
};
pub use sensor::SensorConfig;
pub use workload::{derive_key, LeakageModel, TraceActivity, Workload, WorkloadConfig, SBOX};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use tsc3d::{display_chain, FlowConfig, FlowError, FlowResult, FlowStage, Setup, TscFlow};
    use tsc3d_exec::{CancelReason, InjectedFault, Interrupt, Pool};
    use tsc3d_netlist::suite::{generate, Benchmark};
    use tsc3d_netlist::Design;

    /// One shared quick flow for every end-to-end test (the flow is the expensive part).
    pub(crate) fn flow_fixture() -> &'static (Design, FlowResult) {
        static FIXTURE: OnceLock<(Design, FlowResult)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let design = generate(Benchmark::N100, 1);
            let mut config = FlowConfig::quick(Setup::TscAware);
            config.schedule.stages = 6;
            config.schedule.moves_per_stage = 10;
            config.schedule.grid_bins = 12;
            config.verification_bins = 12;
            let flow = TscFlow::new(config)
                .run(&design, 3)
                .expect("quick flow converges");
            (design, flow)
        })
    }

    /// The quick configuration at test scale: 64 traces, one sample, an 8-bin grid.
    pub(crate) fn test_config() -> AttackConfig {
        let mut config = AttackConfig::quick();
        config.grid_bins = 8;
        config.traces = 64;
        config.sensors.samples_per_trace = 1;
        config.sensors.dwell_s = 0.008;
        config.mtd_checkpoints = 8;
        config
    }

    #[test]
    fn cpa_recovers_the_key_at_zero_noise() {
        let (design, flow) = flow_fixture();
        let mut config = test_config();
        config.sensors.sigma_k = 0.0;
        config.sensors.quantization_k = 0.0;
        config.workload.background_sigma = 0.0;
        let outcome =
            run_on_flow(design, flow, &config, 5, 11, Mitigation::Baseline, None).unwrap();
        assert_eq!(
            outcome.recovered_bytes(),
            outcome.key_bytes(),
            "noise-free traces must disclose the key (entropy {})",
            outcome.guessing_entropy_bits()
        );
        assert!(outcome.mtd_traces().is_some());
        assert!(outcome.best_correlation() > 0.5);
        assert!(outcome.transient_steps > 0);
    }

    #[test]
    fn cpa_fails_at_saturating_noise() {
        let (design, flow) = flow_fixture();
        let mut config = test_config();
        config.sensors.sigma_k = 1e4;
        let outcome =
            run_on_flow(design, flow, &config, 5, 11, Mitigation::Baseline, None).unwrap();
        assert!(
            outcome.recovered_bytes() < outcome.key_bytes(),
            "saturating sensor noise must defeat the attack"
        );
        assert!(outcome.mtd_traces().is_none());
    }

    /// The serial attack fills the kernel memo and the pooled ones hit it, so they never
    /// fan out; `uncached_extraction_is_bit_identical_across_worker_counts` checks pooled
    /// extraction.
    #[test]
    fn attack_is_bit_identical_across_worker_counts() {
        let (design, flow) = flow_fixture();
        let config = test_config();
        let serial = run_on_flow(design, flow, &config, 5, 11, Mitigation::Baseline, None).unwrap();
        for workers in [2usize, 5] {
            let pool = Pool::new(workers);
            let pooled = run_on_flow(
                design,
                flow,
                &config,
                5,
                11,
                Mitigation::Baseline,
                Some(&pool),
            )
            .unwrap();
            assert_eq!(pooled, serial, "{workers} workers");
            pool.shutdown();
        }
    }

    /// The kernel engine against the stepped reference (`scenario::run_on_flow_stepped`),
    /// outcome for outcome: the quick size at attack grids 8 and 12 over several lockstep
    /// batch sizes, and the smoke size once.
    #[test]
    fn kernel_engine_matches_the_batched_stepper() {
        let (design, flow) = flow_fixture();
        let pools = [Pool::new(1), Pool::new(4)];
        let mut grid_12 = test_config();
        grid_12.grid_bins = 12;
        // The pooled kernel-engine runs hit the kernel memo the first run filled (pooled
        // extraction has its own test in `scenario`).
        for (config, batch_sizes) in [
            (test_config(), &[1usize, 3, 4, 8][..]),
            (grid_12, &[4, 8][..]),
            (AttackConfig::smoke(), &[8][..]),
        ] {
            for mitigation in [Mitigation::Baseline, Mitigation::DummyTsvs] {
                let run = |pool| run_on_flow(design, flow, &config, 5, 11, mitigation, pool);
                let label = format!(
                    "grid {}, {} traces, {mitigation:?}",
                    config.grid_bins, config.traces
                );
                let kernel = run(None).unwrap();
                for pool in &pools {
                    let workers = pool.threads();
                    assert_eq!(
                        run(Some(pool)),
                        Ok(kernel.clone()),
                        "{label}, {workers} workers"
                    );
                }
                for &batch_traces in batch_sizes {
                    let stepped = scenario::run_on_flow_stepped(
                        design,
                        flow,
                        &config,
                        5,
                        11,
                        mitigation,
                        batch_traces,
                    );
                    assert_eq!(stepped, Ok(kernel.clone()), "{label}, batch {batch_traces}");
                }
            }
        }
        for pool in &pools {
            pool.shutdown();
        }
    }

    #[test]
    fn verdict_compares_the_same_floorplan_with_and_without_dummy_tsvs() {
        let (design, flow) = flow_fixture();
        let config = test_config();
        let verdict = run_verdict(design, flow, &config, 5, 11, None).unwrap();
        // Same target module, same key, same trace count on both sides.
        assert_eq!(
            verdict.baseline.target_module,
            verdict.mitigated.target_module
        );
        assert_eq!(verdict.baseline.cpa.traces, verdict.mitigated.cpa.traces);
        // The dummy TSVs change the thermal response, so the attacks must not be
        // literally identical (the flow inserted at least one dummy TSV).
        if flow.dummy_tsvs() > 0 {
            assert_ne!(verdict.baseline, verdict.mitigated);
        }
    }

    #[test]
    fn invalid_configs_fail_typed() {
        let (design, flow) = flow_fixture();
        let mut config = test_config();
        config.traces = 2;
        let err =
            run_on_flow(design, flow, &config, 5, 11, Mitigation::Baseline, None).unwrap_err();
        assert!(matches!(err, ScaError::InvalidConfig { .. }));
        assert_eq!(err.kind(), "sca-invalid-config");

        let mut config = test_config();
        config.sensors.die = 9;
        let err =
            run_on_flow(design, flow, &config, 5, 11, Mitigation::Baseline, None).unwrap_err();
        assert!(matches!(err, ScaError::InvalidConfig { .. }));

        // A power vector that does not match the floorplan is refused, not truncated.
        let grid = flow.floorplan().analysis_grid(test_config().grid_bins);
        let fields = attack_tsv_fields(design, flow, grid, Mitigation::Baseline);
        let powers = &flow.scaled_powers[1..];
        let err = scenario::run_attack_impl(
            flow.floorplan(),
            powers,
            [&fields],
            None,
            &test_config(),
            5,
            11,
            None,
            &tsc3d_exec::CancelToken::new(),
        )
        .unwrap_err();
        assert!(matches!(err, ScaError::InvalidConfig { .. }), "{err}");

        // Size bounds: each limit is accepted, one past it is refused before any work.
        let mut largest = test_config();
        largest.grid_bins = AttackConfig::MAX_GRID_BINS;
        largest.traces = AttackConfig::MAX_TRACES;
        largest.mtd_checkpoints = AttackConfig::MAX_TRACES;
        assert_eq!(largest.validate(), Ok(()));
        let mut traces = test_config();
        traces.traces = AttackConfig::MAX_TRACES + 1;
        let mut mtd_checkpoints = test_config();
        mtd_checkpoints.mtd_checkpoints = mtd_checkpoints.traces + 1;
        let mut grid_bins = test_config();
        grid_bins.grid_bins = AttackConfig::MAX_GRID_BINS + 1;
        // Noise levels must be finite as well as non-negative.
        let mut sigma_k = test_config();
        sigma_k.sensors.sigma_k = f64::NAN;
        let mut quantization_k = test_config();
        quantization_k.sensors.quantization_k = f64::INFINITY;
        let mut background_sigma = test_config();
        background_sigma.workload.background_sigma = f64::NAN;
        for (field, config) in [
            ("traces", traces),
            ("mtd_checkpoints", mtd_checkpoints),
            ("grid_bins", grid_bins),
            ("sigma_k", sigma_k),
            ("quantization_k", quantization_k),
            ("background_sigma", background_sigma),
        ] {
            let err =
                run_on_flow(design, flow, &config, 5, 11, Mitigation::Baseline, None).unwrap_err();
            assert!(
                matches!(&err, ScaError::InvalidConfig { reason } if reason.starts_with(field)),
                "{field}: {err}"
            );
        }
    }

    /// The sensor array is bounded before anything is allocated for it: at most one
    /// sensor per grid bin and axis, at most `MAX_POINTS` points, and a product that
    /// would overflow is refused, not wrapped.
    #[test]
    fn validate_bounds_the_sensor_array() {
        for preset in [AttackConfig::quick(), AttackConfig::smoke()] {
            assert_eq!(preset.validate(), Ok(()));
        }
        let bins = AttackConfig::smoke().grid_bins;
        let max = AttackConfig::MAX_POINTS;
        let array = |sensors_per_axis, samples_per_trace| {
            let mut config = AttackConfig::smoke();
            config.sensors.sensors_per_axis = sensors_per_axis;
            config.sensors.samples_per_trace = samples_per_trace;
            config.validate()
        };
        assert_eq!(array(bins, max / (bins * bins)), Ok(()));
        assert_eq!(array(1, max), Ok(()));
        for (field, sensors_per_axis, samples_per_trace) in [
            ("sensors_per_axis", bins + 1, 1),
            ("sensors_per_axis", usize::MAX, 1),
            ("points", bins, max / (bins * bins) + 1),
            ("points", 1, max + 1),
            ("points", 1, usize::MAX),
            ("points", bins, usize::MAX),
        ] {
            let err = array(sensors_per_axis, samples_per_trace).unwrap_err();
            assert!(
                matches!(&err, ScaError::InvalidConfig { reason } if reason.starts_with(field)),
                "{sensors_per_axis} x {samples_per_trace}: {err}"
            );
        }
    }

    #[test]
    fn cancelled_and_expired_tokens_interrupt_the_attack_typed() {
        let (design, flow) = flow_fixture();
        let config = test_config();

        let cancel = tsc3d_exec::CancelToken::new();
        cancel.cancel(tsc3d_exec::CancelReason::User);
        let err = run_verdict_with_cancel(design, flow, &config, 5, 11, None, &cancel).unwrap_err();
        assert_eq!(
            err,
            ScaError::Interrupted(Interrupt::Cancelled(CancelReason::User))
        );
        assert_eq!(err.kind(), "cancelled");

        let expired = tsc3d_exec::CancelToken::new().with_deadline(std::time::Duration::ZERO);
        let err =
            run_verdict_with_cancel(design, flow, &config, 5, 11, None, &expired).unwrap_err();
        assert_eq!(
            err,
            ScaError::Interrupted(Interrupt::Cancelled(CancelReason::Deadline))
        );
        assert_eq!(err.kind(), "deadline");
    }

    /// Campaign records, serve bodies and recorded benchmark outputs quote these kinds
    /// and texts, so each interrupt keeps them exactly, in every flow stage and in the
    /// attack, and its error names no source to append.
    #[test]
    fn interrupt_errors_keep_their_kinds_and_texts() {
        let (user, shutdown, deadline) = (
            Interrupt::Cancelled(CancelReason::User),
            Interrupt::Cancelled(CancelReason::Shutdown),
            Interrupt::Cancelled(CancelReason::Deadline),
        );
        let fault = |site| Interrupt::Fault(InjectedFault { site });
        // Each flow text continues " in the <stage> stage".
        let flow_rows = [
            (user, "cancelled", "flow cancelled by request"),
            (shutdown, "shutdown", "flow cancelled by shutdown"),
            (deadline, "deadline", "flow deadline exceeded"),
            (
                fault("flow-stage"),
                "fault-injected",
                "injected fault at site 'flow-stage'",
            ),
        ];
        let stages = [
            (FlowStage::Floorplan, "floorplan"),
            (FlowStage::Assign, "assign"),
            (FlowStage::Verify, "verify"),
            (FlowStage::PostProcess, "post-process"),
        ];
        for (stage, name) in stages {
            for (interrupt, kind, text) in flow_rows {
                let err = FlowError::Interrupted { stage, interrupt };
                let text = format!("{text} in the {name} stage");
                assert_eq!(err.stage(), stage);
                assert_eq!(err.kind(), kind);
                assert_eq!(err.to_string(), text);
                assert_eq!(display_chain(&err), text);
                assert!(std::error::Error::source(&err).is_none());
            }
        }
        let sca_rows = [
            (
                user,
                "cancelled",
                "sca attack cancelled (cancelled by request)",
            ),
            (
                shutdown,
                "shutdown",
                "sca attack cancelled (cancelled by shutdown)",
            ),
            (deadline, "deadline", "sca attack deadline exceeded"),
            (
                fault("sca-batch"),
                "fault-injected",
                "injected fault at sca-batch",
            ),
        ];
        for (interrupt, kind, text) in sca_rows {
            let err = ScaError::Interrupted(interrupt);
            assert_eq!(err.kind(), kind);
            assert_eq!(err.to_string(), text);
            assert_eq!(display_chain(&err), text);
            assert!(std::error::Error::source(&err).is_none());
        }
    }
}
