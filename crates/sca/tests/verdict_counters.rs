//! What one verdict counts: the process-wide `tsc3d_sca_*` counters and the `sca-batch`
//! fault-site hits.
//!
//! Lives in its own integration-test binary because both are process-global: attacks in
//! concurrent tests would move the counters and absorb `sca-batch` hits. The tests here
//! serialize on [`tsc3d_exec::fault::test_lock`].

use std::sync::OnceLock;
use tsc3d::{FlowConfig, FlowResult, Setup, TscFlow};
use tsc3d_exec::{fault, FaultPlan, InjectedFault, Interrupt};
use tsc3d_netlist::suite::{generate, Benchmark};
use tsc3d_netlist::Design;
use tsc3d_sca::{run_verdict, AttackConfig, ScaError, ScaVerdict};

/// A quick TSC-aware flow on N100 (the crate's unit-test fixture).
fn fixture() -> &'static (Design, FlowResult) {
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

fn smoke_verdict() -> Result<ScaVerdict, ScaError> {
    let (design, flow) = fixture();
    run_verdict(design, flow, &AttackConfig::smoke(), 5, 11, None)
}

/// The counters one verdict moves, read off the global registry.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Counters {
    attacks: u64,
    traces: u64,
    transient_steps: u64,
    cpa_checkpoints: u64,
    kernel_hits: u64,
    kernel_misses: u64,
}

impl Counters {
    fn now() -> Self {
        let registry = tsc3d_obs::global();
        let counter = |name| registry.counter(name, "").get();
        let lookups = |outcome| {
            registry
                .counter_with("tsc3d_sca_kernel_cache_total", "", &[("outcome", outcome)])
                .get()
        };
        Counters {
            attacks: counter("tsc3d_sca_attacks_total"),
            traces: counter("tsc3d_sca_traces_total"),
            transient_steps: counter("tsc3d_sca_transient_steps_total"),
            cpa_checkpoints: counter("tsc3d_sca_cpa_checkpoints_total"),
            kernel_hits: lookups("hit"),
            kernel_misses: lookups("miss"),
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            attacks: self.attacks - before.attacks,
            traces: self.traces - before.traces,
            transient_steps: self.transient_steps - before.transient_steps,
            cpa_checkpoints: self.cpa_checkpoints - before.cpa_checkpoints,
            kernel_hits: self.kernel_hits - before.kernel_hits,
            kernel_misses: self.kernel_misses - before.kernel_misses,
        }
    }
}

/// A verdict counts as the two attacks it comprises: each state is one attack of all
/// the traces, with its own steps, checkpoints and kernel lookup. A repeated verdict
/// hits the kernel memo in both states.
#[test]
fn a_verdict_counts_two_attacks() {
    let _serial = fault::test_lock();
    let config = AttackConfig::smoke();
    for round in 0..2 {
        let before = Counters::now();
        let verdict = smoke_verdict().unwrap();
        let moved = Counters::now().since(before);
        assert_eq!(moved.attacks, 2);
        assert_eq!(moved.traces, 2 * config.traces as u64);
        assert_eq!(
            moved.transient_steps,
            verdict.baseline.transient_steps + verdict.mitigated.transient_steps
        );
        assert_eq!(
            verdict.baseline.cpa.checkpoints.len(),
            config.mtd_checkpoints
        );
        assert_eq!(moved.cpa_checkpoints, 2 * config.mtd_checkpoints as u64);
        assert_eq!(moved.kernel_hits + moved.kernel_misses, 2);
        if round == 1 {
            assert_eq!(moved.kernel_hits, 2);
        }
    }
}

/// A smoke verdict polls `sca-batch` once per 8-trace chunk and state: 2 × 24 = 48 hits.
/// A fault on the 48th (the mitigated state's last chunk) interrupts it typed; a fault
/// on the 49th never fires and leaves the verdict as a clean run's.
#[test]
fn a_smoke_verdict_hits_sca_batch_forty_eight_times() {
    let _serial = fault::test_lock();
    let clean = smoke_verdict().unwrap();

    fault::arm(FaultPlan::parse("sca-batch:48:error").unwrap());
    let interrupted = smoke_verdict();
    let fired = fault::disarm();
    assert_eq!(
        interrupted,
        Err(ScaError::Interrupted(Interrupt::Fault(InjectedFault {
            site: "sca-batch"
        })))
    );
    assert_eq!(fired.len(), 1);

    fault::arm(FaultPlan::parse("sca-batch:49:error").unwrap());
    let verdict = smoke_verdict();
    let fired = fault::disarm();
    assert!(fired.is_empty(), "{fired:?}");
    assert_eq!(verdict, Ok(clean));
}
