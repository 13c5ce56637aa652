//! What the recorders hold after one traced anneal, one steady solve and one verdict: the
//! normalized span tree, the event sequence and the registry counts, against literals.
//!
//! Lives in its own integration-test binary because both recorders and the registry are
//! process-wide: spans, events or counts from concurrent tests would land in the
//! recording. The attack uses a sensor geometry no other test uses, so its reciprocity
//! kernels are extracted (the kernel memo starts cold).

use std::collections::HashMap;

use tsc3d::{FlowConfig, Setup, TscFlow};
use tsc3d_floorplan::{ObjectiveWeights, SaSchedule, SimulatedAnnealing};
use tsc3d_geometry::{Grid, GridMap, Outline, Rect, Stack};
use tsc3d_netlist::suite::{generate, Benchmark};
use tsc3d_obs::{self as obs, SpanRecord};
use tsc3d_sca::{run_verdict, AttackConfig, ScaVerdict};
use tsc3d_thermal::{SteadyStateSolver, ThermalConfig, ThermalResult, TsvField};

/// Each span as `path/of/names counter=value …`, in the order the spans opened, with its
/// counters in first-touch order.
fn span_shape(spans: &[SpanRecord]) -> Vec<String> {
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let mut ordered: Vec<&SpanRecord> = spans.iter().collect();
    ordered.sort_by_key(|s| s.id);
    ordered
        .into_iter()
        .map(|span| {
            let mut path = vec![span.name.as_str()];
            let mut parent = span.parent;
            while let Some(up) = by_id.get(&parent) {
                path.push(&up.name);
                parent = up.parent;
            }
            path.reverse();
            let counters: String = span
                .counters
                .iter()
                .map(|(name, value)| format!(" {name}={value}"))
                .collect();
            format!("{}{counters}", path.join("/"))
        })
        .collect()
}

/// The global counters the three runs move, by registry name and label set.
const COUNTERS: [(&str, &[(&str, &str)]); 8] = [
    ("tsc3d_thermal_solves_total", &[]),
    ("tsc3d_thermal_sweeps_total", &[]),
    ("tsc3d_sca_attacks_total", &[]),
    ("tsc3d_sca_traces_total", &[]),
    ("tsc3d_sca_transient_steps_total", &[]),
    ("tsc3d_sca_kernel_steps_total", &[]),
    ("tsc3d_sca_kernel_cache_total", &[("outcome", "miss")]),
    ("tsc3d_sca_cpa_checkpoints_total", &[]),
];

fn counters() -> [u64; 8] {
    COUNTERS.map(|(name, labels)| obs::global().counter_with(name, "", labels).get())
}

/// What the three runs return, compared bit for bit between the traced and the untraced
/// pass (the anneal's wall-clock runtime aside).
#[derive(Debug, PartialEq)]
struct Outputs {
    anneal: String,
    solve: ThermalResult,
    verdict: ScaVerdict,
}

/// One single-lane anneal, one steady solve and one serial verdict.
fn run_all(flow: &(tsc3d_netlist::Design, tsc3d::FlowResult)) -> Outputs {
    let (design, flow) = flow;
    let schedule = SaSchedule {
        stages: 3,
        moves_per_stage: 8,
        grid_bins: 8,
        ..SaSchedule::quick()
    };
    let sa = SimulatedAnnealing::new(schedule).optimize(design, &ObjectiveWeights::tsc_aware(), 9);
    let anneal = format!(
        "{:?} {:?} {} {} {:?}",
        sa.floorplan,
        sa.breakdown,
        sa.evaluations,
        sa.accepted,
        sa.history.iter().map(|c| c.to_bits()).collect::<Vec<_>>()
    );

    let stack = Stack::two_die(Outline::new(1_000.0, 1_000.0));
    let grid = Grid::square(stack.outline().rect(), 6);
    let mut hot = GridMap::zeros(grid);
    hot.splat_power(&Rect::new(100.0, 100.0, 400.0, 300.0), 1.5);
    let solve = SteadyStateSolver::new(ThermalConfig::default_for(stack))
        .solve(
            &[hot, GridMap::zeros(grid)],
            &[TsvField::uniform(grid, 0.1)],
        )
        .expect("the toy solve converges");

    let mut config = AttackConfig::quick();
    config.traces = 24;
    config.mtd_checkpoints = 3;
    config.sensors.sensors_per_axis = 2;
    config.sensors.samples_per_trace = 1;
    let verdict = run_verdict(design, flow, &config, 5, 11, None).expect("the verdict runs");
    Outputs {
        anneal,
        solve,
        verdict,
    }
}

/// The normalized span tree, recorded before the recorders fed each fact through one
/// call. One `sca_attack` span holds both states' attacks; each 8-trace chunk is drawn
/// once and read through the baseline, then the mitigated kernel.
const SPANS: &[&str] = &[
    "sa",
    "sa/sa_epoch evaluations=8 accepted=8",
    "sa/sa_epoch evaluations=8 accepted=7",
    "sa/sa_epoch evaluations=8 accepted=8",
    "thermal_solve solver_sweeps=297",
    "sca_attack traces=48 transient_steps=38904",
    "sca_attack/sca_kernel kernel_steps=1624",
    "sca_attack/sca_kernel kernel_steps=4860",
    "sca_attack/trace_draw traces=8",
    "sca_attack/trace_eval traces=8 transient_steps=3248",
    "sca_attack/cpa_fold cpa_checkpoints=1",
    "sca_attack/trace_eval traces=8 transient_steps=9720",
    "sca_attack/cpa_fold cpa_checkpoints=1",
    "sca_attack/trace_draw traces=8",
    "sca_attack/trace_eval traces=8 transient_steps=3248",
    "sca_attack/cpa_fold cpa_checkpoints=1",
    "sca_attack/trace_eval traces=8 transient_steps=9720",
    "sca_attack/cpa_fold cpa_checkpoints=1",
    "sca_attack/trace_draw traces=8",
    "sca_attack/trace_eval traces=8 transient_steps=3248",
    "sca_attack/cpa_fold cpa_checkpoints=1",
    "sca_attack/trace_eval traces=8 transient_steps=9720",
    "sca_attack/cpa_fold cpa_checkpoints=1",
    "sca_attack/cpa_finish",
    "sca_attack/cpa_finish",
];

/// The event sequence, recorded with the spans.
const EVENTS: &[&str] = &[
    "Progress { phase: \"sa\", done: 1, total: 3 }",
    "Progress { phase: \"sa\", done: 2, total: 3 }",
    "Progress { phase: \"sa\", done: 3, total: 3 }",
    "Progress { phase: \"solver_sweeps\", done: 64, total: 10000 }",
    "Progress { phase: \"solver_sweeps\", done: 128, total: 10000 }",
    "Progress { phase: \"solver_sweeps\", done: 192, total: 10000 }",
    "Progress { phase: \"solver_sweeps\", done: 256, total: 10000 }",
    "Checkpoint { name: \"cpa_traces\", value: 8 }",
    "Checkpoint { name: \"cpa_traces\", value: 8 }",
    "Checkpoint { name: \"cpa_traces\", value: 16 }",
    "Checkpoint { name: \"cpa_traces\", value: 16 }",
    "Checkpoint { name: \"cpa_traces\", value: 24 }",
    "Checkpoint { name: \"cpa_traces\", value: 24 }",
];

/// What the traced runs add to [`COUNTERS`], recorded with the spans.
const COUNTS: [u64; 8] = [1, 297, 2, 48, 38904, 6484, 2, 6];

#[test]
fn one_anneal_solve_and_verdict_record_their_golden_shape() {
    let design = generate(Benchmark::N100, 1);
    let mut config = FlowConfig::quick(Setup::TscAware);
    config.schedule.stages = 6;
    config.schedule.moves_per_stage = 10;
    config.schedule.grid_bins = 12;
    config.verification_bins = 12;
    let flow = TscFlow::new(config)
        .run(&design, 3)
        .expect("quick flow converges");
    let fixture = (design, flow);

    let _ = obs::drain_spans();
    let mut events = obs::subscribe();
    let before = counters();
    obs::set_tracing(true);
    obs::set_events(true);
    let traced = run_all(&fixture);
    obs::set_tracing(false);
    obs::set_events(false);
    let after = counters();
    let counts: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let spans = span_shape(&obs::drain_spans());
    let poll = events.poll(usize::MAX);
    assert_eq!(poll.missed, 0);
    let kinds: Vec<String> = poll
        .events
        .iter()
        .map(|e| format!("{:?}", e.kind))
        .collect();
    assert_eq!(spans, SPANS);
    assert_eq!(kinds, EVENTS);
    assert_eq!(counts, COUNTS);

    // With both recorders off the same runs record nothing and return the same bits. The
    // registry still counts; the kernels now come from the memo, so nothing is extracted.
    let untraced = run_all(&fixture);
    assert!(obs::drain_spans().is_empty());
    assert!(events.poll(usize::MAX).events.is_empty());
    assert_eq!(untraced, traced);
    let counts: Vec<u64> = counters().iter().zip(after).map(|(a, b)| a - b).collect();
    assert_eq!(counts, [1, 297, 2, 48, 38904, 0, 0, 6]);
}
