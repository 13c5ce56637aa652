//! The harness every workload runs in: argument parsing, repeated set-up, the
//! closed-loop timed phases (untraced, then traced), failure accounting and the result
//! record.

use crate::expected::Checker;
use crate::host::{self, Counters};
use crate::json::Json;
use crate::stats;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = ["flow", "verdict", "campaign", "serve"];

/// The end-to-end metrics, reported by every run with `--trace 0`. The median op
/// (`op_p50_s`) is printed and kept in the run record but is not one of them: on a host
/// whose speed flips between states ~1.5× apart, a run's median snaps to whichever state
/// held more of its ops, while `ops_per_s` (the reciprocal of the mean op for one
/// closed-loop client) moves with the share of each.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, reported by every run with `--trace 1` (0 where the
/// workload does not exercise the layer or cannot observe it from outside).
pub const PER_LAYER: [(&str, &str); 44] = [
    ("floorplan.busy_s", "s"),
    ("floorplan.evaluations", "count"),
    ("floorplan.evals_per_s", "1/s"),
    ("floorplan.accept_ratio", "ratio"),
    ("floorplan.repair_ops", "count"),
    ("power.assign_s", "s"),
    ("core.verify_s", "s"),
    ("core.post_process_s", "s"),
    ("core.dummy_tsvs", "count"),
    ("thermal.solves", "count"),
    ("thermal.sweeps", "count"),
    ("thermal.sweeps_per_solve", "count"),
    ("thermal.sweeps_per_s", "1/s"),
    ("sca.baseline_s", "s"),
    ("sca.mitigated_s", "s"),
    ("sca.traces", "count"),
    ("sca.transient_steps", "count"),
    ("sca.steps_per_s", "1/s"),
    ("sca.cpa_checkpoints", "count"),
    ("exec.busy_s", "s"),
    ("exec.utilization", "ratio"),
    ("exec.steals", "count"),
    ("exec.parks", "count"),
    ("campaign.run_s", "s"),
    ("campaign.resume_s", "s"),
    ("campaign.report_s", "s"),
    ("campaign.records_bytes", "bytes"),
    ("campaign.overhead_frac", "ratio"),
    ("serve.admit_ms", "ms"),
    ("serve.wait_s", "s"),
    ("serve.result_ms", "ms"),
    ("serve.http_p50_ms.jobs_post", "ms"),
    ("serve.http_p50_ms.job_status", "ms"),
    ("serve.http_p50_ms.job_result", "ms"),
    ("serve.http_p50_ms.job_events", "ms"),
    ("serve.http_p50_ms.stats", "ms"),
    ("serve.http_p50_ms.metrics", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.dedup_hits", "count"),
    ("serve.pool_busy_s", "s"),
    ("serve.rejected", "count"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.traced_ops", "count"),
    ("obs.traced_op_s", "s"),
];

/// Where run records, span traces and scratch files go (inside the checkout).
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub record: bool,
}

pub const USAGE: &str = "usage: perfbench --workload <flow|verdict|campaign|serve|all> \
--seed <n> --seconds <s> --trace <0|1> [--record]";

pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let workload = value("--workload").ok_or("missing --workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seed = value("--seed")
        .unwrap_or_else(|| "1".into())
        .parse()
        .map_err(|_| "--seed must be a non-negative integer")?;
    let seconds: f64 = value("--seconds")
        .unwrap_or_else(|| "10".into())
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        record: args.iter().any(|a| a == "--record"),
    })
}

/// One timed phase: per-op seconds, the phase's wall time and the program's global work
/// counters accrued during it.
#[derive(Debug, Default)]
pub struct Phase {
    pub ops: Vec<f64>,
    pub wall_s: f64,
    pub counters: Counters,
}

pub struct Bench {
    pub args: Args,
    pub started: Instant,
    pub setup_s: Vec<f64>,
    pub untraced: Phase,
    pub traced: Phase,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Client-side latencies of read requests (serve only), in milliseconds.
    pub reads_ms: Vec<f64>,
    pub layers: Vec<(&'static str, f64)>,
    pub checker: Checker,
    /// Thread and connection counts for the provenance stamp.
    pub threads: Vec<(&'static str, usize)>,
    /// Workload-specific extra facts for the result record.
    pub notes: Vec<(String, Json)>,
    spans: Vec<tsc3d_obs::SpanRecord>,
}

impl Bench {
    pub fn new(args: Args, started: Instant) -> Result<Bench, String> {
        let checker = Checker::load(&args.workload, args.record)?;
        Ok(Bench {
            args,
            started,
            setup_s: Vec::new(),
            untraced: Phase::default(),
            traced: Phase::default(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            reads_ms: Vec::new(),
            layers: Vec::new(),
            checker,
            threads: Vec::new(),
            notes: Vec::new(),
            spans: Vec::new(),
        })
    }

    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }

    /// Runs `op` closed-loop for `--seconds`: the next op starts when the previous one
    /// has returned, and no op starts that would be expected (from the median so far) to
    /// end more than half an op past the deadline. `op` returns its own measured
    /// seconds, or an error that counts as a failed op. The traced phase records spans.
    pub fn closed_loop(
        &mut self,
        traced: bool,
        mut op: impl FnMut(&mut Bench, usize) -> Result<f64, String>,
    ) {
        if traced {
            let _ = tsc3d_obs::drain_spans();
            tsc3d_obs::set_tracing(true);
        }
        let before = Counters::now();
        let start = Instant::now();
        let mut ops = Vec::new();
        let mut i = 0;
        loop {
            let elapsed = start.elapsed().as_secs_f64();
            let typical = stats::median(&ops).unwrap_or(0.0);
            if i > 0 && elapsed + 0.5 * typical >= self.args.seconds {
                break;
            }
            self.attempted += 1;
            match op(self, i) {
                Ok(seconds) => ops.push(seconds),
                Err(message) => self.fail(format!("op {i}: {message}")),
            }
            i += 1;
        }
        let phase = Phase {
            ops,
            wall_s: start.elapsed().as_secs_f64(),
            counters: Counters::now().since(before),
        };
        if traced {
            tsc3d_obs::set_tracing(false);
            self.spans = tsc3d_obs::drain_spans();
            self.traced = phase;
        } else {
            self.untraced = phase;
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.retain(|(n, _)| *n != name);
        self.layers
            .push((name, if value.is_finite() { value } else { 0.0 }));
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.notes.push((key.to_string(), value));
    }

    /// Checks, prints and records the run; the last line of stdout is the result object.
    pub fn finish(mut self) -> ExitCode {
        let args = self.args.clone();
        let prefix = format!(
            "{}-seed{}-trace{}",
            args.workload,
            args.seed,
            u8::from(args.trace)
        );
        let digest = host::source_digest(std::path::Path::new("."));

        if args.record {
            return match self.checker.write_record(&args.workload, &digest) {
                Ok(path) if self.failed == 0 => {
                    eprintln!(
                        "recorded {} inputs into {}",
                        self.checker.record.len(),
                        path.display()
                    );
                    ExitCode::SUCCESS
                }
                Ok(_) => {
                    eprintln!("recording saw failures: {:?}", self.failures);
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            };
        }

        // Work counters that moved against the recording are nondeterminism when the
        // sources are those that made the recording, and drift otherwise.
        let drift = self.checker.drift();
        let same_code = digest == self.checker.recorded_digest();
        if same_code {
            for (input, recorded, observed) in &drift {
                self.fail(format!(
                    "nondeterministic work counters on {input}: recorded {recorded:?}, observed {observed:?}"
                ));
            }
        }

        let peak_rss = host::peak_rss_mb();
        let op_p50 = stats::median(&self.untraced.ops).unwrap_or(f64::NAN);
        let end_to_end = [
            stats::median(&self.setup_s).unwrap_or(f64::NAN),
            self.untraced.ops.len() as f64 / self.untraced.wall_s.max(f64::MIN_POSITIVE),
            peak_rss,
        ];
        let correct = self.failed == 0 && self.untraced.ops.iter().all(|s| s.is_finite());

        let mut detail = vec![
            ("workload", Json::str(args.workload.clone())),
            ("provenance", host::provenance(args.seed, &self.threads)),
            ("seconds", Json::Num(args.seconds)),
            (
                "setup_runs_s",
                Json::Arr(self.setup_s.iter().map(|s| Json::Num(*s)).collect()),
            ),
            ("ops", Json::Num(self.untraced.ops.len() as f64)),
            (
                "op_s",
                Json::Arr(self.untraced.ops.iter().map(|s| Json::Num(*s)).collect()),
            ),
            (
                "traced_op_s",
                Json::Arr(self.traced.ops.iter().map(|s| Json::Num(*s)).collect()),
            ),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failed_frac",
                Json::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(end_to_end) {
            detail.push((name, metric(value, unit)));
        }
        detail.push(("op_p50_s", metric(op_p50, "s")));
        if let Some((percentile, value)) = stats::tail(&self.untraced.ops) {
            detail.push((
                "op_tail_s",
                Json::obj([
                    ("value", Json::Num(value)),
                    ("percentile", Json::Num(percentile)),
                    ("ops", Json::Num(self.untraced.ops.len() as f64)),
                ]),
            ));
        }
        if !self.reads_ms.is_empty() {
            detail.push((
                "read_p50_ms",
                metric(stats::median(&self.reads_ms).unwrap_or(0.0), "ms"),
            ));
            detail.push(("reads", Json::Num(self.reads_ms.len() as f64)));
            if let Some((percentile, value)) = stats::tail(&self.reads_ms) {
                detail.push((
                    "read_tail_ms",
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("percentile", Json::Num(percentile)),
                    ]),
                ));
            }
        }
        detail.push(("work_per_input", self.checker.seen_json()));
        detail.push((
            "work_drift",
            Json::Arr(
                drift
                    .iter()
                    .map(|(input, recorded, observed)| {
                        Json::str(format!(
                            "{input}: recorded {recorded:?}, observed {observed:?}"
                        ))
                    })
                    .collect(),
            ),
        ));
        detail.push(("phase_counters", counters_json(&self.untraced.counters)));

        let mut metrics = Vec::new();
        if args.trace {
            let traced_p50 = stats::median(&self.traced.ops).unwrap_or(f64::NAN);
            self.layer("obs.trace_overhead_frac", traced_p50 / op_p50 - 1.0);
            self.layer("obs.traced_ops", self.traced.ops.len() as f64);
            self.layer("obs.traced_op_s", self.traced.ops.iter().sum());
            for (name, unit) in PER_LAYER {
                let value = self
                    .layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v);
                metrics.push((name, metric(value, unit)));
            }
            let spans_path = out_dir().join(format!("{prefix}.spans.jsonl"));
            match std::fs::write(&spans_path, tsc3d_obs::spans_to_jsonl(&self.spans)) {
                Ok(()) => detail.push(("spans", Json::str(spans_path.display().to_string()))),
                Err(e) => eprintln!("cannot write {}: {e}", spans_path.display()),
            }
        } else {
            for ((name, unit), value) in END_TO_END.iter().zip(end_to_end) {
                metrics.push((name, metric(value, unit)));
            }
        }
        let metrics_json = Json::obj(metrics.iter().map(|(n, m)| (*n, m.clone())));
        detail.push(("metrics", metrics_json.clone()));
        detail.extend(
            self.notes
                .iter()
                .map(|(k, v)| (k.as_str(), v.clone()))
                .collect::<Vec<_>>(),
        );

        let record_path = out_dir().join(format!("{prefix}.json"));
        let _ = std::fs::create_dir_all(out_dir());
        if let Err(e) = std::fs::write(&record_path, Json::obj(detail).render() + "\n") {
            eprintln!("cannot write {}: {e}", record_path.display());
        }

        println!(
            "workload {} seed {} ({} ops, {} failed)",
            args.workload,
            args.seed,
            self.untraced.ops.len(),
            self.failed
        );
        for (name, m) in &metrics {
            println!(
                "  {name:<34} {:>14.6} {}",
                m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                m.get("unit").and_then(Json::as_str).unwrap_or("")
            );
        }
        if !args.trace {
            println!("  {:<34} {op_p50:>14.6} s (record only)", "op_p50_s");
        }
        for failure in &self.failures {
            println!("  FAILED: {failure}");
        }
        println!("  record: {}", record_path.display());
        println!(
            "{}",
            Json::obj([
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(self.attempted.max(1) as f64)),
                ("failed", Json::Num(self.failed as f64)),
                ("metrics", metrics_json),
            ])
            .render()
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn counters_json(counters: &Counters) -> Json {
    Json::obj(
        host::COUNTERS
            .iter()
            .map(|name| (*name, Json::Num(counters.get(name) as f64))),
    )
}

/// Builds a workload's state `reps` times and keeps the last one, returning it with
/// the set-up times. The first set-up is timed from process start (`started`), the
/// others from their own start; every set-up but the last is torn down untimed.
pub fn setup<S>(
    started: Instant,
    reps: usize,
    mut build: impl FnMut(usize) -> Result<S, String>,
    mut teardown: impl FnMut(S),
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::new();
    loop {
        let start = if times.is_empty() {
            started
        } else {
            Instant::now()
        };
        let state = build(times.len())?;
        times.push(start.elapsed().as_secs_f64());
        if times.len() >= reps {
            return Ok((state, times));
        }
        teardown(state);
    }
}

/// Seconds spent in `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

/// A small seeded generator (splitmix64) for drawing workload inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0fbe_4c4a_1100)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}
