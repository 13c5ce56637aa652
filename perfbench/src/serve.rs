//! `serve`: an in-process `Server` with an on-disk state dir and the cache on, driven
//! over real sockets by two client threads. The writer submits fresh small flow and
//! sca specs plus verbatim repeats; for each it waits on the job's SSE stream, GETs the
//! result and checks its bytes. For each fresh job the reader issues a fixed number of
//! back-to-back reads: an in-flight resubmission of the job's spec (a dedup), status
//! polls, `/v1/stats`, `/metrics` and cache-hit resubmissions.

use crate::bench::{out_dir, setup, Bench, Rng};
use crate::expected::{Checker, Work};
use crate::host::{Counters, Fnv};
use crate::http::{self, Response};
use crate::json::Json;
use crate::stats;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Condvar, Mutex};
use std::time::Instant;
use tsc3d_serve::{Server, ServerConfig};

const FLOW_SPECS: u64 = 160;
const SCA_SPECS: u64 = 48;
const SETUPS: usize = 3;
const WORKERS: usize = 2;
const HTTP_THREADS: usize = 2;
/// Every `REPEAT_EVERY`-th writer op resubmits an already-completed spec verbatim.
const REPEAT_EVERY: usize = 4;
/// Reads the reader issues per fresh writer op, back to back from the job's admission.
/// A fixed count keeps the job table, and so the process's memory, a function of the
/// workload rather than of how fast the reader happens to be.
const READS_PER_OP: usize = 200;
/// Every `CACHE_HIT_EVERY`-th read of an op resubmits a completed spec.
const CACHE_HIT_EVERY: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Spec {
    Flow(u64),
    Sca(u64),
}

impl Spec {
    fn key(&self) -> String {
        match self {
            Spec::Flow(seed) => format!("flow/{seed}"),
            Spec::Sca(seed) => format!("sca/{seed}"),
        }
    }

    /// Small specs: a short flow (16 × 16 SA moves on a 10-bin grid; nearly every seed
    /// needs exactly two outline-repair rounds, so fresh jobs cost about the same) and a
    /// noise-free 16-trace single-byte attack on the same kind of flow.
    fn body(&self) -> String {
        match self {
            Spec::Flow(seed) => format!(
                "{{\"type\":\"flow\",\"benchmark\":\"n100\",\"setup\":\"tsc\",\"seed\":{seed},\
                 \"stages\":16,\"moves\":16,\"grid_bins\":10,\"verification_bins\":10,\
                 \"activity_samples\":6,\"tsv_budget\":2}}"
            ),
            Spec::Sca(seed) => format!(
                "{{\"type\":\"sca\",\"benchmark\":\"n100\",\"seed\":{seed},\"key_seed\":7,\
                 \"traces\":16,\"noise\":0,\"key_bytes\":1,\"attack_grid_bins\":8,\
                 \"dwell_ms\":2,\"stages\":16,\"moves\":16,\"grid_bins\":10,\
                 \"verification_bins\":10}}"
            ),
        }
    }
}

fn catalog() -> Vec<Spec> {
    (1..=FLOW_SPECS)
        .map(Spec::Flow)
        .chain((1..=SCA_SPECS).map(Spec::Sca))
        .collect()
}

/// The catalog specs at their kind's modal recorded SA work (see
/// [`Checker::modal_inputs`]): a 16 × 16 move flow needs one to three outline-repair
/// rounds depending on its seed.
fn eligible(checker: &Checker) -> Vec<Spec> {
    let modal = checker.modal_inputs(&["evaluations"]);
    catalog()
        .into_iter()
        .filter(|s| modal.contains(&s.key()))
        .collect()
}

/// The order fresh specs are submitted in: two flow specs to one sca spec, each kind a
/// seeded permutation of its eligible specs.
fn draw(seed: u64, eligible: &[Spec]) -> Vec<Spec> {
    let mut rng = Rng::new(seed);
    let mut shuffled = |flow: bool| {
        let mut specs: Vec<Spec> = eligible
            .iter()
            .copied()
            .filter(|s| matches!(s, Spec::Flow(_)) == flow)
            .collect();
        for i in (1..specs.len()).rev() {
            specs.swap(i, rng.below(i as u64 + 1) as usize);
        }
        specs.into_iter()
    };
    let (mut flows, mut scas) = (shuffled(true), shuffled(false));
    let mut order = Vec::new();
    loop {
        let next = [flows.next(), flows.next(), scas.next()];
        if next.iter().all(Option::is_none) {
            return order;
        }
        order.extend(next.into_iter().flatten());
    }
}

/// Result bodies carry wall-clock `runtime_s` fields; zeroing them leaves the part
/// that must repeat exactly.
fn normalized(body: &str) -> String {
    let mut out = String::with_capacity(body.len());
    let mut rest = body;
    while let Some(at) = rest.find("\"runtime_s\":") {
        let (head, tail) = rest.split_at(at + "\"runtime_s\":".len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit() || "+-.eE".contains(c));
    }
    out.push_str(rest);
    out
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn expect(response: &Response, status: u16, what: &str) -> Result<(), String> {
    if response.status == status {
        Ok(())
    } else {
        Err(format!(
            "{what}: status {} (planned {status}): {}",
            response.status,
            response.text()
        ))
    }
}

/// One writer op's measurements.
struct Submission {
    total_s: f64,
    admit_ms: f64,
    wait_s: Option<f64>,
    /// Terminal event → stream closed (fresh jobs).
    settle_ms: Option<f64>,
    result_ms: f64,
    id: u64,
    body: Vec<u8>,
}

/// The program's work counters as an op's deterministic work.
fn counted_work(counters: Counters) -> Work {
    Work::from([
        ("evaluations".to_string(), counters.evaluations()),
        ("solves".to_string(), counters.solves()),
        ("sweeps".to_string(), counters.sweeps()),
        ("traces".to_string(), counters.traces()),
        ("transient_steps".to_string(), counters.transient_steps()),
        ("cpa_checkpoints".to_string(), counters.cpa_checkpoints()),
    ])
}

/// POST → (fresh: SSE stream until the server closes it) → GET result. `on_admit`
/// is called with the job id as soon as the submission is accepted.
fn submit(
    addr: SocketAddr,
    spec: &Spec,
    fresh: bool,
    on_admit: impl FnOnce(u64),
) -> Result<Submission, String> {
    let _span = tsc3d_obs::span!("perfbench.serve_submit");
    let start = Instant::now();
    let admitted = http::request(addr, "POST", "/v1/jobs", &spec.body())?;
    let admit_ms = ms(start);
    expect(
        &admitted,
        if fresh { 202 } else { 200 },
        &format!("submit {}", spec.key()),
    )?;
    let id = Json::parse(admitted.text())
        .ok()
        .and_then(|v| v.get("id").and_then(Json::as_f64))
        .ok_or("submit response without an id")? as u64;
    on_admit(id);
    // A fresh job is awaited on its SSE stream until the server closes it. The stream
    // disconnects "complete" only once the job table shows the job settled, so the
    // result is ready when it closes, and is fetched once.
    let (wait_s, settle_ms) = if fresh {
        let watch = Instant::now();
        let finished = Cell::new(None);
        let events = http::watch(addr, &format!("/v1/jobs/{id}/events"), |text| {
            if finished.get().is_none() && text.contains("\"state\":\"finished\"") {
                finished.set(Some(Instant::now()));
            }
            false
        })?;
        let settle_ms = finished.get().map(ms);
        if settle_ms.is_none() || !events.contains("\"reason\":\"complete\"") {
            let tail: String = events
                .chars()
                .rev()
                .take(300)
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            return Err(format!("job {id} of {} did not finish: {tail}", spec.key()));
        }
        (Some(watch.elapsed().as_secs_f64()), settle_ms)
    } else {
        (None, None)
    };
    let fetch = Instant::now();
    let result = http::request(addr, "GET", &format!("/v1/jobs/{id}/result"), "")?;
    let result_ms = ms(fetch);
    expect(&result, 200, &format!("result of {}", spec.key()))?;
    Ok(Submission {
        total_s: start.elapsed().as_secs_f64(),
        admit_ms,
        wait_s,
        settle_ms,
        result_ms,
        id,
        body: result.body,
    })
}

/// What the writer and reader share: completed jobs (id, spec), the first result body
/// seen per spec, and the reads granted to the reader.
#[derive(Default)]
struct Board {
    done: Mutex<Vec<(u64, Spec)>>,
    bodies: Mutex<BTreeMap<String, Vec<u8>>>,
    grant: Mutex<Grant>,
    granted: Condvar,
}

/// The reads the writer has granted the reader in the current phase, and the fresh job
/// in flight they target.
#[derive(Default)]
struct Grant {
    reads: usize,
    job: Option<(u64, Spec)>,
    stop: bool,
}

impl Board {
    fn set_grant(&self, update: impl FnOnce(&mut Grant)) {
        update(&mut self.grant.lock().expect("grant"));
        self.granted.notify_all();
    }

    /// Blocks until the reader may issue its read number `issued`; returns the job in
    /// flight, or `None` once the phase is over.
    fn next_read(&self, issued: usize) -> Option<(u64, Spec)> {
        let mut grant = self.grant.lock().expect("grant");
        while !grant.stop && issued >= grant.reads {
            grant = self.granted.wait(grant).expect("grant");
        }
        if grant.stop {
            None
        } else {
            grant.job
        }
    }

    /// Checks a result body against the recording (runtime-normalised) and against
    /// every earlier body of the same spec (byte for byte).
    fn check(
        &self,
        bench: &mut Bench,
        spec: &Spec,
        body: &[u8],
        work: Option<Work>,
    ) -> Result<(), String> {
        let text = std::str::from_utf8(body).map_err(|_| "result body is not UTF-8")?;
        let normalized = normalized(text);
        let output = format!(
            "len={} digest={}",
            normalized.len(),
            Fnv::hex(normalized.as_bytes())
        );
        bench.checker.check(&spec.key(), &output, work)?;
        let mut bodies = self.bodies.lock().expect("bodies");
        match bodies.get(&spec.key()) {
            Some(first) if first != body => Err(format!(
                "{}: result body changed between submissions",
                spec.key()
            )),
            Some(_) => Ok(()),
            None => {
                bodies.insert(spec.key(), body.to_vec());
                Ok(())
            }
        }
    }
}

/// What the reader saw in one phase.
#[derive(Default)]
struct Reads {
    latencies_ms: Vec<f64>,
    failures: Vec<String>,
    /// In-flight resubmissions the server answered as dedups (the rest found the job
    /// already done and were cache hits).
    dedups: u64,
}

/// Resubmits `spec`. With `in_flight`, the id of the job running it, the planned answer
/// is a dedup onto that id, or a cache hit if the job has just finished; without, a cache
/// hit. Returns whether it was a dedup.
fn resubmit(addr: SocketAddr, spec: &Spec, in_flight: Option<u64>) -> Result<bool, String> {
    let r = http::request(addr, "POST", "/v1/jobs", &spec.body())?;
    let answer = Json::parse(r.text())?;
    let flag = |name: &str| answer.get(name) == Some(&Json::Bool(true));
    let same_job = answer.get("id").and_then(Json::as_f64).map(|id| id as u64) == in_flight;
    match r.status {
        202 if in_flight.is_some() && flag("deduped") && same_job => Ok(true),
        200 if flag("cached") => Ok(false),
        _ => Err(format!(
            "resubmission of {}: status {} (planned {}): {}",
            spec.key(),
            r.status,
            if in_flight.is_some() {
                "202 deduped onto the job in flight, or 200 cached"
            } else {
                "200 cached"
            },
            r.text()
        )),
    }
}

/// The reader: `READS_PER_OP` back-to-back reads per fresh writer op, until the phase
/// ends. Read 0 of an op resubmits the op's own spec while it runs; every
/// `CACHE_HIT_EVERY`-th resubmits a completed spec; the rest cycle a status poll of the
/// job in flight, `/v1/stats` and `/metrics`.
fn reader(addr: SocketAddr, board: &Board) -> Reads {
    let mut reads = Reads::default();
    let mut issued = 0usize;
    while let Some((id, spec)) = board.next_read(issued) {
        let k = issued % READS_PER_OP;
        let start = Instant::now();
        let outcome = if k == 0 {
            resubmit(addr, &spec, Some(id)).map(|dedup| reads.dedups += u64::from(dedup))
        } else if k % CACHE_HIT_EVERY == 0 {
            let done = board.done.lock().expect("done");
            let spec = done[issued / CACHE_HIT_EVERY % done.len()].1;
            drop(done);
            resubmit(addr, &spec, None).map(drop)
        } else {
            let (path, what) = match k % 3 {
                0 => (format!("/v1/jobs/{id}"), "status poll"),
                1 => ("/v1/stats".to_string(), "stats"),
                _ => ("/metrics".to_string(), "metrics"),
            };
            http::request(addr, "GET", &path, "").and_then(|r| expect(&r, 200, what))
        };
        reads.latencies_ms.push(ms(start));
        if let Err(e) = outcome {
            reads.failures.push(e);
        }
        issued += 1;
    }
    reads
}

fn config(state_dir: &Path) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        state_dir: Some(state_dir.to_path_buf()),
        http_threads: HTTP_THREADS,
        ..ServerConfig::default()
    }
}

fn server_stats(addr: SocketAddr) -> Result<Json, String> {
    let response = http::request(addr, "GET", "/v1/stats", "")?;
    expect(&response, 200, "stats")?;
    Json::parse(response.text())
}

fn counter(stats: &Json, group: &str, field: &str) -> f64 {
    stats
        .get(group)
        .and_then(|g| g.get(field))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// The sum of every sample of a Prometheus family in `/metrics`.
fn metric_sum(addr: SocketAddr, family: &str) -> f64 {
    http::request(addr, "GET", "/metrics", "")
        .map(|r| {
            r.text()
                .lines()
                .filter(|l| l.starts_with(family) && l[family.len()..].starts_with([' ', '{']))
                .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
                .sum()
        })
        .unwrap_or(0.0)
}

pub fn run(bench: &mut Bench) -> Result<(), String> {
    bench.threads = vec![
        ("client_connections", 2),
        ("serve_workers", WORKERS),
        ("serve_http_threads", HTTP_THREADS),
    ];
    let dir = out_dir().join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = run_in(bench, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(bench: &mut Bench, dir: &Path) -> Result<(), String> {
    let board = Board::default();
    if bench.args.record {
        let server = Server::start(config(dir)).map_err(|e| e.to_string())?;
        let addr = server.local_addr();
        // Sequential submissions, so the SA work each spec caused is attributable.
        let result = catalog().iter().try_for_each(|spec| {
            let before = Counters::now();
            let done = submit(addr, spec, true, drop)?;
            let work = counted_work(Counters::now().since(before));
            board.check(bench, spec, &done.body, Some(work))
        });
        server.shutdown();
        return result;
    }

    let fresh = draw(bench.args.seed, &eligible(&bench.checker));
    if fresh.len() < 4 * SETUPS {
        return Err("too few eligible specs in the serve recording".into());
    }
    // Set-up: start (rep > 0: restart on the same state dir, recovering the earlier
    // reps' results), run one fresh spec, and resubmit the previous rep's spec, which
    // must be a cache hit served from the recovered state.
    let (server, setup_s) = setup(
        bench.started,
        SETUPS,
        |rep| {
            let server = Server::start(config(dir)).map_err(|e| e.to_string())?;
            let addr = server.local_addr();
            let before = Counters::now();
            let done = submit(addr, &fresh[rep], true, drop)?;
            let work = counted_work(Counters::now().since(before));
            board.check(bench, &fresh[rep], &done.body, Some(work))?;
            if rep > 0 {
                let again = submit(addr, &fresh[rep - 1], false, drop)?;
                board.check(bench, &fresh[rep - 1], &again.body, None)?;
            }
            *board.done.lock().expect("done") = vec![(done.id, fresh[rep])];
            Ok(server)
        },
        Server::shutdown,
    )?;
    bench.setup_s = setup_s;
    let addr = server.local_addr();
    let mut next_fresh = SETUPS;
    let mut rng = Rng::new(bench.args.seed ^ 0x0e9e_a750);

    let mut phase = |bench: &mut Bench, traced: bool| -> (Vec<Submission>, u64) {
        board.set_grant(|grant| *grant = Grant::default());
        let mut submissions = Vec::new();
        let mut dedups = 0;
        std::thread::scope(|scope| {
            let reads = scope.spawn(|| reader(addr, &board));
            bench.closed_loop(traced, |bench, i| {
                let repeat = i % REPEAT_EVERY == REPEAT_EVERY - 1 || next_fresh >= fresh.len();
                let spec = if repeat {
                    let done = board.done.lock().expect("done");
                    done[rng.below(done.len() as u64) as usize].1
                } else {
                    next_fresh += 1;
                    fresh[next_fresh - 1]
                };
                // A fresh job runs alone on the server (the reader's resubmissions are
                // dedups and cache hits, which do no work), so the counters' delta is
                // its work. A repeat is a cache hit and does none.
                let before = Counters::now();
                let done = submit(addr, &spec, !repeat, |id| {
                    if !repeat {
                        board.set_grant(|grant| {
                            grant.reads += READS_PER_OP;
                            grant.job = Some((id, spec));
                        });
                    }
                })?;
                let work = (!repeat).then(|| counted_work(Counters::now().since(before)));
                board.check(bench, &spec, &done.body, work)?;
                board.done.lock().expect("done").push((done.id, spec));
                let seconds = done.total_s;
                submissions.push(done);
                Ok(seconds)
            });
            board.set_grant(|grant| grant.stop = true);
            let reads = reads.join().expect("reader thread");
            bench.attempted += reads.latencies_ms.len() as u64;
            for failure in reads.failures {
                bench.fail(format!("read: {failure}"));
            }
            dedups = reads.dedups;
            if !traced {
                bench.reads_ms = reads.latencies_ms;
            }
        });
        (submissions, dedups)
    };

    let (submissions, dedups) = phase(bench, false);
    note_settling(bench, "untraced", &submissions, dedups);
    if bench.args.trace {
        let before = server_stats(addr)?;
        let parks = metric_sum(addr, "tsc3d_pool_parks_total");
        let rejected = metric_sum(addr, "tsc3d_serve_rejected_total");
        let (submissions, dedups) = phase(bench, true);
        note_settling(bench, "traced", &submissions, dedups);
        let after = server_stats(addr)?;
        bench.layer(
            "exec.parks",
            metric_sum(addr, "tsc3d_pool_parks_total") - parks,
        );
        bench.layer(
            "serve.rejected",
            metric_sum(addr, "tsc3d_serve_rejected_total") - rejected,
        );
        serve_layers(bench, &submissions, &before, &after);
        bench.note("stats_after_traced_phase", after);
    }
    server.shutdown();
    Ok(())
}

/// Records how long jobs took from their terminal event to the stream's close, and how
/// many of the reader's in-flight resubmissions were dedups.
fn note_settling(bench: &mut Bench, phase: &str, submissions: &[Submission], dedups: u64) {
    let settle: Vec<f64> = submissions.iter().filter_map(|s| s.settle_ms).collect();
    bench.note(
        &format!("{phase}_settle_ms_p50"),
        Json::Num(stats::median(&settle).unwrap_or(0.0)),
    );
    bench.note(&format!("{phase}_reader_dedups"), Json::Num(dedups as f64));
}

fn serve_layers(bench: &mut Bench, submissions: &[Submission], before: &Json, after: &Json) {
    let median = |values: Vec<f64>| stats::median(&values).unwrap_or(0.0);
    bench.layer(
        "serve.admit_ms",
        median(submissions.iter().map(|s| s.admit_ms).collect()),
    );
    bench.layer(
        "serve.wait_s",
        median(submissions.iter().filter_map(|s| s.wait_s).collect()),
    );
    bench.layer(
        "serve.result_ms",
        median(submissions.iter().map(|s| s.result_ms).collect()),
    );
    let routes = [
        ("/v1/jobs", "serve.http_p50_ms.jobs_post"),
        ("/v1/jobs/{id}", "serve.http_p50_ms.job_status"),
        ("/v1/jobs/{id}/result", "serve.http_p50_ms.job_result"),
        ("/v1/jobs/{id}/events", "serve.http_p50_ms.job_events"),
        ("/v1/stats", "serve.http_p50_ms.stats"),
        ("/metrics", "serve.http_p50_ms.metrics"),
    ];
    for route in after.get("http").map(Json::as_arr).unwrap_or_default() {
        let path = route.get("path").and_then(Json::as_str).unwrap_or_default();
        if let Some((_, name)) = routes.iter().find(|(p, _)| *p == path) {
            bench.layer(
                name,
                route.get("p50_ms").and_then(Json::as_f64).unwrap_or(0.0),
            );
        }
    }
    let delta =
        |group: &str, field: &str| counter(after, group, field) - counter(before, group, field);
    let submitted = delta("jobs", "submitted");
    bench.layer(
        "serve.cache_hit_ratio",
        delta("jobs", "cache_hits") / submitted.max(1.0),
    );
    bench.layer("serve.dedup_hits", delta("jobs", "dedup_hits"));
    let busy_s = delta("pool", "busy_seconds");
    bench.layer("serve.pool_busy_s", busy_s);
    bench.layer("exec.busy_s", busy_s);
    bench.layer(
        "exec.utilization",
        busy_s / (WORKERS as f64 * bench.traced.wall_s),
    );
    bench.layer("exec.steals", delta("pool", "steals"));
    crate::counter_layers(bench);
}
