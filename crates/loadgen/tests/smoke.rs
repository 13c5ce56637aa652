//! End-to-end smoke: a seeded run against a real in-process serve instance
//! must complete with zero server-side failures and produce a bench entry
//! that `obs bench-diff` can parse and diff.

use std::process::Command;
use std::sync::Arc;
use std::time::Duration;
use tsc3d_loadgen::{generate, report, run, Mix, Mode, RunConfig};
use tsc3d_obs::bench::SERVE_SCHEMA;
use tsc3d_obs::json::Json;
use tsc3d_serve::{Server, ServerConfig};

fn test_server() -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        http_threads: 4,
        queue_cap: 64,
        cache_cap: 256,
        ..ServerConfig::default()
    })
    .expect("server boots")
}

#[test]
fn seeded_run_has_no_server_errors_and_benches_parse() {
    let server = test_server();
    let mix = Mix::preset("mixed").unwrap();
    let plan = Arc::new(generate(42, &mix, 150, 0));
    let config = RunConfig {
        addr: server.local_addr(),
        mode: Mode::Closed,
        workers: 3,
        timeout: Duration::from_secs(10),
        deadline: Duration::from_secs(120),
    };
    let result = run::execute(&config, Arc::clone(&plan));
    server.shutdown();

    assert_eq!(result.issued, plan.len(), "the whole schedule was issued");
    assert_eq!(result.server_errors, 0, "no 5xx under the smoke workload");
    assert_eq!(result.io_errors, 0, "every request produced a status line");

    // Every endpoint kind in the mix actually got exercised and measured.
    for endpoint in [
        "/v1/jobs:flow",
        "/v1/jobs:repeat",
        "/v1/jobs/{id}",
        "/v1/stats",
        "/metrics",
        "/v1/events",
    ] {
        let record = result
            .endpoints
            .get(endpoint)
            .unwrap_or_else(|| panic!("endpoint {endpoint} missing"));
        assert!(record.total() > 0, "{endpoint} saw no requests");
        assert!(
            record.latency.quantile(0.5) > 0.0,
            "{endpoint} recorded no latency"
        );
    }

    // The bench entry round-trips through the obs parser with the expected
    // identity and metric columns.
    let entry = report::render_entry("smoke", None, mix.name, Mode::Closed, &result);
    let doc = Json::Obj(vec![
        ("schema".to_string(), Json::Str(SERVE_SCHEMA.to_string())),
        ("entries".to_string(), Json::Arr(vec![entry])),
    ]);
    let file = tsc3d_obs::bench::parse_bench(&doc.render()).expect("bench JSON parses");
    assert_eq!(file.schema, SERVE_SCHEMA);
    let (section, rows) = &file.entries[0].sections[0];
    assert_eq!(section, "http");
    assert!(rows.len() >= 5, "one row per exercised endpoint: {rows:?}");
    for row in rows {
        assert!(row.key.contains("mode=closed") && row.key.contains("mix=mixed"));
        let errors = row.rates.iter().find(|(n, _, _)| n == "errors").unwrap();
        assert_eq!(errors.1, 0.0, "{}: clean run", row.key);
    }
}

#[test]
fn open_loop_latency_includes_schedule_slip() {
    // One worker, 40 requests scheduled at the same instant: each is issued
    // after the one before it completes, but its latency clock starts at its
    // intended send time — so it carries the service time of every earlier
    // request on top of its own (no coordinated omission).
    let server = test_server();
    let mix = Mix::preset("reads").unwrap();
    let plan = Arc::new(generate(11, &mix, 40, 0));
    let config = RunConfig {
        addr: server.local_addr(),
        mode: Mode::Open,
        workers: 1,
        timeout: Duration::from_secs(10),
        deadline: Duration::from_secs(120),
    };
    let result = run::execute(&config, Arc::clone(&plan));
    server.shutdown();
    assert_eq!(result.issued, plan.len());
    assert_eq!(result.server_errors + result.io_errors, 0);
    // All 40 arrivals are scheduled at offset 0 and drained serially, so the last
    // one's latency clock runs from the start of the run and spans nearly the
    // whole issuing phase. A generator that started the clock at the actual
    // send (coordinated omission) would record about elapsed / 40 instead.
    let max_ns = result
        .endpoints
        .values()
        .map(|r| r.latency.max_ns())
        .max()
        .unwrap();
    let half_run_ns = (result.elapsed / 2).as_nanos() as u64;
    assert!(
        max_ns >= half_run_ns,
        "open-loop max ({max_ns}ns) should span most of the run ({half_run_ns}ns \
         is half of it)"
    );
}

#[test]
fn cli_self_serve_writes_a_parseable_bench_file() {
    // A fresh path: `--append` creates the file (and its directory).
    let dir = std::env::temp_dir().join(format!("tsc3d-loadgen-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let bench = dir.join("BENCH_serve.json");
    let output = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args([
            "--self-serve",
            "--mix",
            "reads",
            "--requests",
            "80",
            "--seed",
            "5",
            "--workers",
            "2",
            "--label",
            "smoke-cli",
            "--fail-on-5xx",
            "--append",
        ])
        .arg(&bench)
        .output()
        .expect("loadgen binary runs");
    assert!(
        output.status.success(),
        "loadgen failed:\n{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&bench).expect("bench file written");
    let file = tsc3d_obs::bench::parse_bench(&text).expect("bench file parses");
    assert_eq!(file.schema, "tsc3d-bench-serve/v1");
    assert_eq!(file.entries[0].label, "smoke-cli");
    assert!(!file.entries[0].sections.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
