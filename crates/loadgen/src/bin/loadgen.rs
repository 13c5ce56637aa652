//! `loadgen` — drive a `tsc3d-serve` instance with a seeded workload and
//! record the latency trajectory.
//!
//! ```text
//! loadgen --addr 127.0.0.1:7878 --mix mixed --requests 2000 --label pr10 \
//!         --append BENCH_serve.json
//! loadgen --self-serve --mode open --mean-interval-us 800 --schedule-out s.tsv
//! ```

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use tsc3d_loadgen::{mix::Mix, report, run, schedule};
use tsc3d_obs::bench::SERVE_SCHEMA;
use tsc3d_serve::{Server, ServerConfig};

const USAGE: &str = "\
loadgen — deterministic HTTP load generator for tsc3d-serve

USAGE:
    loadgen [--addr HOST:PORT | --self-serve] [OPTIONS]

TARGET:
    --addr HOST:PORT        drive an already-running server
    --self-serve            boot a private in-process server on an ephemeral
                            port, drive it, and shut it down afterwards

WORKLOAD:
    --mix NAME              operation mix: mixed | reads | submits  [mixed]
    --requests N            schedule length                         [500]
    --seed N                schedule seed                           [42]
    --mode MODE             closed | open                           [closed]
    --workers N             worker threads (closed-loop concurrency) [4]
    --mean-interval-us N    open-loop mean arrival interval, µs     [1000]
    --deadline-s N          wall-clock budget for the issuing phase [60]
    --timeout-ms N          per-request socket timeout              [5000]

OUTPUT:
    --label LABEL           bench entry label                       [dev]
    --note TEXT             free-form note stored on the entry
    --append PATH           append this run to a BENCH_serve.json (created if
                            missing; a file of another schema is refused)
    --schedule-out PATH     dump the generated schedule (stable text form)
    --fail-on-5xx           exit 1 if any request drew a 5xx or I/O error
";

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == name {
            return args.next();
        }
    }
    None
}

fn arg_present(name: &str) -> bool {
    std::env::args().any(|arg| arg == name)
}

fn parsed<T: std::str::FromStr>(name: &str, default: T) -> Result<T, ExitCode> {
    match arg_value(name) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| {
            eprintln!("loadgen: {name} takes a number, got '{raw}'");
            ExitCode::from(2)
        }),
    }
}

fn main() -> ExitCode {
    if arg_present("--help") || arg_present("-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    let mix_name = arg_value("--mix").unwrap_or_else(|| "mixed".to_string());
    let Some(mix) = Mix::preset(&mix_name) else {
        eprintln!("loadgen: unknown mix '{mix_name}' (mixed | reads | submits)");
        return ExitCode::from(2);
    };
    let mode = {
        let raw = arg_value("--mode").unwrap_or_else(|| "closed".to_string());
        match run::Mode::parse(&raw) {
            Some(mode) => mode,
            None => {
                eprintln!("loadgen: unknown mode '{raw}' (closed | open)");
                return ExitCode::from(2);
            }
        }
    };
    let requests: usize = match parsed("--requests", 500) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let seed: u64 = match parsed("--seed", 42) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let workers: usize = match parsed("--workers", 4) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let mean_interval_us: u64 = match parsed("--mean-interval-us", 1000) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let deadline_s: u64 = match parsed("--deadline-s", 60) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let timeout_ms: u64 = match parsed("--timeout-ms", 5000) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let label = arg_value("--label").unwrap_or_else(|| "dev".to_string());

    // The schedule exists before (and independently of) any server: dumping it
    // must work even when the run later fails.
    let plan = Arc::new(schedule::generate(
        seed,
        &mix,
        requests,
        mean_interval_us.saturating_mul(1000),
    ));
    if let Some(path) = arg_value("--schedule-out") {
        if let Err(err) = std::fs::write(&path, schedule::schedule_dump(&plan)) {
            eprintln!("loadgen: could not write {path}: {err}");
            return ExitCode::from(2);
        }
        println!(
            "loadgen: schedule ({} requests) written to {path}",
            plan.len()
        );
        // Plan-only mode: with no target given, dumping the schedule IS the
        // run (the determinism harness diffs these dumps across invocations).
        if !arg_present("--self-serve") && arg_value("--addr").is_none() {
            return ExitCode::SUCCESS;
        }
    }

    // Resolve the target: an external server or a private in-process one.
    let mut self_server = None;
    let addr: SocketAddr = if arg_present("--self-serve") {
        let server = match Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            http_threads: 4,
            queue_cap: 64,
            cache_cap: 256,
            ..ServerConfig::default()
        }) {
            Ok(server) => server,
            Err(err) => {
                eprintln!("loadgen: self-serve boot failed: {err:?}");
                return ExitCode::FAILURE;
            }
        };
        let addr = server.local_addr();
        self_server = Some(server);
        addr
    } else {
        let Some(raw) = arg_value("--addr") else {
            eprintln!("loadgen: need --addr HOST:PORT or --self-serve (see --help)");
            return ExitCode::from(2);
        };
        match raw.parse() {
            Ok(addr) => addr,
            Err(_) => {
                eprintln!("loadgen: '--addr {raw}' is not HOST:PORT");
                return ExitCode::from(2);
            }
        }
    };

    println!(
        "loadgen: {} {} requests (mix {}, seed {seed}, {} workers) against {addr}",
        mode.as_str(),
        plan.len(),
        mix.name,
        workers
    );
    let config = run::RunConfig {
        addr,
        mode,
        workers,
        timeout: Duration::from_millis(timeout_ms),
        deadline: Duration::from_secs(deadline_s),
    };
    let result = run::execute(&config, Arc::clone(&plan));
    if let Some(server) = self_server {
        server.shutdown();
    }

    // Human summary, one line per touched endpoint.
    println!(
        "loadgen: issued {}/{} in {:.2}s ({:.0} req/s overall), {} server errors, {} I/O errors",
        result.issued,
        plan.len(),
        result.elapsed.as_secs_f64(),
        result.requests_per_sec(),
        result.server_errors,
        result.io_errors
    );
    for (endpoint, record) in &result.endpoints {
        if record.total() == 0 {
            continue;
        }
        println!(
            "  {endpoint:<16} n={:<6} p50={:>9} p99={:>9} max={:>9} ok={} 4xx={} 5xx={} io={}",
            record.total(),
            tsc3d_obs::report::fmt_ns(record.latency.quantile(0.5) as u64),
            tsc3d_obs::report::fmt_ns(record.latency.quantile(0.99) as u64),
            tsc3d_obs::report::fmt_ns(record.latency.max_ns()),
            record.ok.load(Ordering::Relaxed),
            record.client_errors.load(Ordering::Relaxed),
            record.server_errors.load(Ordering::Relaxed),
            record.io_errors.load(Ordering::Relaxed),
        );
    }

    let entry = report::render_entry(
        &label,
        arg_value("--note").as_deref(),
        mix.name,
        mode,
        &result,
    );
    if let Some(path) = arg_value("--append") {
        let path = std::path::Path::new(&path);
        if let Err(err) = tsc3d_obs::bench::append_entry(path, SERVE_SCHEMA, entry) {
            eprintln!("loadgen: could not append to {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        println!("loadgen: appended entry '{label}' to {}", path.display());
    }

    if arg_present("--fail-on-5xx") && result.server_errors + result.io_errors > 0 {
        eprintln!(
            "loadgen: FAIL — {} server errors, {} I/O errors",
            result.server_errors, result.io_errors
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
