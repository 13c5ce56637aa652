//! `obs` — render observability artifacts.
//!
//! ```text
//! obs report PATH        # aggregate a --trace-out JSONL span export into a
//!                        # self/total-time tree + per-span latency quantiles
//! obs flamegraph PATH    # collapse the same export into folded-stack lines
//!                        # (flamegraph.pl / inferno / speedscope input)
//! obs bench-diff PATH    # label-over-label metric deltas of a
//!                        # BENCH_flow.json / BENCH_serve.json history
//! ```
//!
//! `report` and `flamegraph` read the JSONL file written by `campaign ...
//! --trace-out PATH`, `serve --trace-out PATH`, or a saved `GET /v1/trace`
//! response. `bench-diff` reads the repo's benchmark histories (schemas
//! `tsc3d-bench-flow/v1` and `tsc3d-bench-serve/v1`); with `--gate` it is the
//! workspace's one bench gate (see [`tsc3d_obs::bench`]).

use std::process::ExitCode;

use tsc3d_obs as obs;

const USAGE: &str = "usage:
  obs report PATH [--top N]
      Render the span tree of a --trace-out JSONL export (campaign/serve
      binaries) or a saved GET /v1/trace response: total time, self time,
      span count, then per-span-name P50/P95/P99 latency quantiles. With
      --top N, also print the flat top-N span names by self time.
  obs flamegraph PATH
      Collapse the same JSONL export into folded-stack lines on stdout
      ('root;child;leaf self_ns'), ready for flamegraph.pl, inferno, or
      speedscope.
  obs bench-diff PATH [--from LABEL --to LABEL] [--threshold PCT]
                      [--trajectory] [--gate]
      Compare labeled entries of a BENCH_flow.json or BENCH_serve.json
      history. Defaults to the newest entry against the newest earlier entry
      that shares a section with it (nothing to compare, exit 0, when none
      does); --trajectory walks every consecutive pair. Adverse moves beyond
      PCT percent (default 25) are flagged REGRESSION — drops for *_per_sec
      throughputs, rises for *_ms latencies and errors counts; with --gate a
      flag also sets a failing exit code.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("report") => {
            let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            report(path, &args[2..])
        }
        Some("flamegraph") => {
            let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            flamegraph(path)
        }
        Some("bench-diff") => {
            let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            bench_diff(path, &args[2..])
        }
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("obs: unknown command '{other}'\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn read_spans(path: &str) -> Result<Vec<obs::SpanRecord>, ExitCode> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("obs: cannot read {path}: {e}");
            return Err(ExitCode::from(2));
        }
    };
    match obs::parse_jsonl(&text) {
        Ok(spans) => Ok(spans),
        Err(e) => {
            eprintln!("obs: {path}: {e}");
            Err(ExitCode::from(2))
        }
    }
}

fn report(path: &str, args: &[String]) -> ExitCode {
    let top: Option<usize> = match arg_value(args, "--top") {
        None => None,
        Some(raw) => match raw.parse() {
            Ok(n) => Some(n),
            Err(_) => {
                eprintln!("obs: --top expects a count, got '{raw}'");
                return ExitCode::from(2);
            }
        },
    };
    let spans = match read_spans(path) {
        Ok(spans) => spans,
        Err(code) => return code,
    };
    if spans.is_empty() {
        println!("{path}: no spans (was tracing enabled?)");
        return ExitCode::SUCCESS;
    }
    print!("{}", obs::render_tree(&obs::aggregate(&spans)));
    println!();
    if let Some(n) = top {
        print!("{}", obs::render_top(&spans, n));
        println!();
    }
    print!("{}", obs::render_quantiles(&spans));
    ExitCode::SUCCESS
}

fn flamegraph(path: &str) -> ExitCode {
    let spans = match read_spans(path) {
        Ok(spans) => spans,
        Err(code) => return code,
    };
    if spans.is_empty() {
        eprintln!("obs: {path}: no spans (was tracing enabled?)");
        return ExitCode::from(2);
    }
    print!("{}", obs::render_folded(&spans));
    ExitCode::SUCCESS
}

fn arg_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn bench_diff(path: &str, args: &[String]) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("obs: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let file = match obs::bench::parse_bench(&text) {
        Ok(file) => file,
        Err(e) => {
            eprintln!("obs: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let raw = arg_value(args, "--threshold").unwrap_or("25");
    let threshold = match raw.parse::<f64>() {
        // Under `nan` or `inf` no comparison flags a regression: the gate could never fail.
        Ok(value) if value.is_finite() && value >= 0.0 => value,
        _ => {
            eprintln!("obs: --threshold expects a finite percentage of at least 0, got '{raw}'");
            return ExitCode::from(2);
        }
    };
    let gate = args.iter().any(|a| a == "--gate");

    let report = if args.iter().any(|a| a == "--trajectory") {
        obs::bench::render_trajectory(&file, threshold)
    } else {
        let pair = match (arg_value(args, "--from"), arg_value(args, "--to")) {
            (Some(from), Some(to)) => match (file.entry(from), file.entry(to)) {
                (Ok(old), Ok(new)) => (old, new),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("obs: {path}: {e}");
                    return ExitCode::from(2);
                }
            },
            // Default: the newest entry against the newest earlier entry that
            // shares a section with it.
            (None, None) => match file.default_pair() {
                Some(pair) => pair,
                None => {
                    println!(
                        "{path}: no earlier entry shares a section with the newest; \
                         nothing to compare"
                    );
                    return ExitCode::SUCCESS;
                }
            },
            _ => {
                eprintln!("obs: --from and --to must be given together");
                return ExitCode::from(2);
            }
        };
        obs::bench::render_diff(pair.0, pair.1, threshold)
    };
    print!("{}", report.text);
    if report.regressed && gate {
        eprintln!("obs: at least one rate regressed beyond {threshold}%");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
