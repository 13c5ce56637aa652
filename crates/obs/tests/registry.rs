//! Registry correctness under contention plus exposition-format guarantees:
//! concurrent updates from N threads sum exactly, the Prometheus text output is
//! stable-ordered and correctly escaped, and histogram `le` buckets rendered from
//! the HDR cells stay monotonic and within `1/32` of the exact counts.

use tsc3d_obs::metrics::LE_GRID_S;
use tsc3d_obs::Registry;

#[test]
fn concurrent_counter_updates_sum_exactly() {
    const THREADS: usize = 8;
    const INCS: u64 = 10_000;
    let registry = Registry::new();
    let counter = registry.counter("tsc3d_test_total", "concurrent increments");
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let counter = counter.clone();
            scope.spawn(move || {
                for _ in 0..INCS {
                    counter.inc();
                }
            });
        }
    });
    assert_eq!(counter.get(), THREADS as u64 * INCS);
    assert!(registry
        .render()
        .contains(&format!("tsc3d_test_total {}", THREADS as u64 * INCS)));
}

#[test]
fn concurrent_histogram_updates_sum_exactly() {
    const THREADS: usize = 8;
    const OBS: u64 = 5_000;
    let registry = Registry::new();
    let histogram = registry.histogram_with("tsc3d_test_seconds", "concurrent observations", &[]);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let histogram = histogram.clone();
            scope.spawn(move || {
                for _ in 0..OBS {
                    // 0.5 s and 4 s, in nanoseconds.
                    histogram.observe(if t % 2 == 0 {
                        500_000_000
                    } else {
                        4_000_000_000
                    });
                }
            });
        }
    });
    let half = THREADS as u64 / 2 * OBS;
    assert_eq!(histogram.count(), THREADS as u64 * OBS);
    assert_eq!(
        histogram.sum_ns(),
        half * 500_000_000 + half * 4_000_000_000
    );
    let text = registry.render();
    // 0.5 s observations land in le="1", all observations in le="+Inf" (cumulative).
    assert!(text.contains(&format!("tsc3d_test_seconds_bucket{{le=\"1\"}} {half}")));
    assert!(text.contains(&format!(
        "tsc3d_test_seconds_bucket{{le=\"+Inf\"}} {}",
        THREADS as u64 * OBS
    )));
    assert!(text.contains(&format!("tsc3d_test_seconds_sum {}", half * 9 / 2)));
}

#[test]
fn gauge_add_is_atomic_under_contention() {
    let registry = Registry::new();
    let gauge = registry.gauge("tsc3d_test_gauge", "concurrent adds");
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let gauge = gauge.clone();
            scope.spawn(move || {
                for _ in 0..1_000 {
                    gauge.add(0.25);
                }
            });
        }
    });
    assert_eq!(gauge.get(), 8.0 * 1_000.0 * 0.25);
}

#[test]
fn render_is_stable_ordered() {
    let registry = Registry::new();
    // Register deliberately out of name order and out of label order.
    registry.counter("tsc3d_zebra_total", "last family");
    registry.counter_with("tsc3d_alpha_total", "first family", &[("kind", "timeout")]);
    registry.counter_with("tsc3d_alpha_total", "first family", &[("kind", "assign")]);
    registry.gauge("tsc3d_middle", "middle family").set(2.5);
    let first = registry.render();
    // Families sorted by name, series sorted by label set, idempotent re-render.
    let alpha = first.find("tsc3d_alpha_total").unwrap();
    let middle = first.find("tsc3d_middle").unwrap();
    let zebra = first.find("tsc3d_zebra_total").unwrap();
    assert!(alpha < middle && middle < zebra, "{first}");
    assert!(
        first.find("kind=\"assign\"").unwrap() < first.find("kind=\"timeout\"").unwrap(),
        "{first}"
    );
    assert_eq!(first, registry.render());
    assert!(first.contains("tsc3d_middle 2.5"));
}

#[test]
fn label_values_and_help_are_escaped() {
    let registry = Registry::new();
    registry
        .counter_with(
            "tsc3d_escape_total",
            "help with \\ backslash\nand newline",
            &[("path", "a\\b \"quoted\"\nline")],
        )
        .inc();
    let text = registry.render();
    assert!(text.contains("# HELP tsc3d_escape_total help with \\\\ backslash\\nand newline"));
    assert!(text.contains("path=\"a\\\\b \\\"quoted\\\"\\nline\""));
    // Every rendered line is still single-line (no raw newline leaked through).
    assert_eq!(text.lines().count(), 3);
}

#[test]
fn labels_are_sorted_with_le_semantics_preserved() {
    let registry = Registry::new();
    let histogram = registry.histogram_with(
        "tsc3d_labeled_seconds",
        "labeled histogram",
        &[("stage", "verify")],
    );
    histogram.observe(50_000_000); // 0.05 s
    let text = registry.render();
    // Non-`le` labels come first; `le` stays last on bucket lines.
    assert!(text.contains("tsc3d_labeled_seconds_bucket{stage=\"verify\",le=\"0.1\"} 1"));
    assert!(text.contains("tsc3d_labeled_seconds_count{stage=\"verify\"} 1"));
}

#[test]
#[should_panic(expected = "already registered")]
fn kind_mismatch_panics() {
    let registry = Registry::new();
    registry.counter("tsc3d_kind_total", "a counter");
    registry.gauge("tsc3d_kind_total", "now a gauge?");
}

/// SplitMix64: a seeded stream of test inputs.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The value of the sample line `{prefix} value` in `text`.
fn sample(text: &str, prefix: &str) -> String {
    text.lines()
        .find_map(|line| line.strip_prefix(prefix)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no sample {prefix} in:\n{text}"))
        .to_string()
}

#[test]
fn rendered_buckets_are_monotonic_and_within_one_thirty_second_of_exact() {
    for seed in 0..32u64 {
        let mut state = seed;
        let registry = Registry::new();
        let histogram = registry.histogram_with("tsc3d_prop_seconds", "random observations", &[]);
        let n = 1 + splitmix64(&mut state) % 2_000;
        let mut observed = Vec::new();
        for _ in 0..n {
            let draw = splitmix64(&mut state);
            let le = LE_GRID_S[((draw >> 3) % LE_GRID_S.len() as u64) as usize];
            let bound = (le * 1e9).round() as u64;
            let ns = match draw % 8 {
                // Exactly on, just inside and just past the (1 − 1/32) edge of a bound.
                0 => bound,
                1 => bound / 32 * 31,
                2 => bound / 32 * 31 + 1,
                // Log-uniform from 1 ns to ~550 s, so some land past the last bound.
                _ => (splitmix64(&mut state) >> (splitmix64(&mut state) % 64)) % 550_000_000_000,
            };
            histogram.observe(ns);
            observed.push(ns);
        }
        let text = registry.render();
        let mut previous = 0u64;
        for le in LE_GRID_S {
            let bound = (le * 1e9).round() as u64;
            let rendered: u64 = sample(&text, &format!("tsc3d_prop_seconds_bucket{{le=\"{le}\"}}"))
                .parse()
                .unwrap();
            let count = |within: &dyn Fn(u64) -> bool| {
                observed.iter().filter(|&&v| within(v)).count() as u64
            };
            // Exact counts of observations ≤ bound·(1 − 1/32) and ≤ bound.
            let low = count(&|v| v * 32 <= bound * 31);
            let high = count(&|v| v <= bound);
            assert!(rendered >= previous, "seed {seed}: le={le} decreased");
            assert!(
                (low..=high).contains(&rendered),
                "seed {seed}: le={le} holds {rendered}, exact counts {low}..={high}"
            );
            previous = rendered;
        }
        let inf: u64 = sample(&text, "tsc3d_prop_seconds_bucket{le=\"+Inf\"}")
            .parse()
            .unwrap();
        let count: u64 = sample(&text, "tsc3d_prop_seconds_count").parse().unwrap();
        assert!(inf >= previous, "seed {seed}: +Inf decreased");
        assert_eq!((inf, count), (n, n), "seed {seed}");
        let sum: f64 = sample(&text, "tsc3d_prop_seconds_sum").parse().unwrap();
        assert_eq!(
            sum,
            observed.iter().sum::<u64>() as f64 / 1e9,
            "seed {seed}"
        );
    }
}
