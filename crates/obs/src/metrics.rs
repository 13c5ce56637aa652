//! The unified metrics registry: counters, gauges, histograms and labeled
//! families, with a Prometheus-text encoder.
//!
//! A [`Registry`] is a named map of metric families; registration is get-or-create
//! and returns a cheaply cloneable handle ([`Counter`], [`Gauge`],
//! [`LogHistogram`]) backed by shared atomics, so hot paths update without
//! touching the registry lock. Instrumented library crates record into the
//! process-wide [`global`] registry; the serve daemon keeps its own per-instance
//! [`Registry`] for service-local counters and renders both on `/metrics`.
//!
//! Every histogram series is a [`LogHistogram`] over nanoseconds. The encoder
//! renders it in seconds against one bucket grid, [`LE_GRID_S`]: it scans the
//! HDR cells once, and a cell counts toward the first bound its whole range
//! lies at or below. The one cell straddling a bound therefore counts toward
//! the next bound; every observation it holds lies above `bound·(1 − 1/32)`.
//! `+Inf` and `_count` are the total of that same scan (so the buckets stay
//! monotonic under concurrent writers), and `_sum` is the exact nanosecond sum.
//!
//! The encoder emits the Prometheus text exposition format: one `# HELP` /
//! `# TYPE` header per family, families sorted by name, series sorted by label
//! set, label values escaped (`\\`, `\"`, newline), histogram buckets cumulative
//! with the `le` label last plus `_sum` and `_count` lines.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hdr::LogHistogram;

/// The `le` bucket bounds every registry histogram renders, in seconds: about
/// 1–2.5–5 per decade from 100 µs (cache hits, status polls) up to the 120 s
/// worst-case job. An `+Inf` bucket is implicit.
pub const LE_GRID_S: [f64; 18] = [
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0, 30.0, 120.0,
];

/// A monotonically increasing counter handle (clones share the same cell).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable gauge handle storing an `f64` (clones share the same cell).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge to `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `d` (may be negative) via a compare-and-swap loop.
    pub fn add(&self, d: f64) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + d).to_bits();
            match self
                .0
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(LogHistogram),
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: Kind,
    /// Series keyed by their canonical rendered label set (sorted, escaped).
    series: BTreeMap<String, Series>,
}

/// A named collection of metric families with a Prometheus-text encoder.
#[derive(Debug)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub const fn new() -> Registry {
        Registry {
            families: Mutex::new(BTreeMap::new()),
        }
    }

    /// Get or create the unlabeled counter `name`.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Get or create the counter `name` with the given label pairs.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, help, Kind::Counter, labels, || {
            Series::Counter(Counter::default())
        }) {
            Series::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Get or create the unlabeled gauge `name`.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Get or create the gauge `name` with the given label pairs.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, Kind::Gauge, labels, || {
            Series::Gauge(Gauge::default())
        }) {
            Series::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Get or create the histogram `name` (nanosecond observations, rendered in
    /// seconds against [`LE_GRID_S`]) with the given label pairs.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> LogHistogram {
        match self.series(name, help, Kind::Histogram, labels, || {
            Series::Histogram(LogHistogram::new())
        }) {
            Series::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    fn series(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Series,
    ) -> Series {
        let key = label_key(labels);
        let mut families = self.families.lock().unwrap();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric '{name}' already registered as a {}, requested as a {}",
            family.kind.as_str(),
            kind.as_str()
        );
        family.series.entry(key).or_insert_with(make).clone()
    }

    /// Render every family in Prometheus text exposition format (families sorted
    /// by name, series sorted by label set).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Append the exposition text to `out` (see [`Registry::render`]).
    pub fn render_into(&self, out: &mut String) {
        let families = self.families.lock().unwrap();
        for (name, family) in families.iter() {
            out.push_str(&format!(
                "# HELP {name} {}\n# TYPE {name} {}\n",
                escape_help(&family.help),
                family.kind.as_str()
            ));
            for (key, series) in &family.series {
                match series {
                    Series::Counter(c) => {
                        push_sample(out, name, key, &c.get().to_string());
                    }
                    Series::Gauge(g) => {
                        push_sample(out, name, key, &fmt_f64(g.get()));
                    }
                    Series::Histogram(h) => render_histogram(out, name, key, h),
                }
            }
        }
    }
}

fn push_sample(out: &mut String, name: &str, label_key: &str, value: &str) {
    if label_key.is_empty() {
        out.push_str(&format!("{name} {value}\n"));
    } else {
        out.push_str(&format!("{name}{{{label_key}}} {value}\n"));
    }
}

/// Appends one histogram series: cumulative `le` buckets over [`LE_GRID_S`]
/// from one scan of the cells, then `_sum` (exact) and `_count` (the scan's
/// total, equal to `+Inf`).
fn render_histogram(out: &mut String, name: &str, label_key: &str, histogram: &LogHistogram) {
    let sep = if label_key.is_empty() { "" } else { "," };
    let mut cells = histogram.cells().peekable();
    let mut cumulative = 0u64;
    for le in LE_GRID_S {
        let bound_ns = (le * 1e9).round() as u64;
        // A cell counts once every value it can hold is at or below the bound.
        while let Some((_, _, count)) = cells.next_if(|&(_, upper, _)| upper - 1 <= bound_ns) {
            cumulative += count;
        }
        out.push_str(&format!(
            "{name}_bucket{{{label_key}{sep}le=\"{le}\"}} {cumulative}\n"
        ));
    }
    cumulative += cells.map(|(_, _, count)| count).sum::<u64>();
    out.push_str(&format!(
        "{name}_bucket{{{label_key}{sep}le=\"+Inf\"}} {cumulative}\n"
    ));
    let sum = fmt_f64(histogram.sum_ns() as f64 / 1e9);
    push_sample(out, &format!("{name}_sum"), label_key, &sum);
    let count = cumulative.to_string();
    push_sample(out, &format!("{name}_count"), label_key, &count);
}

/// The canonical series key: labels sorted by name, values escaped.
fn label_key(labels: &[(&str, &str)]) -> String {
    let mut pairs: Vec<&(&str, &str)> = labels.iter().collect();
    pairs.sort_by_key(|(k, _)| *k);
    pairs
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect::<Vec<_>>()
        .join(",")
}

/// Escape a label value per the exposition format: backslash, double quote, newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape HELP text per the exposition format: backslash and newline.
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` sample value (Prometheus spelling for the non-finite cases).
pub fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// The process-wide registry instrumented library crates record into.
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
}
