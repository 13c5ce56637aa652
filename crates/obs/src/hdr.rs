//! A log-bucketed high-dynamic-range latency histogram — the workspace's one
//! histogram type.
//!
//! [`LogHistogram`] records `u64` nanosecond observations into
//! power-of-two-spaced buckets subdivided into [`SUB_COUNT`] linear sub-buckets
//! per octave — the classic HDR layout. Every registry histogram series is one
//! (rendered as Prometheus `le` buckets by [`crate::metrics`]), as are serve's
//! `/v1/stats` quantiles, loadgen's latency records and the `obs report`
//! quantile table. The guarantees they rely on:
//!
//! * **Bounded relative error.** Every bucket above the linear region spans
//!   `2^shift` values starting at `SUB_COUNT * 2^shift`, so the quantization
//!   error is at most `1/SUB_COUNT` (≈3.1% with 32 sub-buckets) of the value —
//!   from single nanoseconds up to [`MAX_TRACKABLE_NS`] (~73 minutes), which
//!   comfortably covers "microseconds to minutes" with one fixed-size table.
//! * **Exact count conservation.** Every observation lands in exactly one
//!   bucket cell (values above the trackable range clamp into the last one);
//!   [`LogHistogram::count`] always equals the sum of the bucket counts, which
//!   the concurrency test asserts under parallel writers.
//!
//! The table is a flat `Vec<AtomicU64>` (~10 KiB), so handles are cheap to
//! share ([`LogHistogram`] clones share cells, like the registry's counters) and
//! recording is two relaxed `fetch_add`s plus two relaxed min/max updates —
//! cheap enough to sit on the HTTP accept-to-last-byte path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// log2 of the sub-buckets per octave: 5 → 32 sub-buckets → ≤3.125% error.
const SUB_BITS: u32 = 5;

/// Linear sub-buckets per octave.
pub const SUB_COUNT: u64 = 1 << SUB_BITS;

/// The highest exponent tracked: values at or above `2^MAX_EXP` ns clamp into
/// the final bucket.
const MAX_EXP: u32 = 42;

/// The largest nanosecond value recorded without clamping (~73 minutes).
pub const MAX_TRACKABLE_NS: u64 = (1 << MAX_EXP) - 1;

/// Number of bucket cells: the linear region `[0, 2·SUB_COUNT)` plus
/// `SUB_COUNT` cells per octave above it.
const BUCKETS: usize = ((MAX_EXP as u64 - SUB_BITS as u64) * SUB_COUNT + SUB_COUNT) as usize;

#[derive(Debug)]
struct Core {
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

/// A shared-handle HDR histogram over nanosecond values (see the module docs).
#[derive(Debug, Clone)]
pub struct LogHistogram(Arc<Core>);

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// The flat bucket index of `v` (values clamp into `[1, MAX_TRACKABLE_NS]`).
fn index_of(v: u64) -> usize {
    let v = v.clamp(1, MAX_TRACKABLE_NS);
    let exp = 63 - u64::leading_zeros(v);
    let shift = exp.saturating_sub(SUB_BITS) as u64;
    (shift * SUB_COUNT + (v >> shift)) as usize
}

/// The half-open value range `[lower, upper)` bucket `index` covers.
fn bounds_of(index: usize) -> (u64, u64) {
    let index = index as u64;
    if index < 2 * SUB_COUNT {
        return (index, index + 1);
    }
    let shift = index / SUB_COUNT - 1;
    let mantissa = index - shift * SUB_COUNT;
    (mantissa << shift, (mantissa + 1) << shift)
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram(Arc::new(Core {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }))
    }

    /// Records one nanosecond observation.
    pub fn observe(&self, ns: u64) {
        let core = &*self.0;
        core.counts[index_of(ns)].fetch_add(1, Ordering::Relaxed);
        core.total.fetch_add(1, Ordering::Relaxed);
        core.sum_ns.fetch_add(ns, Ordering::Relaxed);
        core.min_ns.fetch_min(ns, Ordering::Relaxed);
        core.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records one observation given in seconds, rounded to the nanosecond
    /// (negative and `NaN` record 0; beyond `u64::MAX` ns saturates).
    pub fn observe_secs(&self, seconds: f64) {
        self.observe((seconds * 1e9).round() as u64);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.total.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in nanoseconds (exact, not bucket-quantized).
    pub fn sum_ns(&self) -> u64 {
        self.0.sum_ns.load(Ordering::Relaxed)
    }

    /// Smallest observation (exact), or 0 when empty.
    pub fn min_ns(&self) -> u64 {
        let min = self.0.min_ns.load(Ordering::Relaxed);
        if min == u64::MAX {
            0
        } else {
            min
        }
    }

    /// Largest observation (exact), or 0 when empty.
    pub fn max_ns(&self) -> u64 {
        self.0.max_ns.load(Ordering::Relaxed)
    }

    /// Mean observation in nanoseconds, or `NaN` when empty.
    pub fn mean_ns(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            return f64::NAN;
        }
        self.sum_ns() as f64 / count as f64
    }

    /// Estimates the `q`-quantile in nanoseconds (`q` clamped to `[0, 1]`),
    /// interpolating linearly within the bucket holding rank `max(1, q·count)`
    /// — the estimate Prometheus's `histogram_quantile` computes, with
    /// ≤`1/SUB_COUNT` relative quantization error — and then clamping it to the
    /// exact `[min_ns, max_ns]`, so no quantile reads above the maximum (or
    /// below the minimum) printed beside it. Returns `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return f64::NAN;
        }
        let rank = (q.clamp(0.0, 1.0) * count as f64).max(1.0);
        let mut cumulative = 0u64;
        let mut estimate = self.max_ns() as f64;
        for (lower, upper, in_bucket) in self.cells() {
            if (cumulative + in_bucket) as f64 >= rank {
                let into = (rank - cumulative as f64) / in_bucket as f64;
                estimate = lower as f64 + (upper - lower) as f64 * into;
                break;
            }
            cumulative += in_bucket;
        }
        // `max`/`min` rather than `clamp`: a concurrent first observation can
        // leave the extremes momentarily crossed, and `clamp` panics on that.
        estimate.min(self.max_ns() as f64).max(self.min_ns() as f64)
    }

    /// The non-empty bucket cells in ascending value order, as
    /// `(lower, upper, count)` over the half-open nanosecond range
    /// `[lower, upper)`. Each cell is read once, so the counts of one scan sum
    /// to a total consistent with every prefix of it, even under concurrent
    /// writers.
    pub(crate) fn cells(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.0.counts.iter().enumerate().filter_map(|(i, cell)| {
            let count = cell.load(Ordering::Relaxed);
            (count > 0).then(|| {
                let (lower, upper) = bounds_of(i);
                (lower, upper, count)
            })
        })
    }

    /// The sum of all bucket cells — always equals [`LogHistogram::count`]
    /// (the conservation invariant the tests pin down).
    pub fn bucket_total(&self) -> u64 {
        self.cells().map(|(_, _, count)| count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_monotonic_and_bounded() {
        let mut last = 0usize;
        let mut v = 1u64;
        while v <= MAX_TRACKABLE_NS {
            let i = index_of(v);
            assert!(i >= last, "index must not decrease at {v}");
            assert!(i < BUCKETS, "index {i} out of range at {v}");
            let (lower, upper) = bounds_of(i);
            assert!(
                (lower..upper).contains(&v),
                "{v} outside its bucket [{lower},{upper})"
            );
            last = i;
            v = v.saturating_mul(7) / 3 + 1;
        }
        // Clamps, never panics.
        assert_eq!(index_of(0), index_of(1));
        assert_eq!(index_of(u64::MAX), index_of(MAX_TRACKABLE_NS));
    }

    #[test]
    fn relative_error_is_bounded() {
        // Quantile of a single-value histogram recovers the value to within
        // one sub-bucket width (1/SUB_COUNT relative), from ~1µs to minutes.
        let mut v = 1_000u64;
        while v < 200_000_000_000 {
            let h = LogHistogram::new();
            h.observe(v);
            let q = h.quantile(0.5);
            let err = (q - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / SUB_COUNT as f64 + 1e-9, "err {err} at {v}");
            v = v.saturating_mul(11) / 4;
        }
    }

    #[test]
    fn quantiles_match_fixed_bucket_semantics() {
        // Prometheus `histogram_quantile` semantics: rank max(1, q·count),
        // interpolated linearly within the bucket that holds it.
        let h = LogHistogram::new();
        for v in [100u64, 100, 200, 200, 400, 400, 400, 400] {
            h.observe(v);
        }
        // Rank clamps to the first observation at q=0.
        assert!(h.quantile(0.0) <= 101.0);
        assert!(h.quantile(1.0) >= 400.0 * (1.0 - 1.0 / SUB_COUNT as f64));
        // Interpolation inside a bucket never leaves the observed range: the
        // 400 ns bucket spans [400, 416), yet no quantile may read above 400.
        for step in 0..=100 {
            let q = h.quantile(f64::from(step) / 100.0);
            assert!(
                (100.0..=400.0).contains(&q),
                "quantile {q} outside [100, 400]"
            );
        }
        assert_eq!(h.quantile(1.0), 400.0);
        assert_eq!(h.min_ns(), 100);
        assert_eq!(h.max_ns(), 400);
        assert_eq!(h.sum_ns(), 2200);
        assert!((h.mean_ns() - 275.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_nan_and_zero() {
        let h = LogHistogram::new();
        assert!(h.quantile(0.5).is_nan());
        assert!(h.mean_ns().is_nan());
        assert_eq!((h.count(), h.min_ns(), h.max_ns()), (0, 0, 0));
    }

    #[test]
    fn counts_are_conserved_under_concurrency() {
        let h = LogHistogram::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        h.observe((t * 131 + i * 7919) % 50_000_000);
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.bucket_total(), 40_000, "every observation in one cell");
    }
}
