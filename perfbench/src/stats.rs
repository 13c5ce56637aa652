//! Order statistics over per-op samples.

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between closest ranks;
/// `None` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The highest of the usual reporting percentiles that still has at least ten samples
/// beyond it: `(percentile, value)`, or `None` with fewer than 20 samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len() as f64;
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n * (100.0 - p) / 100.0 >= 10.0)
        .and_then(|p| quantile(samples, p / 100.0).map(|v| (p, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&samples).map(|(p, _)| p), Some(90.0));
        assert_eq!(tail(&samples[..19]), None);
        assert_eq!(tail(&samples[..20]).map(|(p, _)| p), Some(50.0));
    }
}
