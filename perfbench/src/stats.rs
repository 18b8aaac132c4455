//! Summary statistics over timing samples.
//!
//! Percentiles use the nearest-rank definition, and a percentile is only
//! reported when at least [`MIN_TAIL`] samples lie beyond it: a p99 over
//! 200 samples is two samples deep, which says nothing a reader can rely
//! on.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Median of `values` (mean of the middle two for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The `p`-th percentile (0 < p < 100) by nearest rank, or `None` when
/// fewer than [`MIN_TAIL`] samples would lie above it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of (0, 100)");
    let n = values.len();
    if n == 0 {
        return None;
    }
    // Nearest rank: the smallest value with at least p% of samples at or
    // below it.
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let index = rank.max(1) - 1;
    if n - 1 - index < MIN_TAIL {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[index])
}

/// FNV-1a, 64-bit: a cheap, stable digest for comparing response bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Share of attempted operations that failed. Zero attempts is a
/// harness bug, not a clean run.
pub fn failed_frac(attempted: u64, failed: u64) -> f64 {
    assert!(attempted > 0, "failed_frac over zero attempts");
    failed as f64 / attempted as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_keeps_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: ten samples lie above it.
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&values, 99.0), Some(990.0));
        // p99 of 999 samples would leave only nine above it.
        assert_eq!(percentile(&values[..999], 99.0), None);
        // p95 of 200 samples is rank 190: ten above.
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&values, 95.0), Some(190.0));
        assert_eq!(percentile(&values[..199], 95.0), None);
        // The median of a tiny sample is still a supported percentile
        // once ten samples lie above it.
        let values: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), Some(11.0));
        assert_eq!(percentile(&values[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&values[..19], 50.0), None);
    }

    #[test]
    fn percentile_is_order_free() {
        let mut values: Vec<f64> = (1..=1000).map(f64::from).collect();
        values.reverse();
        assert_eq!(percentile(&values, 99.0), Some(990.0));
    }

    #[test]
    fn failed_frac_counts_failures() {
        assert_eq!(failed_frac(10, 0), 0.0);
        assert_eq!(failed_frac(8, 2), 0.25);
    }

    #[test]
    #[should_panic(expected = "zero attempts")]
    fn failed_frac_rejects_zero_attempts() {
        failed_frac(0, 0);
    }
}
