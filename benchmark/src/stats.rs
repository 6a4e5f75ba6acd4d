//! Small order statistics: medians, nearest-rank percentiles, and the
//! rule for which tail percentile a sample supports.

/// Percentiles the picker chooses among, ascending, in tenths of a
/// percent (integers, so ranks are exact).
pub const CANDIDATES: [u32; 6] = [500, 750, 900, 950, 990, 999];
/// The median, in tenths of a percent.
pub const P50: u32 = 500;
/// The 95th percentile, in tenths of a percent.
pub const P95: u32 = 950;
/// A tail percentile is reported only with this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the two middle values for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Rank (1-based) of the nearest-rank percentile `permille` among `n`.
fn rank(n: usize, permille: u32) -> usize {
    (n * permille as usize).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `values`, the percentile given in tenths of
/// a percent; 0 when empty.
pub fn percentile(values: &[f64], permille: u32) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), permille) - 1]
}

/// Samples strictly beyond the nearest-rank percentile of `n` samples.
pub fn samples_beyond(n: usize, permille: u32) -> usize {
    n - rank(n, permille).min(n)
}

/// The highest candidate percentile (in tenths of a percent) with at
/// least [`MIN_BEYOND`] samples beyond it; `None` when even the median
/// lacks them.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    CANDIDATES
        .iter()
        .copied()
        .rfind(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_honours_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(500));
        assert_eq!(highest_supported_percentile(100), Some(900));
        // p95 of 199 leaves 9 beyond; 200 leaves exactly 10.
        assert_eq!(highest_supported_percentile(199), Some(900));
        assert_eq!(highest_supported_percentile(200), Some(950));
        assert_eq!(highest_supported_percentile(300), Some(950));
        assert_eq!(highest_supported_percentile(1000), Some(990));
        assert_eq!(highest_supported_percentile(10_000), Some(999));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, P50), 50.0);
        assert_eq!(percentile(&v, P95), 95.0);
        assert_eq!(percentile(&v, 1000), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], P50), 2.0);
        assert_eq!(samples_beyond(100, P95), 5);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
