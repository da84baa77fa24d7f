//! Order statistics over measured samples.

/// Median; the mean of the two middle values for an even count.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank quantile (`0 ≤ q ≤ 1`): the ceil(q·n)-th order statistic,
/// the same rule `ServeReport::latency_quantile` uses.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * s.len() as f64).ceil() as usize).max(1);
    s[rank - 1]
}

/// `a / b`, or zero when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}
