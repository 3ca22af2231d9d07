//! Summaries of exact samples.

/// The samples sorted ascending (total order, NaN-safe).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the middle sample, or the mean of the two middle samples.
/// `0.0` for no samples.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Arithmetic mean; `0.0` for no samples.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or `0.0` when the denominator is zero.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, f64::NAN, 1.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
