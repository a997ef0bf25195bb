//! The averaging helper used when aggregating experiment results.
//!
//! The paper reports all averages as **harmonic means** (§V: "All average
//! values are based on harmonic means"), so that helper lives here.

/// Harmonic mean of the values; `None` when empty or any value is `<= 0`.
///
/// # Examples
///
/// ```
/// use mcdla_sim::stats::harmonic_mean;
///
/// let speedups = [2.0, 4.0, 4.0];
/// assert!((harmonic_mean(&speedups).unwrap() - 3.0).abs() < 1e-12);
/// ```
pub fn harmonic_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let inv_sum: f64 = values.iter().map(|v| 1.0 / v).sum();
    Some(values.len() as f64 / inv_sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_mean_matches_definition() {
        assert!((harmonic_mean(&[1.0, 1.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!((harmonic_mean(&[1.0, 3.0]).unwrap() - 1.5).abs() < 1e-12);
        assert_eq!(harmonic_mean(&[]), None);
        assert_eq!(harmonic_mean(&[1.0, 0.0]), None);
        assert_eq!(harmonic_mean(&[1.0, -2.0]), None);
    }
}
