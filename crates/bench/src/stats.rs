//! Small statistics helpers for experiment summaries.

/// Sample mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Root-mean-square error of estimates against a single truth value.
pub fn rmse(estimates: &[f64], truth: f64) -> f64 {
    if estimates.is_empty() {
        return 0.0;
    }
    (estimates
        .iter()
        .map(|e| (e - truth) * (e - truth))
        .sum::<f64>()
        / estimates.len() as f64)
        .sqrt()
}

/// RMSE normalized by the truth (`rmse/|truth|`), the paper-style accuracy
/// measure for sum aggregates.
pub fn nrmse(estimates: &[f64], truth: f64) -> f64 {
    if truth == 0.0 {
        return rmse(estimates, truth);
    }
    rmse(estimates, truth) / truth.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((rmse(&[1.0, 3.0], 2.0) - 1.0).abs() < 1e-15);
        assert!((nrmse(&[1.0, 3.0], 2.0) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn empty_slices() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(rmse(&[], 1.0), 0.0);
    }
}
