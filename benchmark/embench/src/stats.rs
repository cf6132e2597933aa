//! Order statistics for timing samples.

/// Value at quantile `q` (0..=1) of an ascending slice, interpolating
/// linearly between neighbours. Empty input reads 0.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// What the benchmark reports about one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    /// Distance between the quartiles as a share of the median.
    pub iqr_frac: f64,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p50 = quantile_sorted(&sorted, 0.5);
    let iqr = quantile_sorted(&sorted, 0.75) - quantile_sorted(&sorted, 0.25);
    Summary {
        n: sorted.len(),
        p50,
        p90: quantile_sorted(&sorted, 0.9),
        iqr_frac: if p50 == 0.0 { 0.0 } else { iqr / p50 },
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 4.0);
        assert_eq!(quantile_sorted(&s, 0.5), 2.5);
        assert_eq!(quantile_sorted(&[7.0], 0.9), 7.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn summary_of_unsorted_samples() {
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.p50, 3.0);
        assert!((s.p90 - 4.6).abs() < 1e-12);
        // quartiles 2 and 4 around a median of 3
        assert!((s.iqr_frac - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn constant_samples_have_no_spread() {
        let s = summarize(&[2.0; 9]);
        assert_eq!((s.p50, s.p90, s.iqr_frac), (2.0, 2.0, 0.0));
        assert_eq!(summarize(&[]).iqr_frac, 0.0);
    }
}
