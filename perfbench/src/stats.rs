//! Order statistics over exact samples.

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `p` in `(0, 1]` of a sample.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The highest whole percentile (at most 99) that leaves at least ten
/// samples beyond it, with its nearest-rank value: `(percentile, value)`.
pub fn tail(xs: &[f64]) -> (u32, f64) {
    let n = xs.len();
    let mut pct = 99u32;
    while pct > 1 && n - ((pct as f64 / 100.0 * n as f64).ceil() as usize).min(n) < 10 {
        pct -= 1;
    }
    (pct, quantile(xs, pct as f64 / 100.0))
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=44).map(f64::from).collect();
        assert_eq!(tail(&xs), (77, 34.0));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), (99, 990.0));
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
    }
}
