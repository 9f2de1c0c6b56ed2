//! Order statistics for latency samples.

/// Fewest samples that must lie above a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `pct`-th percentile of `samples` by the Harrell–Davis estimator: a
/// weighted mean of every order statistic, the weights being the mass a
/// Beta(p(n+1), (1−p)(n+1)) distribution puts on each rank's interval.
/// Where the samples fall in groups (a pass of different requests), it does
/// not jump with whichever single sample sits at the percentile's rank.
/// `None` for an empty slice.
#[must_use]
pub fn hd_percentile(samples: &[f64], pct: u32) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (first, last) = (*sorted.first()?, *sorted.last()?);
    let p = f64::from(pct.min(100)) / 100.0;
    if p == 0.0 {
        return Some(first);
    }
    if p == 1.0 {
        return Some(last);
    }
    let n = sorted.len() as f64;
    let (a, b) = (p * (n + 1.0), (1.0 - p) * (n + 1.0));
    let mut below = 0.0;
    let mut estimate = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let upto = regularized_beta((i + 1) as f64 / n, a, b);
        estimate += (upto - below) * x;
        below = upto;
    }
    Some(estimate)
}

/// ln Γ(x) for x > 0 (Lanczos approximation, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let series = C[1..].iter().enumerate().fold(C[0], |acc, (i, c)| acc + c / (x + (i + 1) as f64));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// The regularized incomplete beta function I_x(a, b), by its continued
/// fraction (modified Lentz), on the side of x where it converges fast.
fn regularized_beta(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    if x < (a + 1.0) / (a + b + 2.0) {
        ln_front.exp() * beta_fraction(x, a, b) / a
    } else {
        1.0 - ln_front.exp() * beta_fraction(1.0 - x, b, a) / b
    }
}

fn beta_fraction(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let clamp = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..10_000 {
        let m = f64::from(m);
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / clamp(1.0 + even * d);
        c = clamp(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / clamp(1.0 + odd * d);
        c = clamp(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// The median of `samples` (the mean of the middle two for an even count).
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Whether `n` samples leave at least [`MIN_TAIL_SAMPLES`] strictly above
/// the `pct`-th percentile — the condition for reporting that percentile.
#[must_use]
pub fn tail_is_supported(n: usize, pct: u32) -> bool {
    let beyond = n * (100 - pct.min(100) as usize) / 100;
    beyond >= MIN_TAIL_SAMPLES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(hd_percentile(&[], 50), None);
    }

    #[test]
    fn harrell_davis_matches_known_values() {
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        let mid = hd_percentile(&xs, 50).expect("non-empty");
        assert!((mid - 3.0).abs() < 1e-9, "{mid}");
        assert_eq!(hd_percentile(&xs, 0), Some(1.0));
        assert_eq!(hd_percentile(&xs, 100), Some(5.0));
        // On 1..=n the estimate is the Beta mean p scaled to ranks: pn + ½.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = hd_percentile(&xs, 90).expect("non-empty");
        assert!((p90 - 90.5).abs() < 1e-6, "{p90}");
        // The weights sum to one: a constant sample is returned unchanged.
        let p90 = hd_percentile(&[7.0; 333], 90).expect("non-empty");
        assert!((p90 - 7.0).abs() < 1e-9, "{p90}");
    }

    #[test]
    fn incomplete_beta_against_closed_forms() {
        // I_x(1, 1) = x and I_x(2, 1) = x².
        for x in [0.1, 0.5, 0.9] {
            assert!((regularized_beta(x, 1.0, 1.0) - x).abs() < 1e-12);
            assert!((regularized_beta(x, 2.0, 1.0) - x * x).abs() < 1e-12);
        }
        assert!((regularized_beta(0.5, 40.0, 40.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert!(!tail_is_supported(99, 90));
        assert!(tail_is_supported(100, 90));
        assert!(tail_is_supported(20, 50));
        assert!(!tail_is_supported(19, 50));
        // With 100 samples exactly ten lie above the 90th percentile.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = hd_percentile(&xs, 90).expect("non-empty");
        assert_eq!(xs.iter().filter(|&&x| x > p90).count(), MIN_TAIL_SAMPLES);
    }
}
