//! Cross-correlation signatures.
//!
//! The paper detects faults by correlating the transient output `y(t)`
//! with a correlation signal `p(t)` derived from the applied stimulus:
//! the correlation function `R(y, p)` approximates the composite impulse
//! response of the propagating path, and fault-induced deviations from
//! the fault-free correlation mark detection instances.

/// Raw cross-correlation at every lag from `−(b.len()−1)` to
/// `a.len()−1`:
/// `r[k] = Σ a[n+lag] · b[n]`.
///
/// Returns the correlation values; the lag of entry `i` is
/// `i − (b.len() − 1)`.
pub fn cross_correlation(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let n_lags = a.len() + b.len() - 1;
    let offset = b.len() as isize - 1;
    let mut out = vec![0.0; n_lags];
    for (i, slot) in out.iter_mut().enumerate() {
        let lag = i as isize - offset;
        let mut acc = 0.0;
        for (n, &bn) in b.iter().enumerate() {
            let idx = n as isize + lag;
            if idx >= 0 && (idx as usize) < a.len() {
                acc += a[idx as usize] * bn;
            }
        }
        *slot = acc;
    }
    out
}

/// Normalised cross-correlation: the raw correlation divided by
/// `‖a‖·‖b‖`, bounding every value to `[−1, 1]`.
pub fn normalized_cross_correlation(a: &[f64], b: &[f64]) -> Vec<f64> {
    let norm = energy(a).sqrt() * energy(b).sqrt();
    if norm == 0.0 {
        return vec![0.0; if a.is_empty() || b.is_empty() { 0 } else { a.len() + b.len() - 1 }];
    }
    cross_correlation(a, b)
        .into_iter()
        .map(|v| v / norm)
        .collect()
}

/// Autocorrelation of a signal (cross-correlation with itself).
pub fn autocorrelation(a: &[f64]) -> Vec<f64> {
    cross_correlation(a, a)
}

/// Pearson correlation coefficient between two equal-length sequences.
///
/// Returns 0.0 if either sequence has zero variance.
///
/// # Panics
///
/// Panics if the lengths differ or are zero.
pub fn correlation_coefficient(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    assert!(!a.is_empty(), "empty input");
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// Signal energy `Σ x²`.
pub fn energy(a: &[f64]) -> f64 {
    a.iter().map(|v| v * v).sum()
}

/// The paper's detection-instance metric.
///
/// Compares a faulty signature against the fault-free (golden) signature
/// point by point and returns the fraction of instances (in percent,
/// 0–100) at which the absolute deviation exceeds `threshold` — i.e. the
/// fraction of time instances at which this fault would be detected if
/// the comparator sampled there.
///
/// # Panics
///
/// Panics if the sequences differ in length or are empty.
pub fn detection_instances(golden: &[f64], faulty: &[f64], threshold: f64) -> f64 {
    assert_eq!(golden.len(), faulty.len(), "length mismatch");
    assert!(!golden.is_empty(), "empty signatures");
    let hits = golden
        .iter()
        .zip(faulty)
        .filter(|(g, f)| (*g - *f).abs() > threshold)
        .count();
    100.0 * hits as f64 / golden.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn autocorrelation_peaks_at_zero_lag() {
        let x = [1.0, -0.5, 0.25, 0.7];
        let r = autocorrelation(&x);
        let zero_lag = x.len() - 1;
        let peak = r
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .unwrap()
            .0;
        assert_eq!(peak, zero_lag);
        assert!((r[zero_lag] - energy(&x)).abs() < 1e-12);
    }

    #[test]
    fn normalized_bounded_by_one() {
        let a: Vec<f64> = (0..50).map(|i| ((i * 17) % 23) as f64 - 11.0).collect();
        let b: Vec<f64> = (0..30).map(|i| ((i * 7) % 19) as f64 * 0.5 - 4.0).collect();
        let r = normalized_cross_correlation(&a, &b);
        for v in r {
            assert!(v.abs() <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn normalized_self_correlation_is_one_at_zero_lag() {
        let x = [0.3, 1.2, -0.8, 0.1];
        let r = normalized_cross_correlation(&x, &x);
        assert!((r[x.len() - 1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shifted_impulse_localises_lag() {
        // a is b delayed by 2: correlation peak at lag +2.
        let b = [0.0, 0.0, 1.0, 0.0, 0.0];
        let a = [0.0, 0.0, 0.0, 0.0, 1.0];
        let r = cross_correlation(&a, &b);
        let offset = b.len() - 1;
        let peak = r
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.total_cmp(y.1))
            .unwrap()
            .0;
        assert_eq!(peak as isize - offset as isize, 2);
    }

    #[test]
    fn correlation_coefficient_of_identical_signals() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert!((correlation_coefficient(&a, &a) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = a.iter().map(|v| -v).collect();
        assert!((correlation_coefficient(&a, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_coefficient_zero_variance() {
        let a = [1.0, 1.0, 1.0];
        let b = [1.0, 2.0, 3.0];
        assert_eq!(correlation_coefficient(&a, &b), 0.0);
    }

    #[test]
    fn detection_instances_metric() {
        let golden = [1.0, 1.0, 1.0, 1.0];
        let faulty = [1.0, 2.0, 1.0, 3.0];
        assert_eq!(detection_instances(&golden, &faulty, 0.5), 50.0);
        assert_eq!(detection_instances(&golden, &golden, 0.5), 0.0);
    }

    #[test]
    fn zero_signal_normalization_safe() {
        let z = [0.0, 0.0];
        let a = [1.0, 2.0];
        let r = normalized_cross_correlation(&z, &a);
        assert!(r.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn white_prbs_autocorrelation_is_impulse_like() {
        // Maximal-length PRBS in ±1 form has autocorrelation N at lag 0
        // and -1 at all other (circular) lags; the linear version still
        // shows a dominant central peak.
        let mut g = crate::prbs::Prbs::new(5);
        let seq = g.levels(-1.0, 1.0);
        let r = autocorrelation(&seq);
        let center = seq.len() - 1;
        for (i, &v) in r.iter().enumerate() {
            if i != center {
                assert!(v.abs() < r[center] * 0.5, "lag {i} too correlated");
            }
        }
    }
}
