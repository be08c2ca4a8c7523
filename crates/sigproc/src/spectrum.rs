//! Power-spectrum estimation: windows, periodogram, Welch averaging and
//! tone-SNR extraction.
//!
//! Frequency-domain response evaluation is the other half of the
//! paper's signal view ("after consideration of the frequency domain for
//! the signal y(t) ... minor changes to the signal spectrum, indicative
//! of circuit faults"); these estimators also ground the sigma-delta
//! SNR measurements of the future-work architecture.

use crate::fft::fft_real;

/// A spectral window function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// No tapering.
    Rectangular,
    /// Hann (raised cosine): good general-purpose leakage control.
    Hann,
    /// Hamming: narrower main lobe, higher first side lobe than Hann.
    Hamming,
    /// Blackman: strong side-lobe suppression.
    Blackman,
}

impl Window {
    /// Sample `k` of an `n`-point window.
    pub fn coefficient(self, k: usize, n: usize) -> f64 {
        if n <= 1 {
            return 1.0;
        }
        let x = 2.0 * std::f64::consts::PI * k as f64 / (n - 1) as f64;
        match self {
            Window::Rectangular => 1.0,
            Window::Hann => 0.5 * (1.0 - x.cos()),
            Window::Hamming => 0.54 - 0.46 * x.cos(),
            Window::Blackman => 0.42 - 0.5 * x.cos() + 0.08 * (2.0 * x).cos(),
        }
    }

    /// The full window as a vector.
    pub fn samples(self, n: usize) -> Vec<f64> {
        (0..n).map(|k| self.coefficient(k, n)).collect()
    }

    /// Coherent gain (mean of the window), used to renormalise tone
    /// amplitudes.
    pub fn coherent_gain(self, n: usize) -> f64 {
        self.samples(n).iter().sum::<f64>() / n as f64
    }
}

/// One-sided power spectral estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerSpectrum {
    /// Power per bin (DC to Nyquist inclusive), normalised so a
    /// full-scale coherent tone reads its power `A²/2`.
    pub power: Vec<f64>,
    /// Bin spacing in hertz.
    pub bin_hz: f64,
}

impl PowerSpectrum {
    /// Index of the strongest non-DC bin.
    pub fn peak_bin(&self) -> usize {
        self.power
            .iter()
            .enumerate()
            .skip(1)
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, _)| k)
            .unwrap_or(0)
    }

    /// The frequency of the strongest non-DC bin.
    pub fn peak_frequency(&self) -> f64 {
        self.peak_bin() as f64 * self.bin_hz
    }

    /// Signal-to-noise ratio in dB, treating `±guard` bins around the
    /// peak as signal and everything else (excluding DC) as noise.
    pub fn tone_snr_db(&self, guard: usize) -> f64 {
        let peak = self.peak_bin();
        let mut signal = 0.0;
        let mut noise = 0.0;
        for (k, &p) in self.power.iter().enumerate().skip(1) {
            if k.abs_diff(peak) <= guard {
                signal += p;
            } else {
                noise += p;
            }
        }
        10.0 * (signal / noise.max(1e-300)).log10()
    }
}

/// Single-segment windowed periodogram.
///
/// # Panics
///
/// Panics if the signal is empty or `sample_hz` is not positive.
pub fn periodogram(signal: &[f64], window: Window, sample_hz: f64) -> PowerSpectrum {
    assert!(!signal.is_empty(), "empty signal");
    assert!(sample_hz > 0.0, "sample rate must be positive");
    let n = signal.len();
    let w = window.samples(n);
    let tapered: Vec<f64> = signal.iter().zip(&w).map(|(s, wk)| s * wk).collect();
    let spec = fft_real(&tapered);
    let nfft = spec.len();
    let cg = window.coherent_gain(n) * n as f64;
    let half = nfft / 2;
    // One-sided: double interior bins.
    let power: Vec<f64> = (0..=half)
        .map(|k| {
            let p = spec[k].norm_sqr() / (cg * cg);
            if k == 0 || k == half {
                p
            } else {
                2.0 * p
            }
        })
        .collect();
    PowerSpectrum {
        power,
        bin_hz: sample_hz / nfft as f64,
    }
}

/// Welch's method: averaged periodograms of 50 %-overlapping segments.
///
/// # Panics
///
/// Panics if `segment_len` is zero or longer than the signal.
pub fn welch(signal: &[f64], segment_len: usize, window: Window, sample_hz: f64) -> PowerSpectrum {
    assert!(segment_len > 0, "segment length must be positive");
    assert!(
        segment_len <= signal.len(),
        "segment longer than the signal"
    );
    let hop = (segment_len / 2).max(1);
    let mut acc: Option<PowerSpectrum> = None;
    let mut count = 0.0;
    let mut start = 0;
    while start + segment_len <= signal.len() {
        let p = periodogram(&signal[start..start + segment_len], window, sample_hz);
        match &mut acc {
            None => acc = Some(p),
            Some(a) => {
                for (x, y) in a.power.iter_mut().zip(&p.power) {
                    *x += y;
                }
            }
        }
        count += 1.0;
        start += hop;
    }
    let mut out = acc.expect("at least one segment");
    out.power.iter_mut().for_each(|p| *p /= count);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(n: usize, cycles: f64, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|k| amp * (2.0 * std::f64::consts::PI * cycles * k as f64 / n as f64).sin())
            .collect()
    }

    #[test]
    fn window_endpoints_and_symmetry() {
        for w in [Window::Hann, Window::Hamming, Window::Blackman] {
            let s = w.samples(64);
            assert!((s[0] - s[63]).abs() < 1e-12, "{w:?} asymmetric");
            for k in 0..32 {
                assert!((s[k] - s[63 - k]).abs() < 1e-12, "{w:?} at {k}");
            }
        }
        assert!(Window::Rectangular.samples(8).iter().all(|&v| v == 1.0));
    }

    #[test]
    fn periodogram_locates_coherent_tone() {
        // 8 cycles in 256 samples at 1 kHz sample rate -> 31.25 Hz.
        let sig = tone(256, 8.0, 1.0);
        let p = periodogram(&sig, Window::Rectangular, 1000.0);
        assert_eq!(p.peak_bin(), 8);
        assert!((p.peak_frequency() - 31.25).abs() < 1e-9);
        // Coherent unit tone: power A^2/2 = 0.5 in its bin.
        assert!((p.power[8] - 0.5).abs() < 1e-6, "power {}", p.power[8]);
    }

    #[test]
    fn hann_coherent_tone_normalisation() {
        let sig = tone(256, 8.0, 2.0);
        let p = periodogram(&sig, Window::Hann, 1.0);
        // Coherent-gain normalisation: a bin-centred tone's PEAK bin
        // reads its power A^2/2 = 2.0 regardless of window...
        assert!((p.power[8] - 2.0).abs() < 0.05, "peak {}", p.power[8]);
        // ...while the main-lobe SUM overcounts by the window's noise
        // equivalent bandwidth (1.5 bins for Hann).
        let total: f64 = (6..=10).map(|k| p.power[k]).sum();
        assert!((total - 3.0).abs() < 0.1, "lobe sum {total}");
    }

    #[test]
    fn tone_snr_reflects_added_noise() {
        let n = 1024;
        let clean = tone(n, 16.0, 1.0);
        let noisy: Vec<f64> = clean
            .iter()
            .enumerate()
            .map(|(k, &v)| v + 0.05 * (((k as u64 * 2654435761) % 1000) as f64 / 1000.0 - 0.5))
            .collect();
        let p_clean = periodogram(&clean, Window::Hann, 1.0);
        let p_noisy = periodogram(&noisy, Window::Hann, 1.0);
        assert!(p_clean.tone_snr_db(2) > p_noisy.tone_snr_db(2) + 10.0);
        // SNR of the noisy tone: amplitude 1 vs ~0.014 rms uniform noise
        // -> roughly 33 dB; allow a broad band.
        let snr = p_noisy.tone_snr_db(2);
        assert!((20.0..50.0).contains(&snr), "snr {snr}");
    }

    #[test]
    fn welch_reduces_variance() {
        // Deterministic pseudo-noise.
        let noise: Vec<f64> = (0..4096)
            .map(|k| (((k as u64 * 2654435761 + 12345) % 10000) as f64 / 10000.0) - 0.5)
            .collect();
        let single = periodogram(&noise[..512], Window::Hann, 1.0);
        let averaged = welch(&noise, 512, Window::Hann, 1.0);
        let variance = |p: &PowerSpectrum| {
            let m = p.power.iter().sum::<f64>() / p.power.len() as f64;
            p.power.iter().map(|v| (v - m).powi(2)).sum::<f64>() / p.power.len() as f64
        };
        assert!(
            variance(&averaged) < variance(&single),
            "welch {} vs single {}",
            variance(&averaged),
            variance(&single)
        );
    }

    #[test]
    #[should_panic(expected = "segment longer")]
    fn welch_rejects_oversized_segment() {
        let _ = welch(&[1.0, 2.0], 8, Window::Hann, 1.0);
    }
}
