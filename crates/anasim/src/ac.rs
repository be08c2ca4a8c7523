//! AC (small-signal frequency-domain) analysis.
//!
//! Linearises the circuit around its DC operating point, then solves the
//! complex MNA system `(G + jωC)·x = b` at each requested frequency with
//! a unit AC excitation on one designated source — the HSPICE `.AC`
//! analysis the paper used to obtain poles/zeros of its example
//! circuits.

use linsys::cmatrix::{solve as csolve, CMatrix};
use linsys::complex::Complex;
use linsys::matrix::Matrix;

use crate::dc::dc_operating_point;
use crate::devices::Device;
use crate::mna::{stamp_system, CompanionMode, MnaLayout, StampParams};
use crate::netlist::{DeviceId, Netlist, NodeId};
use crate::AnalysisError;

/// Result of an AC sweep: node phasors per frequency for a unit-input
/// excitation.
#[derive(Debug, Clone)]
pub struct AcResult {
    layout: MnaLayout,
    freqs: Vec<f64>,
    /// One solution vector per frequency.
    solutions: Vec<Vec<Complex>>,
}

impl AcResult {
    /// The swept frequencies in hertz.
    pub fn frequencies(&self) -> &[f64] {
        &self.freqs
    }

    /// The complex transfer `V(node)/V(input)` at every frequency.
    pub fn transfer(&self, node: NodeId) -> Vec<Complex> {
        self.solutions
            .iter()
            .map(|x| match self.layout.node_index(node) {
                Some(i) => x[i],
                None => Complex::ZERO,
            })
            .collect()
    }

    /// Magnitude response in decibels at every frequency.
    pub fn magnitude_db(&self, node: NodeId) -> Vec<f64> {
        self.transfer(node)
            .iter()
            .map(|z| 20.0 * z.abs().max(1e-300).log10())
            .collect()
    }

    /// Phase response in degrees at every frequency.
    pub fn phase_deg(&self, node: NodeId) -> Vec<f64> {
        self.transfer(node)
            .iter()
            .map(|z| z.arg().to_degrees())
            .collect()
    }

    /// The −3 dB frequency relative to the lowest-frequency gain, if the
    /// response crosses it within the sweep.
    pub fn corner_frequency(&self, node: NodeId) -> Option<f64> {
        let mags = self.magnitude_db(node);
        let reference = *mags.first()?;
        let target = reference - 3.0;
        for k in 1..mags.len() {
            if mags[k - 1] > target && mags[k] <= target {
                // Log-linear interpolation between the bracketing points.
                let frac = (mags[k - 1] - target) / (mags[k - 1] - mags[k]);
                let lf = self.freqs[k - 1].ln() + frac * (self.freqs[k].ln() - self.freqs[k - 1].ln());
                return Some(lf.exp());
            }
        }
        None
    }

    /// The unity-gain (0 dB) crossover frequency, if crossed.
    pub fn unity_gain_frequency(&self, node: NodeId) -> Option<f64> {
        let mags = self.magnitude_db(node);
        for k in 1..mags.len() {
            if mags[k - 1] > 0.0 && mags[k] <= 0.0 {
                let frac = mags[k - 1] / (mags[k - 1] - mags[k]);
                let lf = self.freqs[k - 1].ln() + frac * (self.freqs[k].ln() - self.freqs[k - 1].ln());
                return Some(lf.exp());
            }
        }
        None
    }
}

/// Generates a logarithmic frequency sweep with `points_per_decade`
/// points from `f_start` to `f_stop` (inclusive ends).
///
/// # Panics
///
/// Panics unless `0 < f_start < f_stop` and `points_per_decade >= 1`.
pub fn log_sweep(f_start: f64, f_stop: f64, points_per_decade: usize) -> Vec<f64> {
    assert!(f_start > 0.0 && f_stop > f_start, "need 0 < f_start < f_stop");
    assert!(points_per_decade >= 1, "need at least one point per decade");
    let decades = (f_stop / f_start).log10();
    let n = (decades * points_per_decade as f64).ceil() as usize + 1;
    (0..n)
        .map(|k| {
            let frac = k as f64 / (n - 1) as f64;
            f_start * 10f64.powf(frac * decades)
        })
        .collect()
}

/// Runs an AC sweep.
///
/// `input` must be a voltage source of the netlist; it receives a unit
/// (1 V ∠ 0°) excitation while every other independent source is AC
/// grounded. Nonlinear devices are linearised at the DC operating
/// point.
///
/// # Errors
///
/// Propagates DC non-convergence or a singular complex system.
///
/// # Example
///
/// An RC low-pass rolls off −3 dB at `1/(2πRC)`:
///
/// ```
/// use anasim::netlist::Netlist;
/// use anasim::source::SourceWaveform;
/// use anasim::ac::{ac_analysis, log_sweep};
///
/// # fn main() -> Result<(), anasim::AnalysisError> {
/// let mut nl = Netlist::new();
/// let vin = nl.node("in");
/// let out = nl.node("out");
/// let src = nl.vsource("V1", vin, Netlist::GROUND, SourceWaveform::dc(0.0));
/// nl.resistor("R1", vin, out, 1e3);
/// nl.capacitor("C1", out, Netlist::GROUND, 1e-6); // fc = 159 Hz
/// let res = ac_analysis(&nl, src, &log_sweep(1.0, 100e3, 20))?;
/// let fc = res.corner_frequency(out).expect("rolls off");
/// assert!((fc - 159.2).abs() / 159.2 < 0.05);
/// # Ok(())
/// # }
/// ```
pub fn ac_analysis(
    netlist: &Netlist,
    input: DeviceId,
    frequencies: &[f64],
) -> Result<AcResult, AnalysisError> {
    if !matches!(netlist.device(input), Device::Vsource { .. }) {
        return Err(AnalysisError::InvalidParameter(
            "ac input must be a voltage source".into(),
        ));
    }

    // 1. DC operating point for the linearisation.
    let op = dc_operating_point(netlist)?;
    let layout = MnaLayout::new(netlist);
    let n = layout.size();

    // 2. Small-signal conductance matrix G: the MNA Jacobian at the OP
    //    with capacitors open and inductors shorted.
    let mut g = Matrix::zeros(n, n);
    let mut scratch_b = vec![0.0; n];
    let params = StampParams {
        time: 0.0,
        companion: CompanionMode::Dc,
        gmin: 1e-12,
        source_scale: 1.0,
    };
    stamp_system(netlist, &layout, op.solution(), &params, &mut g, &mut scratch_b);

    // 3. AC excitation vector: 1 V on the input source's branch row.
    let input_row = layout
        .branch_index(input)
        .expect("voltage sources have branch rows");
    let mut b = vec![Complex::ZERO; n];
    b[input_row] = Complex::ONE;

    // 4. Sweep: A(ω) = G + jωC, with the reactive parts re-stamped per
    //    frequency.
    let mut a = CMatrix::zeros(n, n);
    let mut solutions = Vec::with_capacity(frequencies.len());
    for &f in frequencies {
        let w = 2.0 * std::f64::consts::PI * f;
        a.clear();
        for r in 0..n {
            for c in 0..n {
                let v = g[(r, c)];
                if v != 0.0 {
                    a.add(r, c, Complex::real(v));
                }
            }
        }
        for (id, _, dev) in netlist.devices() {
            match dev {
                Device::Capacitor {
                    a: na,
                    b: nb,
                    farads,
                    ..
                } => {
                    let jwc = Complex::new(0.0, w * farads);
                    if let Some(i) = layout.node_index(*na) {
                        a.add(i, i, jwc);
                        if let Some(j) = layout.node_index(*nb) {
                            a.add(i, j, -jwc);
                        }
                    }
                    if let Some(j) = layout.node_index(*nb) {
                        a.add(j, j, jwc);
                        if let Some(i) = layout.node_index(*na) {
                            a.add(j, i, -jwc);
                        }
                    }
                }
                Device::Inductor { henries, .. } => {
                    let j = layout
                        .branch_index(id)
                        .expect("inductors have branch rows");
                    a.add(j, j, Complex::new(0.0, -w * henries));
                }
                _ => {}
            }
        }
        let x = csolve(&a, &b).map_err(AnalysisError::from)?;
        solutions.push(x);
    }

    Ok(AcResult {
        layout,
        freqs: frequencies.to_vec(),
        solutions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWaveform;

    #[test]
    fn log_sweep_covers_range() {
        let f = log_sweep(1.0, 1000.0, 10);
        assert_eq!(f.len(), 31);
        assert!((f[0] - 1.0).abs() < 1e-12);
        assert!((f.last().unwrap() - 1000.0).abs() < 1e-9);
        assert!(f.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn rc_phase_is_minus_45_at_corner() {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        let src = nl.vsource("V1", vin, Netlist::GROUND, SourceWaveform::dc(0.0));
        nl.resistor("R1", vin, out, 10e3);
        nl.capacitor("C1", out, Netlist::GROUND, 1e-9);
        let fc = 1.0 / (2.0 * std::f64::consts::PI * 10e3 * 1e-9);
        let res = ac_analysis(&nl, src, &[fc]).unwrap();
        let ph = res.phase_deg(out)[0];
        assert!((ph + 45.0).abs() < 0.5, "phase {ph}");
        let mag = res.magnitude_db(out)[0];
        assert!((mag + 3.0103).abs() < 0.05, "mag {mag}");
    }

    #[test]
    fn rlc_peak_at_resonance() {
        // Series RLC, output across C: peaks near 1/(2*pi*sqrt(LC)) with
        // Q = (1/R)*sqrt(L/C).
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let mid = nl.node("mid");
        let out = nl.node("out");
        let src = nl.vsource("V1", vin, Netlist::GROUND, SourceWaveform::dc(0.0));
        nl.resistor("R1", vin, mid, 50.0);
        nl.inductor("L1", mid, out, 1e-3);
        nl.capacitor("C1", out, Netlist::GROUND, 1e-9);
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-3_f64 * 1e-9).sqrt());
        let freqs = log_sweep(f0 / 10.0, f0 * 10.0, 60);
        let res = ac_analysis(&nl, src, &freqs).unwrap();
        let mags = res.magnitude_db(out);
        let peak_idx = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let f_peak = freqs[peak_idx];
        assert!(
            (f_peak - f0).abs() / f0 < 0.1,
            "peak at {f_peak}, expected {f0}"
        );
        // Q = sqrt(L/C)/R = 20: peak ~ 26 dB.
        assert!(mags[peak_idx] > 20.0, "peak {mags:?}");
    }

    #[test]
    fn vcvs_gain_is_flat() {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        let src = nl.vsource("V1", vin, Netlist::GROUND, SourceWaveform::dc(0.0));
        nl.vcvs("E1", out, Netlist::GROUND, vin, Netlist::GROUND, 40.0);
        nl.resistor("RL", out, Netlist::GROUND, 1e3);
        let res = ac_analysis(&nl, src, &log_sweep(1.0, 1e6, 5)).unwrap();
        for m in res.magnitude_db(out) {
            assert!((m - 32.04).abs() < 0.01, "gain {m}");
        }
    }

    #[test]
    fn mosfet_amplifier_has_small_signal_gain() {
        // Common-source NMOS with resistive load, biased in saturation:
        // |A| = gm * RD at low frequency.
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.vsource("VDD", vdd, Netlist::GROUND, SourceWaveform::dc(5.0));
        let src = nl.vsource("VIN", vin, Netlist::GROUND, SourceWaveform::dc(1.5));
        nl.mosfet(
            "M1",
            out,
            vin,
            Netlist::GROUND,
            crate::devices::MosPolarity::Nmos,
            crate::devices::MosParams {
                vt0: 1.0,
                beta: 400e-6,
                lambda: 0.0,
            },
        );
        nl.resistor("RD", vdd, out, 10e3);
        let res = ac_analysis(&nl, src, &[100.0]).unwrap();
        let gain = res.transfer(out)[0];
        // gm = beta*vov = 400u*0.5 = 200 uS; A = -gm*RD = -2.
        assert!((gain.re + 2.0).abs() < 0.05, "gain {gain}");
        assert!(gain.im.abs() < 0.01);
    }

    #[test]
    fn non_source_input_rejected() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let r = nl.resistor("R1", a, Netlist::GROUND, 1e3);
        nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::dc(1.0));
        assert!(matches!(
            ac_analysis(&nl, r, &[1.0]),
            Err(AnalysisError::InvalidParameter(_))
        ));
    }
}
