//! DC sweep analysis: transfer curves.
//!
//! Steps one source through a list of values, solving the operating
//! point at each with warm-start continuation (the previous solution
//! seeds the next Newton solve) — SPICE's `.DC` analysis, used for
//! transfer curves like an inverter's VTC or the ADC front-end's
//! input/output characteristic.

use crate::dc::{DcOptions, OperatingPoint};
use crate::devices::Device;
use crate::flight::SolveHooks;
use crate::mna::{newton_solve, CompanionMode, MnaLayout, StampParams};
use crate::netlist::{DeviceId, Netlist, NodeId};
use crate::solver::SolverContext;
use crate::source::SourceWaveform;
use crate::AnalysisError;

/// Result of a DC sweep.
#[derive(Debug, Clone)]
pub struct DcSweep {
    layout: MnaLayout,
    values: Vec<f64>,
    solutions: Vec<Vec<f64>>,
}

impl DcSweep {
    /// The swept source values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of sweep points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the sweep had no points.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The voltage at `node` across the sweep.
    pub fn voltage_curve(&self, node: NodeId) -> Vec<f64> {
        self.solutions
            .iter()
            .map(|x| self.layout.voltage(x, node))
            .collect()
    }

    /// The branch current of a voltage-defined device across the sweep.
    pub fn current_curve(&self, device: DeviceId) -> Option<Vec<f64>> {
        let j = self.layout.branch_index(device)?;
        Some(self.solutions.iter().map(|x| x[j]).collect())
    }

    /// The operating point at sweep index `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn operating_point(&self, k: usize) -> OperatingPoint {
        OperatingPoint::new(self.layout.clone(), self.solutions[k].clone())
    }

    /// Incremental gain `d v(node) / d v(source)` between consecutive
    /// sweep points (finite differences; length `len() − 1`).
    pub fn incremental_gain(&self, node: NodeId) -> Vec<f64> {
        let v = self.voltage_curve(node);
        v.windows(2)
            .zip(self.values.windows(2))
            .map(|(vw, sw)| (vw[1] - vw[0]) / (sw[1] - sw[0]))
            .collect()
    }
}

/// Sweeps the DC value of `source` through `values`.
///
/// The swept device must be an independent voltage or current source;
/// its waveform is replaced by each DC value in turn. Warm-start
/// continuation makes strongly nonlinear curves (comparators, VTCs)
/// solve reliably point to point.
///
/// # Errors
///
/// Propagates Newton non-convergence (with the failing sweep value in
/// the error's `time` slot for lack of a better channel) and singular
/// systems.
///
/// # Example
///
/// ```
/// use anasim::netlist::Netlist;
/// use anasim::source::SourceWaveform;
/// use anasim::sweep::dc_sweep;
///
/// # fn main() -> Result<(), anasim::AnalysisError> {
/// let mut nl = Netlist::new();
/// let a = nl.node("a");
/// let b = nl.node("b");
/// let src = nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::dc(0.0));
/// nl.resistor("R1", a, b, 1e3);
/// nl.resistor("R2", b, Netlist::GROUND, 1e3);
/// let sweep = dc_sweep(&nl, src, &[0.0, 1.0, 2.0])?;
/// let curve = sweep.voltage_curve(b);
/// assert!((curve[2] - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn dc_sweep(
    netlist: &Netlist,
    source: DeviceId,
    values: &[f64],
) -> Result<DcSweep, AnalysisError> {
    if !matches!(
        netlist.device(source),
        Device::Vsource { .. } | Device::Isource { .. }
    ) {
        return Err(AnalysisError::InvalidParameter(
            "swept device must be an independent source".into(),
        ));
    }
    let mut working = netlist.clone();
    let layout = MnaLayout::new(&working);
    let options = DcOptions::default();
    let mut x = vec![0.0; layout.size()];
    let mut solutions = Vec::with_capacity(values.len());

    for (k, &value) in values.iter().enumerate() {
        match working.device_mut(source) {
            Device::Vsource { wave, .. } | Device::Isource { wave, .. } => {
                *wave = SourceWaveform::dc(value)
            }
            _ => unreachable!("validated above"),
        }
        let params = StampParams {
            time: 0.0,
            companion: CompanionMode::Dc,
            gmin: options.gmin,
            source_scale: 1.0,
        };
        // Warm start from the previous point; on the first point (or a
        // cold failure) fall back to the full homotopy solver.
        let solved = newton_solve(
            &working,
            &layout,
            &params,
            &options.newton,
            None,
            SolveHooks::none(),
            &mut SolverContext::default(),
            &mut x,
        );
        if solved.is_err() {
            let op = crate::dc::dc_operating_point_with(&working, &options).map_err(|e| {
                match e {
                    AnalysisError::NoConvergence {
                        residual,
                        iterations,
                        ..
                    } => AnalysisError::NoConvergence {
                        time: value,
                        residual,
                        iterations,
                    },
                    other => other,
                }
            })?;
            x = op.into_solution();
        }
        let _ = k;
        solutions.push(x.clone());
    }

    Ok(DcSweep {
        layout,
        values: values.to_vec(),
        solutions,
    })
}

/// Builds a linear list of sweep values.
///
/// # Panics
///
/// Panics if `points < 2`.
pub fn linspace(start: f64, stop: f64, points: usize) -> Vec<f64> {
    assert!(points >= 2, "need at least two points");
    (0..points)
        .map(|k| start + (stop - start) * k as f64 / (points - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{MosParams, MosPolarity};

    #[test]
    fn linspace_endpoints() {
        let v = linspace(-1.0, 1.0, 5);
        assert_eq!(v, vec![-1.0, -0.5, 0.0, 0.5, 1.0]);
    }

    #[test]
    fn inverter_vtc_is_monotone_falling() {
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.vsource("VDD", vdd, Netlist::GROUND, SourceWaveform::dc(5.0));
        let src = nl.vsource("VIN", vin, Netlist::GROUND, SourceWaveform::dc(0.0));
        nl.mosfet(
            "MN",
            out,
            vin,
            Netlist::GROUND,
            MosPolarity::Nmos,
            MosParams::nmos_5um().with_aspect(2.0),
        );
        nl.mosfet(
            "MP",
            out,
            vin,
            vdd,
            MosPolarity::Pmos,
            MosParams::pmos_5um().with_aspect(5.0),
        );
        let sweep = dc_sweep(&nl, src, &linspace(0.0, 5.0, 51)).unwrap();
        let curve = sweep.voltage_curve(out);
        assert!(curve[0] > 4.9, "low input -> high output");
        assert!(curve[50] < 0.1, "high input -> low output");
        for w in curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "vtc must fall monotonically");
        }
        // Switching threshold in the middle of the supply.
        let gains = sweep.incremental_gain(out);
        let (steepest, g) = gains
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        let v_m = sweep.values()[steepest];
        assert!((1.5..3.5).contains(&v_m), "threshold at {v_m}");
        assert!(*g < -5.0, "inverter gain {g}");
    }

    #[test]
    fn diode_iv_curve_is_exponential() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let src = nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::dc(0.0));
        nl.diode("D1", a, Netlist::GROUND, crate::devices::DiodeParams::default());
        let sweep = dc_sweep(&nl, src, &linspace(0.4, 0.7, 16)).unwrap();
        let i = sweep.current_curve(src).unwrap();
        // Source current is negative (flows out of + terminal through
        // the diode); check ~decade per 60 mV.
        let ratio = i[15] / i[0];
        let decades =
            0.3 / (crate::devices::DiodeParams::VT * std::f64::consts::LN_10);
        let expect = 10f64.powf(decades);
        assert!(
            (ratio / expect).abs() > 0.5 && (ratio / expect).abs() < 2.0,
            "ratio {ratio:.3e} vs {expect:.3e}"
        );
    }

    #[test]
    fn current_source_sweep() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let src = nl.isource("I1", a, Netlist::GROUND, SourceWaveform::dc(0.0));
        nl.resistor("R1", a, Netlist::GROUND, 1e3);
        let sweep = dc_sweep(&nl, src, &[0.0, 1e-3, 2e-3]).unwrap();
        let v = sweep.voltage_curve(a);
        assert!((v[1] - 1.0).abs() < 1e-6);
        assert!((v[2] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn non_source_rejected() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let r = nl.resistor("R1", a, Netlist::GROUND, 1e3);
        nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::dc(1.0));
        assert!(matches!(
            dc_sweep(&nl, r, &[1.0, 2.0]),
            Err(AnalysisError::InvalidParameter(_))
        ));
    }
}

