//! DC operating-point analysis.
//!
//! Runs Newton–Raphson on the MNA system with capacitors open and
//! inductors shorted. If plain Newton fails, two classic homotopies are
//! tried in order: `gmin` stepping (progressively removing an artificial
//! conductance to ground) and source stepping (ramping all independent
//! sources from zero).

use crate::flight::SolvePhase;
use crate::mna::{newton_solve, CompanionMode, MnaLayout, NewtonOptions, StampParams};
use crate::netlist::{DeviceId, Netlist, NodeId};
use crate::robust::{BudgetClock, SolveSettings};
use crate::solver::SolverContext;
use crate::AnalysisError;

/// A solved operating point.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    layout: MnaLayout,
    x: Vec<f64>,
}

impl OperatingPoint {
    pub(crate) fn new(layout: MnaLayout, x: Vec<f64>) -> Self {
        OperatingPoint { layout, x }
    }

    /// Voltage at a node (0.0 for ground).
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.layout.voltage(&self.x, node)
    }

    /// Branch current of a voltage-defined device (vsource, VCVS,
    /// inductor), if it has one. Positive current flows from the positive
    /// terminal through the device to the negative terminal.
    pub fn branch_current(&self, device: DeviceId) -> Option<f64> {
        self.layout.branch_index(device).map(|j| self.x[j])
    }

    /// The raw solution vector (node voltages then branch currents).
    pub fn solution(&self) -> &[f64] {
        &self.x
    }

    /// Consumes self, returning the raw solution vector.
    pub fn into_solution(self) -> Vec<f64> {
        self.x
    }
}

/// Options controlling the DC solve.
#[derive(Debug, Clone, Copy)]
pub struct DcOptions {
    /// Newton iteration options.
    pub newton: NewtonOptions,
    /// Final gmin left in place for robustness (siemens).
    pub gmin: f64,
    /// Evaluate sources at this time (normally 0.0).
    pub time: f64,
}

impl Default for DcOptions {
    fn default() -> Self {
        DcOptions {
            newton: NewtonOptions::default(),
            gmin: 1e-12,
            time: 0.0,
        }
    }
}

/// Computes the DC operating point with default options.
///
/// # Errors
///
/// Returns [`AnalysisError::NoConvergence`] if Newton and both homotopy
/// fallbacks fail, or [`AnalysisError::SingularMatrix`] for structurally
/// singular circuits.
///
/// # Example
///
/// ```
/// use anasim::netlist::Netlist;
/// use anasim::source::SourceWaveform;
///
/// # fn main() -> Result<(), anasim::AnalysisError> {
/// let mut nl = Netlist::new();
/// let a = nl.node("a");
/// nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::dc(3.0));
/// nl.resistor("R1", a, Netlist::GROUND, 1e3);
/// let op = anasim::dc::dc_operating_point(&nl)?;
/// assert!((op.voltage(a) - 3.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn dc_operating_point(netlist: &Netlist) -> Result<OperatingPoint, AnalysisError> {
    dc_operating_point_with(netlist, &DcOptions::default())
}

/// Computes the DC operating point with explicit options.
///
/// # Errors
///
/// See [`dc_operating_point`].
pub fn dc_operating_point_with(
    netlist: &Netlist,
    options: &DcOptions,
) -> Result<OperatingPoint, AnalysisError> {
    dc_operating_point_solver(
        netlist,
        options,
        &SolveSettings::default(),
        None,
        &mut SolverContext::default(),
    )
}

/// [`dc_operating_point_with`] armed through `settings`, against a
/// caller-owned [`SolverContext`] and, when `clock` is given, under its
/// budget: a raised [`crate::robust::CancelToken`] or a spent wall
/// budget stops the solve between Newton iterations.
///
/// Newton iterations and homotopy stages (`dc_gmin_steps`,
/// `dc_source_steps`) are counted on `settings.metrics`. An armed
/// [`crate::flight::FlightRecorder`] sees every Newton iteration of the
/// direct solve and both homotopies, each tagged with its
/// [`SolvePhase`], with worst-unknown indices resolvable to node names.
///
/// The context's cached symbolic structure and factorisation carry
/// across the homotopy stages (and, when the caller is a transient
/// analysis, into the timestep march). A `settings.warm_start` seed is
/// tried with plain Newton before the usual cold-start chain; on
/// failure the solve falls back to exactly the cold behaviour, so
/// warm-starting can only add one cheap attempt, never change the
/// answer's robustness.
///
/// # Errors
///
/// See [`dc_operating_point`]; additionally
/// [`AnalysisError::Cancelled`] or [`AnalysisError::BudgetExceeded`]
/// from `clock`.
pub fn dc_operating_point_solver(
    netlist: &Netlist,
    options: &DcOptions,
    settings: &SolveSettings,
    clock: Option<&BudgetClock>,
    ctx: &mut SolverContext,
) -> Result<OperatingPoint, AnalysisError> {
    // Homotopy scheduling is DC self-time; the Newton solves underneath
    // attribute their own stamp/factor/solve/residual phases.
    let _dc = settings
        .profile
        .as_ref()
        .map(|p| p.enter(obs::profile::Phase::DcSolve));
    let layout = MnaLayout::new(netlist);
    let mut x = vec![0.0; layout.size()];
    let set_phase = |phase: SolvePhase| {
        if let Some(flight) = &settings.flight {
            flight.set_phase(phase);
        }
    };
    if let Some(flight) = &settings.flight {
        flight.install_names(netlist, &layout);
    }
    // One Newton solve of the DC system at `gmin` with sources scaled
    // by `source_scale`, from the guess in `x`.
    let mut solve = |gmin: f64, source_scale: f64, x: &mut Vec<f64>| {
        let params = StampParams {
            time: options.time,
            companion: CompanionMode::Dc,
            gmin,
            source_scale,
        };
        newton_solve(
            netlist,
            &layout,
            &params,
            &options.newton,
            clock,
            settings,
            ctx,
            x,
        )
    };

    // 0. Golden warm start: seed the guess from a golden operating
    // point and try plain Newton. Faulty variants of a circuit usually
    // sit near the golden bias, so this converges in a handful of
    // iterations and skips the homotopy chain entirely. Any failure
    // falls through to the untouched cold-start ladder.
    if let Some(warm) = &settings.warm_start {
        set_phase(SolvePhase::DcDirect);
        warm.seed(&layout, &mut x);
        if solve(options.gmin, 1.0, &mut x).is_ok() {
            return Ok(OperatingPoint::new(layout, x));
        }
        x.iter_mut().for_each(|v| *v = 0.0);
    }

    // 1. Plain Newton.
    set_phase(SolvePhase::DcDirect);
    let direct = solve(options.gmin, 1.0, &mut x);
    if direct.is_ok() {
        return Ok(OperatingPoint::new(layout, x));
    }

    // 2. gmin stepping: start heavily damped, relax by decades, then
    // solve at the target gmin.
    if matches!(
        direct,
        Err(AnalysisError::NoConvergence { .. } | AnalysisError::Numerical { .. })
    ) {
        set_phase(SolvePhase::DcGmin);
        x.iter_mut().for_each(|v| *v = 0.0);
        let mut ok = true;
        let mut gmin = 1e-2;
        while ok && gmin >= options.gmin {
            if let Some(metrics) = &settings.metrics {
                metrics.dc_gmin_step();
            }
            ok = solve(gmin, 1.0, &mut x).is_ok();
            gmin /= 10.0;
        }
        if ok && solve(options.gmin, 1.0, &mut x).is_ok() {
            return Ok(OperatingPoint::new(layout, x));
        }
    }

    // 3. Source stepping: ramp independent sources 0 -> 100 %. Its
    // failure is the one reported.
    set_phase(SolvePhase::DcSource);
    x.iter_mut().for_each(|v| *v = 0.0);
    for step in 1..=20 {
        if let Some(metrics) = &settings.metrics {
            metrics.dc_source_step();
        }
        solve(options.gmin, step as f64 / 20.0, &mut x)?;
    }
    Ok(OperatingPoint::new(layout, x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{MosParams, MosPolarity};
    use crate::source::SourceWaveform;

    #[test]
    fn capacitors_are_open_at_dc() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::dc(5.0));
        nl.resistor("R1", a, b, 1e3);
        nl.capacitor("C1", b, Netlist::GROUND, 1e-9);
        // With C open, no current flows: v(b) = 5 V (gmin makes it
        // fractionally lower).
        let op = dc_operating_point(&nl).unwrap();
        assert!((op.voltage(b) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn inductors_are_short_at_dc() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::dc(5.0));
        nl.inductor("L1", a, b, 1e-3);
        nl.resistor("R1", b, Netlist::GROUND, 1e3);
        let op = dc_operating_point(&nl).unwrap();
        assert!((op.voltage(b) - 5.0).abs() < 1e-6);
        let l1 = nl.find_device("L1").unwrap();
        assert!((op.branch_current(l1).unwrap() - 5e-3).abs() < 1e-8);
    }

    #[test]
    fn five_stage_inverter_chain_converges() {
        // A chain of CMOS inverters is a classic DC convergence test.
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        nl.vsource("VDD", vdd, Netlist::GROUND, SourceWaveform::dc(5.0));
        let vin = nl.node("in0");
        nl.vsource("VIN", vin, Netlist::GROUND, SourceWaveform::dc(0.0));
        let mut prev = vin;
        for i in 0..5 {
            let out = nl.node(&format!("out{i}"));
            nl.mosfet(
                &format!("MN{i}"),
                out,
                prev,
                Netlist::GROUND,
                MosPolarity::Nmos,
                MosParams::nmos_5um().with_aspect(2.0),
            );
            nl.mosfet(
                &format!("MP{i}"),
                out,
                prev,
                vdd,
                MosPolarity::Pmos,
                MosParams::pmos_5um().with_aspect(5.0),
            );
            prev = out;
        }
        let op = dc_operating_point(&nl).unwrap();
        // 5 inversions of a low input -> final output high.
        assert!(op.voltage(prev) > 4.0, "v = {}", op.voltage(prev));
    }

    #[test]
    fn unpowered_circuit_rests_at_zero() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor("R1", a, Netlist::GROUND, 1e3);
        let op = dc_operating_point(&nl).unwrap();
        assert_eq!(op.voltage(a), 0.0);
        assert_eq!(op.voltage(Netlist::GROUND), 0.0);
    }

    #[test]
    fn solution_vector_is_exposed() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::dc(1.0));
        nl.resistor("R1", a, Netlist::GROUND, 1.0);
        let op = dc_operating_point(&nl).unwrap();
        assert_eq!(op.solution().len(), 2);
        let sol = op.into_solution();
        assert!((sol[0] - 1.0).abs() < 1e-9);
    }
}
