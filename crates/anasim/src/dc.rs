//! DC operating-point analysis.
//!
//! Runs Newton–Raphson on the MNA system with capacitors open and
//! inductors shorted. If plain Newton fails, two classic homotopies are
//! tried in order: `gmin` stepping (progressively removing an artificial
//! conductance to ground) and source stepping (ramping all independent
//! sources from zero).

use crate::flight::{SolveHooks, SolvePhase};
use crate::metrics::SolverMetrics;
use crate::mna::{newton_solve, CompanionMode, MnaLayout, NewtonOptions, StampParams};
use crate::netlist::{DeviceId, Netlist, NodeId};
use crate::solver::{SolverContext, WarmStart};
use crate::AnalysisError;

use std::time::Instant;

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
    dc_operating_point_metered(netlist, options, None)
}

/// [`dc_operating_point_with`] with an optional [`SolverMetrics`]
/// handle: Newton iterations and homotopy stages (`dc_gmin_steps`,
/// `dc_source_steps`) are counted on it, and an `anasim.dc` span is
/// reported to its recorder on every exit path, success or failure.
///
/// # Errors
///
/// See [`dc_operating_point`].
pub fn dc_operating_point_metered(
    netlist: &Netlist,
    options: &DcOptions,
    metrics: Option<&SolverMetrics>,
) -> Result<OperatingPoint, AnalysisError> {
    let mut ctx = SolverContext::default();
    dc_operating_point_solver(netlist, options, SolveHooks::metrics(metrics), None, &mut ctx)
}

/// [`dc_operating_point_metered`] generalised to the full
/// [`SolveHooks`] bundle, against a caller-owned [`SolverContext`] and
/// optionally warm-started from a golden operating point. An armed
/// [`crate::flight::FlightRecorder`] sees every Newton iteration of the
/// direct solve and both homotopies, each tagged with its
/// [`SolvePhase`], with worst-unknown indices resolvable to node names.
///
/// The context's cached symbolic structure and factorisation carry
/// across the homotopy stages (and, when the caller is a transient
/// analysis, into the timestep march). A `warm` seed is tried with
/// plain Newton before the usual cold-start chain; on failure the
/// solve falls back to exactly the cold behaviour, so warm-starting
/// can only add one cheap attempt, never change the answer's
/// robustness.
///
/// # Errors
///
/// See [`dc_operating_point`].
pub fn dc_operating_point_solver(
    netlist: &Netlist,
    options: &DcOptions,
    hooks: SolveHooks<'_>,
    warm: Option<&WarmStart>,
    ctx: &mut SolverContext,
) -> Result<OperatingPoint, AnalysisError> {
    let started = Instant::now();
    let result = dc_solve(netlist, options, hooks, warm, ctx);
    if let Some(metrics) = hooks.metrics {
        metrics.record_span("anasim.dc", started.elapsed());
    }
    result
}

fn dc_solve(
    netlist: &Netlist,
    options: &DcOptions,
    hooks: SolveHooks<'_>,
    warm: Option<&WarmStart>,
    ctx: &mut SolverContext,
) -> Result<OperatingPoint, AnalysisError> {
    // Homotopy scheduling is DC self-time; the Newton solves underneath
    // attribute their own stamp/factor/solve/residual phases.
    let _dc = hooks
        .profile
        .map(|p| p.enter(obs::profile::Phase::DcSolve));
    let layout = MnaLayout::new(netlist);
    let mut x = vec![0.0; layout.size()];
    let set_phase = |phase: SolvePhase| {
        if let Some(flight) = hooks.flight {
            flight.set_phase(phase);
        }
    };
    if let Some(flight) = hooks.flight {
        flight.install_names(netlist, &layout);
    }

    // 0. Golden warm start: seed the guess from a golden operating
    // point and try plain Newton. Faulty variants of a circuit usually
    // sit near the golden bias, so this converges in a handful of
    // iterations and skips the homotopy chain entirely. Any failure
    // falls through to the untouched cold-start ladder.
    if let Some(warm) = warm {
        set_phase(SolvePhase::DcDirect);
        warm.seed(&layout, &mut x);
        if try_newton(
            netlist, &layout, options, options.gmin, 1.0, hooks, ctx, &mut x,
        )
        .is_ok()
        {
            return Ok(OperatingPoint::new(layout, x));
        }
        x.iter_mut().for_each(|v| *v = 0.0);
    }

    // 1. Plain Newton.
    set_phase(SolvePhase::DcDirect);
    let direct = try_newton(
        netlist, &layout, options, options.gmin, 1.0, hooks, ctx, &mut x,
    );
    if direct.is_ok() {
        return Ok(OperatingPoint::new(layout, x));
    }

    // 2. gmin stepping: start heavily damped, relax by decades.
    let mut last_err = direct.unwrap_err();
    if matches!(
        last_err,
        AnalysisError::NoConvergence { .. } | AnalysisError::Numerical { .. }
    ) {
        set_phase(SolvePhase::DcGmin);
        x.iter_mut().for_each(|v| *v = 0.0);
        let mut ok = true;
        let mut gmin = 1e-2;
        while gmin >= options.gmin {
            if let Some(metrics) = hooks.metrics {
                metrics.dc_gmin_step();
            }
            if let Err(e) = try_newton(netlist, &layout, options, gmin, 1.0, hooks, ctx, &mut x) {
                last_err = e;
                ok = false;
                break;
            }
            gmin /= 10.0;
        }
        if ok {
            // Final solve at the target gmin.
            if try_newton(
                netlist, &layout, options, options.gmin, 1.0, hooks, ctx, &mut x,
            )
            .is_ok()
            {
                return Ok(OperatingPoint::new(layout, x));
            }
        }
    }

    // 3. Source stepping: ramp independent sources 0 -> 100 %.
    set_phase(SolvePhase::DcSource);
    x.iter_mut().for_each(|v| *v = 0.0);
    let mut ok = true;
    for step in 1..=20 {
        let scale = step as f64 / 20.0;
        if let Some(metrics) = hooks.metrics {
            metrics.dc_source_step();
        }
        if let Err(e) = try_newton(
            netlist, &layout, options, options.gmin, scale, hooks, ctx, &mut x,
        ) {
            last_err = e;
            ok = false;
            break;
        }
    }
    if ok {
        return Ok(OperatingPoint::new(layout, x));
    }
    Err(last_err)
}

#[allow(clippy::too_many_arguments)]
fn try_newton(
    netlist: &Netlist,
    layout: &MnaLayout,
    options: &DcOptions,
    gmin: f64,
    source_scale: f64,
    hooks: SolveHooks<'_>,
    ctx: &mut SolverContext,
    x: &mut Vec<f64>,
) -> Result<(), AnalysisError> {
    let params = StampParams {
        time: options.time,
        companion: CompanionMode::Dc,
        gmin,
        source_scale,
    };
    newton_solve(
        netlist,
        layout,
        &params,
        &options.newton,
        None,
        hooks,
        ctx,
        x,
    )
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
