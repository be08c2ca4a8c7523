//! Transient (time-domain) analysis.

use crate::dc::{dc_operating_point_solver, dc_operating_point_with, DcOptions};
use crate::devices::Device;
use crate::flight::SolvePhase;
use crate::mna::{
    newton_solve, CompanionMode, Integrator, MnaLayout, NewtonOptions, ReactiveHistory, StampParams,
};
use crate::netlist::{DeviceId, Netlist, NodeId};
use crate::robust::{BudgetClock, SolveSettings};
use crate::solver::SolverContext;
use crate::waveform::Waveform;
use crate::AnalysisError;

/// Breakpoint comparisons use a tolerance relative to the analysis
/// horizon rather than an absolute epsilon, so behaviour is invariant
/// under time rescaling (an absolute 1e-15 s is coarse for picosecond
/// circuits and needlessly fine for second-scale ones).
const BREAKPOINT_RELTOL: f64 = 1e-12;

/// How the initial condition at `t = 0` is established.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StartCondition {
    /// Solve a DC operating point with sources at their `t = 0` values.
    #[default]
    OperatingPoint,
    /// "Use initial conditions": start from zero node voltages, honouring
    /// explicit capacitor `ic` values.
    Uic,
}

/// Transient analysis configuration and runner.
///
/// # Example
///
/// An RC low-pass step response:
///
/// ```
/// use anasim::netlist::Netlist;
/// use anasim::source::SourceWaveform;
/// use anasim::transient::TransientAnalysis;
///
/// # fn main() -> Result<(), anasim::AnalysisError> {
/// let mut nl = Netlist::new();
/// let vin = nl.node("in");
/// let out = nl.node("out");
/// nl.vsource("V1", vin, Netlist::GROUND, SourceWaveform::step(1.0, 0.0));
/// nl.resistor("R1", vin, out, 1e3);
/// nl.capacitor("C1", out, Netlist::GROUND, 1e-6);
/// let result = TransientAnalysis::new(5e-3, 10e-6).run(&nl)?;
/// let w = result.voltage(out);
/// // After 5 time constants the output has settled near 1 V.
/// assert!((w.value_at(5e-3) - 1.0).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TransientAnalysis {
    t_stop: f64,
    dt: f64,
    min_dt: f64,
    integrator: Integrator,
    start: StartCondition,
    newton: NewtonOptions,
    gmin: f64,
    /// Budget, backend, warm start and observers for every solve of the
    /// run. Its rung has already been applied to the fields above.
    settings: SolveSettings,
}

impl TransientAnalysis {
    /// Creates an analysis running to `t_stop` seconds with nominal
    /// timestep `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `t_stop` or `dt` is not finite and positive.
    pub fn new(t_stop: f64, dt: f64) -> Self {
        assert!(t_stop.is_finite() && t_stop > 0.0, "t_stop must be positive");
        assert!(dt.is_finite() && dt > 0.0, "dt must be positive");
        TransientAnalysis {
            t_stop,
            dt,
            min_dt: dt / 1024.0,
            integrator: Integrator::Trapezoidal,
            start: StartCondition::OperatingPoint,
            newton: NewtonOptions::default(),
            gmin: 1e-12,
            settings: SolveSettings::default(),
        }
    }

    /// Selects the integration rule (default: trapezoidal).
    pub fn integrator(mut self, integrator: Integrator) -> Self {
        self.integrator = integrator;
        self
    }

    /// Selects the initial-condition strategy (default: DC operating
    /// point).
    pub fn start_condition(mut self, start: StartCondition) -> Self {
        self.start = start;
        self
    }

    /// Overrides the Newton options.
    pub fn newton_options(mut self, newton: NewtonOptions) -> Self {
        self.newton = newton;
        self
    }

    /// Overrides the minimum timestep used when retrying failed steps.
    pub fn min_dt(mut self, min_dt: f64) -> Self {
        self.min_dt = min_dt;
        self
    }

    /// Overrides the `gmin` conductance stamped from every node to
    /// ground (default `1e-12` S).
    pub fn gmin(mut self, gmin: f64) -> Self {
        self.gmin = gmin;
        self
    }

    /// Applies a complete [`SolveSettings`]: the escalation-rung scaling
    /// (timestep, integrator, `gmin`), then the settings themselves —
    /// resource budget, linear-algebra backend, golden warm start and
    /// observers (metrics, flight recorder, cancellation token, phase
    /// profiler, numeric chaos) — replacing any applied before.
    ///
    /// This is how fault campaigns retry a failed extraction with a more
    /// conservative configuration without rebuilding the analysis by
    /// hand. The default is [`SolveSettings::default`]: 50 million
    /// attempted timesteps, no wall-clock ceiling, nothing armed.
    pub fn with_settings(mut self, settings: &SolveSettings) -> Self {
        let rung = settings.rung;
        self.dt *= rung.dt_scale;
        self.min_dt *= rung.dt_scale * rung.min_dt_scale;
        if rung.force_backward_euler {
            self.integrator = Integrator::BackwardEuler;
        }
        if let Some(gmin) = rung.gmin {
            self.gmin = gmin;
        }
        self.settings = settings.clone();
        self
    }

    /// Runs the analysis over `netlist`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NoConvergence`] if a timestep cannot be
    /// solved even at the minimum step size,
    /// [`AnalysisError::SingularMatrix`] for structurally singular
    /// circuits, [`AnalysisError::BudgetExceeded`] when the
    /// [`crate::robust::SolveBudget`] runs out of steps or wall-clock
    /// time, or [`AnalysisError::Cancelled`] once the settings' cancel
    /// token is raised — the DC start included.
    pub fn run(&self, netlist: &Netlist) -> Result<TransientResult, AnalysisError> {
        let settings = &self.settings;
        // The budget covers the whole run: the DC start polls the same
        // clock as the march, though only the march charges steps.
        let mut clock = BudgetClock::new(settings.budget).with_cancel(settings.cancel.clone());
        let layout = MnaLayout::new(netlist);
        let mut history = ReactiveHistory::new(netlist);
        // Everything in this run not attributed to a nested phase (the
        // Newton solve internals, the DC start) is timestep control:
        // step selection, history updates, dt halving, result storage.
        let _march = settings
            .profile
            .as_ref()
            .map(|p| p.enter(obs::profile::Phase::StepControl));
        let metrics = settings.metrics.as_deref();
        if let Some(flight) = &settings.flight {
            flight.install_names(netlist, &layout);
        }

        // One solver context serves the DC start and the whole march:
        // the sparse symbolic analysis, baseline stamps and LU factors
        // it accumulates are reused across every timestep.
        let mut ctx = SolverContext::new(settings.backend);

        // --- Initial condition ------------------------------------------
        let mut x = match self.start {
            StartCondition::OperatingPoint => {
                let op = dc_operating_point_solver(
                    netlist,
                    &DcOptions {
                        newton: self.newton,
                        gmin: self.gmin,
                        time: 0.0,
                    },
                    settings,
                    Some(&clock),
                    &mut ctx,
                )?;
                op.into_solution()
            }
            StartCondition::Uic => vec![0.0; layout.size()],
        };
        if let Some(flight) = &settings.flight {
            flight.set_phase(SolvePhase::Transient);
        }
        seed_history(netlist, &layout, &x, self.start, &mut history);

        // --- Breakpoints --------------------------------------------------
        let mut breakpoints: Vec<f64> = netlist
            .devices()
            .filter_map(|(_, _, dev)| match dev {
                Device::Vsource { wave, .. } | Device::Isource { wave, .. } => {
                    Some(wave.breakpoints(0.0, self.t_stop))
                }
                _ => None,
            })
            .flatten()
            .filter(|&t| t > 0.0)
            .collect();
        // Tolerance for breakpoint bookkeeping, relative to the horizon.
        let bp_tol = BREAKPOINT_RELTOL * self.t_stop;
        breakpoints.sort_by(|a, b| a.total_cmp(b));
        breakpoints.dedup_by(|a, b| (*a - *b).abs() < bp_tol);
        let mut bp_iter = breakpoints.into_iter().peekable();

        // --- Time march ---------------------------------------------------
        let mut result = TransientResult {
            layout: layout.clone(),
            time: vec![0.0],
            solutions: vec![x.clone()],
        };

        let mut t = 0.0;
        // Force a conservative first step after t=0 and after each
        // breakpoint: backward Euler damps the discontinuity that would
        // make trapezoidal ring.
        let mut post_discontinuity = true;
        // Previous accepted solution and step, for the linear
        // extrapolation predictor.
        let mut prev: Option<(Vec<f64>, f64)> = None;

        while t < self.t_stop - 1e-15 * self.t_stop {
            clock.charge_step(t)?;
            // Candidate next time: regular grid, clipped to breakpoint/stop.
            let mut t_next = (t + self.dt).min(self.t_stop);
            let mut hit_bp = false;
            while let Some(&bp) = bp_iter.peek() {
                if bp <= t + bp_tol {
                    bp_iter.next();
                    continue;
                }
                if bp < t_next - bp_tol {
                    t_next = bp;
                    hit_bp = true;
                }
                break;
            }

            // Attempt the step, halving on Newton failure. The loop only
            // exits by accepting a step or propagating a real error, so
            // a terminal `NoConvergence` always carries the residual and
            // iteration count of the last actual Newton attempt — never
            // a synthetic placeholder.
            let mut dt_try = t_next - t;
            let (x_new, method, dt_used) = loop {
                let method = if post_discontinuity {
                    Integrator::BackwardEuler
                } else {
                    self.integrator
                };
                let mut x_try = x.clone();
                // Linear extrapolation predictor: seed Newton from the
                // trajectory's tangent rather than the previous point.
                // Skipped across discontinuities, where extrapolating
                // through the corner would mislead; recomputed from the
                // accepted state on every dt-halving retry.
                if !post_discontinuity {
                    if let Some((x_prev, dt_prev)) = &prev {
                        let ratio = dt_try / dt_prev;
                        for (k, guess) in x_try.iter_mut().enumerate() {
                            *guess = x[k] + (x[k] - x_prev[k]) * ratio;
                        }
                    }
                }
                let params = StampParams {
                    time: t + dt_try,
                    companion: CompanionMode::Transient {
                        method,
                        dt: dt_try,
                        history: &history,
                    },
                    gmin: self.gmin,
                    source_scale: 1.0,
                };
                match newton_solve(
                    netlist,
                    &layout,
                    &params,
                    &self.newton,
                    Some(&clock),
                    settings,
                    &mut ctx,
                    &mut x_try,
                ) {
                    Ok(()) => break (x_try, method, dt_try),
                    Err(
                        AnalysisError::NoConvergence { .. } | AnalysisError::Numerical { .. },
                    ) if dt_try / 2.0 >= self.min_dt => {
                        // Each halving retry is a fresh attempted step as
                        // far as the budget is concerned.
                        clock.charge_step(t)?;
                        if let Some(metrics) = metrics {
                            metrics.step_rejected();
                            metrics.dt_shrink();
                        }
                        dt_try /= 2.0;
                    }
                    Err(e) => return Err(e),
                }
            };

            t += dt_used;
            if let Some(metrics) = metrics {
                metrics.step_accepted();
            }
            update_history(netlist, &layout, &x_new, method, dt_used, &mut history);
            prev = Some((std::mem::take(&mut x), dt_used));
            x = x_new;
            result.time.push(t);
            result.solutions.push(x.clone());

            // If we landed exactly on a breakpoint, consume it and damp the
            // next step.
            if hit_bp && (t - t_next).abs() < bp_tol {
                bp_iter.next();
                post_discontinuity = true;
            } else {
                post_discontinuity = false;
            }
        }
        Ok(result)
    }
}

/// Seeds the reactive history from the initial solution.
fn seed_history(
    netlist: &Netlist,
    layout: &MnaLayout,
    x: &[f64],
    start: StartCondition,
    history: &mut ReactiveHistory,
) {
    for (id, _, dev) in netlist.devices() {
        match dev {
            Device::Capacitor { a, b, ic, .. } => {
                history.v[id.index()] = match (start, ic) {
                    (StartCondition::Uic, Some(v0)) => *v0,
                    _ => layout.voltage(x, *a) - layout.voltage(x, *b),
                };
                history.i[id.index()] = 0.0;
            }
            Device::Inductor { a, b, .. } => {
                history.i[id.index()] = layout
                    .branch_index(id)
                    .map(|j| x[j])
                    .unwrap_or(0.0);
                history.v[id.index()] = layout.voltage(x, *a) - layout.voltage(x, *b);
            }
            _ => {}
        }
    }
}

/// Updates reactive history after an accepted step.
fn update_history(
    netlist: &Netlist,
    layout: &MnaLayout,
    x: &[f64],
    method: Integrator,
    dt: f64,
    history: &mut ReactiveHistory,
) {
    for (id, _, dev) in netlist.devices() {
        match dev {
            Device::Capacitor { a, b, farads, .. } => {
                let v_new = layout.voltage(x, *a) - layout.voltage(x, *b);
                let v_old = history.v[id.index()];
                let i_old = history.i[id.index()];
                let i_new = match method {
                    Integrator::BackwardEuler => farads / dt * (v_new - v_old),
                    Integrator::Trapezoidal => 2.0 * farads / dt * (v_new - v_old) - i_old,
                };
                history.v[id.index()] = v_new;
                history.i[id.index()] = i_new;
            }
            Device::Inductor { a, b, .. } => {
                history.i[id.index()] = layout
                    .branch_index(id)
                    .map(|j| x[j])
                    .unwrap_or(0.0);
                history.v[id.index()] = layout.voltage(x, *a) - layout.voltage(x, *b);
            }
            _ => {}
        }
    }
}

/// The result of a transient run: one solution vector per accepted
/// timepoint.
#[derive(Debug, Clone)]
pub struct TransientResult {
    layout: MnaLayout,
    time: Vec<f64>,
    solutions: Vec<Vec<f64>>,
}

impl TransientResult {
    /// Accepted timepoints.
    pub fn times(&self) -> &[f64] {
        &self.time
    }

    /// Number of accepted timepoints.
    pub fn len(&self) -> usize {
        self.time.len()
    }

    /// True if the run produced no points (cannot happen for successful
    /// runs, which always include `t = 0`).
    pub fn is_empty(&self) -> bool {
        self.time.is_empty()
    }

    /// The voltage waveform at `node`.
    pub fn voltage(&self, node: NodeId) -> Waveform {
        let v = self
            .solutions
            .iter()
            .map(|x| self.layout.voltage(x, node))
            .collect();
        Waveform::from_samples(self.time.clone(), v)
    }

    /// The branch-current waveform of a voltage-defined device, if it has
    /// a branch unknown.
    pub fn branch_current(&self, device: DeviceId) -> Option<Waveform> {
        let j = self.layout.branch_index(device)?;
        let v = self.solutions.iter().map(|x| x[j]).collect();
        Some(Waveform::from_samples(self.time.clone(), v))
    }

    /// Voltage at `node` at the final timepoint.
    pub fn final_voltage(&self, node: NodeId) -> f64 {
        self.layout
            .voltage(self.solutions.last().expect("non-empty result"), node)
    }
}


/// A resumable transient simulation for co-simulation: the circuit
/// state persists between calls, sources can be rewritten at run time,
/// and an external controller (e.g. a gate-level state machine) can
/// read node voltages at its clock ticks and steer the analogue side.
///
/// # Example
///
/// An RC charged for one interval, then actively discharged by
/// rewriting its source mid-run:
///
/// ```
/// use anasim::netlist::Netlist;
/// use anasim::source::SourceWaveform;
/// use anasim::transient::TransientSession;
///
/// # fn main() -> Result<(), anasim::AnalysisError> {
/// let mut nl = Netlist::new();
/// let vin = nl.node("in");
/// let out = nl.node("out");
/// let src = nl.vsource("V1", vin, Netlist::GROUND, SourceWaveform::dc(5.0));
/// nl.resistor("R1", vin, out, 1e3);
/// nl.capacitor("C1", out, Netlist::GROUND, 1e-6);
///
/// let mut session = TransientSession::begin(&nl, 10e-6)?;
/// session.advance_to(5e-3)?;                    // charge ~5 tau
/// assert!(session.voltage(out) > 4.9);
/// session.set_source(src, SourceWaveform::dc(0.0))?;
/// session.advance_to(10e-3)?;                   // discharge
/// assert!(session.voltage(out) < 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TransientSession {
    netlist: Netlist,
    layout: MnaLayout,
    history: ReactiveHistory,
    x: Vec<f64>,
    t: f64,
    dt: f64,
    min_dt: f64,
    integrator: Integrator,
    newton: NewtonOptions,
    gmin: f64,
    /// Damp the first step after a source rewrite or session start.
    post_discontinuity: bool,
    /// Persistent solver state: sparse structure, baseline stamps and
    /// LU factors survive between `advance_to` calls.
    ctx: SolverContext,
}

impl TransientSession {
    /// Opens a session from the DC operating point at `t = 0`, stepping
    /// with nominal timestep `dt`.
    ///
    /// # Errors
    ///
    /// Propagates DC non-convergence.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn begin(netlist: &Netlist, dt: f64) -> Result<Self, AnalysisError> {
        assert!(dt.is_finite() && dt > 0.0, "dt must be positive");
        let layout = MnaLayout::new(netlist);
        let newton = NewtonOptions::default();
        let gmin = 1e-12;
        let op = dc_operating_point_with(
            netlist,
            &DcOptions {
                newton,
                gmin,
                time: 0.0,
            },
        )?;
        let x = op.into_solution();
        let mut history = ReactiveHistory::new(netlist);
        seed_history(netlist, &layout, &x, StartCondition::OperatingPoint, &mut history);
        Ok(TransientSession {
            netlist: netlist.clone(),
            layout,
            history,
            x,
            t: 0.0,
            dt,
            min_dt: dt / 1024.0,
            integrator: Integrator::Trapezoidal,
            newton,
            gmin,
            post_discontinuity: true,
            ctx: SolverContext::default(),
        })
    }

    /// Present simulation time, seconds.
    pub fn time(&self) -> f64 {
        self.t
    }

    /// Voltage at a node at the present time.
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.layout.voltage(&self.x, node)
    }

    /// Branch current of a voltage-defined device at the present time.
    pub fn branch_current(&self, device: DeviceId) -> Option<f64> {
        self.layout.branch_index(device).map(|j| self.x[j])
    }

    /// Rewrites a source's waveform at the present time (the
    /// co-simulation control input).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::UnknownElement`] if `device` is not an
    /// independent source.
    pub fn set_source(
        &mut self,
        device: DeviceId,
        wave: crate::source::SourceWaveform,
    ) -> Result<(), AnalysisError> {
        match self.netlist.device_mut(device) {
            crate::devices::Device::Vsource { wave: w, .. }
            | crate::devices::Device::Isource { wave: w, .. } => *w = wave,
            other => {
                return Err(AnalysisError::UnknownElement(format!(
                    "set_source needs an independent source, found {other:?}"
                )))
            }
        }
        self.post_discontinuity = true;
        Ok(())
    }

    /// Advances the session to absolute time `t_stop`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NoConvergence`] if a step fails at the
    /// minimum step size; [`AnalysisError::InvalidParameter`] if
    /// `t_stop` is not ahead of the present time.
    pub fn advance_to(&mut self, t_stop: f64) -> Result<(), AnalysisError> {
        if t_stop <= self.t {
            return Err(AnalysisError::InvalidParameter(format!(
                "t_stop {t_stop} is not ahead of t = {}",
                self.t
            )));
        }
        // Source breakpoints within the window keep steps aligned with
        // waveform corners.
        let mut breakpoints: Vec<f64> = self
            .netlist
            .devices()
            .filter_map(|(_, _, dev)| match dev {
                crate::devices::Device::Vsource { wave, .. }
                | crate::devices::Device::Isource { wave, .. } => {
                    Some(wave.breakpoints(self.t, t_stop))
                }
                _ => None,
            })
            .flatten()
            .filter(|&bp| bp > self.t)
            .collect();
        // Tolerance relative to the step size: session windows can be
        // arbitrarily short, so the horizon is a poor scale here.
        let bp_tol = BREAKPOINT_RELTOL * t_stop.abs().max(self.dt);
        breakpoints.sort_by(|a, b| a.total_cmp(b));
        breakpoints.dedup_by(|a, b| (*a - *b).abs() < bp_tol);
        let mut bp_iter = breakpoints.into_iter().peekable();

        while self.t < t_stop - 1e-15 * t_stop.abs().max(1.0) {
            let mut t_next = (self.t + self.dt).min(t_stop);
            while let Some(&bp) = bp_iter.peek() {
                if bp <= self.t + bp_tol {
                    bp_iter.next();
                    continue;
                }
                if bp < t_next - bp_tol {
                    t_next = bp;
                }
                break;
            }

            let mut dt_try = t_next - self.t;
            loop {
                let method = if self.post_discontinuity {
                    Integrator::BackwardEuler
                } else {
                    self.integrator
                };
                let mut x_try = self.x.clone();
                let params = StampParams {
                    time: self.t + dt_try,
                    companion: CompanionMode::Transient {
                        method,
                        dt: dt_try,
                        history: &self.history,
                    },
                    gmin: self.gmin,
                    source_scale: 1.0,
                };
                match newton_solve(
                    &self.netlist,
                    &self.layout,
                    &params,
                    &self.newton,
                    None,
                    &SolveSettings::default(),
                    &mut self.ctx,
                    &mut x_try,
                ) {
                    Ok(()) => {
                        self.t += dt_try;
                        update_history(
                            &self.netlist,
                            &self.layout,
                            &x_try,
                            method,
                            dt_try,
                            &mut self.history,
                        );
                        self.x = x_try;
                        self.post_discontinuity = false;
                        break;
                    }
                    Err(
                        AnalysisError::NoConvergence { .. } | AnalysisError::Numerical { .. },
                    ) if dt_try / 2.0 >= self.min_dt => {
                        dt_try /= 2.0;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWaveform;

    fn rc_circuit(tau_r: f64, tau_c: f64) -> (Netlist, NodeId) {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.vsource("V1", vin, Netlist::GROUND, SourceWaveform::step(1.0, 0.0));
        nl.resistor("R1", vin, out, tau_r);
        nl.capacitor("C1", out, Netlist::GROUND, tau_c);
        (nl, out)
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        // tau = 1 ms. UIC start: the source is already high at t = 0, so an
        // operating-point start would begin from the settled state.
        let (nl, out) = rc_circuit(1e3, 1e-6);
        let res = TransientAnalysis::new(5e-3, 5e-6)
            .start_condition(StartCondition::Uic)
            .run(&nl)
            .unwrap();
        let w = res.voltage(out);
        for &frac in &[0.5, 1.0, 2.0, 3.0] {
            let t = frac * 1e-3;
            let expect = 1.0 - (-t / 1e-3_f64).exp();
            assert!(
                (w.value_at(t) - expect).abs() < 2e-3,
                "at t={t}: got {}, want {expect}",
                w.value_at(t)
            );
        }
    }

    #[test]
    fn backward_euler_also_converges() {
        let (nl, out) = rc_circuit(1e3, 1e-6);
        let res = TransientAnalysis::new(5e-3, 2e-6)
            .integrator(Integrator::BackwardEuler)
            .run(&nl)
            .unwrap();
        assert!((res.final_voltage(out) - 1.0).abs() < 5e-3);
    }

    #[test]
    fn uic_honours_capacitor_initial_voltage() {
        let mut nl = Netlist::new();
        let out = nl.node("out");
        nl.resistor("R1", out, Netlist::GROUND, 1e3);
        nl.capacitor_ic("C1", out, Netlist::GROUND, 1e-6, 2.0);
        let res = TransientAnalysis::new(5e-3, 5e-6)
            .start_condition(StartCondition::Uic)
            .run(&nl)
            .unwrap();
        let w = res.voltage(out);
        // Discharges from 2 V with tau = 1 ms.
        let at_tau = w.value_at(1e-3);
        let expect = 2.0 * (-1.0_f64).exp();
        assert!((at_tau - expect).abs() < 0.02, "got {at_tau}, want {expect}");
    }

    #[test]
    fn lc_oscillation_frequency() {
        // Ideal LC tank started via capacitor IC; f = 1/(2*pi*sqrt(LC)).
        let mut nl = Netlist::new();
        let n1 = nl.node("n1");
        nl.inductor("L1", n1, Netlist::GROUND, 1e-3);
        nl.capacitor_ic("C1", n1, Netlist::GROUND, 1e-6, 1.0);
        // Slight damping to keep matrices friendly.
        nl.resistor("Rp", n1, Netlist::GROUND, 1e6);
        let res = TransientAnalysis::new(200e-6, 0.2e-6)
            .start_condition(StartCondition::Uic)
            .run(&nl)
            .unwrap();
        let w = res.voltage(n1);
        // Find first zero crossing (quarter period); T/4 = pi/2*sqrt(LC).
        let expect_quarter = std::f64::consts::FRAC_PI_2 * (1e-3_f64 * 1e-6).sqrt();
        let mut crossing = None;
        let times = w.times();
        let values = w.values();
        for i in 1..w.len() {
            if values[i - 1] > 0.0 && values[i] <= 0.0 {
                crossing = Some(times[i]);
                break;
            }
        }
        let crossing = crossing.expect("oscillation crossed zero");
        assert!(
            (crossing - expect_quarter).abs() / expect_quarter < 0.02,
            "quarter period {crossing}, expected {expect_quarter}"
        );
    }

    #[test]
    fn breakpoints_align_with_pulse_edges() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource(
            "V1",
            a,
            Netlist::GROUND,
            SourceWaveform::Pulse {
                low: 0.0,
                high: 5.0,
                delay: 0.0,
                rise: 1e-9,
                fall: 1e-9,
                width: 10e-6,
                period: 20e-6,
            },
        );
        nl.resistor("R1", a, Netlist::GROUND, 1e3);
        let res = TransientAnalysis::new(40e-6, 1.5e-6).run(&nl).unwrap();
        // The step times should include the pulse edges despite the odd dt.
        let has_time = |t: f64| res.times().iter().any(|&ti| (ti - t).abs() < 1e-12);
        assert!(has_time(10e-6 + 1e-9)); // falling edge corner
        assert!(has_time(20e-6)); // next period start
    }

    #[test]
    fn result_reports_branch_current() {
        let (nl, _) = rc_circuit(1e3, 1e-6);
        let v1 = nl.find_device("V1").unwrap();
        let res = TransientAnalysis::new(1e-3, 10e-6)
            .start_condition(StartCondition::Uic)
            .run(&nl)
            .unwrap();
        let i = res.branch_current(v1).unwrap();
        // Inrush current magnitude ~ 1V/1k = 1 mA at t=0+.
        assert!(i.values().iter().any(|&x| x.abs() > 0.5e-3));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dt_rejected() {
        let _ = TransientAnalysis::new(1.0, 0.0);
    }

    #[test]
    fn session_matches_one_shot_run() {
        // Advancing a session in three chunks must land on the same
        // trajectory as a single run.
        let (nl, out) = rc_circuit(1e3, 1e-6);
        let mut session = TransientSession::begin(&nl, 5e-6).unwrap();
        session.advance_to(1e-3).unwrap();
        let s1 = session.voltage(out);
        session.advance_to(2e-3).unwrap();
        session.advance_to(4e-3).unwrap();
        let s2 = session.voltage(out);

        let res = TransientAnalysis::new(4e-3, 5e-6).run(&nl).unwrap();
        let w = res.voltage(out);
        assert!((s1 - w.value_at(1e-3)).abs() < 2e-3, "{s1}");
        assert!((s2 - w.value_at(4e-3)).abs() < 2e-3, "{s2}");
        assert!((session.time() - 4e-3).abs() < 1e-12);
    }

    #[test]
    fn session_source_rewrite_steers_the_circuit() {
        let (nl, out) = rc_circuit(1e3, 1e-6);
        let v1 = nl.find_device("V1").unwrap();
        let mut session = TransientSession::begin(&nl, 5e-6).unwrap();
        session.advance_to(5e-3).unwrap();
        assert!(session.voltage(out) > 0.99);
        session.set_source(v1, SourceWaveform::dc(-1.0)).unwrap();
        session.advance_to(10e-3).unwrap();
        // 5 tau of swing from +1 toward -1: 2 e^-5 ~ 0.013 remains.
        assert!((session.voltage(out) + 1.0).abs() < 0.02);
    }

    #[test]
    fn session_rejects_backwards_time() {
        let (nl, _) = rc_circuit(1e3, 1e-6);
        let mut session = TransientSession::begin(&nl, 5e-6).unwrap();
        session.advance_to(1e-3).unwrap();
        assert!(session.advance_to(0.5e-3).is_err());
    }

    #[test]
    fn session_set_source_validates_device() {
        let (nl, out) = rc_circuit(1e3, 1e-6);
        let r1 = nl.find_device("R1").unwrap();
        let mut session = TransientSession::begin(&nl, 5e-6).unwrap();
        let err = session.set_source(r1, SourceWaveform::dc(0.0)).unwrap_err();
        assert!(matches!(err, AnalysisError::UnknownElement(_)));
        assert!(err.to_string().contains("independent source"));
        // The session stays usable after the rejected rewrite.
        session.advance_to(1e-3).unwrap();
        assert!(session.voltage(out) > 0.0);
    }

    /// Settings carrying only `budget`.
    fn budgeted(budget: crate::robust::SolveBudget) -> SolveSettings {
        SolveSettings {
            budget,
            ..SolveSettings::default()
        }
    }

    #[test]
    fn step_budget_is_reported_as_budget_exceeded() {
        use crate::robust::SolveBudget;
        let (nl, _) = rc_circuit(1e3, 1e-6);
        let err = TransientAnalysis::new(5e-3, 5e-6)
            .with_settings(&budgeted(SolveBudget::unlimited().steps(10)))
            .run(&nl)
            .unwrap_err();
        assert!(
            matches!(
                err,
                AnalysisError::BudgetExceeded {
                    kind: crate::BudgetKind::Steps,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn wall_budget_is_reported_as_budget_exceeded() {
        use crate::robust::SolveBudget;
        use std::time::Duration;
        let (nl, _) = rc_circuit(1e3, 1e-6);
        let err = TransientAnalysis::new(5e-3, 5e-6)
            .with_settings(&budgeted(SolveBudget::unlimited().wall(Duration::ZERO)))
            .run(&nl)
            .unwrap_err();
        assert!(
            matches!(
                err,
                AnalysisError::BudgetExceeded {
                    kind: crate::BudgetKind::WallClock,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn dt_halving_rescues_a_tight_newton_budget() {
        use crate::devices::DiodeParams;
        // A 1 mA step into R ∥ C wants to move the node ~1.7 V in the
        // nominal-dt solve at the source corner, but the per-iteration
        // voltage clamp walks at most 0.5 V per Newton iteration, so 4
        // iterations cannot converge there. (The corner step is the
        // binding one: the extrapolation predictor seeds later steps
        // from the trajectory's tangent, but extrapolating the flat
        // pre-step history says nothing about the corner itself.)
        // Every dt halving doubles the capacitor's companion
        // conductance and shrinks the per-step excursion, so a halved
        // retry fits inside the iteration cap. The isolated reverse
        // diode only marks the system nonlinear so the damped Newton
        // walk (and thus the cap) is actually exercised.
        let tight = NewtonOptions {
            max_iterations: 4,
            vstep_limit: 0.5,
            ..NewtonOptions::default()
        };
        let circuit = || {
            let mut nl = Netlist::new();
            let out = nl.node("out");
            let iso = nl.node("iso");
            nl.isource("I1", out, Netlist::GROUND, SourceWaveform::step(1e-3, 2e-6));
            nl.resistor("R1", out, Netlist::GROUND, 5e3);
            nl.capacitor("C1", out, Netlist::GROUND, 0.2e-9);
            nl.diode("D1", iso, Netlist::GROUND, DiodeParams::default());
            (nl, out)
        };

        // Halving forbidden (min_dt pinned at dt): the step cannot
        // converge and the analysis dies at the transition.
        let (nl, _) = circuit();
        let err = TransientAnalysis::new(20e-6, 1e-6)
            .newton_options(tight)
            .min_dt(1e-6)
            .run(&nl)
            .unwrap_err();
        assert!(
            matches!(err, AnalysisError::NoConvergence { .. }),
            "got {err:?}"
        );

        // With halving room the same analysis completes and settles to
        // the I·R level a generously-budgeted run agrees on.
        let (nl, out) = circuit();
        let rescued = TransientAnalysis::new(20e-6, 1e-6)
            .newton_options(tight)
            .run(&nl)
            .unwrap();
        let reference = TransientAnalysis::new(20e-6, 1e-6).run(&nl).unwrap();
        let v = rescued.final_voltage(out);
        let v_ref = reference.final_voltage(out);
        assert!((v - v_ref).abs() < 1e-3, "rescued {v} vs reference {v_ref}");
        assert!((v - 5.0).abs() < 0.05, "settled at {v}");
    }

    #[test]
    fn with_settings_applies_rung_scaling() {
        use crate::robust::{SolveBudget, SolverRung};
        let base = TransientAnalysis::new(1e-3, 1e-6);
        let settings = SolveSettings {
            rung: SolverRung {
                dt_scale: 0.5,
                min_dt_scale: 4.0,
                force_backward_euler: true,
                gmin: Some(1e-9),
            },
            ..budgeted(SolveBudget::unlimited().steps(123))
        };
        let tuned = base.clone().with_settings(&settings);
        assert!((tuned.dt - 0.5e-6).abs() < 1e-18);
        // min_dt scales by dt_scale * min_dt_scale.
        assert!((tuned.min_dt - 1e-6 / 1024.0 * 0.5 * 4.0).abs() < 1e-18);
        assert_eq!(tuned.integrator, Integrator::BackwardEuler);
        assert_eq!(tuned.gmin, 1e-9);
        assert_eq!(tuned.settings.budget.max_steps, Some(123));
        // A nominal rung leaves the analysis unchanged apart from budget.
        let nominal = base.clone().with_settings(&SolveSettings::default());
        assert_eq!(nominal.dt, base.dt);
        assert_eq!(nominal.integrator, base.integrator);
    }

    #[test]
    fn cancel_token_arrives_through_with_settings() {
        use crate::metrics::SolverMetrics;
        use crate::robust::CancelToken;
        use std::sync::Arc;

        let (nl, _) = rc_circuit(1e3, 1e-6);
        let token = CancelToken::new();
        token.cancel();
        let metrics = Arc::new(SolverMetrics::new());
        let settings = SolveSettings {
            cancel: Some(token),
            ..SolveSettings::default().metrics(Arc::clone(&metrics))
        };
        let err = TransientAnalysis::new(1e-3, 10e-6)
            .with_settings(&settings)
            .run(&nl)
            .unwrap_err();
        assert_eq!(err, AnalysisError::Cancelled);
        // The DC start polls the run's clock too, so a pre-raised token
        // stops the run before its first Newton iteration.
        assert_eq!(metrics.snapshot().newton_iterations, 0);
    }

    #[test]
    fn metrics_count_steps_and_newton_iterations() {
        use crate::metrics::SolverMetrics;
        use std::sync::Arc;

        let (nl, _) = rc_circuit(1e3, 1e-6);
        let metrics = Arc::new(SolverMetrics::new());
        let settings = SolveSettings::default().metrics(Arc::clone(&metrics));
        TransientAnalysis::new(1e-3, 10e-6)
            .with_settings(&settings)
            .run(&nl)
            .unwrap();
        let snap = metrics.snapshot();
        // 1 ms horizon at 10 us nominal dt: ~100 accepted steps, each
        // needing at least one Newton iteration, plus the DC start.
        assert!(snap.steps_accepted >= 100, "accepted {snap:?}");
        assert!(snap.newton_iterations > snap.steps_accepted);
        assert_eq!(snap.steps_rejected, 0);

        // A second run on a fresh handle sees only its own work — there
        // is no cross-analysis bleed-through.
        let fresh = Arc::new(SolverMetrics::new());
        TransientAnalysis::new(1e-4, 10e-6)
            .with_settings(&SolveSettings::default().metrics(Arc::clone(&fresh)))
            .run(&nl)
            .unwrap();
        assert!(fresh.snapshot().steps_accepted < snap.steps_accepted);
    }
}
