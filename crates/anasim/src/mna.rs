//! Modified nodal analysis: unknown layout, device stamps and the shared
//! Newton–Raphson solver used by DC and transient analyses.

use std::sync::Arc;

use crate::devices::{Device, MosPolarity};
use crate::netlist::{DeviceId, Netlist, NodeId};
use crate::robust::{BudgetClock, SolveSettings};
use crate::solver::{solve_into, FactorKey, MnaMatrix, PositionProbe, SolverContext};
use crate::AnalysisError;
use linsys::sparse::{SparseLu, SparseMatrix, SparseStructure};
use linsys::{refine_once, NumericalHazard, SingularMatrixError};
use obs::profile::{LapTimer, Phase};
use obs::NumericSite;

/// Mapping from circuit topology to MNA unknown indices.
///
/// Unknowns are ordered: node voltages for nodes `1..node_count` (ground is
/// eliminated), followed by one branch current per voltage-defined element
/// (independent voltage sources, VCVSs, inductors).
#[derive(Debug, Clone)]
pub struct MnaLayout {
    node_count: usize,
    branch_of_device: Vec<Option<usize>>,
    size: usize,
}

impl MnaLayout {
    /// Builds the layout for a netlist.
    pub fn new(netlist: &Netlist) -> Self {
        let node_count = netlist.node_count();
        let mut branch_of_device = vec![None; netlist.device_count()];
        let mut next_branch = 0;
        for (id, _, dev) in netlist.devices() {
            if dev.needs_branch_current() {
                branch_of_device[id.index()] = Some(next_branch);
                next_branch += 1;
            }
        }
        MnaLayout {
            node_count,
            branch_of_device,
            size: (node_count - 1) + next_branch,
        }
    }

    /// Total number of unknowns.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of circuit nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Unknown index of a node voltage, or `None` for ground.
    #[inline]
    pub fn node_index(&self, node: NodeId) -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.index() - 1)
        }
    }

    /// Unknown index of a device's branch current, if it has one.
    #[inline]
    pub fn branch_index(&self, device: DeviceId) -> Option<usize> {
        self.branch_of_device[device.index()].map(|b| (self.node_count - 1) + b)
    }

    /// Reads a node voltage out of a solution vector.
    #[inline]
    pub fn voltage(&self, x: &[f64], node: NodeId) -> f64 {
        match self.node_index(node) {
            Some(i) => x[i],
            None => 0.0,
        }
    }
}

/// Numerical integration method for reactive elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// First-order implicit Euler: very stable, damps ringing.
    BackwardEuler,
    /// Second-order trapezoidal rule: more accurate, may ring on
    /// discontinuities.
    #[default]
    Trapezoidal,
}

/// Per-device history for reactive companion models, indexed by device.
#[derive(Debug, Clone)]
pub struct ReactiveHistory {
    /// Branch voltage `v(a) − v(b)` at the previous accepted timepoint.
    pub v: Vec<f64>,
    /// Branch current at the previous accepted timepoint.
    pub i: Vec<f64>,
}

impl ReactiveHistory {
    /// Zero-initialised history for a netlist.
    pub fn new(netlist: &Netlist) -> Self {
        ReactiveHistory {
            v: vec![0.0; netlist.device_count()],
            i: vec![0.0; netlist.device_count()],
        }
    }
}

/// How reactive elements are stamped.
#[derive(Debug, Clone)]
pub enum CompanionMode<'a> {
    /// DC: capacitors open, inductors shorted.
    Dc,
    /// Transient step of size `dt` from the state in `history`.
    Transient {
        /// Integration rule.
        method: Integrator,
        /// Timestep in seconds.
        dt: f64,
        /// State at the previous accepted timepoint.
        history: &'a ReactiveHistory,
    },
}

/// Everything the stamper needs to evaluate devices at one time/iterate.
#[derive(Debug, Clone)]
pub struct StampParams<'a> {
    /// Absolute simulation time (seconds).
    pub time: f64,
    /// Reactive element handling.
    pub companion: CompanionMode<'a>,
    /// Conductance added from every node to ground for robustness.
    pub gmin: f64,
    /// Scale factor on independent sources (1.0 normally; <1 during
    /// source stepping).
    pub source_scale: f64,
}

/// Stamps the full linearised MNA system `A·x_new = b` around the guess `x`.
///
/// Assembly runs in two passes — linear stamps plus gmin first
/// ([`stamp_linear`]), nonlinear device model evaluation (MOSFET / diode
/// / switch) second ([`stamp_nonlinear`]) — the same order the Newton
/// loop assembles in, so the two produce bit-identical systems.
pub fn stamp_system<M: MnaMatrix>(
    netlist: &Netlist,
    layout: &MnaLayout,
    x: &[f64],
    params: &StampParams<'_>,
    a: &mut M,
    b: &mut [f64],
) {
    a.clear();
    b.iter_mut().for_each(|v| *v = 0.0);
    stamp_linear(netlist, layout, params, a, b);
    if netlist.has_nonlinear_devices() {
        stamp_nonlinear(netlist, layout, x, a, b);
    }
}

/// Pass 1: every linear device plus gmin. Independent of the Newton
/// iterate `x`, so one assembly per solve can serve every iteration
/// through a values snapshot.
pub fn stamp_linear<M: MnaMatrix>(
    netlist: &Netlist,
    layout: &MnaLayout,
    params: &StampParams<'_>,
    a: &mut M,
    b: &mut [f64],
) {
    for (dev_id, _, dev) in netlist.devices() {
        match dev {
            Device::Resistor { a: na, b: nb, ohms } => {
                stamp_conductance(layout, a, *na, *nb, 1.0 / ohms);
            }
            Device::Capacitor {
                a: na,
                b: nb,
                farads,
                ..
            } => match &params.companion {
                CompanionMode::Dc => {}
                CompanionMode::Transient {
                    method,
                    dt,
                    history,
                } => {
                    let (geq, irhs) = match method {
                        Integrator::BackwardEuler => {
                            let geq = farads / dt;
                            (geq, geq * history.v[dev_id.index()])
                        }
                        Integrator::Trapezoidal => {
                            let geq = 2.0 * farads / dt;
                            (
                                geq,
                                geq * history.v[dev_id.index()] + history.i[dev_id.index()],
                            )
                        }
                    };
                    stamp_conductance(layout, a, *na, *nb, geq);
                    stamp_current_injection(layout, b, *na, *nb, irhs);
                }
            },
            Device::Inductor {
                a: na,
                b: nb,
                henries,
            } => {
                let j = layout
                    .branch_index(dev_id)
                    .expect("inductor has a branch index");
                stamp_branch_kcl(layout, a, *na, *nb, j);
                // Branch equation: v(a) - v(b) - z*i = rhs
                match &params.companion {
                    CompanionMode::Dc => {
                        // Short: v(a) - v(b) = 0.
                    }
                    CompanionMode::Transient {
                        method,
                        dt,
                        history,
                    } => {
                        let (z, rhs) = match method {
                            Integrator::BackwardEuler => {
                                let z = henries / dt;
                                (z, -z * history.i[dev_id.index()])
                            }
                            Integrator::Trapezoidal => {
                                let z = 2.0 * henries / dt;
                                (
                                    z,
                                    -z * history.i[dev_id.index()] - history.v[dev_id.index()],
                                )
                            }
                        };
                        a.add(j, j, -z);
                        b[j] += rhs;
                    }
                }
            }
            Device::Vsource { pos, neg, wave } => {
                let j = layout
                    .branch_index(dev_id)
                    .expect("vsource has a branch index");
                stamp_branch_kcl(layout, a, *pos, *neg, j);
                b[j] += wave.value_at(params.time) * params.source_scale;
            }
            Device::Isource { pos, neg, wave } => {
                let i = wave.value_at(params.time) * params.source_scale;
                stamp_current_injection(layout, b, *pos, *neg, i);
            }
            Device::Vcvs {
                pos,
                neg,
                cpos,
                cneg,
                gain,
            } => {
                let j = layout
                    .branch_index(dev_id)
                    .expect("vcvs has a branch index");
                stamp_branch_kcl(layout, a, *pos, *neg, j);
                if let Some(ic) = layout.node_index(*cpos) {
                    a.add(j, ic, -gain);
                }
                if let Some(ic) = layout.node_index(*cneg) {
                    a.add(j, ic, *gain);
                }
            }
            Device::Vccs {
                pos,
                neg,
                cpos,
                cneg,
                gm,
            } => {
                stamp_transconductance(layout, a, *pos, *neg, *cpos, *cneg, *gm);
            }
            // Nonlinear devices are stamped in the second pass below.
            Device::Mosfet { .. } | Device::Diode { .. } | Device::Switch { .. } => {}
        }
    }

    // gmin to ground on every node for numerical robustness.
    if params.gmin > 0.0 {
        for n in 0..layout.node_count - 1 {
            a.add(n, n, params.gmin);
        }
    }
}

/// Pass 2: nonlinear device models (MOSFET / diode / switch) linearised
/// around the present guess `x`, stamped on top of the linear baseline.
pub fn stamp_nonlinear<M: MnaMatrix>(
    netlist: &Netlist,
    layout: &MnaLayout,
    x: &[f64],
    a: &mut M,
    b: &mut [f64],
) {
    // Helper closure for ground-aware stamping.
    let v_at = |node: NodeId| layout.voltage(x, node);
    for (_, _, dev) in netlist.devices() {
        match dev {
            Device::Mosfet {
                drain,
                gate,
                source,
                polarity,
                params: mp,
            } => {
                stamp_mosfet(layout, a, b, v_at, *drain, *gate, *source, *polarity, mp);
            }
            Device::Diode {
                anode,
                cathode,
                params: dp,
            } => {
                let vd = v_at(*anode) - v_at(*cathode);
                let (id, gd) = dp.evaluate(vd);
                let ieq = id - gd * vd;
                stamp_conductance(layout, a, *anode, *cathode, gd);
                stamp_current_injection(layout, b, *anode, *cathode, -ieq);
            }
            Device::Switch {
                a: na,
                b: nb,
                cpos,
                cneg,
                params: sp,
            } => {
                let vc = v_at(*cpos) - v_at(*cneg);
                stamp_conductance(layout, a, *na, *nb, sp.conductance(vc));
            }
            _ => {}
        }
    }
}

/// Stamps a two-terminal conductance.
#[inline]
fn stamp_conductance<M: MnaMatrix>(layout: &MnaLayout, a: &mut M, na: NodeId, nb: NodeId, g: f64) {
    let ia = layout.node_index(na);
    let ib = layout.node_index(nb);
    if let Some(i) = ia {
        a.add(i, i, g);
        if let Some(j) = ib {
            a.add(i, j, -g);
        }
    }
    if let Some(j) = ib {
        a.add(j, j, g);
        if let Some(i) = ia {
            a.add(j, i, -g);
        }
    }
}

/// Injects a constant current `i` into node `pos` and out of node `neg`.
#[inline]
fn stamp_current_injection(layout: &MnaLayout, b: &mut [f64], pos: NodeId, neg: NodeId, i: f64) {
    if let Some(ip) = layout.node_index(pos) {
        b[ip] += i;
    }
    if let Some(in_) = layout.node_index(neg) {
        b[in_] -= i;
    }
}

/// Stamps the KCL ±1 entries and the branch-row voltage terms for a
/// voltage-defined branch `j` between `pos` and `neg`.
#[inline]
fn stamp_branch_kcl<M: MnaMatrix>(layout: &MnaLayout, a: &mut M, pos: NodeId, neg: NodeId, j: usize) {
    if let Some(ip) = layout.node_index(pos) {
        a.add(ip, j, 1.0);
        a.add(j, ip, 1.0);
    }
    if let Some(in_) = layout.node_index(neg) {
        a.add(in_, j, -1.0);
        a.add(j, in_, -1.0);
    }
}

/// Stamps a transconductance `gm·(v(cpos) − v(cneg))` flowing `pos → neg`.
#[inline]
fn stamp_transconductance<M: MnaMatrix>(
    layout: &MnaLayout,
    a: &mut M,
    pos: NodeId,
    neg: NodeId,
    cpos: NodeId,
    cneg: NodeId,
    gm: f64,
) {
    for (row, sign_row) in [(pos, 1.0), (neg, -1.0)] {
        let Some(ir) = layout.node_index(row) else {
            continue;
        };
        if let Some(ic) = layout.node_index(cpos) {
            a.add(ir, ic, sign_row * gm);
        }
        if let Some(ic) = layout.node_index(cneg) {
            a.add(ir, ic, -sign_row * gm);
        }
    }
}

/// Stamps a level-1 MOSFET linearised around the present guess.
#[allow(clippy::too_many_arguments)]
fn stamp_mosfet<M: MnaMatrix>(
    layout: &MnaLayout,
    a: &mut M,
    b: &mut [f64],
    v_at: impl Fn(NodeId) -> f64,
    drain: NodeId,
    gate: NodeId,
    source: NodeId,
    polarity: MosPolarity,
    mp: &crate::devices::MosParams,
) {
    let vd = v_at(drain);
    let vg = v_at(gate);
    let vs = v_at(source);

    // Work in a "hi/lo" channel frame so the model only ever sees
    // vds >= 0; the physical source/drain swap when reverse-biased.
    //
    // For each polarity we compute the current `i` leaving node `hi`
    // through the channel into `lo`, plus its partial derivatives w.r.t.
    // (v_hi, v_g, v_lo).
    let (hi, lo, vhi, vlo, i0, d_hi, d_g, d_lo) = match polarity {
        MosPolarity::Nmos => {
            let (hi, lo, vhi, vlo) = if vd >= vs {
                (drain, source, vd, vs)
            } else {
                (source, drain, vs, vd)
            };
            let op = mp.evaluate(vg - vlo, vhi - vlo);
            // i(v_hi, v_g, v_lo) = Ids(vgs = vg - vlo, vds = vhi - vlo)
            (hi, lo, vhi, vlo, op.ids, op.gds, op.gm, -(op.gm + op.gds))
        }
        MosPolarity::Pmos => {
            // PMOS conducts source -> drain when Vsg > Vt; the "hi" node is
            // the more positive of source/drain and acts as the source.
            let (hi, lo, vhi, vlo) = if vs >= vd {
                (source, drain, vs, vd)
            } else {
                (drain, source, vd, vs)
            };
            let op = mp.evaluate(vhi - vg, vhi - vlo);
            // i(v_hi, v_g, v_lo) = Ids(vgs = vhi - vg, vds = vhi - vlo)
            (hi, lo, vhi, vlo, op.ids, op.gm + op.gds, -op.gm, -op.gds)
        }
    };
    // Linearisation: i ≈ i0 + d_hi·(v_hi−vhi0) + d_g·(v_g−vg0) + d_lo·(v_lo−vlo0)
    let ieq = i0 - d_hi * vhi - d_g * vg - d_lo * vlo;

    let ihi = layout.node_index(hi);
    let ilo = layout.node_index(lo);
    let ig = layout.node_index(gate);

    // Current leaves `hi`, enters `lo`; gate carries no current.
    for (row, sign) in [(ihi, 1.0), (ilo, -1.0)] {
        let Some(r) = row else { continue };
        if let Some(c) = ihi {
            a.add(r, c, sign * d_hi);
        }
        if let Some(c) = ig {
            a.add(r, c, sign * d_g);
        }
        if let Some(c) = ilo {
            a.add(r, c, sign * d_lo);
        }
        b[r] -= sign * ieq;
    }
}

/// Options for the Newton–Raphson solve.
#[derive(Debug, Clone, Copy)]
pub struct NewtonOptions {
    /// Maximum iterations before declaring non-convergence.
    pub max_iterations: usize,
    /// Absolute voltage tolerance (volts).
    pub vabstol: f64,
    /// Absolute current tolerance (amperes).
    pub iabstol: f64,
    /// Relative tolerance.
    pub reltol: f64,
    /// Per-iteration clamp on voltage updates (volts); limits Newton
    /// overshoot through the exponential/quadratic device models.
    pub vstep_limit: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iterations: 150,
            vabstol: 1e-6,
            iabstol: 1e-9,
            reltol: 1e-4,
            vstep_limit: 1.0,
        }
    }
}

/// Runs damped Newton–Raphson from the guess in `x`, overwriting it with
/// the solution.
///
/// `ctx` carries the sparse symbolic structure, the assembled system
/// workspace and the cached factorisation *across* solves, which is
/// where the reuse wins come from: a transient march passes the same
/// context for every timestep, so a factorisation computed at one
/// timepoint keeps serving as the modified-Newton preconditioner until
/// the reuse policy retires it. A one-off solve passes a fresh
/// [`SolverContext::default`].
///
/// When `clock` is provided, its wall-clock budget is polled between
/// Newton iterations so a single stuck timestep cannot outlive the
/// analysis budget. Only the observers of `settings` are read here: the
/// optional iteration counter ([`crate::metrics::SolverMetrics`]), the
/// optional [`crate::flight::FlightRecorder`], the optional
/// [`obs::profile::PhaseProfiler`] attributing stamp / factor /
/// back-substitute / residual wall time and the optional numeric-chaos
/// state; all handles are owned by the caller, so counts, traces and
/// timings cannot bleed between unrelated analyses the way
/// thread-global state would. Fully disarmed settings cost a few `None`
/// branches per iteration, allocate nothing and never read the clock.
///
/// # Errors
///
/// Returns [`AnalysisError::NoConvergence`] after `max_iterations`,
/// [`AnalysisError::SingularMatrix`] if the Jacobian cannot be factored
/// even on the refactor retry, [`AnalysisError::Numerical`] when a
/// failed acceptance gate or a non-finite update survives that retry,
/// or [`AnalysisError::BudgetExceeded`] when the clock's wall-clock
/// ceiling is crossed.
#[allow(clippy::too_many_arguments)]
pub fn newton_solve(
    netlist: &Netlist,
    layout: &MnaLayout,
    params: &StampParams<'_>,
    options: &NewtonOptions,
    clock: Option<&BudgetClock>,
    settings: &SolveSettings,
    ctx: &mut SolverContext,
    x: &mut Vec<f64>,
) -> Result<(), AnalysisError> {
    // One lap timer per solve: phase boundaries inside the Newton loop
    // are single clock reads into local accumulators, published (and
    // credited to any enclosing phase guard) in one flush. Per-phase
    // RAII guards here cost tens of percent of a microsecond-scale
    // iteration; the lap timer keeps armed overhead in the low single
    // digits. The flush runs on every exit path so partial attribution
    // survives singular matrices and convergence failures.
    let mut lap = settings.profile.as_ref().map(|_| LapTimer::start());
    let result = newton_iterate(
        netlist,
        layout,
        params,
        options,
        clock,
        settings,
        ctx,
        lap.as_mut(),
        x,
    );
    if let (Some(lap), Some(profile)) = (lap, &settings.profile) {
        lap.flush(profile);
    }
    result
}

/// Consecutive Newton iterations a cached factorisation may serve
/// before a refactorisation is forced regardless of contraction. The
/// contraction guard is what protects solution quality; this cap only
/// bounds how long a lucky-but-marginal factorisation can linger, so
/// it can be generous.
const STALE_ITER_CAP: u32 = 64;

/// Minimum per-iteration contraction a stale factorisation must keep
/// delivering: a trial stale step with `worst >= STALE_CONTRACTION *
/// prev_worst` is rejected and the iteration refactorises instead.
///
/// The value trades cheap stale iterations (an assembly plus two
/// back-substitutions) against expensive refactorisations. Sweeping it
/// on the e6 campaigns: 0.5 demands near-Newton contraction and
/// refactorises on a quarter of all iterations; 0.9 tolerates slowly
/// converging stale chains and cuts refactorisations 4× for ~20% more
/// iterations — a net win because a refactorisation costs ~3× a stale
/// iteration at macro scale. Beyond 0.9 the curve is flat, so the
/// guard keeps the tightest setting on the plateau. Solution quality
/// is unaffected either way: acceptance only decides *which matrix*
/// solves the next step, and convergence is still declared against the
/// caller's tolerances.
const STALE_CONTRACTION: f64 = 0.9;

/// [`STALE_CONTRACTION`] for **DC** solves. Far from an operating
/// point, Newton steps are clamped by `vstep_limit`, so a stale
/// Jacobian can shuffle the iterate sideways in barely-contracting
/// steps that each pass a loose guard yet never reach the solution —
/// a diode-connected bias from a cold start cycles exactly this way.
/// Demanding near-Newton contraction makes any DC stale chain earn its
/// keep or hand over to a fresh factorisation immediately. DC solves
/// are a rounding error of campaign time (hundreds of calls against
/// millions of transient steps), so this buys homotopy robustness for
/// free.
const STALE_CONTRACTION_DC: f64 = 0.5;

/// Tolerance tightening applied when declaring convergence on a stale
/// step of a **DC** solve. The residual-form step
/// `x − M⁻¹(A(x)·x − b(x))` has the true solution as its fixed point
/// and the contraction guard bounds the rate at [`STALE_CONTRACTION`],
/// so stopping at `tol` leaves at most `tol·ρ/(1−ρ) ≤ tol` of error —
/// fine inside a transient step, whose local truncation error already
/// dwarfs the solver tolerance. DC sweeps are different: each point is
/// reported directly and adjacent points share cached factors, so
/// point-to-point solver error of `O(tol)` shows up as visible wiggle
/// on an otherwise monotone curve (the inverter-VTC quality test
/// catches exactly this). Tightening only the DC stale stop keeps
/// sweep quality at fresh-Newton levels without touching the transient
/// hot path.
const STALE_TOL_SCALE_DC: f64 = 1e-4;

/// Length, in solves, of the distrust window opened when a stale trial
/// step fails its contraction guard. During fast transients (source
/// edges, switch flips) consecutive solves keep landing in new
/// operating regions where the cached Jacobian loses every trial;
/// refactorising immediately on the first iteration of the next few
/// solves saves the doomed trial's assembly, two back-substitutions
/// and a wasted Newton iteration per solve. The window is short so
/// reuse resumes a few steps after the circuit settles.
const DISTRUST_SOLVES: u8 = 4;

/// Pivot-growth factor above which a fresh factorisation raises the
/// advisory [`NumericalHazard::PivotGrowth`]. Partial pivoting keeps
/// growth near 1 on every well-behaved MNA system; values past 1e8 mean
/// elimination amplified entries enough to eat half the mantissa.
/// Advisory only: the acceptance gates decide whether the answer
/// stands, the counter tells the postmortem *why* it might not have.
const GROWTH_LIMIT: f64 = 1e8;

/// 1-norm condition estimate above which a fresh factorisation raises
/// the advisory [`NumericalHazard::IllConditioned`]. κ₁ ≈ 1e14 leaves
/// roughly two significant decimal digits in the solve — the point
/// where a fault signature stops being trustworthy. Estimated only on
/// fresh-key factorisations (a handful per analysis) because the Hager
/// probe costs a few extra back-substitutions.
const COND_LIMIT: f64 = 1e14;

/// Componentwise acceptance gate for solves returned off a *reused* (or
/// single-shot fresh) factorisation: the solve passes when the true
/// residual ∞-norm is below this fraction of its Oettli–Prager scale
/// `max_r(Σ_c |a_rc·x_c| + |b_r|)`. Honest solves sit at rounding level
/// (~1e-13 of scale), so 1e-8 leaves four orders of margin while still
/// catching a corrupted factor, a stale structure or a poisoned
/// right-hand side. Failures take one round of
/// iterative refinement before the solve counts as a hazard.
const RESID_GATE_TOL: f64 = 1e-8;

/// Counts a hazard and appends it to the flight-recorder history.
fn note_hazard(settings: &SolveSettings, hazard: NumericalHazard, action: &str, time: f64) {
    if let Some(metrics) = &settings.metrics {
        metrics.hazard(hazard);
    }
    if let Some(flight) = &settings.flight {
        flight.record_hazard(hazard.label(), action, time);
    }
}

/// Cache key for the current stamp parameters. Time and `source_scale`
/// only shape the right-hand side, so they stay out of the key.
fn factor_key(params: &StampParams<'_>) -> FactorKey {
    match &params.companion {
        CompanionMode::Dc => FactorKey {
            mode: 0,
            method: 2,
            dt_bits: 0,
            gmin_bits: params.gmin.to_bits(),
        },
        CompanionMode::Transient { method, dt, .. } => FactorKey {
            mode: 1,
            method: match method {
                Integrator::BackwardEuler => 0,
                Integrator::Trapezoidal => 1,
            },
            dt_bits: dt.to_bits(),
            gmin_bits: params.gmin.to_bits(),
        },
    }
}

/// Prepares the context's assembled-system workspace for this solve:
/// sizes the scratch vectors, and builds the per-mode symbolic
/// structure with a one-time stamping probe.
fn ensure_system(
    ctx: &mut SolverContext,
    netlist: &Netlist,
    layout: &MnaLayout,
    x: &[f64],
    params: &StampParams<'_>,
    lap: Option<&mut LapTimer>,
) {
    let n = layout.size();
    let mode = match &params.companion {
        CompanionMode::Dc => 0,
        CompanionMode::Transient { .. } => 1,
    };
    if ctx.b.len() != n {
        // Dimension change: this context is being pointed at a new
        // layout, so nothing cached about the old one survives.
        ctx.structures = [None, None];
        ctx.sys = None;
        ctx.factor = None;
        ctx.stale_iters = 0;
        ctx.b.resize(n, 0.0);
        ctx.x_new.resize(n, 0.0);
        ctx.resid.resize(n, 0.0);
        ctx.scratch.resize(n, 0.0);
        ctx.trial.resize(n, 0.0);
    }
    if matches!(&ctx.sys, Some((m, sys)) if *m == mode && sys.n() == n) {
        return;
    }
    // Even at macro scale (tens of unknowns) the sparse kernel wins on
    // the campaign hot path: factor-from-scratch favours dense below
    // ~64 unknowns, but the reuse tiers make back-substitution (O(nnz),
    // not O(n²)) and baseline restore (nnz values, not n²) the dominant
    // per-iteration costs, and those stay sparse-cheap at every size.
    if ctx.structures[mode].is_none() {
        let mut probe = PositionProbe::new();
        let mut scratch_b = vec![0.0; n];
        stamp_linear(netlist, layout, params, &mut probe, &mut scratch_b);
        if netlist.has_nonlinear_devices() {
            stamp_nonlinear(netlist, layout, x, &mut probe, &mut scratch_b);
        }
        // The nonlinear position set is iterate-independent (MOSFET
        // hi/lo frame swaps reorder adds inside a fixed symmetric
        // position set), and covering the diagonal keeps gmin sweeps on
        // the same structure.
        probe.cover_diagonal(n);
        ctx.structures[mode] = Some(SparseStructure::from_positions(n, probe.positions()));
        if let Some(lap) = lap {
            lap.lap(Phase::Symbolic);
        }
    }
    let structure = ctx.structures[mode].as_ref().expect("structure just built");
    let sys = SparseMatrix::zeros(Arc::clone(structure));
    ctx.sys = Some((mode, sys));
}

/// The damped Newton loop behind [`newton_solve`], with phase
/// boundaries marked on the caller's [`LapTimer`].
///
/// Each iteration restores the linear-baseline stamp snapshot (the
/// first iteration of a solve assembles and captures it), stamps the
/// nonlinear devices on top, and then makes one factor choice:
///
/// 1. **Exact** (linear netlist, cached key): [`exact_solve`] against
///    the cached factors; the answer is returned once it passes
///    [`gated_solve`].
/// 2. **Stale** (nonlinear netlist, cached key, within
///    [`STALE_ITER_CAP`] and outside a distrust window):
///    [`stale_trial`], a modified-Newton step against the cached
///    factors, kept only if it contracts the update.
/// 3. **Refactor** otherwise, or when either of the above fails:
///    [`refactor_solve`], attributed to [`Phase::Factor`] on a fresh
///    key and [`Phase::Refactor`] on a same-key refactorisation.
///
/// A hazard that spoils the iteration — a failed factorisation, a
/// fresh linear solve that misses its gate, a non-finite update — goes
/// through [`retry_or_fail`]: the first costs one refactor retry, the
/// second returns the typed error. Otherwise the damped update
/// ([`damped_update`]) moves the iterate and tests convergence.
///
/// The stale policy is deterministic: it depends only on the `worst`
/// update magnitudes, so repeated runs take identical iteration
/// trajectories.
#[allow(clippy::too_many_arguments)]
fn newton_iterate(
    netlist: &Netlist,
    layout: &MnaLayout,
    params: &StampParams<'_>,
    options: &NewtonOptions,
    clock: Option<&BudgetClock>,
    settings: &SolveSettings,
    ctx: &mut SolverContext,
    mut lap: Option<&mut LapTimer>,
    x: &mut Vec<f64>,
) -> Result<(), AnalysisError> {
    let nv = layout.node_count() - 1;
    let key = factor_key(params);
    let time = params.time;

    ensure_system(ctx, netlist, layout, x, params, lap.as_deref_mut());

    // Flight records need the attempted step size (0 for DC). Stale
    // steps of a DC solve stop against a tightened tolerance (see
    // STALE_TOL_SCALE_DC) and a stricter contraction guard.
    let (dt, stale_tol_scale, stale_contraction) = match &params.companion {
        CompanionMode::Dc => (0.0, STALE_TOL_SCALE_DC, STALE_CONTRACTION_DC),
        CompanionMode::Transient { dt, .. } => (*dt, 1.0, STALE_CONTRACTION),
    };

    // Linear circuits need exactly one solve.
    let linear = !netlist.has_nonlinear_devices();

    // One solve has begun: age the distrust window. While it is open,
    // the first iteration refactorises instead of trialling the cached
    // factors, because a just-failed contraction guard says the circuit
    // is moving too fast for the stale Jacobian.
    ctx.distrust = ctx.distrust.saturating_sub(1);

    // The per-iteration observers, bound once per solve.
    let metrics = settings.metrics.as_deref();
    let flight = settings.flight.as_deref();

    let mut worst = f64::INFINITY;
    let mut prev_worst = f64::INFINITY;
    let mut baseline_ready = false;
    // Per-solve recovery latch (see `retry_or_fail`).
    let mut retried = false;
    for iter in 0..options.max_iterations {
        if let Some(clock) = clock {
            clock.check_wall(time)?;
        }
        if let Some(metrics) = metrics {
            metrics.newton_iteration();
        }
        // Budget/metrics bookkeeping (and the previous iteration's
        // tail) stays with the enclosing guard, not any solver phase.
        if let Some(l) = lap.as_deref_mut() {
            l.skip();
        }

        // Assemble: restore the linear baseline (captured on the first
        // iteration of this solve), then stamp nonlinear devices at x.
        {
            let (_, sys) = ctx.sys.as_mut().expect("system prepared");
            if baseline_ready {
                sys.load_values(&ctx.baseline_a);
                ctx.b.copy_from_slice(&ctx.baseline_b);
            } else {
                sys.clear();
                ctx.b.iter_mut().for_each(|v| *v = 0.0);
                stamp_linear(netlist, layout, params, sys, &mut ctx.b);
                ctx.baseline_a.clear();
                ctx.baseline_a.extend_from_slice(sys.values());
                ctx.baseline_b.clear();
                ctx.baseline_b.extend_from_slice(&ctx.b);
                baseline_ready = true;
            }
            if let Some(l) = lap.as_deref_mut() {
                l.lap(Phase::Stamp);
            }
            if !linear {
                stamp_nonlinear(netlist, layout, x, sys, &mut ctx.b);
                if let Some(l) = lap.as_deref_mut() {
                    l.lap(Phase::DeviceEval);
                }
            }
        }

        // Factor choice: exact cached solve, stale trial, or refactor.
        let cached = matches!(&ctx.factor, Some((k, _)) if *k == key);
        let stale = if cached && linear {
            if exact_solve(ctx, settings, time, lap.as_deref_mut()) {
                x.clear();
                x.extend_from_slice(&ctx.x_new);
                return Ok(());
            }
            false
        } else if cached && ctx.stale_iters < STALE_ITER_CAP && (iter > 0 || ctx.distrust == 0) {
            let bound = stale_contraction * prev_worst;
            stale_trial(ctx, x, bound, settings, lap.as_deref_mut())
        } else {
            false
        };
        if !stale {
            if let Err((hazard, error)) =
                refactor_solve(ctx, key, linear, settings, time, lap.as_deref_mut())
            {
                retry_or_fail(settings, ctx, &mut retried, hazard, error, time)?;
                continue;
            }
            if linear {
                x.clear();
                x.extend_from_slice(&ctx.x_new);
                return Ok(());
            }
        }

        let tol_scale = if stale { stale_tol_scale } else { 1.0 };
        match damped_update(x, &ctx.x_new, nv, options, tol_scale) {
            Ok((converged, step, step_index)) => {
                worst = step;
                if let Some(l) = lap.as_deref_mut() {
                    l.lap(Phase::Residual);
                }
                if let Some(flight) = flight {
                    flight.record_iteration(time, dt, (iter + 1) as u64, worst, step_index);
                }
                if converged {
                    return Ok(());
                }
                prev_worst = worst;
            }
            Err(bad_index) => {
                if let Some(flight) = flight {
                    flight.record_iteration(time, dt, (iter + 1) as u64, f64::INFINITY, bad_index);
                }
                // A transient overflow (a bad stale step, a corrupted
                // factor) is repaired from a fresh factorisation at the
                // partially updated iterate; a genuinely divergent
                // system fails again.
                let hazard = NumericalHazard::NonFinite;
                let error = AnalysisError::Numerical { hazard, time };
                retry_or_fail(settings, ctx, &mut retried, hazard, error, time)?;
            }
        }
    }
    ctx.invalidate();
    Err(AnalysisError::NoConvergence {
        time,
        residual: worst,
        iterations: options.max_iterations,
    })
}

/// Solves a linear netlist against its cached factors into
/// `ctx.x_new`. The matrix is exactly the one they were computed from
/// (linear stamps depend only on the key), so the solve is exact, but
/// the factors are still reused: the answer stands only if it passes
/// [`gated_solve`]. A failing solve counts as a demotion and the
/// caller refactorises in the same iteration.
fn exact_solve(
    ctx: &mut SolverContext,
    settings: &SolveSettings,
    time: f64,
    lap: Option<&mut LapTimer>,
) -> bool {
    let (key, factor) = ctx.factor.take().expect("cached factor present");
    solve_into(&factor, &ctx.b, &mut ctx.x_new);
    if let Some(l) = lap {
        l.lap(Phase::BackSubstitute);
    }
    let gate = gated_solve(ctx, &factor, settings);
    ctx.factor = Some((key, factor));
    match gate {
        Ok(()) => {
            if let Some(metrics) = &settings.metrics {
                metrics.factor_reuse_hit();
            }
            true
        }
        Err(hazard) => {
            if let Some(metrics) = &settings.metrics {
                metrics.demotion();
            }
            note_hazard(settings, hazard, "demote:refactor", time);
            false
        }
    }
}

/// Trial modified-Newton step in residual form against the cached
/// (stale) factors: `x_new = x − M⁻¹(A(x)·x − b(x))` into `ctx.x_new`.
/// The step is accepted only if its largest update stays below `bound`
/// (the contraction guard), so a stale Jacobian can never push the
/// iterate off course; the caller then refactorises instead.
fn stale_trial(
    ctx: &mut SolverContext,
    x: &[f64],
    bound: f64,
    settings: &SolveSettings,
    lap: Option<&mut LapTimer>,
) -> bool {
    let (_, factor) = ctx.factor.as_ref().expect("cached factor present");
    let (_, sys) = ctx.sys.as_ref().expect("system prepared");
    sys.residual_into(x, &ctx.b, &mut ctx.resid);
    solve_into(factor, &ctx.resid, &mut ctx.scratch);
    for (slot, (xk, d)) in ctx.x_new.iter_mut().zip(x.iter().zip(&ctx.scratch)) {
        *slot = xk - d;
    }
    if let Some(l) = lap {
        l.lap(Phase::BackSubstitute);
    }
    let mut step: f64 = 0.0;
    for (xn, xk) in ctx.x_new.iter().zip(x) {
        let moved = (xn - xk).abs();
        if !moved.is_finite() {
            step = f64::INFINITY;
            break;
        }
        if moved > step {
            step = moved;
        }
    }
    if step >= bound {
        // The contraction guard just retired these factors: open a
        // distrust window so the next few solves go straight to a
        // fresh Jacobian instead of repeating the trial.
        ctx.distrust = DISTRUST_SOLVES;
        return false;
    }
    if let Some(metrics) = &settings.metrics {
        metrics.factor_reuse_hit();
    }
    ctx.stale_iters += 1;
    true
}

/// Factorises the assembled system at the current iterate, solves it
/// into `ctx.x_new` and caches the factors under `key`. The previous
/// factorisation's allocations are recycled. A linear netlist's solve
/// is returned to the caller as the answer, so it must pass
/// [`gated_solve`] first: the gate is what turns a corrupted factor or
/// a poisoned solution into a typed hazard instead of a silent wrong
/// report.
///
/// # Errors
///
/// The hazard and typed error of a failed factorisation
/// ([`AnalysisError::SingularMatrix`]) or a failed gate
/// ([`AnalysisError::Numerical`]), for [`retry_or_fail`].
fn refactor_solve(
    ctx: &mut SolverContext,
    key: FactorKey,
    linear: bool,
    settings: &SolveSettings,
    time: f64,
    mut lap: Option<&mut LapTimer>,
) -> Result<(), (NumericalHazard, AnalysisError)> {
    if let Some(metrics) = &settings.metrics {
        metrics.factor_reuse_miss();
    }
    let chaos = settings.numeric_chaos.as_deref();
    let same_key = matches!(&ctx.factor, Some((k, _)) if *k == key);
    let mut factor = ctx.factor.take().map(|(_, f)| f).unwrap_or_default();
    ctx.stale_iters = 0;
    let (_, sys) = ctx.sys.as_ref().expect("system prepared");
    // Numeric-chaos hook: a forced pivot breakdown takes the same
    // recovery path as a genuinely unfactorable system would, without
    // needing one in the netlist.
    let factored = if chaos.is_some_and(|c| c.fire(NumericSite::Pivot)) {
        Err(SingularMatrixError { row: 0 })
    } else {
        factor.refactor(sys, &mut ctx.ws)
    };
    factored.map_err(|err| (NumericalHazard::NearSingularPivot, AnalysisError::from(err)))?;
    if let Some(l) = lap.as_deref_mut() {
        l.lap(if same_key {
            Phase::Refactor
        } else {
            Phase::Factor
        });
    }
    // Numeric-chaos hook: corrupting a pivot hands the acceptance gate
    // a realistically-wrong factorisation.
    if chaos.is_some_and(|c| c.fire(NumericSite::Perturb)) {
        factor.perturb_first_pivot(1.5);
    }
    // Advisory hazards on fresh factorisations: flagged for diagnosis,
    // never retried on — the acceptance gates and Newton's own
    // convergence tests decide whether the answer stands; the counters
    // tell the postmortem why it may not.
    if factor.pivot_growth() > GROWTH_LIMIT {
        note_hazard(settings, NumericalHazard::PivotGrowth, "advisory", time);
    }
    if !same_key && factor.condest(sys.norm_one()) > COND_LIMIT {
        note_hazard(settings, NumericalHazard::IllConditioned, "advisory", time);
    }
    solve_into(&factor, &ctx.b, &mut ctx.x_new);
    if let Some(l) = lap {
        l.lap(Phase::BackSubstitute);
    }
    // Numeric-chaos hook: a poisoned solution exercises the non-finite
    // checks downstream of every fresh solve.
    if chaos.is_some_and(|c| c.fire(NumericSite::Nan)) {
        ctx.x_new[0] = f64::NAN;
    }
    if linear {
        gated_solve(ctx, &factor, settings)
            .map_err(|hazard| (hazard, AnalysisError::Numerical { hazard, time }))?;
    }
    ctx.factor = Some((key, factor));
    Ok(())
}

/// The acceptance gate for a solve returned straight to the caller:
/// `ctx.x_new` passes when its true residual is below
/// [`RESID_GATE_TOL`] of the componentwise scale, after one round of
/// iterative refinement against `factor` if the first check misses.
///
/// # Errors
///
/// The hazard a failing solve raises: non-finite when the residual
/// was, a refinement stall otherwise.
fn gated_solve(
    ctx: &mut SolverContext,
    factor: &SparseLu,
    settings: &SolveSettings,
) -> Result<(), NumericalHazard> {
    let (_, sys) = ctx.sys.as_ref().expect("system prepared");
    let (rnorm, scale) = sys.residual_gate_into(&ctx.x_new, &ctx.b, &mut ctx.resid);
    if rnorm <= RESID_GATE_TOL * scale {
        return Ok(());
    }
    if let Some(metrics) = &settings.metrics {
        metrics.refinement_round();
    }
    let b = &ctx.b;
    let out = refine_once(
        &mut ctx.x_new,
        &mut ctx.resid,
        &mut ctx.scratch,
        &mut ctx.trial,
        |xv, out| sys.residual_into(xv, b, out),
        |r, out| solve_into(factor, r, out),
    );
    if out.residual_after <= RESID_GATE_TOL * scale {
        Ok(())
    } else if rnorm.is_finite() {
        Err(NumericalHazard::RefinementStall)
    } else {
        Err(NumericalHazard::NonFinite)
    }
}

/// The one recovery path for a hazard that spoils a Newton iteration.
/// The cached factors are dropped either way. The first hazard of a
/// solve is counted as a demotion and costs one Newton iteration: the
/// next iteration refactorises from scratch, which repairs a
/// transiently corrupted factor or solution. A second hazard in the
/// same solve is terminal and returns `error`, so a persistent hazard
/// reaches its typed error promptly.
fn retry_or_fail(
    settings: &SolveSettings,
    ctx: &mut SolverContext,
    retried: &mut bool,
    hazard: NumericalHazard,
    error: AnalysisError,
    time: f64,
) -> Result<(), AnalysisError> {
    ctx.invalidate();
    if std::mem::replace(retried, true) {
        note_hazard(settings, hazard, "terminal", time);
        return Err(error);
    }
    if let Some(metrics) = &settings.metrics {
        metrics.demotion();
    }
    note_hazard(settings, hazard, "demote:refactor", time);
    Ok(())
}

/// Moves `x` towards the Newton target `x_new`, clamping node-voltage
/// updates to `vstep_limit`, and tests every component against the
/// caller's tolerances scaled by `tol_scale`. Returns whether all
/// converged, plus the largest unclamped update and its index.
///
/// # Errors
///
/// The index of the first non-finite update; the components before it
/// have already moved.
fn damped_update(
    x: &mut [f64],
    x_new: &[f64],
    nv: usize,
    options: &NewtonOptions,
    tol_scale: f64,
) -> Result<(bool, f64, usize), usize> {
    let mut worst = 0.0;
    let mut worst_index = 0;
    let mut converged = true;
    for (k, (xk, xn)) in x.iter_mut().zip(x_new).enumerate() {
        let mut delta = xn - *xk;
        if !delta.is_finite() {
            return Err(k);
        }
        let (abstol, limit) = if k < nv {
            (options.vabstol, options.vstep_limit)
        } else {
            (options.iabstol, f64::INFINITY)
        };
        if delta.abs() > tol_scale * (abstol + options.reltol * xn.abs()) {
            converged = false;
        }
        if delta.abs() > worst {
            worst = delta.abs();
            worst_index = k;
        }
        if delta.abs() > limit {
            delta = limit.copysign(delta);
        }
        *xk += delta;
    }
    Ok((converged, worst, worst_index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SolverMetrics;
    use crate::source::SourceWaveform;

    fn divider() -> (Netlist, NodeId, NodeId) {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.vsource("V1", vin, Netlist::GROUND, SourceWaveform::dc(10.0));
        nl.resistor("R1", vin, out, 1e3);
        nl.resistor("R2", out, Netlist::GROUND, 3e3);
        (nl, vin, out)
    }

    /// One DC Newton solve from a zero guess with a fresh context.
    fn newton_dc(
        nl: &Netlist,
        gmin: f64,
        settings: &SolveSettings,
    ) -> (MnaLayout, Vec<f64>, Result<(), AnalysisError>) {
        let layout = MnaLayout::new(nl);
        let mut x = vec![0.0; layout.size()];
        let params = StampParams {
            time: 0.0,
            companion: CompanionMode::Dc,
            gmin,
            source_scale: 1.0,
        };
        let result = newton_solve(
            nl,
            &layout,
            &params,
            &NewtonOptions::default(),
            None,
            settings,
            &mut SolverContext::default(),
            &mut x,
        );
        (layout, x, result)
    }

    fn solve_dc(nl: &Netlist) -> (MnaLayout, Vec<f64>) {
        let (layout, x, result) = newton_dc(nl, 1e-12, &SolveSettings::default());
        result.unwrap();
        (layout, x)
    }

    #[test]
    fn layout_counts_branches() {
        let (nl, _, _) = divider();
        let layout = MnaLayout::new(&nl);
        // 2 non-ground nodes + 1 vsource branch.
        assert_eq!(layout.size(), 3);
    }

    #[test]
    fn resistive_divider_solution() {
        let (nl, vin, out) = divider();
        let (layout, x) = solve_dc(&nl);
        // gmin (1e-12 S) to ground leaks a little current, so allow 1e-6.
        assert!((layout.voltage(&x, vin) - 10.0).abs() < 1e-6);
        assert!((layout.voltage(&x, out) - 7.5).abs() < 1e-6);
    }

    #[test]
    fn vsource_branch_current() {
        let (nl, _, _) = divider();
        let (layout, x) = solve_dc(&nl);
        let v1 = nl.find_device("V1").unwrap();
        let j = layout.branch_index(v1).unwrap();
        // 10 V across 4 kΩ: branch current convention is current flowing
        // pos -> neg *through the source*, i.e. -2.5 mA here.
        assert!((x[j] + 2.5e-3).abs() < 1e-9);
    }

    #[test]
    fn vccs_injects_proportional_current() {
        let mut nl = Netlist::new();
        let c = nl.node("ctl");
        let o = nl.node("out");
        nl.vsource("V1", c, Netlist::GROUND, SourceWaveform::dc(2.0));
        // i = gm * v(ctl) flows out -> ground through the source; with a
        // load resistor the output voltage is -gm*R*vc.
        nl.vccs("G1", o, Netlist::GROUND, c, Netlist::GROUND, 1e-3);
        nl.resistor("RL", o, Netlist::GROUND, 1e3);
        let (layout, x) = solve_dc(&nl);
        assert!((layout.voltage(&x, o) + 2.0).abs() < 1e-6);
    }

    #[test]
    fn vcvs_amplifies() {
        let mut nl = Netlist::new();
        let c = nl.node("ctl");
        let o = nl.node("out");
        nl.vsource("V1", c, Netlist::GROUND, SourceWaveform::dc(0.5));
        nl.vcvs("E1", o, Netlist::GROUND, c, Netlist::GROUND, 10.0);
        nl.resistor("RL", o, Netlist::GROUND, 1e3);
        let (layout, x) = solve_dc(&nl);
        assert!((layout.voltage(&x, o) - 5.0).abs() < 1e-9);
    }

    /// Diode-connected NMOS pulled up through a resistor; returns the
    /// netlist and its drain node.
    fn nmos_diode() -> (Netlist, NodeId) {
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let d = nl.node("d");
        nl.vsource("V1", vdd, Netlist::GROUND, SourceWaveform::dc(5.0));
        nl.resistor("R1", vdd, d, 100e3);
        nl.mosfet(
            "M1",
            d,
            d,
            Netlist::GROUND,
            MosPolarity::Nmos,
            crate::devices::MosParams {
                vt0: 1.0,
                beta: 100e-6,
                lambda: 0.0,
            },
        );
        (nl, d)
    }

    #[test]
    fn nmos_diode_connected_bias() {
        // Solves the classic quadratic bias point.
        let (nl, d) = nmos_diode();
        let (layout, x) = solve_dc(&nl);
        let vgs = layout.voltage(&x, d);
        // Check KCL: (5 - vgs)/100k = beta/2 (vgs-1)^2
        let i_r = (5.0 - vgs) / 100e3;
        let i_m = 0.5 * 100e-6 * (vgs - 1.0).powi(2);
        assert!(
            (i_r - i_m).abs() < 1e-9,
            "vgs = {vgs}, i_r = {i_r}, i_m = {i_m}"
        );
    }

    #[test]
    fn pmos_source_follower_direction() {
        // PMOS with gate grounded, source pulled to VDD through resistor:
        // conducts, dropping the source node near Vt above gate.
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let s = nl.node("s");
        nl.vsource("V1", vdd, Netlist::GROUND, SourceWaveform::dc(5.0));
        nl.resistor("R1", vdd, s, 10e3);
        // PMOS: source at node s, drain at ground, gate at ground.
        nl.mosfet(
            "M1",
            Netlist::GROUND,
            Netlist::GROUND,
            s,
            MosPolarity::Pmos,
            crate::devices::MosParams {
                vt0: 1.0,
                beta: 400e-6,
                lambda: 0.0,
            },
        );
        let (layout, x) = solve_dc(&nl);
        let vs = layout.voltage(&x, s);
        // The device conducts hard, so v(s) sits a little above Vt = 1 V.
        assert!(vs > 1.0 && vs < 2.5, "vs = {vs}");
    }

    #[test]
    fn cmos_inverter_transfers() {
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.vsource("VDD", vdd, Netlist::GROUND, SourceWaveform::dc(5.0));
        nl.vsource("VIN", vin, Netlist::GROUND, SourceWaveform::dc(0.0));
        nl.mosfet(
            "MN",
            out,
            vin,
            Netlist::GROUND,
            MosPolarity::Nmos,
            crate::devices::MosParams::nmos_5um().with_aspect(2.0),
        );
        nl.mosfet(
            "MP",
            out,
            vin,
            vdd,
            MosPolarity::Pmos,
            crate::devices::MosParams::pmos_5um().with_aspect(5.0),
        );
        let (layout, x) = solve_dc(&nl);
        // Input low -> output high.
        assert!(layout.voltage(&x, out) > 4.5);
    }

    #[test]
    fn diode_clamp() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::dc(5.0));
        let k = nl.node("k");
        nl.resistor("R1", a, k, 1e3);
        nl.diode("D1", k, Netlist::GROUND, crate::devices::DiodeParams::default());
        let (layout, x) = solve_dc(&nl);
        let vk = layout.voltage(&x, k);
        assert!(vk > 0.4 && vk < 0.8, "diode drop was {vk}");
    }

    #[test]
    fn forced_pivot_breakdown_costs_one_refactor_retry() {
        // A breakdown forced on the first factorisation is recovered by
        // the single refactor retry: the solve lands on the unarmed
        // answer bit for bit, one Newton iteration later.
        let (nl, _) = nmos_diode();
        let plain = Arc::new(SolverMetrics::new());
        let settings = SolveSettings::default().metrics(Arc::clone(&plain));
        let (_, want, result) = newton_dc(&nl, 1e-12, &settings);
        result.unwrap();
        let armed = Arc::new(SolverMetrics::new());
        let chaos = obs::NumericChaosPlan::parse("pivot@0").unwrap().arm();
        let settings = SolveSettings {
            numeric_chaos: Some(Arc::new(chaos)),
            ..SolveSettings::default().metrics(Arc::clone(&armed))
        };
        let (_, got, result) = newton_dc(&nl, 1e-12, &settings);
        result.unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
        let (plain, armed) = (plain.snapshot(), armed.snapshot());
        assert_eq!(armed.demote_refactor, 1);
        assert_eq!(armed.hazard_near_singular_pivot, 1);
        assert_eq!(armed.newton_iterations, plain.newton_iterations + 1);
    }

    #[test]
    fn floating_node_fails_without_gmin() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b_node = nl.node("b");
        nl.resistor("R1", a, b_node, 1e3);
        // Nothing connects to ground: singular without gmin.
        let metrics = Arc::new(SolverMetrics::new());
        let settings = SolveSettings::default().metrics(Arc::clone(&metrics));
        let (_, _, result) = newton_dc(&nl, 0.0, &settings);
        assert!(
            matches!(result, Err(AnalysisError::SingularMatrix { .. })),
            "{result:?}"
        );
        // One refactor retry, then the typed error: two factor
        // attempts, one Newton iteration each.
        let snap = metrics.snapshot();
        assert_eq!(snap.newton_iterations, 2);
        assert_eq!(snap.hazard_near_singular_pivot, 2);
        assert_eq!(snap.demote_refactor, 1);
    }
}
