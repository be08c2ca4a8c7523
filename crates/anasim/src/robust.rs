//! Solver-robustness primitives: resource budgets and the escalation
//! ladder used by fault campaigns.
//!
//! Fault simulation stresses a circuit simulator in ways nominal design
//! verification does not: a clamped node or bridged pair can leave the
//! Newton iteration without a stable fixed point at the nominal
//! timestep, or send the time-march into pathological dt-halving that
//! burns hours on one fault. The paper's methodology (Cobley, ED&TC
//! 1996) needs *every* fault in a campaign to produce an answer, so
//! this module provides two tools:
//!
//! * [`SolveBudget`] — a hard ceiling on timesteps and wall-clock time
//!   per analysis, surfaced as [`AnalysisError::BudgetExceeded`]
//!   instead of hanging;
//! * [`SolverRung`] and [`escalation_ladder`] — a sequence of
//!   progressively more conservative solver configurations to retry a
//!   failed extraction with, trading accuracy for stability;
//! * [`CancelToken`] — a shared atomic flag for cooperative
//!   cancellation, polled by [`BudgetClock::check_wall`] from the inner
//!   solver loops so Ctrl-C (or any embedding caller) interrupts even a
//!   single stuck Newton solve with [`AnalysisError::Cancelled`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{AnalysisError, BudgetKind};
use crate::flight::FlightRecorder;
use crate::solver::WarmStart;
use crate::metrics::SolverMetrics;
use obs::profile::PhaseProfiler;

/// Default ceiling on attempted timesteps, shared by
/// [`crate::transient::TransientAnalysis::new`] and
/// [`SolveSettings::default`]: large enough for any sane analysis,
/// small enough that a `dt` far too small for `t_stop` still
/// terminates.
pub const DEFAULT_MAX_STEPS: usize = 50_000_000;

/// Resource ceiling for a single analysis run.
///
/// The default is unlimited in both dimensions;
/// [`crate::transient::TransientAnalysis::new`] installs
/// [`DEFAULT_MAX_STEPS`] so runaway dt-halving still terminates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveBudget {
    /// Maximum number of attempted timesteps, or `None` for unlimited.
    pub max_steps: Option<usize>,
    /// Maximum wall-clock time, or `None` for unlimited.
    pub max_wall: Option<Duration>,
}

impl SolveBudget {
    /// A budget with no limits.
    pub fn unlimited() -> Self {
        SolveBudget::default()
    }

    /// Sets the timestep ceiling.
    pub fn steps(mut self, max_steps: usize) -> Self {
        self.max_steps = Some(max_steps);
        self
    }

    /// Sets the wall-clock ceiling.
    pub fn wall(mut self, max_wall: Duration) -> Self {
        self.max_wall = Some(max_wall);
        self
    }
}

/// Shared cooperative-cancellation flag.
///
/// Cloning is cheap (an [`Arc`] of one atomic); every clone observes the
/// same flag. A token is threaded into analyses through
/// [`SolveSettings::cancel`], from where the [`BudgetClock`] polls it
/// between Newton iterations and timesteps — so cancellation interrupts
/// an in-flight solve within one iteration, surfacing as
/// [`AnalysisError::Cancelled`]. Cancellation is one-way: there is
/// deliberately no `reset`, so a fresh campaign needs a fresh token.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Raises the flag. Safe to call from any thread (or a signal
    /// handler — it is a single atomic store); idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// True once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Running meter for one analysis against a [`SolveBudget`].
///
/// The time-march charges one step per attempted timestep via
/// [`BudgetClock::charge_step`]; the Newton solver polls
/// [`BudgetClock::check_wall`] between iterations so a wall-clock
/// ceiling — or a raised [`CancelToken`] — interrupts even a single
/// stuck step.
#[derive(Debug, Clone)]
pub struct BudgetClock {
    budget: SolveBudget,
    started: Instant,
    steps: usize,
    cancel: Option<CancelToken>,
}

impl BudgetClock {
    /// Starts the meter (the wall clock begins now).
    pub fn new(budget: SolveBudget) -> Self {
        BudgetClock {
            budget,
            started: Instant::now(),
            steps: 0,
            cancel: None,
        }
    }

    /// Attaches a cancellation token for [`BudgetClock::check_wall`] to
    /// poll (builder style).
    pub fn with_cancel(mut self, cancel: Option<CancelToken>) -> Self {
        self.cancel = cancel;
        self
    }

    /// Timesteps charged so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Charges one attempted timestep at simulation time `time`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::BudgetExceeded`] when either ceiling is
    /// crossed.
    pub fn charge_step(&mut self, time: f64) -> Result<(), AnalysisError> {
        self.steps += 1;
        if let Some(max) = self.budget.max_steps {
            if self.steps > max {
                return Err(AnalysisError::BudgetExceeded {
                    time,
                    steps: self.steps,
                    kind: BudgetKind::Steps,
                });
            }
        }
        self.check_wall(time)
    }

    /// Checks the cancellation flag and the wall-clock ceiling (cheap
    /// enough to poll from inner solver loops).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::Cancelled`] when an attached
    /// [`CancelToken`] has been raised, or
    /// [`AnalysisError::BudgetExceeded`] with [`BudgetKind::WallClock`]
    /// when the elapsed time exceeds the budget.
    pub fn check_wall(&self, time: f64) -> Result<(), AnalysisError> {
        if let Some(cancel) = &self.cancel {
            if cancel.is_cancelled() {
                return Err(AnalysisError::Cancelled);
            }
        }
        if let Some(max) = self.budget.max_wall {
            if self.started.elapsed() > max {
                return Err(AnalysisError::BudgetExceeded {
                    time,
                    steps: self.steps,
                    kind: BudgetKind::WallClock,
                });
            }
        }
        Ok(())
    }
}

/// One rung of the solver escalation ladder: a recipe for making a
/// transient analysis more conservative at the cost of accuracy.
///
/// Applied to a [`crate::transient::TransientAnalysis`] via
/// [`crate::transient::TransientAnalysis::with_settings`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverRung {
    /// Scale on the nominal timestep (0.5 = start with half steps).
    pub dt_scale: f64,
    /// Scale on the minimum-timestep floor, applied after `dt_scale`.
    /// Raising the floor (> 1) stops pathological halving from burning
    /// the budget on steps too small to matter.
    pub min_dt_scale: f64,
    /// Force backward Euler integration (fully damped, never rings).
    pub force_backward_euler: bool,
    /// Override the `gmin` conductance to ground, if set.
    pub gmin: Option<f64>,
}

impl SolverRung {
    /// The nominal configuration: no changes to the analysis.
    pub fn nominal() -> Self {
        SolverRung {
            dt_scale: 1.0,
            min_dt_scale: 1.0,
            force_backward_euler: false,
            gmin: None,
        }
    }

    /// True if this rung leaves the analysis untouched.
    pub fn is_nominal(&self) -> bool {
        *self == SolverRung::nominal()
    }

    /// Short human-readable label for telemetry
    /// (e.g. `"dt/2+BE+gmin=1e-9"`).
    pub fn label(&self) -> String {
        if self.is_nominal() {
            return "nominal".to_owned();
        }
        let mut parts = Vec::new();
        if self.dt_scale != 1.0 {
            parts.push(format!("dt*{}", self.dt_scale));
        }
        if self.min_dt_scale != 1.0 {
            parts.push(format!("min_dt*{}", self.min_dt_scale));
        }
        if self.force_backward_euler {
            parts.push("BE".to_owned());
        }
        if let Some(g) = self.gmin {
            parts.push(format!("gmin={g:.0e}"));
        }
        parts.join("+")
    }
}

/// The default escalation ladder for fault campaigns: nominal first,
/// then progressively damped retries.
///
/// Each rung trades accuracy for stability; a fault whose extraction
/// only converges on a late rung still yields a usable signature, and
/// the rung index is recorded in the campaign telemetry so the loss of
/// fidelity is visible.
pub fn escalation_ladder() -> Vec<SolverRung> {
    vec![
        SolverRung::nominal(),
        // Halved initial step, same integrator: rescues faults whose
        // nominal first step lands outside the Newton basin.
        SolverRung {
            dt_scale: 0.5,
            min_dt_scale: 1.0,
            force_backward_euler: false,
            gmin: None,
        },
        // Backward Euler damps the trapezoidal ringing that clamped
        // nodes excite.
        SolverRung {
            dt_scale: 0.5,
            min_dt_scale: 1.0,
            force_backward_euler: true,
            gmin: None,
        },
        // Last resort: quarter step, fully damped, raised gmin and a
        // raised min-dt floor so the attempt fails fast if hopeless.
        SolverRung {
            dt_scale: 0.25,
            min_dt_scale: 4.0,
            force_backward_euler: true,
            gmin: Some(1e-9),
        },
    ]
}

/// A complete per-extraction solver configuration: which ladder rung to
/// apply, what resource budget to enforce, and where to count solver
/// work.
///
/// This is the one handle every solve is armed through: an analysis
/// stores it whole and lends `&SolveSettings` down to
/// [`crate::mna::newton_solve`]. Every observer is an optional handle,
/// so fully disarmed settings (the default) cost the solver a few
/// `None` branches per iteration, no allocation and no clock reads.
#[derive(Debug, Clone)]
pub struct SolveSettings {
    /// Solver conservatism recipe.
    pub rung: SolverRung,
    /// Resource ceiling.
    pub budget: SolveBudget,
    /// Counter handle installed into analyses run under these settings.
    /// `None` leaves the analyses unmetered.
    pub metrics: Option<Arc<SolverMetrics>>,
    /// Flight recorder armed on analyses run under these settings.
    /// `None` (the default) disables per-iteration tracing entirely.
    pub flight: Option<Arc<FlightRecorder>>,
    /// Cooperative-cancellation token polled from the inner solver
    /// loops. `None` (the default) makes the analysis uninterruptible.
    pub cancel: Option<CancelToken>,
    /// Phase profiler armed on analyses run under these settings:
    /// stamping, device evaluation, LU factor/solve, residual update
    /// and timestep control are attributed per-phase on it. `None`
    /// (the default) keeps the hot path free of clock reads.
    pub profile: Option<Arc<PhaseProfiler>>,
    /// Golden operating point used to seed DC solves. `None` (the
    /// default) cold-starts.
    pub warm_start: Option<Arc<WarmStart>>,
    /// Numeric-chaos firing state: deterministic arithmetic fault
    /// injection into the Newton solver's factorisations and solutions.
    /// `None` (the default) keeps every injection site inert with a
    /// single branch.
    pub numeric_chaos: Option<Arc<obs::NumericChaosState>>,
}

impl SolveSettings {
    /// `self` with `metrics` installed (builder style).
    pub fn metrics(mut self, metrics: Arc<SolverMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// `self` with a [`PhaseProfiler`] armed (builder style).
    pub fn profile(mut self, profile: Arc<PhaseProfiler>) -> Self {
        self.profile = Some(profile);
        self
    }
}

impl Default for SolveSettings {
    /// Nominal rung with the default step ceiling: applying this to a
    /// [`crate::transient::TransientAnalysis`] leaves it unchanged.
    fn default() -> Self {
        SolveSettings {
            rung: SolverRung::nominal(),
            budget: SolveBudget::unlimited().steps(DEFAULT_MAX_STEPS),
            metrics: None,
            flight: None,
            cancel: None,
            profile: None,
            warm_start: None,
            numeric_chaos: None,
        }
    }
}

impl Default for SolverRung {
    fn default() -> Self {
        SolverRung::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_budget_trips_at_ceiling() {
        let mut clock = BudgetClock::new(SolveBudget::unlimited().steps(2));
        assert!(clock.charge_step(0.0).is_ok());
        assert!(clock.charge_step(1e-6).is_ok());
        let err = clock.charge_step(2e-6).unwrap_err();
        match err {
            AnalysisError::BudgetExceeded { steps, kind, .. } => {
                assert_eq!(steps, 3);
                assert_eq!(kind, BudgetKind::Steps);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn wall_budget_trips_once_elapsed() {
        let clock = BudgetClock::new(SolveBudget::unlimited().wall(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(1));
        let err = clock.check_wall(0.5).unwrap_err();
        match err {
            AnalysisError::BudgetExceeded { time, kind, .. } => {
                assert_eq!(time, 0.5);
                assert_eq!(kind, BudgetKind::WallClock);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let mut clock = BudgetClock::new(SolveBudget::unlimited());
        for k in 0..100_000 {
            clock.charge_step(k as f64 * 1e-9).unwrap();
        }
    }

    #[test]
    fn ladder_starts_nominal_and_escalates() {
        let ladder = escalation_ladder();
        assert!(ladder[0].is_nominal());
        assert!(ladder.len() >= 3);
        // Later rungs are at least as conservative in timestep.
        for pair in ladder.windows(2) {
            assert!(pair[1].dt_scale <= pair[0].dt_scale);
        }
        // The last rung is maximally damped.
        assert!(ladder.last().unwrap().force_backward_euler);
        assert!(ladder.last().unwrap().gmin.is_some());
    }

    #[test]
    fn cancel_token_clones_share_the_flag() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        assert!(!clone.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled());
        // Idempotent.
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn check_wall_reports_cancellation_before_budget() {
        let token = CancelToken::new();
        // A zero wall budget would trip BudgetExceeded, but a raised
        // token must win so callers see a clean Cancelled.
        let clock = BudgetClock::new(SolveBudget::unlimited().wall(Duration::ZERO))
            .with_cancel(Some(token.clone()));
        std::thread::sleep(Duration::from_millis(1));
        token.cancel();
        assert_eq!(clock.check_wall(0.1).unwrap_err(), AnalysisError::Cancelled);
    }

    #[test]
    fn untripped_token_does_not_interfere() {
        let clock =
            BudgetClock::new(SolveBudget::unlimited()).with_cancel(Some(CancelToken::new()));
        assert!(clock.check_wall(0.1).is_ok());
    }

    #[test]
    fn rung_labels_are_distinct() {
        let ladder = escalation_ladder();
        let labels: Vec<String> = ladder.iter().map(|r| r.label()).collect();
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(labels[0], "nominal");
    }
}
