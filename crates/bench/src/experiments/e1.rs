//! E1 — Analogue test results: the step-input macro and integrator fall
//! times.
//!
//! Paper: "The step input macro produced voltage steps of 0, 0.59, 0.96,
//! 1.41, 1.8 and 2.5 volts. This gave a measured integrator fall time of
//! 2.6, 2.2, 1.9, 1.2, 0.8, and 0.1 msec."

use std::fmt;
use std::sync::Arc;

use anasim::metrics::{SolverMetrics, SolverSnapshot, COUNTER_NAMES};
use anasim::robust::SolveSettings;
use macrolib::process::ProcessParams;
use msbist::adc::circuit::CircuitAdc;
use msbist::bist::StepGenerator;
use obs::profile::PhaseProfiler;

/// The paper's published fall times (ms), index-aligned with the step
/// levels.
pub const PAPER_FALL_TIMES_MS: [f64; 6] = [2.6, 2.2, 1.9, 1.2, 0.8, 0.1];

/// One row of the E1 table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E1Row {
    /// Step level, volts.
    pub level: f64,
    /// Paper's measured fall time, milliseconds.
    pub paper_ms: f64,
    /// Our simulated fall time, milliseconds (`None` on simulation
    /// failure).
    pub measured_ms: Option<f64>,
}

/// The E1 report.
#[derive(Debug, Clone, PartialEq)]
pub struct E1Report {
    /// One row per step level.
    pub rows: Vec<E1Row>,
    /// Solver effort spent across every fall-time simulation. E1 runs
    /// real circuit transients, so this is non-zero — the bench sidecar
    /// reads its `newton_iterations` instead of reporting 0.
    pub solver: SolverSnapshot,
}

impl E1Report {
    /// True if the measured series is monotonically decreasing with
    /// level, like the paper's.
    pub fn monotone_decreasing(&self) -> bool {
        self.rows
            .windows(2)
            .all(|w| match (w[0].measured_ms, w[1].measured_ms) {
                (Some(a), Some(b)) => a > b,
                _ => false,
            })
    }

    /// Worst absolute deviation from the paper's values, milliseconds.
    pub fn worst_deviation_ms(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| {
                r.measured_ms
                    .map(|m| (m - r.paper_ms).abs())
                    .unwrap_or(f64::INFINITY)
            })
            .fold(0.0, f64::max)
    }

    /// Renders the report as an `e1` [`obs::Section`].
    pub fn to_section(&self) -> obs::Section {
        let mut section = obs::Section::new("e1");
        section
            .counter("levels", self.rows.len() as u64)
            .counter(
                "simulated",
                self.rows.iter().filter(|r| r.measured_ms.is_some()).count() as u64,
            )
            .counter("monotone_decreasing", u64::from(self.monotone_decreasing()))
            .value("worst_deviation_ms", self.worst_deviation_ms());
        for (counter, value) in COUNTER_NAMES.iter().zip(self.solver.as_array()) {
            section.counter(counter, value);
        }
        section
    }
}

impl fmt::Display for E1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E1 — step input levels vs integrator fall time")?;
        writeln!(f, "level (V)   paper (ms)   measured (ms)")?;
        for r in &self.rows {
            match r.measured_ms {
                Some(m) => writeln!(f, "{:>8.2}   {:>9.1}   {:>12.2}", r.level, r.paper_ms, m)?,
                None => writeln!(f, "{:>8.2}   {:>9.1}   {:>12}", r.level, r.paper_ms, "fail")?,
            }
        }
        writeln!(
            f,
            "monotone decreasing: {}; worst |Δ| = {:.2} ms",
            self.monotone_decreasing(),
            self.worst_deviation_ms()
        )
    }
}

/// Runs E1: simulates the circuit-level integrator for each of the step
/// generator's levels and measures the fall time.
///
/// `sim_dt` trades accuracy for speed (4 µs default in the binary,
/// coarser in the Criterion bench).
pub fn run(sim_dt: f64) -> E1Report {
    run_instrumented(sim_dt, None)
}

/// Runs E1 with solver-effort accounting, and — when `profile` is
/// given — phase cost attribution, threaded into every conversion
/// transient.
pub fn run_instrumented(sim_dt: f64, profile: Option<Arc<PhaseProfiler>>) -> E1Report {
    let mut metrics = SolverMetrics::new();
    if let Some(p) = &profile {
        metrics = metrics.with_profile(Arc::clone(p));
    }
    let metrics = Arc::new(metrics);
    let settings = SolveSettings {
        profile,
        ..SolveSettings::default().metrics(Arc::clone(&metrics))
    };
    let adc = CircuitAdc::new(ProcessParams::nominal())
        .with_sim_dt(sim_dt)
        .with_settings(&settings);
    let generator = StepGenerator::paper();
    let rows = generator
        .levels()
        .iter()
        .zip(PAPER_FALL_TIMES_MS)
        .map(|(&level, paper_ms)| E1Row {
            level,
            paper_ms,
            measured_ms: adc.fall_time(level).ok().map(|s| s * 1e3),
        })
        .collect();
    E1Report {
        rows,
        solver: metrics.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_reproduces_the_fall_time_shape() {
        let report = run(10e-6);
        assert!(report.monotone_decreasing(), "{report}");
        // The measured-data scatter in the paper is a few hundred µs;
        // our simulated macro should stay within that envelope.
        assert!(report.worst_deviation_ms() < 0.35, "{report}");
    }

    #[test]
    fn e1_accounts_its_solver_effort() {
        let report = run(20e-6);
        assert!(
            report.solver.newton_iterations > 0,
            "circuit transients must spend Newton iterations"
        );
        let section = report.to_section();
        assert_eq!(
            section.counters.get("solver.newton_iterations"),
            Some(&report.solver.newton_iterations)
        );
        // Disarmed run: no profiler attached, no phase wall-time.
        assert!(report.solver.phases.is_empty());

        let profiler = Arc::new(PhaseProfiler::new());
        let armed = run_instrumented(20e-6, Some(Arc::clone(&profiler)));
        assert!(!armed.solver.phases.is_empty());
        assert_eq!(profiler.snapshot(), armed.solver.phases);
        // Canonical counters are wall-clock-free: armed and disarmed
        // runs agree exactly, and so do the measured fall times.
        assert_eq!(armed.solver.as_array(), report.solver.as_array());
        assert_eq!(armed.rows, report.rows);
    }

    #[test]
    fn display_renders_all_rows() {
        let report = run(20e-6);
        let text = report.to_string();
        assert!(text.contains("2.6"));
        assert_eq!(text.lines().count(), 9);
    }
}
