//! E6 — Figure 4: transient-response fault detection on the three
//! example circuits.
//!
//! Paper: the normalised cross-correlations of the fault-free and the 16
//! faulty variants of circuit 1 were compared, and the impulse responses
//! of circuits 2 and 3 against their 12 faulty variants; Figure 4 plots
//! the percentage of detection instances per faulty circuit (roughly
//! 60–100 %, with circuit 3 dipping to ≈70 % for some faults).

use std::fmt;

use anasim::metrics::SolverSnapshot;
use anasim::AnalysisError;
use faultsim::campaign::CampaignReport;

use crate::hooks::CampaignHooks;
use macrolib::process::ProcessParams;
use obs::{Histogram, Section};
use msbist::transtest::circuits::{circuit1, circuit2, circuit3, ExampleCircuit};
use msbist::transtest::detect::DetectionFigure;
use msbist::transtest::idd::run_idd_campaign_with;
use msbist::transtest::impulse::{fit_first_order_discrete, impulse_detection_instances};

/// Detection threshold as a fraction of the golden signature's peak
/// magnitude — each circuit's comparator resolution scales with its
/// signal, as a real windowed comparator would be designed.
pub const RELATIVE_THRESHOLD: f64 = 0.02;

/// Worker threads for the E6 campaigns. Reports are deterministic for
/// any worker count, so this only affects wall-clock time.
pub const E6_WORKERS: usize = 4;

/// Aggregated solver and detection telemetry over every campaign E6
/// runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolverSummary {
    /// Solver counters summed across golden and fault extractions.
    pub solver: SolverSnapshot,
    /// Histogram of the escalation rung each successful extraction
    /// settled on (index 0 = nominal solver settings).
    pub rung_histogram: Vec<usize>,
    /// Faults simulated across all campaigns.
    pub faults: u64,
    /// Faults with a non-`Undetected` outcome.
    pub detected: u64,
    /// Golden-extraction wall times, one sample per campaign (ms).
    pub golden_wall: Histogram,
    /// Per-fault wall times across all campaigns (ms).
    pub fault_wall: Histogram,
    /// Fault outcomes that went unjournaled because a campaign's
    /// journal degraded (zero on healthy runs).
    pub journal_degraded: u64,
    /// Journal append retries absorbed across all campaigns.
    pub journal_retries: u64,
}

impl SolverSummary {
    /// Newton iterations across golden and fault extractions.
    pub fn newton_iterations(&self) -> u64 {
        self.solver.newton_iterations
    }

    /// Folds one campaign report into the summary.
    pub fn absorb(&mut self, report: &CampaignReport) {
        let stats = &report.stats;
        self.solver += stats.total_solver();
        self.faults += report.outcomes.len() as u64;
        self.detected += report.detected_count() as u64;
        self.golden_wall.record(stats.golden_wall.as_secs_f64() * 1e3);
        self.fault_wall.merge(&stats.fault_wall_ms());
        self.journal_degraded += report
            .degradation
            .as_ref()
            .map_or(0, |d| d.unjournaled as u64);
        self.journal_retries += stats.journal_retries;
        let h = stats.rung_histogram();
        if self.rung_histogram.len() < h.len() {
            self.rung_histogram.resize(h.len(), 0);
        }
        for (i, n) in h.iter().enumerate() {
            self.rung_histogram[i] += n;
        }
    }

    /// Renders the summary as a [`Section`] carrying the headline keys
    /// ([`obs::RunReport`] summaries look for `coverage`, `faults`,
    /// `solver.*` counters, `escalation_rungs` and the campaign
    /// timings).
    pub fn to_section(&self, name: &str) -> Section {
        let mut section = Section::new(name);
        section
            .counter("faults", self.faults)
            .counter("detected", self.detected)
            .value(
                "coverage",
                if self.faults == 0 {
                    100.0
                } else {
                    100.0 * self.detected as f64 / self.faults as f64
                },
            );
        for (counter, value) in anasim::metrics::COUNTER_NAMES.iter().zip(self.solver.as_array())
        {
            section.counter(counter, value);
        }
        section
            .counter("journal_degraded.faults", self.journal_degraded)
            .counter("journal.retries", self.journal_retries);
        section.histogram(
            "escalation_rungs",
            self.rung_histogram.iter().map(|&n| n as u64).collect(),
        );
        section
            .timings
            .insert("campaign.golden".to_owned(), self.golden_wall.clone());
        section
            .timings
            .insert("campaign.fault".to_owned(), self.fault_wall.clone());
        section
    }
}

/// The E6 report: the assembled Figure-4 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct E6Report {
    /// Correlation-method results for every circuit.
    pub correlation: DetectionFigure,
    /// Impulse-response-method results for circuits 2 and 3.
    pub impulse: DetectionFigure,
    /// Dynamic supply-current results (extension: the paper's refs
    /// [10, 11]).
    pub idd: DetectionFigure,
    /// Solver telemetry from the correlation and IDD campaigns.
    pub solver: SolverSummary,
}

impl E6Report {
    /// Minimum detection over all entries of a circuit (correlation
    /// method).
    pub fn correlation_floor(&self, circuit: u8) -> Option<f64> {
        self.correlation.floor(circuit)
    }

    /// Renders the report as an `e6` [`Section`]: detection coverage,
    /// solver counters, rung histogram and campaign timings, plus the
    /// per-circuit correlation floors.
    pub fn to_section(&self) -> Section {
        let mut section = self.solver.to_section("e6");
        for c in [1u8, 2, 3] {
            if let Some(floor) = self.correlation.floor(c) {
                section.value(&format!("circuit{c}_floor_pct"), floor);
            }
        }
        section
    }
}

impl fmt::Display for E6Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E6 — Figure 4: detection instances for faulty circuits")?;
        writeln!(f, "\ncorrelation method (approach 1):")?;
        write!(f, "{}", self.correlation.to_table())?;
        writeln!(f, "\nimpulse-response method (approach 2, circuits 2 & 3):")?;
        write!(f, "{}", self.impulse.to_table())?;
        writeln!(f, "\ndynamic supply-current monitoring (extension, refs [10, 11]):")?;
        write!(f, "{}", self.idd.to_table())?;
        for c in [1u8, 2, 3] {
            if let (Some(floor), Some(mean)) =
                (self.correlation.floor(c), self.correlation.mean(c))
            {
                writeln!(
                    f,
                    "circuit {c}: correlation floor {floor:.0} %, mean {mean:.0} %"
                )?;
            }
        }
        writeln!(
            f,
            "solver: {} Newton iterations, escalation-rung histogram {:?}",
            self.solver.newton_iterations(),
            self.solver.rung_histogram
        )?;
        Ok(())
    }
}

/// Runs the correlation campaign for one example circuit on the
/// resilient engine and adds it to the figure. The campaign journals
/// under `e6.c<N>.correlation` when the hooks carry a journal.
fn correlation_campaign(
    figure: &mut DetectionFigure,
    solver: &mut SolverSummary,
    circuit: &ExampleCircuit,
    hooks: &CampaignHooks,
) -> Result<(), AnalysisError> {
    let golden = circuit
        .bench
        .correlation_signature(circuit.bench.netlist())
        .expect("golden circuit must simulate");
    let peak = golden.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    let label = format!("e6.c{}.correlation", circuit.number);
    let config = hooks.campaign(&label, RELATIVE_THRESHOLD * peak);
    let report = circuit
        .bench
        .run_correlation_campaign_with(&circuit.faults, &config)?;
    solver.absorb(&report);
    figure.add_campaign(circuit.number, &report);
    hooks.observe(&label, &report);
    Ok(())
}

/// Runs the impulse-response (approach 2) comparison for an SC circuit:
/// the golden and each faulty variant are identified as first-order
/// discrete systems from their cycle-sampled PRBS responses, and the
/// fitted impulse responses are compared.
fn impulse_campaign(figure: &mut DetectionFigure, circuit: &ExampleCircuit, hooks: &CampaignHooks) {
    let one_period: Vec<f64> = stimulus_levels(circuit).iter().map(|&v| v - 2.5).collect();
    let p: Vec<f64> = std::iter::repeat_n(one_period, circuit.bench.periods())
        .flatten()
        .collect();

    // Not a resilient campaign — but its solves are real solver time,
    // so they run under profiler-armed settings when the hooks carry
    // one.
    let settings = hooks.solve_settings();
    let impulse_of = |netlist: &anasim::netlist::Netlist| -> Option<Vec<f64>> {
        let y = circuit
            .bench
            .response_at_with(netlist, circuit.impulse_probe, &settings)
            .ok()?;
        // One sample per cycle: take the last sample of each bit.
        let spb = y.len() / p.len();
        let cycle_y: Vec<f64> = y
            .chunks(spb)
            .map(|c| c.last().copied().unwrap_or(0.0) - 2.5)
            .collect();
        let fit = fit_first_order_discrete(&p, &cycle_y);
        Some(fit.impulse_response(circuit.bench.stimulus().bit_period(), 32))
    };

    let golden = impulse_of(circuit.bench.netlist()).expect("golden circuit must simulate");
    let peak = golden.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    for fault in &circuit.faults {
        let faulty_nl = faultsim::inject::inject(circuit.bench.netlist(), fault);
        let pct = match impulse_of(&faulty_nl) {
            Some(h) => impulse_detection_instances(&golden, &h, RELATIVE_THRESHOLD * peak),
            None => 100.0,
        };
        figure.add_entry(circuit.number, fault.name(), pct);
    }
}

/// Runs the dynamic-IDD campaign for one example circuit on the
/// resilient engine, journaling under `e6.c<N>.idd`.
fn idd_campaign(
    figure: &mut DetectionFigure,
    solver: &mut SolverSummary,
    circuit: &ExampleCircuit,
    hooks: &CampaignHooks,
) -> Result<(), AnalysisError> {
    let label = format!("e6.c{}.idd", circuit.number);
    let config = hooks.campaign(&label, 0.0);
    let report = run_idd_campaign_with(
        &circuit.bench,
        &circuit.vdd_sources,
        &circuit.faults,
        RELATIVE_THRESHOLD,
        &config,
    )?;
    solver.absorb(&report);
    figure.add_campaign(circuit.number, &report);
    hooks.observe(&label, &report);
    Ok(())
}

/// The stimulus levels, one per bit (helper for system identification).
fn stimulus_levels(circuit: &ExampleCircuit) -> Vec<f64> {
    let s = circuit.bench.stimulus();
    s.bits()
        .iter()
        .map(|&b| if b { s.high() } else { s.low() })
        .collect()
}

/// Runs E6 across all three example circuits, each campaign armed by
/// `hooks` under its own journal label (`e6.c1.correlation` ...
/// `e6.c3.idd`) and polling the shared cancellation token at fault
/// boundaries. The report (and its canonical metrics) is identical for
/// any worker count.
///
/// # Errors
///
/// [`AnalysisError::Cancelled`] when the token was raised mid-campaign
/// (the journal then holds a clean partial checkpoint), or any error of
/// the golden extraction.
pub fn run(hooks: &CampaignHooks) -> Result<E6Report, AnalysisError> {
    let process = ProcessParams::nominal();
    let c1 = circuit1(&process);
    let c2 = circuit2(&process);
    let c3 = circuit3(&process);

    let mut solver = SolverSummary::default();
    let mut correlation = DetectionFigure::new();
    correlation_campaign(&mut correlation, &mut solver, &c1, hooks)?;
    correlation_campaign(&mut correlation, &mut solver, &c2, hooks)?;
    correlation_campaign(&mut correlation, &mut solver, &c3, hooks)?;

    let mut impulse = DetectionFigure::new();
    impulse_campaign(&mut impulse, &c2, hooks);
    impulse_campaign(&mut impulse, &c3, hooks);

    let mut idd = DetectionFigure::new();
    idd_campaign(&mut idd, &mut solver, &c1, hooks)?;
    idd_campaign(&mut idd, &mut solver, &c2, hooks)?;
    idd_campaign(&mut idd, &mut solver, &c3, hooks)?;

    Ok(E6Report {
        correlation,
        impulse,
        idd,
        solver,
    })
}

/// Runs only circuit 1's correlation campaign (the cheap part, used by
/// the Criterion bench and the CI metrics smoke test). The campaign
/// journals under the same `e6.c1.correlation` label as the full E6
/// run, so an interrupted `e6` invocation can be partially resumed
/// through `e6c1` and vice versa.
///
/// # Errors
///
/// [`AnalysisError::Cancelled`] on cooperative cancellation, or any
/// golden-extraction error.
pub fn run_circuit1_only(hooks: &CampaignHooks) -> Result<E6Report, AnalysisError> {
    let c1 = circuit1(&ProcessParams::nominal());
    let mut solver = SolverSummary::default();
    let mut correlation = DetectionFigure::new();
    correlation_campaign(&mut correlation, &mut solver, &c1, hooks)?;
    Ok(E6Report {
        correlation,
        impulse: DetectionFigure::new(),
        idd: DetectionFigure::new(),
        solver,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_metrics_are_byte_identical_across_worker_counts() {
        let serial = run_circuit1_only(&CampaignHooks::new(1)).unwrap();
        let parallel = run_circuit1_only(&CampaignHooks::new(4)).unwrap();
        let canonical = |r: &E6Report| {
            let mut report = obs::RunReport::new();
            report.push(r.to_section());
            report.canonical_json_string()
        };
        assert_eq!(canonical(&serial), canonical(&parallel));
        // The canonical report carries real telemetry, not just zeros.
        let parsed = obs::json::parse(&canonical(&serial)).unwrap();
        let summary = parsed.get("summary").unwrap();
        assert!(summary.get("coverage").and_then(obs::json::JsonValue::as_f64) > Some(0.0));
        assert!(
            summary
                .get("newton_iterations")
                .and_then(obs::json::JsonValue::as_f64)
                > Some(0.0)
        );
    }

    #[test]
    fn circuit1_faults_are_broadly_detected() {
        let report = run_circuit1_only(&CampaignHooks::new(E6_WORKERS)).unwrap();
        let entries = report.correlation.circuit(1);
        assert_eq!(entries.len(), 16);
        // Paper shape: high detection across the board.
        let detected = entries.iter().filter(|e| e.pct > 40.0).count();
        assert!(
            detected >= 14,
            "only {detected}/16 strongly detected:\n{}",
            report.correlation.to_table()
        );
    }
}
