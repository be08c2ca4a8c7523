//! Diverge — a deliberately non-convergent fault campaign that
//! exercises the convergence flight recorder end to end.
//!
//! This is not a paper artefact: it is the diagnostics demo and the CI
//! smoke fixture for solver postmortems. The golden circuit is a mild
//! resistive divider with a reverse-biased diode — nonlinear (so the
//! Newton path is exercised, not the linear fast path) yet trivially
//! convergent. Each stuck-at-1 fault injects a 5 V generator node the
//! solver cannot reach under the deliberately tight
//! `max_iterations × vstep_limit` product, a `Uic` start keeps the DC
//! homotopies from rescuing the clamp, and `min_dt = dt` forbids the
//! halving rescue — so every escalation rung fails, every fault
//! freezes a postmortem, and `experiments explain` has something real
//! to narrate.

use std::fmt;

use anasim::flight::FlightRecorder;
use anasim::mna::NewtonOptions;
use anasim::netlist::Netlist;
use anasim::robust::SolveSettings;
use anasim::source::SourceWaveform;
use anasim::transient::{StartCondition, TransientAnalysis};
use anasim::AnalysisError;
use faultsim::campaign::{run_campaign_with, CampaignReport, FaultStatus};
use faultsim::model::Fault;
use obs::Section;

use crate::hooks::CampaignHooks;

/// Newton ceiling for the divergent extraction; together with
/// [`VSTEP_LIMIT`] it bounds Newton movement to 1.5 V per solve —
/// short of the 5 V the injected stuck-at generator demands.
pub const MAX_ITERATIONS: usize = 6;

/// Per-iteration voltage-update clamp for the divergent extraction.
pub const VSTEP_LIMIT: f64 = 0.25;

/// The golden circuit and its deliberately unsolvable fault universe.
pub fn fixture() -> (Netlist, Vec<Fault>) {
    let mut nl = Netlist::new();
    let a = nl.node("in");
    let b = nl.node("out");
    nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::dc(0.2));
    nl.resistor("R1", a, b, 1e3);
    nl.resistor("R2", b, Netlist::GROUND, 1e3);
    nl.diode(
        "D1",
        Netlist::GROUND,
        b,
        anasim::devices::DiodeParams::default(),
    );
    let faults = vec![
        Fault::stuck_at_1("out-sa1", b),
        Fault::stuck_at_1("in-sa1", a),
    ];
    (nl, faults)
}

/// The transient extraction with the tight Newton settings described in
/// the module docs. Converges for the golden circuit, fails every rung
/// for the fixture's faults.
pub fn tight_extract(
    nl: &Netlist,
    settings: &SolveSettings,
) -> Result<Vec<f64>, AnalysisError> {
    let out = nl.find_node("out").expect("node out");
    let newton = NewtonOptions {
        max_iterations: MAX_ITERATIONS,
        vstep_limit: VSTEP_LIMIT,
        ..NewtonOptions::default()
    };
    let result = TransientAnalysis::new(1e-5, 1e-6)
        .start_condition(StartCondition::Uic)
        .newton_options(newton)
        .min_dt(1e-6)
        .with_settings(settings)
        .run(nl)?;
    let w = result.voltage(out);
    Ok((0..10).map(|k| w.value_at(k as f64 * 1e-6)).collect())
}

/// The diverge report: a campaign whose every fault carries a frozen
/// postmortem.
#[derive(Debug, Clone)]
pub struct DivergeReport {
    /// The underlying campaign report.
    pub campaign: CampaignReport,
}

impl DivergeReport {
    /// Number of faults that failed terminally (all of them, by
    /// construction).
    pub fn failed(&self) -> usize {
        self.campaign
            .outcomes
            .iter()
            .filter(|o| matches!(o.status, FaultStatus::SimFailed { .. }))
            .count()
    }

    /// Renders the campaign as a `diverge` [`Section`] — the section
    /// carries the frozen postmortems and the `worst_node.*` rollup, so
    /// a `--metrics-json` report written from it is what
    /// `experiments explain` consumes.
    pub fn to_section(&self) -> Section {
        self.campaign.to_section("diverge")
    }
}

impl fmt::Display for DivergeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Diverge — flight-recorder demo: {} faults, {} failed terminally",
            self.campaign.outcomes.len(),
            self.failed()
        )?;
        writeln!(f, "{}", self.campaign.canonical_text())?;
        for (name, pm) in self.campaign.postmortems() {
            writeln!(
                f,
                "{name}: {} total Newton iterations, worst node {}, ladder {} rungs",
                pm.total_iterations,
                pm.worst_nodes
                    .first()
                    .map_or("?", |(node, _)| node.as_str()),
                pm.ladder.len()
            )?;
        }
        let top = self.campaign.top_offending_nodes();
        if !top.is_empty() {
            writeln!(f, "top offending nodes:")?;
            for (node, count) in top.iter().take(5) {
                writeln!(f, "  {node}: {count}")?;
            }
        }
        Ok(())
    }
}

/// Runs the divergent campaign with the flight recorder armed, under
/// `hooks`: the campaign journals its frozen postmortems under the
/// `diverge` label and polls the cancellation token at fault
/// boundaries. The report and its canonical metrics are byte-identical
/// for any worker count.
///
/// # Errors
///
/// [`AnalysisError::Cancelled`] on cooperative
/// cancellation, or any golden-extraction error.
pub fn run(hooks: &CampaignHooks) -> Result<DivergeReport, AnalysisError> {
    let (golden, faults) = fixture();
    let config = hooks
        .campaign("diverge", 0.05)
        .flight(FlightRecorder::DEFAULT_CAPACITY);
    let campaign = run_campaign_with(&golden, &faults, &config, tight_extract)?;
    hooks.observe("diverge", &campaign);
    Ok(DivergeReport { campaign })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fault_fails_with_a_postmortem() {
        let report = run(&CampaignHooks::new(1)).unwrap();
        assert_eq!(report.campaign.outcomes.len(), 2);
        assert_eq!(report.failed(), 2);
        let pms: Vec<_> = report.campaign.postmortems().collect();
        assert_eq!(pms.len(), 2);
        for (_, pm) in &pms {
            assert!(!pm.trace.is_empty());
            assert!(pm.worst_nodes[0].0.contains(":gen"));
            assert_eq!(pm.ladder.len(), 4);
        }
        // The printed narrative names the offenders.
        let text = report.to_string();
        assert!(text.contains("top offending nodes"), "{text}");
        assert!(text.contains(":gen"));
    }

    #[test]
    fn section_feeds_explain() {
        let report = run(&CampaignHooks::new(1)).unwrap();
        let mut run_report = obs::RunReport::new();
        run_report.push(report.to_section());
        let json = run_report.canonical_json_string();
        let explained = crate::explain::explain_report(&json, None).unwrap();
        assert!(explained.contains("postmortem: out-sa1 (section diverge)"), "{explained}");
        assert!(explained.contains("escalation ladder"));
        assert!(explained.contains("fault:out-sa1:gen"));
        let one = crate::explain::explain_report(&json, Some("in-sa1")).unwrap();
        assert!(one.contains("postmortem: in-sa1"));
        assert!(!one.contains("postmortem: out-sa1"));
    }
}
