//! `experiments explain` — renders solver-failure postmortems from a
//! machine-readable run report as a human-oriented diagnosis.
//!
//! A run report written with `--metrics-json` carries, per section, the
//! postmortems frozen by armed convergence flight recorders (see
//! `anasim::flight`). This module turns those back into narrative: what
//! was being solved when the solver died, which escalation rungs were
//! tried and how each ended, which circuit nodes dominated the Newton
//! update, and the last recorded iterations of the trace. Everything
//! rendered is deterministic — the same report bytes always explain to
//! the same text.
//!
//! The same command also reads campaign *journals*
//! (`mixsig.campaign-journal/1`, written with `--journal`/`--resume`):
//! [`explain_journal`] renders per-campaign progress — how many faults
//! checkpointed, how each ended, which panicked or were cancelled — and
//! any postmortems riding the journaled telemetry. [`looks_like_journal`]
//! sniffs which of the two formats a file is.

use std::fmt::Write as _;

use faultsim::campaign::FaultStatus;
use faultsim::journal::{JournalReplay, ReplayedCampaign};
use obs::json::JsonValue;
use obs::postmortem::Postmortem;
use obs::table::{Align, Table};

/// Extracts every postmortem from a parsed run report, paired with the
/// name of the section that carried it, in report order.
///
/// # Errors
///
/// Returns a message when the document has no `sections` array or a
/// postmortem entry is structurally invalid.
pub fn collect_postmortems(report: &JsonValue) -> Result<Vec<(String, Postmortem)>, String> {
    let sections = report
        .get("sections")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "report has no sections array".to_owned())?;
    let mut out = Vec::new();
    for section in sections {
        let name = section
            .get("name")
            .and_then(JsonValue::as_str)
            .unwrap_or("?")
            .to_owned();
        let Some(pms) = section.get("postmortems").and_then(JsonValue::as_array) else {
            continue;
        };
        for (i, pm) in pms.iter().enumerate() {
            let pm = Postmortem::from_json(pm)
                .map_err(|e| format!("section '{name}' postmortem {i}: {e}"))?;
            out.push((name.clone(), pm));
        }
    }
    Ok(out)
}

/// Renders one postmortem as an indented narrative block: headline,
/// escalation-ladder path, worst-offending nodes and the retained
/// iteration trace.
pub fn render_postmortem(section: &str, pm: &Postmortem) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "postmortem: {} (section {section})", pm.label);
    let _ = writeln!(out, "  error: {}", pm.error);
    let _ = writeln!(
        out,
        "  died at t = {:.3e} s, residual {:.3e}, {} Newton iterations total",
        pm.time, pm.residual, pm.total_iterations
    );
    if let Some(steps) = pm.budget_steps {
        let _ = writeln!(out, "  budget: {steps} steps charged at death");
    }

    if !pm.ladder.is_empty() {
        let _ = writeln!(out, "\n  escalation ladder:");
        let mut t = Table::new(&["rung", "settings", "outcome"])
            .align(&[Align::Right, Align::Left, Align::Left]);
        for step in &pm.ladder {
            t.row(&[step.rung.to_string(), step.label.clone(), step.outcome.clone()]);
        }
        out.push_str(&indent(&t.render(), "    "));
    }

    if !pm.hazards.is_empty() {
        let _ = writeln!(out, "\n  numerical hazards (detection order):");
        let mut t = Table::new(&["t [s]", "hazard", "solver response"])
            .align(&[Align::Right, Align::Left, Align::Left]);
        for h in &pm.hazards {
            t.row(&[format!("{:.3e}", h.time), h.hazard.clone(), h.action.clone()]);
        }
        out.push_str(&indent(&t.render(), "    "));
    }

    if !pm.worst_nodes.is_empty() {
        let full = pm.worst_nodes.first().map_or(1, |(_, c)| *c) as f64;
        let _ = writeln!(out, "\n  worst-offending nodes (iterations dominated):");
        let mut t = Table::new(&["node", "count", ""])
            .align(&[Align::Left, Align::Right, Align::Left]);
        for (node, count) in &pm.worst_nodes {
            t.row(&[
                node.clone(),
                count.to_string(),
                obs::table::bar(*count as f64, full, 24),
            ]);
        }
        out.push_str(&indent(&t.render(), "    "));
    }

    if !pm.trace.is_empty() {
        let _ = writeln!(out, "\n  last {} recorded iterations:", pm.trace.len());
        let mut t = Table::new(&["phase", "t [s]", "dt [s]", "iter", "residual", "worst node"])
            .align(&[
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Left,
            ]);
        for it in &pm.trace {
            t.row(&[
                it.phase.clone(),
                format!("{:.3e}", it.time),
                format!("{:.3e}", it.dt),
                it.iteration.to_string(),
                format!("{:.3e}", it.residual),
                it.worst_node.clone(),
            ]);
        }
        out.push_str(&indent(&t.render(), "    "));
    }
    out
}

/// Campaign-level rollup across a set of postmortems: which nodes
/// dominated the Newton update most often, descending by count then
/// name.
pub fn top_offending_nodes(postmortems: &[(String, Postmortem)]) -> Vec<(String, u64)> {
    let mut counts: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for (_, pm) in postmortems {
        for (node, count) in &pm.worst_nodes {
            *counts.entry(node.as_str()).or_default() += count;
        }
    }
    let mut out: Vec<(String, u64)> = counts
        .into_iter()
        .map(|(node, count)| (node.to_owned(), count))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

/// Explains a run-report JSON document: every postmortem (or only the
/// one selected by `fault` — a zero-based index or an exact fault
/// label), plus a top-offending-nodes rollup when more than one is
/// shown.
///
/// # Errors
///
/// Returns a message for unparseable reports, invalid postmortems, or a
/// `fault` selector matching nothing.
pub fn explain_report(text: &str, fault: Option<&str>) -> Result<String, String> {
    let parsed = obs::json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let all = collect_postmortems(&parsed)?;
    if all.is_empty() {
        return Ok(
            "no postmortems in this report: every solve converged, or no flight \
             recorder was armed (run a campaign with CampaignConfig::flight)\n"
                .to_owned(),
        );
    }

    let selected: Vec<&(String, Postmortem)> = match fault {
        None => all.iter().collect(),
        Some(sel) => {
            let picked: Vec<&(String, Postmortem)> = match sel.parse::<usize>() {
                Ok(idx) => all.get(idx).into_iter().collect(),
                Err(_) => all.iter().filter(|(_, pm)| pm.label == sel).collect(),
            };
            if picked.is_empty() {
                return Err(format!(
                    "no postmortem matches --fault {sel} (report has {}: {})",
                    all.len(),
                    all.iter()
                        .map(|(_, pm)| pm.label.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            picked
        }
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} of {} postmortem(s):\n",
        selected.len(),
        all.len()
    );
    for (i, (section, pm)) in selected.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&render_postmortem(section, pm));
    }
    if selected.len() > 1 {
        let owned: Vec<(String, Postmortem)> =
            selected.iter().map(|&(s, pm)| (s.clone(), pm.clone())).collect();
        let top = top_offending_nodes(&owned);
        let _ = writeln!(out, "\ntop offending nodes across all postmortems:");
        let full = top.first().map_or(1, |(_, c)| *c) as f64;
        let mut t = Table::new(&["node", "count", ""])
            .align(&[Align::Left, Align::Right, Align::Left]);
        for (node, count) in top.iter().take(10) {
            t.row(&[
                node.clone(),
                count.to_string(),
                obs::table::bar(*count as f64, full, 24),
            ]);
        }
        out.push_str(&indent(&t.render(), "  "));
    }
    Ok(out)
}

/// True when `text` is a campaign journal (JSONL whose first non-blank
/// line is an object with a `record` member) rather than a run report.
pub fn looks_like_journal(text: &str) -> bool {
    text.lines()
        .find(|l| !l.trim().is_empty())
        .and_then(|l| obs::json::parse(l).ok())
        .is_some_and(|v| v.get("record").is_some())
}

/// Renders one replayed campaign's progress block: the checkpoint
/// headline, a status rollup, and the faults that did not come back
/// clean.
fn render_campaign_progress(label: &str, campaign: &ReplayedCampaign) -> String {
    let mut out = String::new();
    let total = campaign.names.len();
    let state = if let Some(d) = &campaign.degraded {
        format!(
            "journal degraded ({} journaled, {} unjournaled)",
            d.journaled, d.unjournaled
        )
    } else if campaign.complete {
        "complete".to_owned()
    } else if campaign.cancelled {
        format!("cancelled after {}", campaign.faults.len())
    } else {
        "interrupted (no terminal record)".to_owned()
    };
    let _ = writeln!(
        out,
        "campaign {label}: {}/{} faults checkpointed — {state}",
        campaign.faults.len(),
        total
    );
    if let Some(d) = &campaign.degraded {
        let _ = writeln!(
            out,
            "  journal gave out mid-campaign: {}; the campaign itself finished, \
             and a plain resume re-simulates the unjournaled faults",
            d.reason
        );
    }

    let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for fault in campaign.faults.values() {
        *counts.entry(fault.status.tag()).or_default() += 1;
    }
    if !counts.is_empty() {
        let rollup: Vec<String> = counts
            .iter()
            .map(|(tag, n)| format!("{n} {tag}"))
            .collect();
        let _ = writeln!(out, "  outcomes: {}", rollup.join(", "));
    }

    // Numerical-resilience rollup across the checkpointed faults: which
    // hazards the solver hit and how many refactor retries they cost.
    // Silent for healthy campaigns.
    let mut hazards: Vec<(&'static str, u64)> = Vec::new();
    let mut demotions: Vec<(&'static str, u64)> = Vec::new();
    let mut refinement = 0_u64;
    for fault in campaign.faults.values() {
        for (label, n) in fault.telemetry.solver.hazards() {
            match hazards.iter_mut().find(|(l, _)| *l == label) {
                Some((_, total)) => *total += n,
                None => hazards.push((label, n)),
            }
        }
        for (label, n) in fault.telemetry.solver.demotions() {
            match demotions.iter_mut().find(|(l, _)| *l == label) {
                Some((_, total)) => *total += n,
                None => demotions.push((label, n)),
            }
        }
        refinement += fault.telemetry.solver.refinement_rounds;
    }
    let join = |pairs: &[(&'static str, u64)]| -> String {
        pairs
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(label, n)| format!("{label} x {n}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let hazard_text = join(&hazards);
    let demote_text = join(&demotions);
    if !hazard_text.is_empty() {
        let _ = writeln!(out, "  numerical hazards: {hazard_text}");
    }
    if !demote_text.is_empty() {
        let _ = writeln!(out, "  tier demotions: {demote_text}");
    }
    if refinement > 0 {
        let _ = writeln!(out, "  iterative-refinement rounds: {refinement}");
    }

    // Per-worker progress, through the same fold the live status
    // snapshot uses (`experiments watch`): which lane simulated what,
    // for how long, and where its solver time went.
    let folded = crate::watch::fold_campaign(label, campaign, None);
    if folded.done > 0 && !folded.workers.is_empty() {
        let _ = writeln!(out, "  worker lanes:");
        let mut t = Table::new(&["lane", "done", "busy (ms)", "hot phase"])
            .align(&[Align::Right, Align::Right, Align::Right, Align::Left]);
        for w in &folded.workers {
            t.row(&[
                w.lane.to_string(),
                w.completed.to_string(),
                format!("{:.1}", w.busy_ms),
                w.hot_phase.clone().unwrap_or_default(),
            ]);
        }
        out.push_str(&indent(&t.render(), "    "));
    }

    for fault in campaign.faults.values() {
        match &fault.status {
            FaultStatus::Panicked { payload } => {
                let _ = writeln!(
                    out,
                    "  {}: panicked — {}",
                    fault.name,
                    payload.lines().next().unwrap_or("")
                );
            }
            FaultStatus::SimFailed { error, rungs_tried } => {
                let _ = writeln!(
                    out,
                    "  {}: sim-failed after {rungs_tried} rung(s) — {error}",
                    fault.name
                );
            }
            FaultStatus::BudgetExceeded { rungs_tried } => {
                let _ = writeln!(
                    out,
                    "  {}: budget exceeded after {rungs_tried} rung(s)",
                    fault.name
                );
            }
            FaultStatus::SignatureMismatch { got, want } => {
                let _ = writeln!(
                    out,
                    "  {}: signature length mismatch ({got} vs {want})",
                    fault.name
                );
            }
            FaultStatus::Detected { .. } | FaultStatus::Undetected { .. } => {}
        }
    }
    if !campaign.complete {
        let missing: Vec<&str> = campaign
            .names
            .iter()
            .enumerate()
            .filter(|(i, _)| !campaign.faults.contains_key(i))
            .map(|(_, name)| name.as_str())
            .collect();
        if !missing.is_empty() {
            let _ = writeln!(out, "  pending on resume: {}", missing.join(", "));
        }
    }
    out
}

/// Explains a campaign journal: per-campaign checkpoint progress plus
/// every postmortem riding the journaled telemetry (`fault` selects one
/// by zero-based index or fault label, as in [`explain_report`]).
///
/// # Errors
///
/// Returns a message for unreadable journals, structurally invalid
/// records, or a `fault` selector matching nothing.
pub fn explain_journal(text: &str, fault: Option<&str>) -> Result<String, String> {
    let replay: JournalReplay =
        faultsim::journal::replay(&obs::journal::parse_journal(text)?)?;
    let mut out = String::new();
    if replay.campaigns.is_empty() {
        return Ok("journal is empty: no campaign start record survived\n".to_owned());
    }
    if replay.torn_tail {
        let _ = writeln!(
            out,
            "journal ends in a torn line (hard kill mid-append); the torn record \
             will be re-simulated on resume\n"
        );
    }
    for (i, (label, campaign)) in replay.campaigns.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&render_campaign_progress(label, campaign));
    }

    let all: Vec<(String, Postmortem)> = replay
        .campaigns
        .iter()
        .flat_map(|(label, campaign)| {
            campaign.faults.values().filter_map(move |f| {
                f.telemetry
                    .postmortem
                    .as_ref()
                    .map(|pm| (label.clone(), pm.clone()))
            })
        })
        .collect();
    let selected: Vec<&(String, Postmortem)> = match fault {
        None => all.iter().collect(),
        Some(sel) => {
            let picked: Vec<&(String, Postmortem)> = match sel.parse::<usize>() {
                Ok(idx) => all.get(idx).into_iter().collect(),
                Err(_) => all.iter().filter(|(_, pm)| pm.label == sel).collect(),
            };
            if picked.is_empty() {
                return Err(format!(
                    "no journaled postmortem matches --fault {sel} (journal has {})",
                    all.len()
                ));
            }
            picked
        }
    };
    if !selected.is_empty() {
        let _ = writeln!(out, "\n{} journaled postmortem(s):\n", selected.len());
        for (i, (label, pm)) in selected.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&render_postmortem(label, pm));
        }
    }
    Ok(out)
}

fn indent(text: &str, pad: &str) -> String {
    text.lines()
        .map(|l| {
            if l.is_empty() {
                String::from("\n")
            } else {
                format!("{pad}{l}\n")
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::postmortem::{LadderStep, PostmortemIteration};
    use obs::{RunReport, Section};

    fn sample_report() -> String {
        let pm = |label: &str, node: &str| Postmortem {
            label: label.to_owned(),
            error: "newton iteration failed to converge at t = 1.000e-6 s".to_owned(),
            time: 1e-6,
            residual: 3.75,
            total_iterations: 24,
            trace: vec![PostmortemIteration {
                phase: "transient".to_owned(),
                time: 1e-6,
                dt: 1e-6,
                iteration: 6,
                residual: 3.75,
                worst_index: 2,
                worst_node: node.to_owned(),
            }],
            worst_nodes: vec![(node.to_owned(), 24)],
            ladder: vec![
                LadderStep {
                    rung: 0,
                    label: "nominal".to_owned(),
                    outcome: "no-convergence".to_owned(),
                },
                LadderStep {
                    rung: 1,
                    label: "dt*0.5".to_owned(),
                    outcome: "no-convergence".to_owned(),
                },
            ],
            hazards: vec![obs::postmortem::HazardStep {
                hazard: "refinement-stall".to_owned(),
                action: "demote:refactor".to_owned(),
                time: 9e-7,
            }],
            budget_steps: None,
        };
        let mut section = Section::new("campaign.diverge");
        section.postmortem(pm("f1", "gen1")).postmortem(pm("f2", "gen2"));
        let mut report = RunReport::new();
        report.push(section);
        report.canonical_json_string()
    }

    #[test]
    fn explains_every_postmortem_with_rollup() {
        let text = explain_report(&sample_report(), None).unwrap();
        assert!(text.contains("2 of 2 postmortem(s)"), "{text}");
        assert!(text.contains("postmortem: f1 (section campaign.diverge)"));
        assert!(text.contains("postmortem: f2"));
        assert!(text.contains("escalation ladder"));
        assert!(text.contains("no-convergence"));
        assert!(text.contains("numerical hazards (detection order)"), "{text}");
        assert!(text.contains("refinement-stall"), "{text}");
        assert!(text.contains("demote:refactor"), "{text}");
        assert!(text.contains("gen1"));
        assert!(text.contains("top offending nodes across all postmortems"));
    }

    #[test]
    fn fault_selector_picks_by_index_and_label() {
        let report = sample_report();
        let by_index = explain_report(&report, Some("1")).unwrap();
        assert!(by_index.contains("postmortem: f2"), "{by_index}");
        assert!(!by_index.contains("postmortem: f1"));
        let by_label = explain_report(&report, Some("f1")).unwrap();
        assert!(by_label.contains("postmortem: f1"));
        assert!(!by_label.contains("postmortem: f2"));
    }

    #[test]
    fn unmatched_selector_is_an_error_listing_candidates() {
        let err = explain_report(&sample_report(), Some("nope")).unwrap_err();
        assert!(err.contains("--fault nope"), "{err}");
        assert!(err.contains("f1, f2"));
    }

    #[test]
    fn report_without_postmortems_explains_why() {
        let mut report = RunReport::new();
        report.push(Section::new("e1"));
        let text = explain_report(&report.canonical_json_string(), None).unwrap();
        assert!(text.contains("no postmortems"), "{text}");
    }

    #[test]
    fn invalid_json_and_structure_are_reported() {
        assert!(explain_report("{not json", None).is_err());
        assert!(explain_report("{\"schema\": \"x\"}", None)
            .unwrap_err()
            .contains("sections"));
    }

    fn sample_journal(with_terminal: bool) -> String {
        use faultsim::campaign::{FaultStatus, FaultTelemetry};
        use faultsim::journal::{cancelled_record, fault_record, start_record};
        use faultsim::model::Fault;
        let mut nl = anasim::netlist::Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        let faults = [Fault::stuck_at_0("f0", a), Fault::stuck_at_1("f1", b)];
        let telemetry = FaultTelemetry {
            rung: Some(0),
            rungs_tried: 1,
            wall: std::time::Duration::from_millis(1),
            solver: anasim::metrics::SolverSnapshot {
                hazard_refinement_stall: 2,
                demote_refactor: 1,
                refinement_rounds: 3,
                ..anasim::metrics::SolverSnapshot::default()
            },
            ..FaultTelemetry::default()
        };
        let mut text = start_record("rc", &faults, 0.05, 4).to_json();
        text.push('\n');
        text += &fault_record(
            "rc",
            0,
            "f0",
            Some(&[1.0]),
            &FaultStatus::Detected { pct: 100.0 },
            &telemetry,
        )
        .to_json();
        text.push('\n');
        if with_terminal {
            text += &fault_record(
                "rc",
                1,
                "f1",
                None,
                &FaultStatus::Panicked {
                    payload: "boom: solver invariant".to_owned(),
                },
                &telemetry,
            )
            .to_json();
            text.push('\n');
            text += &cancelled_record("rc", 2).to_json();
            text.push('\n');
        }
        text
    }

    #[test]
    fn journal_sniffing_tells_the_formats_apart() {
        assert!(looks_like_journal(&sample_journal(true)));
        assert!(!looks_like_journal(&sample_report()));
        assert!(!looks_like_journal(""));
        assert!(!looks_like_journal("not json at all"));
    }

    #[test]
    fn journal_progress_names_panics_and_terminal_state() {
        let text = explain_journal(&sample_journal(true), None).unwrap();
        assert!(
            text.contains("campaign rc: 2/2 faults checkpointed — cancelled after 2"),
            "{text}"
        );
        assert!(text.contains("1 detected, 1 panicked"), "{text}");
        assert!(text.contains("f1: panicked — boom: solver invariant"), "{text}");
        // Per-worker progress rides the same fold the watch console uses.
        assert!(text.contains("worker lanes:"), "{text}");
        assert!(text.contains("lane"), "{text}");
        // Both faults carried hazard telemetry: the rollup sums it.
        assert!(text.contains("numerical hazards: refinement-stall x 4"), "{text}");
        assert!(text.contains("tier demotions: refactor x 2"), "{text}");
        assert!(text.contains("iterative-refinement rounds: 6"), "{text}");
    }

    #[test]
    fn interrupted_journal_lists_pending_faults() {
        let text = explain_journal(&sample_journal(false), None).unwrap();
        assert!(
            text.contains("campaign rc: 1/2 faults checkpointed — interrupted"),
            "{text}"
        );
        assert!(text.contains("pending on resume: f1"), "{text}");
    }

    #[test]
    fn degraded_journal_explains_the_outage_and_pending_faults() {
        use faultsim::journal::degraded_record;
        let mut text = sample_journal(false);
        text += &degraded_record("rc", 1, 1, "injected write fault at op 3").to_json();
        text.push('\n');
        let rendered = explain_journal(&text, None).unwrap();
        assert!(
            rendered.contains("campaign rc: 1/2 faults checkpointed — journal degraded (1 journaled, 1 unjournaled)"),
            "{rendered}"
        );
        assert!(
            rendered.contains("injected write fault at op 3"),
            "{rendered}"
        );
        assert!(rendered.contains("pending on resume: f1"), "{rendered}");
    }

    #[test]
    fn torn_journal_tail_is_called_out() {
        let full = sample_journal(false);
        let torn = &full[..full.len() - 10];
        let text = explain_journal(torn, None).unwrap();
        assert!(text.contains("torn line"), "{text}");
    }

    #[test]
    fn rendering_is_deterministic() {
        let report = sample_report();
        assert_eq!(
            explain_report(&report, None).unwrap(),
            explain_report(&report, None).unwrap()
        );
    }
}
