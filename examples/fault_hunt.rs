//! Transient-response fault hunting: stimulate the paper's OP1 op-amp
//! with a PRBS, inject stuck-at and bridging faults at its internal
//! nodes, and rank every fault by how detectable its correlation
//! signature makes it — the paper's part (c) workflow.
//!
//! Run with: `cargo run --release --example fault_hunt`

use mixsig::anasim::flight::FlightRecorder;
use mixsig::faultsim::campaign::{CampaignConfig, JournalConfig};
use mixsig::faultsim::journal;
use mixsig::macrolib::process::ProcessParams;
use mixsig::msbist::transtest::circuits::circuit1;
use mixsig::obs::{self, AggregatingRecorder};

fn main() {
    // Circuit 1: the 13-transistor OP1 in a comparator configuration,
    // PRBS of 15 bits at 250 us steps, 0-5 V amplitude.
    let circuit = circuit1(&ProcessParams::nominal());
    println!(
        "circuit 1: {} transistors, {} faults in the universe",
        circuit.bench.netlist().transistor_count(),
        circuit.faults.len()
    );

    // Golden signature: the correlation of the fault-free response with
    // the stimulus-derived correlation signal.
    let golden = circuit
        .bench
        .correlation_signature(circuit.bench.netlist())
        .expect("golden circuit simulates");
    let peak = golden.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    println!("golden signature: {} lags, peak |R| = {peak:.3}\n", golden.len());

    // Campaign on the resilient engine: every fault simulated in
    // parallel under the escalation ladder, scored by detection
    // instances. The report is identical for any worker count, and the
    // recorder it is emitted to sees the telemetry in universe order.
    // The flight recorder is armed so any fault that exhausts the whole
    // escalation ladder freezes a postmortem naming the worst node, and
    // a checkpoint journal makes the campaign kill-safe: every completed
    // fault is fsync'd to an append-only JSONL file as it finishes.
    let journal_path = std::env::temp_dir().join("fault_hunt.journal.jsonl");
    let config = CampaignConfig::new(0.02 * peak)
        .workers(4)
        .flight(FlightRecorder::DEFAULT_CAPACITY)
        .journal(JournalConfig::fresh(&journal_path, "fault-hunt"));
    let report = circuit
        .bench
        .run_correlation_campaign_with(&circuit.faults, &config)
        .expect("campaign runs");
    let recorder = AggregatingRecorder::new();
    report.emit_to(&recorder);

    let mut ranked: Vec<(String, f64, &'static str)> = report
        .outcomes
        .iter()
        .map(|o| (o.fault.name().to_string(), o.figure_pct(), o.status.tag()))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));

    println!("fault ranking (detection instances, % of signature lags):");
    let mut table = obs::Table::new(&["fault", "pct", "", "status"]).align(&[
        obs::Align::Left,
        obs::Align::Right,
        obs::Align::Left,
        obs::Align::Left,
    ]);
    for (name, pct, tag) in &ranked {
        table.row(&[
            name.clone(),
            format!("{pct:.1}"),
            obs::table::bar(*pct, 100.0, 40),
            format!("[{tag}]"),
        ]);
    }
    print!("{}", table.render());

    let coverage = report.coverage(40.0);
    println!(
        "\ncoverage at the 40 %-of-instances criterion: {:.0} % of the fault universe",
        coverage * 100.0
    );

    // Solver telemetry: what the campaign cost and whether any fault
    // needed the escalation ladder.
    let stats = &report.stats;
    println!("\nsolver telemetry:");
    println!(
        "  golden extraction : {} Newton iterations, {:.0} ms",
        stats.golden_newton_iterations(),
        stats.golden_wall.as_secs_f64() * 1e3
    );
    println!(
        "  fault extractions : {} Newton iterations, {:.0} ms summed over {} faults",
        stats.total_newton_iterations(),
        (stats.total_wall() - stats.golden_wall).as_secs_f64() * 1e3,
        stats.per_fault.len()
    );
    println!(
        "  escalation rungs  : histogram {:?} (index 0 = nominal solver settings)",
        stats.rung_histogram()
    );
    if let Some((i, t)) = stats
        .per_fault
        .iter()
        .enumerate()
        .max_by_key(|(_, t)| t.wall)
    {
        println!(
            "  hardest fault     : {} ({} Newton iterations, {:.0} ms, {} rung(s) tried)",
            report.outcomes[i].fault.name(),
            t.newton_iterations(),
            t.wall.as_secs_f64() * 1e3,
            t.rungs_tried
        );
    }

    // Postmortems: faults the ladder could not rescue, each with the
    // frozen last iterations and the node that dominated the residual.
    let postmortems: Vec<_> = report.postmortems().collect();
    if postmortems.is_empty() {
        println!("  postmortems       : none (every fault converged on some rung)");
    } else {
        println!("  postmortems       : {} fault(s) exhausted the ladder", postmortems.len());
        for (name, pm) in &postmortems {
            println!(
                "    {name}: residual {:.3e} at t = {:.3e} s, worst node {}",
                pm.residual,
                pm.time,
                pm.worst_nodes.first().map_or("?", |(n, _)| n.as_str())
            );
        }
        println!("  top offending nodes:");
        for (node, count) in report.top_offending_nodes().iter().take(5) {
            println!("    {node}: {count} iterations");
        }
    }

    // The same numbers as the recorder saw them: per-step counters and
    // campaign spans, deterministic apart from the wall-clock values.
    let agg = recorder.snapshot();
    println!(
        "  recorder          : {} counters, {} span names, {} fault spans",
        agg.counters.len(),
        agg.spans.len(),
        agg.spans.get("campaign.fault").map_or(0, obs::Histogram::count)
    );

    // Crash safety: every fault above was checkpointed as it completed.
    // Had this process been killed mid-campaign, rerunning with
    // `JournalConfig::resume` would replay the journal and simulate only
    // the missing faults. Here the journal is complete, so the resumed
    // run simulates nothing and still reproduces the identical report.
    let replayed = journal::load(&journal_path).expect("journal parses");
    let hunt = replayed.campaign("fault-hunt").expect("campaign journaled");
    println!(
        "\ncrash safety: {} faults checkpointed at {} ({})",
        hunt.faults.len(),
        journal_path.display(),
        if hunt.complete { "complete" } else { "interrupted" },
    );
    let resume = CampaignConfig::new(0.02 * peak)
        .workers(4)
        .flight(FlightRecorder::DEFAULT_CAPACITY)
        .journal(JournalConfig::resume(&journal_path, "fault-hunt"));
    let started = std::time::Instant::now();
    let resumed = circuit
        .bench
        .run_correlation_campaign_with(&circuit.faults, &resume)
        .expect("resume runs");
    assert_eq!(resumed.canonical_text(), report.canonical_text());
    println!(
        "  resumed report is byte-identical in {:.1} ms (all {} faults replayed from the journal)",
        started.elapsed().as_secs_f64() * 1e3,
        resumed.outcomes.len()
    );
    let _ = std::fs::remove_file(&journal_path);
}
