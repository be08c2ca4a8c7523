//! `fig4`: the paper's Figure-4 pipeline at nominal process.
//!
//! Correlation and IDD campaigns on circuits 1–3 and the serial
//! impulse-response sweep on circuits 2 and 3, composed the way the E6
//! experiment composes them, from public calls each wrapped in a timer.

use std::time::Instant;

use faultsim::campaign::CampaignConfig;
use macrolib::process::ProcessParams;
use msbist::transtest::circuits::{circuit1, circuit2, circuit3, ExampleCircuit};
use msbist::transtest::idd::idd_stats;
use msbist::transtest::impulse::{fit_first_order_discrete, impulse_detection_instances};

use crate::ctx::{Ctx, Extract};
use crate::measure::span;
use crate::Scale;

/// Detection threshold as a fraction of the golden signature's scale
/// (the E6 constant).
const RELATIVE_THRESHOLD: f64 = 0.02;

/// The Figure-4 inputs: the three example circuits and their fault
/// universes.
pub struct Fig4 {
    circuits: Vec<ExampleCircuit>,
    impulse: Vec<usize>,
}

/// Builds the circuits (nominal process — the seed is not used).
pub fn setup(scale: Scale) -> Fig4 {
    let process = ProcessParams::nominal();
    match scale {
        Scale::Full => Fig4 {
            circuits: vec![circuit1(&process), circuit2(&process), circuit3(&process)],
            impulse: vec![1, 2],
        },
        Scale::Tiny => {
            let mut c1 = circuit1(&process);
            c1.faults.truncate(3);
            let mut c3 = circuit3(&process);
            c3.faults.truncate(2);
            Fig4 {
                circuits: vec![c1, c3],
                impulse: vec![1],
            }
        }
    }
}

impl Fig4 {
    /// One pass of the pipeline.
    pub fn pass(&self, ctx: &Ctx) {
        for c in &self.circuits {
            correlation(ctx, c);
        }
        for &k in &self.impulse {
            impulse_sweep(ctx, &self.circuits[k]);
        }
        for c in &self.circuits {
            idd(ctx, c);
        }
    }
}

fn record(ctx: &Ctx, method: &str, circuit: u8, fault: &str, pct: f64, detected: bool) {
    ctx.output(format!("{method}/c{circuit}/{fault}/pct"), pct);
    ctx.output(
        format!("{method}/c{circuit}/{fault}/detected"),
        f64::from(u8::from(detected)),
    );
}

/// Circuit `c`'s correlation campaign, thresholded on its golden
/// signature's peak as E6 does.
pub fn correlation(ctx: &Ctx, c: &ExampleCircuit) -> Option<faultsim::campaign::CampaignReport> {
    let bench = &c.bench;
    let golden = match ctx.correlation_signature(bench, bench.netlist(), &ctx.settings(), None, 0) {
        Ok(g) => g,
        Err(e) => {
            ctx.fail(format!("c{} golden correlation: {e}", c.number));
            return None;
        }
    };
    let peak = golden.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    let config = CampaignConfig::new(RELATIVE_THRESHOLD * peak)
        .workers(ctx.workers)
        .profile(ctx.profile.is_some());
    campaign(
        ctx,
        c,
        "correlation",
        config,
        &|nl, settings, parent, group| {
            ctx.correlation_signature(bench, nl, settings, parent, group)
        },
    )
}

/// Runs a campaign on `c` and records its per-fault outputs.
pub fn campaign(
    ctx: &Ctx,
    c: &ExampleCircuit,
    method: &str,
    config: CampaignConfig,
    extract: &Extract<'_>,
) -> Option<faultsim::campaign::CampaignReport> {
    let label = format!("{method}/c{}", c.number);
    match ctx.campaign(&label, c.bench.netlist(), &c.faults, &config, extract) {
        Ok(report) => {
            let unsimulated = report
                .outcomes
                .iter()
                .filter(|o| o.detection_pct().is_none());
            ctx.output(format!("{label}/sim_failed"), unsimulated.count() as f64);
            for o in &report.outcomes {
                record(
                    ctx,
                    method,
                    c.number,
                    o.fault.name(),
                    o.figure_pct(),
                    o.is_detected(config.min_detect_pct),
                );
            }
            Some(report)
        }
        Err(e) => {
            ctx.fail(format!("{label} campaign: {e}"));
            None
        }
    }
}

fn idd(ctx: &Ctx, c: &ExampleCircuit) {
    let bench = &c.bench;
    let supplies = &c.vdd_sources;
    let golden =
        match ctx.current_response(bench, bench.netlist(), supplies, &ctx.settings(), None, 0) {
            Ok(g) => g,
            Err(e) => {
                ctx.fail(format!("c{} golden IDD: {e}", c.number));
                return;
            }
        };
    let threshold = RELATIVE_THRESHOLD * idd_stats(&golden).mean.max(1e-12);
    let config = CampaignConfig::new(threshold)
        .workers(ctx.workers)
        .profile(ctx.profile.is_some());
    campaign(ctx, c, "idd", config, &|nl, settings, parent, group| {
        ctx.current_response(bench, nl, supplies, settings, parent, group)
    });
}

/// The impulse-response method (approach 2) on one SC circuit, serial:
/// golden and each faulty variant are identified as first-order
/// discrete systems from cycle-sampled PRBS responses and the fitted
/// impulse responses compared.
fn impulse_sweep(ctx: &Ctx, c: &ExampleCircuit) {
    let bench = &c.bench;
    let s = bench.stimulus();
    let one_period: Vec<f64> = s
        .bits()
        .iter()
        .map(|&b| if b { s.high() } else { s.low() } - 2.5)
        .collect();
    let p: Vec<f64> = std::iter::repeat_n(one_period, bench.periods())
        .flatten()
        .collect();
    let settings = ctx.settings();
    let impulse_of = |nl: &anasim::netlist::Netlist, parent, group| -> Option<Vec<f64>> {
        let y = ctx
            .response_at(bench, nl, c.impulse_probe, &settings, parent, group)
            .ok()?;
        let spb = y.len() / p.len();
        let cycle_y: Vec<f64> = y
            .chunks(spb)
            .map(|ch| ch.last().copied().unwrap_or(0.0) - 2.5)
            .collect();
        let fit = fit_first_order_discrete(&p, &cycle_y);
        Some(fit.impulse_response(s.bit_period(), 32))
    };

    let Some(golden) = span(ctx.tracer(), "transtest.impulse", None, 0, |parent| {
        impulse_of(bench.netlist(), parent, 0)
    }) else {
        ctx.fail(format!(
            "c{} golden impulse response did not simulate",
            c.number
        ));
        return;
    };
    let peak = golden.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    for fault in &c.faults {
        let started = Instant::now();
        let group = ctx.group();
        let pct = span(ctx.tracer(), "transtest.impulse", None, group, |parent| {
            let faulty = span(ctx.tracer(), "faultsim.inject", parent, group, |_| {
                faultsim::inject::inject(bench.netlist(), fault)
            });
            impulse_of(&faulty, parent, group)
                .map(|h| impulse_detection_instances(&golden, &h, RELATIVE_THRESHOLD * peak))
        });
        ctx.op_done(started);
        let pct = pct.unwrap_or_else(|| {
            ctx.fail(format!(
                "c{} {}: impulse extraction failed",
                c.number,
                fault.name()
            ));
            100.0
        });
        record(ctx, "impulse", c.number, fault.name(), pct, pct >= 50.0);
    }
}
