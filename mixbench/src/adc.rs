//! `adc_yield`: the E8 population screen — quick on-chip tests, full
//! INL/DNL characterisation and the datasheet check on every die of two
//! seeded batches (typical and loose process variation), one thread.

use std::time::Instant;

use macrolib::process::VariationModel;
use msbist::adc::spec::AdcSpecification;
use msbist::adc::DualSlopeAdc;
use msbist::bist::quick_test::{run_quick_tests, QuickTestLimits};
use msbist::charac::characterise;
use msbist::device::DieBatch;
use msbist::yield_analysis::analyse_yield;

use crate::ctx::Ctx;
use crate::measure::{ms_since, span};
use crate::Scale;

/// Dies per batch at full scale (the E8 population size).
pub const DIES: usize = 50;

/// Output codes characterised per die (as E8).
const CODES: u64 = 100;

/// The two fabricated batches and the screening limits.
pub struct Adc {
    seed: u64,
    batches: Vec<(&'static str, VariationModel, DieBatch)>,
    limits: QuickTestLimits,
    spec: AdcSpecification,
}

/// Fabricates both batches from `seed` and derives the quick-test
/// limits from the golden macro's compressed signature, as
/// `analyse_yield` does. Also returns the ms spent fabricating.
pub fn setup(scale: Scale, seed: u64) -> (Adc, f64) {
    let count = match scale {
        Scale::Full => DIES,
        Scale::Tiny => 3,
    };
    let golden = run_quick_tests(&DualSlopeAdc::paper_measured(), &QuickTestLimits::paper());
    let limits = QuickTestLimits::paper().with_reference(golden.compressed.digital_signature);
    let t = Instant::now();
    let batches = [
        ("typical", VariationModel::typical()),
        ("loose", VariationModel::loose()),
    ]
    .into_iter()
    .map(|(name, v)| (name, v, DieBatch::fabricate(count, &v, seed)))
    .collect();
    let fabricate_ms = ms_since(t);
    let adc = Adc {
        seed,
        batches,
        limits,
        spec: AdcSpecification::paper(),
    };
    (adc, fabricate_ms)
}

impl Adc {
    /// One pass: screen every die of both batches.
    pub fn pass(&self, ctx: &Ctx) {
        let tracer = ctx.tracer();
        for (name, _, batch) in &self.batches {
            let (mut quick_pass, mut full_pass, mut escapes) = (0u32, 0u32, 0u32);
            for die in batch {
                let started = Instant::now();
                let group = ctx.group();
                let quick = span(tracer, "msbist.bist.quick_tests", None, group, |_| {
                    run_quick_tests(&die.adc, &self.limits).passed()
                });
                let c = span(tracer, "msbist.charac", None, group, |_| {
                    characterise(&die.adc, CODES)
                });
                let full = span(tracer, "msbist.spec.check", None, group, |_| {
                    self.spec.check(&c).passed()
                });
                ctx.op_done(started);
                quick_pass += u32::from(quick);
                full_pass += u32::from(full);
                escapes += u32::from(quick && !full);
            }
            ctx.output(format!("{name}/quick_pass"), f64::from(quick_pass));
            ctx.output(format!("{name}/full_pass"), f64::from(full_pass));
            ctx.output(format!("{name}/escapes"), f64::from(escapes));
        }
    }

    /// Cross-checks the screen's counts against
    /// `msbist::yield_analysis::analyse_yield` for the same seed.
    /// Returns the mismatches.
    pub fn cross_check(&self, outputs: &std::collections::BTreeMap<String, f64>) -> Vec<String> {
        let mut bad = Vec::new();
        for (name, variation, batch) in &self.batches {
            let r = analyse_yield(batch.len(), variation, self.seed, CODES);
            for (what, want) in [
                ("quick_pass", r.quick_pass),
                ("full_pass", r.full_pass),
                ("escapes", r.escapes),
            ] {
                let key = format!("{name}/{what}");
                let got = outputs.get(&key).copied();
                if got != Some(want as f64) {
                    bad.push(format!("{key}: screen {got:?}, analyse_yield {want}"));
                }
            }
        }
        bad
    }
}
